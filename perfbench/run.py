"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` as
plain source.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced pass (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
if not (SRC / "rotnorm" / "__init__.py").is_file():
    # The benchmark measures the checkout's own source, never an installed copy.
    raise ImportError(f"no rotnorm sources under {SRC}: run from a full checkout")
sys.path[:0] = [str(ROOT), str(SRC)]

import rotnorm  # noqa: E402
from rotnorm import _rat  # noqa: E402

from perfbench import layers, spans, stats, workloads  # noqa: E402

# Cold starts per run, spread over the passes so that they meet the same
# host conditions as the ops; one more start before them is not counted
# (it may compile bytecode).
SETUP_STARTS = 12
_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import rotnorm.cli\n"
    "t1 = time.perf_counter()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), t1 - t0)\n"
)
CALIBRATION_LOOPS = 200_000


def cold_start(env) -> tuple[float, float]:
    """One fresh interpreter: (wall time from spawn to the end of
    ``import rotnorm.cli``, the in-process import time alone)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    done, import_s = (float(v) for v in proc.stdout.split())
    return done - start, import_s


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop (median of 5): a reading of
    host speed kept next to the metrics, never applied to them."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return stats.median(samples) * 1000


class Runner:
    """Runs ops, times each call, checks each output against the workload's
    checks and against the digest of its first run."""

    def __init__(self, ops, once):
        self.ops = ops
        self.once = once
        self.expected = [None] * (len(ops) + len(once))
        self.attempted = 0
        self.problems: list[str] = []

    def run(self, index: int, op, tracer=None, op_id=0):
        """Run one op; returns its wall time in seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.problems.append(f"{op.label}[{index}] raised {exc!r}")
            return time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.op = None
        elapsed = time.perf_counter() - start
        try:
            if self.expected[index] is None and op.deep_check is not None:
                op.deep_check(out)
            digest = stats.digest(op.check(out))
        except Exception as exc:  # CheckFailed, or an assertion in the library
            self.problems.append(f"{op.label}[{index}] failed its check: {exc!r}")
            return elapsed
        if self.expected[index] is None:
            self.expected[index] = digest
        elif self.expected[index] != digest:
            self.problems.append(f"{op.label}[{index}] output digest changed")
        return elapsed

    def one_pass(self, tracer=None) -> list[float]:
        """Run every op of the pool once; returns their wall times."""
        return [self.run(i, op, tracer, i) for i, op in enumerate(self.ops)]

    def run_once(self) -> None:
        """Run the once-per-run ops (they also load what ops load lazily)."""
        for j, op in enumerate(self.once):
            self.run(len(self.ops) + j, op)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def digest(self) -> str:
        return stats.digest(self.expected)


def end_to_end(times) -> tuple[dict, str]:
    p, tail_s, beyond = stats.tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (stats.median(times) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, f"p{p:g}, {beyond} samples beyond, {len(times)} samples"


def environment(workload, seed, passes) -> dict:
    return {
        "backend": rotnorm.BACKEND,
        "rational": f"{_rat.Q.__module__}.{_rat.Q.__name__}",
        "gmpy2": _rat.HAVE_GMPY2,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "params": workload.params,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = workloads.WORKLOADS[args.workload]
    ops, once = workload.build(random.Random(f"{workload.name}/{args.seed}"))
    # Untraced passes; a traced run spends half its time on them.
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = max(1, round(seconds / workload.pass_s))
    print(f"env {json.dumps(environment(workload, args.seed, passes), sort_keys=True)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cold_start(env)
    runner = Runner(ops, once)
    runner.run_once()
    calibration_before = calibrate()
    times, starts = [], []
    for _ in range(passes):
        times += runner.one_pass()
        starts += [cold_start(env) for _ in range(-(-SETUP_STARTS // passes))]
    e2e, tail_note = end_to_end(times)
    e2e["setup_s"] = (stats.median([wall for wall, _ in starts]), "s")
    if args.trace:
        import_s = stats.median([imp for _, imp in starts])
        metrics = traced_metrics(runner, workload, e2e["ops_per_s"][0], import_s)
    else:
        metrics = e2e
    calibration_after = calibrate()

    for name, (value, unit) in sorted(e2e.items()):
        note = f"  ({tail_note})" if name == "op_tail_ms" else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    print(f"metric failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    print(f"calibration before_ms = {calibration_before:.3f} "
          f"after_ms = {calibration_after:.3f}")
    print(f"digest sha256:{runner.digest()}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def traced_metrics(runner, workload, untraced_ops_per_s, import_s) -> dict:
    """One traced pass over the pool, then the fixed kernel cases."""
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        times = runner.one_pass(tracer)
    finally:
        tracer.restore()
    traced_ops_per_s = len(times) / sum(times)
    values = layers.layer_values(tracer)
    cases = Runner(layers.kernel_cases(), [])
    for op, seconds in zip(cases.ops, cases.one_pass()):
        values[f"kernels.case.{op.label}"] = seconds
    runner.attempted += cases.attempted
    runner.problems += cases.problems
    values["cli.import_s"] = import_s
    values["trace.overhead_ops_per_s"] = untraced_ops_per_s - traced_ops_per_s
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}.jsonl")
    print(f"trace {len(tracer)} spans, traced ops_per_s = {traced_ops_per_s:.6g}")
    units = {spec["name"]: spec["unit"] for spec in layers.metric_specs()}
    return {name: (values[name], units[name]) for name in units}


if __name__ == "__main__":
    sys.exit(main())
