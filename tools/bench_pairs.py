"""Run the benchmark as alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --seeds 0 20251 --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two clean checkouts (the parent by
``git archive`` of the commit before the change, the change by copying its
tracked and new files).  The benchmark's command, run length, workloads and
end-to-end metrics (with ``better`` and ``bound``) are read from
CHANGE_DIR's ``BENCHMARK.json``, which must equal PARENT_DIR's; neither
that file nor anything under ``perfbench/`` is written.

Each pair runs every workload on every seed, in the order the file lists the
workloads and the seeds are given, both sides back to back: the parent first
in even pairs, the change first in odd ones.  Every run compiles the library
from source (``PYTHONDONTWRITEBYTECODE=1``), so no run reads bytecode that an
earlier one wrote.

The output holds ``summary`` (per workload, seed and metric: the medians,
the change's relative difference, the parent's quartile spread from
``statistics.quantiles(method="inclusive")``, the pairs the change won, ties
counting for neither side, and ``gain``: at least ``GAIN_WINS`` of the pairs
won, and a median better by more than both the parent's quartile spread and
``GAIN_FLOOR`` of its median), ``unresolved`` (the metrics whose
parent spread exceeds the bound, unless every change run beats every parent
run) and ``runs``.  A run that fails, reports an
incorrect result or prints another digest than the first parent run of its
workload and seed is named on stderr, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Share of the pairs the change must win for a gain: 9 of 10.
GAIN_WINS = 0.9
#: Least move of the median for a gain, as a share of the parent median.
#: Code layout alone moves a metric: in BENCH_35.json `coset-groups`
#: `peak_rss_mb` read 0.7% and 1.2% lower, winning 10 of 10 pairs, though
#: that workload ran none of the changed code.
GAIN_FLOOR = 0.02


def _better(a, b, better: str) -> bool:
    """Whether value a beats value b; equal values beat neither."""
    return a < b if better == "lower" else a > b


def summarize(runs, metrics, pairs: int):
    """(summary, unresolved) of the runs, for the end-to-end
    ``metrics`` of BENCHMARK.json (dicts with name, better and bound).

    ``runs`` are run records with the keys workload, seed, pair, side and
    last_line; records without metrics (failed runs) are left out, and a
    metric is summarised only where both sides have every pair.
    """
    values = {}
    for run in runs:
        got = (run.get("last_line") or {}).get("metrics", {})
        for name, entry in got.items():
            key = (f"{run['workload']} seed {run['seed']}", name, run["side"])
            values.setdefault(key, {})[run["pair"]] = entry["value"]
    summary, unresolved = {}, {}
    for group in dict.fromkeys(key[0] for key in values):
        for spec in metrics:
            name, better, bound = spec["name"], spec["better"], spec["bound"]
            parent = values.get((group, name, "parent"), {})
            change = values.get((group, name, "change"), {})
            if not len(parent) == len(change) == pairs:
                continue
            p = [parent[i] for i in range(pairs)]
            c = [change[i] for i in range(pairs)]
            p_med, c_med = statistics.median(p), statistics.median(c)
            q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
            iqr = q3 - q1
            iqr_rel = iqr / p_med if p_med else math.inf
            wins = sum(_better(ci, pi, better) for ci, pi in zip(c, p))
            gain = (wins >= math.ceil(GAIN_WINS * pairs)
                    and _better(c_med, p_med, better)
                    and abs(c_med - p_med) > max(iqr, GAIN_FLOOR * abs(p_med)))
            rel = (c_med - p_med) / p_med if p_med else math.inf
            summary.setdefault(group, {})[name] = {
                "parent_median": round(p_med, 6),
                "change_median": round(c_med, 6),
                "change_vs_parent": round(rel, 4),
                "parent_iqr": round(iqr, 6),
                "parent_iqr_rel": round(iqr_rel, 3),
                "change_wins": f"{wins}/{pairs}",
                "gain": gain,
            }
            separated = all(_better(ci, pi, better) for ci in c for pi in p)
            if iqr_rel > bound and not separated:
                unresolved.setdefault(group, []).append(name)
    return summary, unresolved


def problems(runs) -> list[str]:
    """One line per failed, incorrect or digest-mismatched run."""
    out, first = [], {}
    for run in runs:
        if run["side"] == "parent" and run["digest"]:
            first.setdefault((run["workload"], run["seed"]), run["digest"])
    for run in runs:
        name = (f"{run['workload']} seed {run['seed']} pair {run['pair']} "
                f"{run['side']}")
        line = run.get("last_line")
        if run["returncode"] != 0 or line is None:
            out.append(f"{name}: failed (exit {run['returncode']})")
        elif not line.get("correct") or line.get("failed"):
            out.append(f"{name}: incorrect ({line.get('failed')} failed ops)")
        elif run["digest"] != first.get((run["workload"], run["seed"])):
            out.append(
                f"{name}: digest {run['digest']} differs from the parent's")
    return out


def run_one(side_dir: Path, command, workload: str, seed: int, seconds: int):
    """One benchmark run in side_dir: (returncode, digest, last JSON line,
    wall seconds); a run past its timeout has returncode None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=side_dir, env=env, capture_output=True,
                              text=True, timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired:
        return None, None, None, time.monotonic() - start
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")),
                  None)
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    return proc.returncode, digest, last, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10,
                        help="At least 2: the summary takes quartiles.")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 20251])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="",
                        help="What the change does, kept as 'change'.")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if spec != json.loads((args.parent / "BENCHMARK.json").read_text()):
        parser.error("the two sides declare different benchmarks")
    command, seconds = spec["command"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for seed in args.seeds:
                for side in order:
                    code, digest, last, wall = run_one(
                        getattr(args, side), command, workload, seed, seconds)
                    runs.append({
                        "workload": workload, "seed": seed, "pair": pair,
                        "side": side, "trace": 0,
                        "ran_first": side == order[0], "digest": digest,
                        "wall_s": round(wall, 2), "returncode": code,
                        "last_line": last,
                    })
                    print(f"pair {pair} {workload} seed {seed} {side}: "
                          f"exit {code}, {wall:.1f} s", file=sys.stderr)

    summary, unresolved = summarize(runs, spec["end_to_end"], args.pairs)
    shown = " ".join([*command, "--workload W --seed N",
                      f"--seconds {seconds} --trace 0"])
    seeds = ", ".join(map(str, args.seeds))
    args.out.write_text(json.dumps({
        "change": args.note,
        "command": shown,
        "host": (f"{os.cpu_count()} vCPU {platform.system()} "
                 f"{platform.machine()}, Python {platform.python_version()}"),
        "sides": {"parent": "the commit before this change",
                  "change": "this change"},
        "protocol": (
            f"{args.pairs} pairs per workload and seed ({seeds}), parent "
            "and change back to back, parent first in even pairs; every run "
            "with PYTHONDONTWRITEBYTECODE=1.  Quartiles by "
            "statistics.quantiles(method='inclusive'); ties win for neither "
            "side.  'gain': the change won at least "
            f"{math.ceil(GAIN_WINS * args.pairs)} of {args.pairs} pairs and "
            "its median beats the parent's by more than the parent's "
            f"quartile spread and by more than {GAIN_FLOOR:.0%} of the "
            "parent's median.  'unresolved': parent spread over the bound, "
            "unless every change run beats every parent run."),
        "summary": summary,
        "unresolved": unresolved,
        "runs": runs,
    }, indent=1) + "\n")
    bad = problems(runs)
    for line in bad:
        print(f"bench_pairs: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
