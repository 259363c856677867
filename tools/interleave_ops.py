"""Time a parent and a change op by op, interleaved in one process.

    python3 tools/interleave_ops.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed N --rounds R

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own ``src/`` and
``perfbench/``.  Each side's op pool is built from that side's own
``perfbench/workloads.py``, seeded as ``perfbench/run.py`` seeds it
(``random.Random(f"{W}/{N}")``); nothing under either checkout is written.

Both sides' ``rotnorm`` and ``perfbench`` packages stay loaded in this
process.  Before each op, that side's entries are put into ``sys.modules``,
so what the library imports or reads at call time is its own:
``circle.nu_hat`` imports ``rotnorm.coset`` when it runs, and ``catalog``
reads its fixtures through ``importlib.resources.files("rotnorm")``.

The once-per-run ops (the catalog fixtures) run once on each side.  Then
each round runs every op of the pool once on each side, op by op; the side
that goes first alternates from op to op and from round to round.  Each op
is timed with ``time.process_time_ns``.  Its output's digest,
``stats.digest(op.check(out))``, must equal the other side's and its own
digest in the first round.  On the first op that raises, fails its check
or differs, the script names it on stderr and exits 1.  The deeper checks
that ``run.py`` makes on first outputs are left to it.

Stdout is one JSON document: per op label and over all ops, the pairs, the
median of the per-pair time ratios change/parent with their quartiles
(``statistics.quantiles(method="inclusive")``), the pairs in which the
change was faster, and the ratio of the total times.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

_PACKAGES = ("rotnorm", "perfbench")


def _ours(name: str) -> bool:
    return name.partition(".")[0] in _PACKAGES


def _install(modules: dict) -> None:
    """Make ``modules`` the only rotnorm and perfbench entries of sys.modules."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One checkout's modules and op pool."""

    def __init__(self, root: Path, workload: str, seed: int):
        _install({})
        sys.path[:0] = [str(root), str(root / "src")]
        try:
            workloads = importlib.import_module("perfbench.workloads")
            stats = importlib.import_module("perfbench.stats")
        finally:
            del sys.path[:2]
        if workload not in workloads.WORKLOADS:
            raise SystemExit(f"interleave_ops: {root} has no workload "
                             f"{workload!r}")
        self.ops, self.once = workloads.WORKLOADS[workload].build(
            random.Random(f"{workload}/{seed}"))
        self.digest = stats.digest
        self.modules = {n: m for n, m in sys.modules.items() if _ours(n)}
        loaded = Path(self.modules["rotnorm"].__file__)
        if not loaded.is_relative_to(root / "src"):
            raise SystemExit(f"interleave_ops: rotnorm came from {loaded}, "
                             f"not from {root / 'src'}")

    def run(self, op) -> tuple[int, str]:
        """(CPU nanoseconds, output digest) of one run of op."""
        _install(self.modules)
        start = time.process_time_ns()
        out = op.run()
        ns = time.process_time_ns() - start
        digest = self.digest(op.check(out))
        # keep what the op imported at call time
        self.modules.update((n, m) for n, m in sys.modules.items() if _ours(n))
        return ns, digest


def summarize(ratios: list[float], parent_ns: int, change_ns: int) -> dict:
    """The median per-pair ratio change/parent with its quartiles, the pairs
    the change was faster in, and the ratio of the totals."""
    q1, med, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                   if len(ratios) > 1 else ratios * 3)
    return {
        "pairs": len(ratios),
        "median_ratio": round(med, 4),
        "quartiles": [round(q1, 4), round(q3, 4)],
        "change_faster": f"{sum(r < 1 for r in ratios)}/{len(ratios)}",
        "total_ratio": round(change_ns / parent_ns, 4),
    }


class Mismatch(Exception):
    """An op raised, failed its check, or gave another output."""


def _pair(sides, order, op_pair, label):
    """Run one op on both sides in ``order``; {side: (ns, digest)}."""
    got = {}
    for name in order:
        try:
            got[name] = sides[name].run(op_pair[name])
        except Exception as exc:  # a raising op or a failed check
            raise Mismatch(
                f"{label} raised on the {name} side: {exc!r}") from exc
    return got


def interleave(parent: Side, change: Side, rounds: int) -> dict:
    """Run the once ops, then ``rounds`` rounds; the report, or Mismatch."""
    sides = {"parent": parent, "change": change}
    if [op.label for op in parent.ops + parent.once] != [
            op.label for op in change.ops + change.once]:
        raise Mismatch("the two sides build different op pools")
    for j, (p_op, c_op) in enumerate(zip(parent.once, change.once)):
        label = f"once {p_op.label}[{j}]"
        got = _pair(sides, ("parent", "change"),
                    {"parent": p_op, "change": c_op}, label)
        if got["parent"][1] != got["change"][1]:
            raise Mismatch(f"{label}: the change's output differs")
    expected = [None] * len(parent.ops)
    times = {}  # label -> [(parent ns, change ns)]
    for r in range(rounds):
        for i, (p_op, c_op) in enumerate(zip(parent.ops, change.ops)):
            label = f"{p_op.label}[{i}]"
            order = ("parent", "change") if (r + i) % 2 == 0 else (
                "change", "parent")
            got = _pair(sides, order, {"parent": p_op, "change": c_op}, label)
            if got["parent"][1] != got["change"][1]:
                raise Mismatch(f"{label}: the change's output differs")
            if expected[i] is None:
                expected[i] = got["parent"][1]
            elif expected[i] != got["parent"][1]:
                raise Mismatch(f"{label}: output changed in round {r}")
            times.setdefault(p_op.label, []).append(
                (got["parent"][0], got["change"][0]))

    def entry(pairs):
        return summarize([c / p for p, c in pairs],
                         sum(p for p, _ in pairs), sum(c for _, c in pairs))

    every = [pair for pairs in times.values() for pair in pairs]
    return {"overall": entry(every),
            "per_label": {label: entry(times[label]) for label in sorted(times)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent = Side(args.parent.resolve(), args.workload, args.seed)
    change = Side(args.change.resolve(), args.workload, args.seed)
    try:
        report = interleave(parent, change, args.rounds)
    except Mismatch as exc:
        print(f"interleave_ops: {exc}", file=sys.stderr)
        return 1
    finally:
        _install({})
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "host": (f"{os.cpu_count()} vCPU {platform.system()} "
                 f"{platform.machine()}, Python {platform.python_version()}"),
        "protocol": (
            "both sides in one process, op by op, the side going first "
            "alternating per op and per round; CPU time per op by "
            "time.process_time_ns; ratio = change / parent per pair; "
            "quartiles by statistics.quantiles(method='inclusive')"),
        **report,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
