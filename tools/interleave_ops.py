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
``stats.digest(op.check(out))``, must equal that side's digest of the same
op in the first round: on the first op that raises, fails its check or
changes its output between rounds, the script names it on stderr and exits
1.  An op whose digest differs between the two sides is still timed, so a
change that alters an output by design can be timed too; the report lists
each such label with the number of runs that differed under ``differs``,
the labels go to stderr, and the script exits 1.  The deeper checks that
``run.py`` makes on first outputs are left to it.

Stdout is one JSON document: per op label and over all ops, the pairs, the
median of the per-pair time ratios change/parent with their quartiles
(``statistics.quantiles(method="inclusive")``) and the distribution-free
95% interval of that median (``median_interval``, the sign test's), the
pairs in which the change was faster, each side's total CPU time
(``parent_ns``, ``change_ns``) and their ratio, then ``differs``.  Each
label also gets ``median_ci95_family``, its interval at level 1 - 0.05/L
for the report's L labels: with ten labels, some 95% interval of a run
excludes 1 by chance even on identical code, while the L family-wise
intervals all hold their medians with probability at least 95%.  The
per-label totals add up to the overall ones, so the total ratio of a
family of labels (all ``loops|...`` ops, say) is read from their sums.
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
from collections import Counter
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


def median_interval(values: list[float], family: int = 1):
    """The distribution-free interval of the median at level
    1 - 0.05/family, or None if there are too few values for it (fewer
    than 6 at family = 1).

    With the values sorted as x_(1) <= ... <= x_(n) and B ~ Bin(n, 1/2),
    [x_(k), x_(n+1-k)] holds the median with probability at least
    1 - 2 P(B < k), whatever the distribution (binomial order statistics,
    the interval of the sign test).  k is the largest with
    P(B < k) <= 1/(40 family), found on exact integers:
    40 family sum_{i<k} C(n, i) <= 2^n.  At family = L the L intervals of
    one report all hold their medians with probability at least 95%
    (Bonferroni).
    """
    xs = sorted(values)
    n = len(xs)
    k, below, term = 0, 0, 1  # below = sum_{i<k} C(n, i), term = C(n, k)
    while 40 * family * (below + term) <= 2 ** n:
        below += term
        term = term * (n - k) // (k + 1)
        k += 1
    return [xs[k - 1], xs[n - k]] if k else None


def _rounded(interval):
    return interval and [round(v, 4) for v in interval]


def summarize(ratios: list[float], parent_ns: int, change_ns: int,
              family: int | None = None) -> dict:
    """The median per-pair ratio change/parent with its quartiles and its
    95% interval, the pairs the change was faster in, and the two total
    times with their ratio.  With ``family`` = L, the number of labels of
    the report, also the interval at level 1 - 0.05/L,
    ``median_ci95_family``."""
    q1, med, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                   if len(ratios) > 1 else ratios * 3)
    family_ci = ({"median_ci95_family": _rounded(
        median_interval(ratios, family))} if family else {})
    return {
        "pairs": len(ratios),
        "median_ratio": round(med, 4),
        "quartiles": [round(q1, 4), round(q3, 4)],
        "median_ci95": _rounded(median_interval(ratios)),
        **family_ci,
        "change_faster": f"{sum(r < 1 for r in ratios)}/{len(ratios)}",
        "parent_ns": parent_ns,
        "change_ns": change_ns,
        "total_ratio": round(change_ns / parent_ns, 4),
    }


class Mismatch(Exception):
    """An op raised, failed its check or changed its output between rounds,
    or the two sides built different op pools."""


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
    differs = Counter()  # label -> runs whose digests differ between sides
    for j, (p_op, c_op) in enumerate(zip(parent.once, change.once)):
        label = f"once {p_op.label}[{j}]"
        got = _pair(sides, ("parent", "change"),
                    {"parent": p_op, "change": c_op}, label)
        differs[f"once {p_op.label}"] += got["parent"][1] != got["change"][1]
    expected = [None] * len(parent.ops)
    times = {}  # label -> [(parent ns, change ns)]
    for r in range(rounds):
        for i, (p_op, c_op) in enumerate(zip(parent.ops, change.ops)):
            label = f"{p_op.label}[{i}]"
            order = ("parent", "change") if (r + i) % 2 == 0 else (
                "change", "parent")
            got = _pair(sides, order, {"parent": p_op, "change": c_op}, label)
            digests = (got["parent"][1], got["change"][1])
            if expected[i] is None:
                expected[i] = digests
            elif expected[i] != digests:
                raise Mismatch(f"{label}: output changed in round {r}")
            differs[p_op.label] += digests[0] != digests[1]
            times.setdefault(p_op.label, []).append(
                (got["parent"][0], got["change"][0]))

    def entry(pairs, family=None):
        return summarize([c / p for p, c in pairs],
                         sum(p for p, _ in pairs), sum(c for _, c in pairs),
                         family)

    every = [pair for pairs in times.values() for pair in pairs]
    return {"overall": entry(every),
            "per_label": {label: entry(times[label], len(times))
                          for label in sorted(times)},
            "differs": {label: n for label, n in sorted(differs.items()) if n}}


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
            "quartiles by statistics.quantiles(method='inclusive'); "
            "median_ci95 from binomial order statistics (sign test), null "
            "below 6 pairs; per label, median_ci95_family at level "
            "1 - 0.05/L for the L labels (Bonferroni), null where too few "
            "pairs"),
        **report,
    }, indent=1))
    if report["differs"]:
        print("interleave_ops: the change's output differs on "
              + ", ".join(report["differs"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
