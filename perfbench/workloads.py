"""The benchmark's workloads: seeded inputs, the op each one times, and the
checks every op's output must pass.

Each workload builds a pool of ops from its seed.  A run repeats the pool in
whole passes, so every sample count, and with it every percentile rank, is
fixed by the run length alone.  Ops look library functions up on their
module when they run, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from rotnorm import bounds, catalog, circle, coset, groups, lattice


class CheckFailed(Exception):
    """An op's output broke one of the workload's checks."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # Verifies the output of `run` and returns its JSON-ready summary.
    check: Callable[[object], object]
    # Costlier checks, run on the op's first output only: later outputs must
    # match that one's digest, which carries the verdict over.
    deep_check: Callable[[object], None] | None = None


def bundle(kind: str, jobs: "list[Op]", size: int) -> "list[Op]":
    """Ops of `size` consecutive jobs each, timed as one call.

    Jobs of a few milliseconds are timed in bundles: on a shared host one
    lost time slice moves such a job by half its length, and the median of
    a pool of them jumps with the share of jobs that lose one.
    """
    def make(part):
        deep = [op.deep_check for op in part]
        return Op(f"{kind}x{len(part)}",
                  lambda: [op.run() for op in part],
                  lambda outs: [op.check(o) for op, o in zip(part, outs)],
                  None if not any(deep) else
                  lambda outs: [d(o) for d, o in zip(deep, outs) if d])
    return [make(jobs[i:i + size]) for i in range(0, len(jobs), size)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Seconds one pass of the pool takes on the reference host (2 vCPU,
    # Python 3.11, pure kernels, Fraction) in its slower state; a run makes
    # seconds / pass_s passes, so a faster program measures the same work
    # in less time.
    pass_s: float
    params: dict
    build: Callable[[random.Random], "tuple[list[Op], list[Op]]"]


# ---------------------------------------------------------------------------
# defect ops (circle workload): a fixed chunk of defect trials.
# ---------------------------------------------------------------------------

DEFECT_OPS = 40
DEFECT_TRIALS = 20
DEFECT_LIMITS = {"left_mult": 1, "right_mult": 1, "product": 1,
                 "inverse_sum": 1, "commutator": 3, "basepoint_change": 1}


def _check_defect(seed, report):
    expect(report["seed"] == seed and report["trials"] == DEFECT_TRIALS,
           "report does not echo its seed and trial count")
    expect(report["violations"] == 0, f"{report['violations']} violations")
    expect(set(report["max_observed"]) == set(DEFECT_LIMITS), "wrong maxima keys")
    for name, limit in DEFECT_LIMITS.items():
        value = report["max_observed"][name]
        expect(0 <= value < limit, f"{name} maximum {value} not below {limit}")
    return report


def _defect_op(seed: int) -> Op:
    return Op("defect",
              lambda: circle.defect_experiment(seed, DEFECT_TRIALS),
              lambda report: _check_defect(seed, report))


def build_defect(rng):
    return [_defect_op(rng.getrandbits(31)) for _ in range(DEFECT_OPS)], []


# ---------------------------------------------------------------------------
# loop ops (circle workload): build two loops, refine, compose, read mu.
# ---------------------------------------------------------------------------

LOOP_WINDINGS = range(-2, 3)
LOOP_REPEATS = 2
LOOP_MAX_DISP = Fraction(1, 8)


def _loops_run(seed, w1, w2, p):
    rng = random.Random(seed)
    F = circle.refine(circle.random_based_loop(rng, w1), LOOP_MAX_DISP)
    G = circle.refine(circle.random_based_loop(rng, w2), LOOP_MAX_DISP)
    H = circle.compose(F, G)
    return circle.mu(F, p), circle.mu(G, p), circle.mu(H, p), len(H.times)


def _check_loops(w1, w2, out):
    mu_f, mu_g, mu_h, samples = out
    for value in (mu_f, mu_g, mu_h):
        expect(Fraction(value).denominator == 1, f"mu {value} is not an integer")
    expect((mu_f, mu_g) == (w1, w2), f"mu {(mu_f, mu_g)} != windings {(w1, w2)}")
    expect(mu_h == mu_f + mu_g, f"mu(FG) = {mu_h} != {mu_f} + {mu_g}")
    return {"windings": [w1, w2], "mu": [mu_f, mu_g, mu_h], "samples": samples}


def _loops_op(seed, w1, w2, p) -> Op:
    return Op(f"loops|{abs(w1)}{abs(w2)}",
              lambda: _loops_run(seed, w1, w2, p),
              lambda out: _check_loops(w1, w2, out))


def build_loops(rng):
    # Every winding pair LOOP_REPEATS times: the winding sets the number of
    # frames, which sets the cost, so each seed does the same mix of work.
    pairs = [(a, b) for a in LOOP_WINDINGS for b in LOOP_WINDINGS] * LOOP_REPEATS
    rng.shuffle(pairs)
    return [
        _loops_op(rng.getrandbits(31), w1, w2, Fraction(rng.randint(0, 63), 64))
        for w1, w2 in pairs
    ], []


# ---------------------------------------------------------------------------
# lattice ops (coset-groups workload): normalize, theta, theta_sup, bounds.
# ---------------------------------------------------------------------------

COSET_EPS = Fraction(1, 2)
COSET_OFFSETS = 16
# The lattices are a fixed panel and the seed varies everything else: how
# each lattice is presented, the theta offsets and the manifold contexts.
# theta_sup costs from 1 to ~1,400 theta calls across lattices of the same
# size and determinant, so random lattices would make each seed measure a
# different amount of work.  Full-rank lattices are given as HNF bases, the
# form normalize must return.
COSET_FULL_RANK = (
    # The costliest m = 2 case, six times (each presented and offset
    # differently), so that the p95 tail falls near the middle of its samples
    # rather than between two lattices.
    *(((1, 9), (0, 29)),) * 6,
    ((1, 15), (0, 26)),
    ((9, 2), (0, 3)),
    ((6, 1), (0, 3)),
    ((1, 7), (0, 11)),
    ((7, 1), (0, 2)),
    ((3, 2), (0, 3)),
    ((2, 1), (0, 3)),
    ((1, 2), (0, 5)),
    ((1, 1), (0, 4)),
    ((3, 0), (0, 4)),
    ((10, 0), (0, 1)),
    ((3, 1, 0), (0, 2, 0), (0, 0, 1)),
    ((2, 3, 0), (0, 4, 0), (0, 0, 1)),
    ((1, 4, 0), (0, 6, 0), (0, 0, 1)),
    ((1, 0, 5), (0, 1, 0), (0, 0, 6)),
    ((2, 0, 1), (0, 1, 1), (0, 0, 2)),
    ((2, 0, 0), (0, 1, 3), (0, 0, 4)),
    ((1, 2, 0), (0, 3, 0), (0, 0, 1)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 1)),
)
# Rank-deficient lattices (m = 2, 3, 4) as generating sets.
COSET_DEFICIENT = (
    ((1, 2),), ((2, 3),), ((3, -1),), ((0, 4),), ((5, 1),), ((2, -4),),
    ((1, 1),),
    ((1, 2, 0),), ((1, 0, 2), (0, 1, 3)), ((2, 1, 1), (0, 3, 1)), ((1, 1, 1),),
    ((0, 2, 5),), ((3, 0, 1), (1, 1, 0)), ((1, -1, 2), (2, 0, 1)),
    ((1, 1, 1, 1),), ((1, 0, 0, 2), (0, 1, 0, 3), (0, 0, 1, 4)),
    ((2, 1, 0, 1), (0, 1, 3, 1)), ((1, 2, 3, 4),),
    ((1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0)), ((3, 1, 0, 0), (0, 0, 1, 2)),
)
# Deficient jobs take 1-12 ms each, so they run in bundles (see `bundle`).
COSET_DEFICIENT_BUNDLE = 10
INF = float("inf")


def _in_lattice(A, v) -> bool:
    """Integer membership of v by back-substitution on A's echelon basis."""
    w = list(v)
    if any(Fraction(x).denominator != 1 for x in w):
        return False
    for row, p in zip(A.hnf_basis, A.pivots):
        c, r = divmod(w[p], row[p])
        if r:
            return False
        w = [a - c * b for a, b in zip(w, row)]
    return not any(w)


def _coset_run(gens, m, offsets, n):
    A = lattice.normalize(gens, m)
    info = lattice.quotient_info(A)
    cosets = [coset.AffineCoset.build(A, x) for x in offsets]
    nearest = [coset.theta(z) for z in cosets]
    sup = coset.theta_sup(A, COSET_EPS)
    ctx = bounds.ManifoldContext(n=n, m=m)
    ledger = bounds.relation_close(bounds.diameter_ledger(ctx, info))
    return A, info, cosets, nearest, sup, ledger, bounds.verdict(ctx, A)


def _check_coset(hnf, full, m, offsets, n, out):
    A, info, cosets, nearest, sup, ledger, verdict = out
    expect(A.hnf_basis == hnf, f"normalize gave {A.hnf_basis}, not {hnf}")
    expect((A.rank == m) == full, f"rank {A.rank} in dimension {m}")
    thetas = []
    for x, z, nd in zip(offsets, cosets, nearest):
        expect(_in_lattice(A, [a - b for a, b in zip(z.offset, x)]),
               f"coset offset {z.offset} left {x} + A")
        expect(nd.theta_points, "theta returned no attaining point")
        for pt in nd.theta_points:
            expect(max(abs(c) for c in pt) == nd.theta,
                   f"point {pt} does not attain theta {nd.theta}")
            expect(_in_lattice(A, [a - b for a, b in zip(pt, x)]),
                   f"point {pt} is not in {x} + A")
        rep = coset.canonical_rep(z) if full else z.offset
        expect(nd.theta <= max(abs(c) for c in rep),
               f"theta {nd.theta} above the representative {rep}")
        thetas.append([nd.theta, nd.theta_points])
    lo, hi = sup
    if full:
        expect(lo <= hi <= Fraction(int(info.k), 2), f"theta_sup {sup} out of order")
        expect(hi - lo <= COSET_EPS, f"theta_sup {sup} wider than {COSET_EPS}")
        expect(all(nd.theta <= hi for nd in nearest), "a theta exceeds theta_sup")
    else:
        expect(lo == hi == INF, f"rank-deficient theta_sup {sup} is finite")
    ledger.check()
    rule = ("Unbounded" if A.rank < m
            else "Unknown" if n in (2, 4) else "Bounded")
    expect(verdict.status.value == rule, f"verdict {verdict.status.value} != {rule}")
    return {"hnf": A.hnf_basis, "info": info.to_json(), "theta": thetas,
            "sup": list(sup), "ledger": ledger.to_json(),
            "verdict": verdict.to_json()}


def _coset_op(rng, base, full) -> Op:
    m = len(base[0])
    gens = _presentation(rng, base)
    # Full-rank bases are HNFs already; a deficient set's HNF must not
    # depend on its presentation.
    hnf = base if full else lattice.normalize(base, m).hnf_basis
    offsets = []
    for _ in range(COSET_OFFSETS):
        den = rng.choice((1, 2, 3, 4, 6, 8))
        offsets.append(tuple(Fraction(rng.randint(-4 * den, 4 * den), den)
                             for _ in range(m)))
    n = rng.choice((2, 3, 4, 5, 6, 7))
    return Op(f"coset|{'full' if full else 'deficient'}{m}",
              lambda: _coset_run(gens, m, offsets, n),
              lambda out: _check_coset(hnf, full, m, offsets, n, out))


def _presentation(rng, base):
    """Another generating set of the lattice spanned by `base`: unimodular
    row operations, a shuffle, sign flips and one redundant generator."""
    rows = [list(r) for r in base]
    if len(rows) > 1:
        for _ in range(2 * len(rows)):
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    rows = [[-a for a in r] if rng.random() < 0.5 else r for r in rows]
    coeffs = [rng.randint(-2, 2) for _ in base]
    rows.append([sum(c * r[j] for c, r in zip(coeffs, base))
                 for j in range(len(base[0]))])
    return rows


def build_coset(rng):
    ops = [_coset_op(rng, base, True) for base in COSET_FULL_RANK]
    ops += bundle("coset|deficient",
                  [_coset_op(rng, base, False) for base in COSET_DEFICIENT],
                  COSET_DEFICIENT_BUNDLE)
    once = [_fixture_op(name) for name in catalog.list_fixtures()]
    return ops, once


def _check_fixture(name, report):
    expect(report["name"] == name and report["ok"] is True,
           f"catalog fixture {name} does not check clean")
    return report


def _fixture_op(name) -> Op:
    return Op("fixture",
              lambda: catalog.check_fixture(name),
              lambda report: _check_fixture(name, report))


# ---------------------------------------------------------------------------
# group ops (coset-groups workload): closure, cl, S_G and the zeta norm.
# ---------------------------------------------------------------------------

# Sizes set where the percentiles of the coset-groups workload fall: the
# median inside the A5 jobs and S4 bundles (20-40 ms each), the p95 tail
# inside the costliest lattice's jobs.
GROUP_COUNTS = {"s6": 1, "s5": 3, "s7-zeta": 4, "a5": 20, "s4": 40, "small": 20}
# Jobs per op for the kinds whose single jobs take a few milliseconds and
# would otherwise fill the middle of the pool.
GROUP_BUNDLES = {"s4": 8}
CHECK_AXIOMS_MAX = 60


def _relabel(rng, perms):
    """The same permutations after a seeded renaming of the points."""
    n = len(perms[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    inv = groups.inverse(tuple(sigma))
    return [groups.compose(groups.compose(tuple(sigma), p), inv) for p in perms]


def _symmetric_gens(rng, n):
    return _relabel(rng, [(1, 0) + tuple(range(2, n)),
                          tuple(range(1, n)) + (0,)])


def _random_pair(rng, degrees, accept):
    while True:
        d = rng.choice(degrees)
        pair = []
        for _ in range(2):
            p = list(range(d))
            rng.shuffle(p)
            pair.append(tuple(p))
        G = groups.generate_group(pair)
        if accept(G.order):
            return pair, G


def _cycle_lengths(p) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(p)):
        if start not in seen:
            j, length = start, 0
            while j not in seen:
                seen.add(j)
                j = p[j]
                length += 1
            lengths.append(length)
    return lengths


def _cycles(p) -> int:
    return len(_cycle_lengths(p))


def _group_run(gens, g, full):
    G = groups.generate_group(gens)
    if not full:
        return G, None, None, groups.zeta_norm(G, g)
    cl = groups.commutator_length(G)
    return G, cl, groups.weakly_simple_set(G), groups.zeta_norm(G, g)


def _check_group(kind, order, g, out):
    G, cl, ws, zeta = out
    expect(G.order == order, f"{kind}: order {G.order} != {order}")
    expect(zeta.values[g] == 1 and zeta.values[groups.inverse(g)] == 1,
           f"{kind}: zeta of its own generator is not 1")
    summary = {"order": G.order, "g": list(g), "zeta": zeta.to_json()}
    if kind == "s7-zeta":
        expect(all(zeta.values[h] == 7 - _cycles(h) for h in G.elements),
               "s7-zeta: transposition norm is not 7 - #cycles")
    if cl is None:
        return summary
    s_g, classification = ws
    expect(G.identity in s_g, f"{kind}: S_G misses the identity")
    expect(classification == ("simple" if len(s_g) == 1 else
                              "not weakly simple" if len(s_g) == G.order
                              else "weakly simple"),
           f"{kind}: classification {classification} with |S_G| = {len(s_g)}")
    finite = sum(1 for v in cl.values.values() if v != INF)
    if kind in ("s4", "s5", "s6"):
        expect(classification == "weakly simple" and len(s_g) == order // 2,
               f"{kind}: S_G is not the alternating group")
        expect(finite == order // 2, f"{kind}: cl finite off [G, G]")
    if kind == "a5":
        expect(classification == "simple", "a5: not simple")
        expect(all(v == 1 for h, v in cl.values.items() if h != G.identity),
               "a5: cl is not 1 off the identity")
    summary.update(cl=cl.to_json(), s_g=len(s_g), classification=classification)
    return summary


def _check_axioms(out):
    """Exhaustive norm axioms, on tables of order <= CHECK_AXIOMS_MAX."""
    G, cl, _, zeta = out
    if G.order <= CHECK_AXIOMS_MAX:
        for table in (cl, zeta):
            if table is not None:
                table.check_axioms()


def _group_op(kind, gens, order, g, full=True) -> Op:
    return Op(kind,
              lambda: _group_run(gens, g, full),
              lambda out: _check_group(kind, order, g, out),
              _check_axioms)


def _element(rng, G, k):
    """A seeded element of G's k-th most common cycle type (identity
    excluded, k taken modulo the number of types).

    The cost of zeta_norm grows with the class of g, so ops cycle through
    the types in a fixed order: every seed gets the same mix of classes and
    only the elements within them vary.
    """
    by_type = {}
    for h in G.elements:
        t = tuple(sorted(n for n in _cycle_lengths(h) if n > 1))
        if t:
            by_type.setdefault(t, []).append(h)
    types = sorted(by_type, key=lambda t: (-len(by_type[t]), t))
    return rng.choice(by_type[types[k % len(types)]])


def build_groups(rng):
    ops = []
    for n, kind in ((6, "s6"), (5, "s5")):
        for k in range(GROUP_COUNTS[kind]):
            gens = _symmetric_gens(rng, n)
            g = _element(rng, groups.generate_group(gens), k)
            ops.append(_group_op(kind, gens, factorial(n), g))
    for _ in range(GROUP_COUNTS["s7-zeta"]):
        i, j = rng.sample(range(7), 2)
        t = list(range(7))
        t[i], t[j] = j, i
        ops.append(_group_op("s7-zeta", _symmetric_gens(rng, 7), 5040,
                             tuple(t), full=False))
    for kind, degrees, accept in (("a5", (5,), lambda o: o == 60),
                                  ("s4", (4,), lambda o: o == 24),
                                  ("small", (4, 5, 6), lambda o: 2 <= o <= 12)):
        jobs = []
        for k in range(GROUP_COUNTS[kind]):
            pair, G = _random_pair(rng, degrees, accept)
            jobs.append(_group_op(kind, pair, G.order, _element(rng, G, k)))
        ops += bundle(kind, jobs, GROUP_BUNDLES[kind]) if kind in GROUP_BUNDLES else jobs
    return ops, []


def _mixed(*builders):
    """One pool holding every builder's ops, in seeded order."""
    def build(rng):
        ops, once = [], []
        for builder in builders:
            more, more_once = builder(rng)
            ops += more
            once += more_once
        rng.shuffle(ops)
        return ops, once
    return build


# Two workloads, not four: on the reference host the speed of the machine
# switches between two levels some 40% apart for tens of seconds at a time,
# so a run must last about a minute for ten runs to agree, and the run budget
# allows two such workloads.  Each mixes the jobs of one side of the library;
# neither runs the other's code, so each bypasses the other's optimizations.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "circle",
            "defect trials (PL map construction, endpoint frames read) mixed "
            "with loop building through refine, compose and mu; no coset or "
            "group code",
            6.0, {"defect_ops": DEFECT_OPS, "trials_per_op": DEFECT_TRIALS,
                  "loop_ops": len(LOOP_WINDINGS) ** 2 * LOOP_REPEATS,
                  "windings": [LOOP_WINDINGS.start, LOOP_WINDINGS.stop - 1],
                  "max_disp": str(LOOP_MAX_DISP)},
            _mixed(build_defect, build_loops)),
        Workload(
            "coset-groups",
            "lattice jobs (CVP kernel, theta_sup boxes, bounds, verdict) mixed "
            "with group jobs (closure, O(|G|^2) commutator set, BFS norms); no "
            "circle code",
            12.0, {"full_rank": len(COSET_FULL_RANK),
                  "deficient": len(COSET_DEFICIENT),
                  "deficient_per_op": COSET_DEFICIENT_BUNDLE,
                  "offsets_per_job": COSET_OFFSETS, "eps": str(COSET_EPS),
                  **GROUP_COUNTS, "max_order": 720,
                  "jobs_per_op": GROUP_BUNDLES},
            _mixed(build_coset, build_groups)),
    )
}
