"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own enumeration strategies and
compute on fractions.Fraction directly, not on the package's integer
encodings, so that agreement is a meaningful cross-check.
``oracle_theta_sup`` is the exception: it is a list-based branch-and-bound
over dyadic boxes through the library's ``theta``, kept as the interval
oracle that must contain the exact value ``coset.theta_sup`` finds by
breadth-first search.  ``oracle_sup_bfs`` is the earlier king-move
search itself, walking all 3^m - 1 moves per node with its own HNF wrap,
kept as the reference depth for the one-axis dilations of
``coset._sup_bfs``.  So are the circle composition oracles
(``oracle_diffeo_compose``, ``oracle_frame_at``, ``oracle_isotopy_compose``,
``oracle_refine``): they are the earlier lookup-per-point and Fraction-time
paths over the library's own map lookups, kept as the reference for the
exact denominators and times that ``circle.compose`` and ``circle.refine``
produce.  The lattice oracles (``oracle_smith_invariant_factors``,
``oracle_order``, ``oracle_kernel_functional``) are the earlier elimination
and Fraction back-substitution paths, kept as the reference for the integer
routines of ``lattice`` that all run on its one HNF; ``oracle_hnf`` is
the earlier batch elimination, kept as the reference for the fold of
``lattice._hnf``.
``oracle_cvp_enumerate`` is the earlier interval-and-undo CVP kernel,
kept as the reference result for ``_kernels.cvp_enumerate`` and as a node
count that the kernel never exceeds.
``oracle_relation_close`` is the earlier fixed point that re-swept every
norm relation until nothing changed, kept as the reference bounds for the
two ordered walks of ``bounds.relation_close``.  ``oracle_invariant_set``
is the earlier element-level check of a conjugation-invariant set, kept as
the reference for the class-table check of ``groups.word_norm``, and
``quotient_group`` builds G/N through the library's ``generate_group``, so
that the word norm of G/N checks ``groups.quotient_norm``.
The circle isotopy oracles work on a ``Path``, the times and every frame
of an isotopy as the test wrote it, never on the library's isotopy, which
keeps only its grid and end lifts.  ``oracle_mu`` reads a trace's rotation
angle from a path's points mod 1, where ``circle.mu`` reads the end lifts.
``norm_relation_model`` is not an oracle of a library routine: it computes, with the library's group
engine, the exact norms of a finite model of the norm relations that
``bounds.relation_close`` encodes, so that the rules are checked against
values they must bracket.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import ceil, gcd, lcm
from operator import add
from typing import NamedTuple

from rotnorm._rat import INF, Q, common
from rotnorm.bounds import FINITE, BoundLedger
from rotnorm.coset import AffineCoset, theta
from rotnorm.errors import (
    FullRank,
    InconsistentLedger,
    NotAMember,
    NotConjInvariant,
    NotSymmetric,
    ValidationError,
)
from rotnorm.groups import (
    commutator_length,
    generate_group,
    normal_closure,
    quotient_norm,
    word_norm,
)
from rotnorm.lattice import IntLattice, quotient_info


def oracle_word_lengths(elements, s, compose, identity):
    """Dijkstra-free BFS word lengths computed with plain set frontiers."""
    dist = {identity: 0}
    frontier = {identity}
    d = 0
    while frontier:
        d += 1
        nxt = set()
        for g in frontier:
            for gen in s:
                h = compose(g, gen)
                if h not in dist:
                    dist[h] = d
                    nxt.add(h)
        frontier = nxt
    return {g: dist.get(g) for g in elements}  # None = unreachable


def oracle_closure_bytes(gens, cap):
    """Breadth-first closure of bytes permutations under products, each
    product formed point by point; the reference for
    ``_kernels.closure_bytes``: the same elements in the same discovery
    order, or None past ``cap`` elements."""
    if not gens:
        return []
    n = len(gens[0])
    ident = bytes(range(n))
    index = {ident: 0}
    elems = [ident]
    head = 0
    while head < len(elems):
        cur = elems[head]
        head += 1
        for g in gens:
            prod = bytes(cur[g[i]] for i in range(n))
            if prod not in index:
                if len(elems) >= cap:
                    return None
                index[prod] = len(elems)
                elems.append(prod)
    return elems


def _mul(a, b):
    """a*b on image tuples: apply b first."""
    return tuple(a[i] for i in b)


def _inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def oracle_conjugacy_class(elements, g):
    """Sorted {h g h^-1 : h in elements}, conjugating by every element."""
    return tuple(sorted({_mul(_mul(h, g), _inv(h)) for h in elements}))


def oracle_cycle_str(p):
    """Cycle notation, fixed points omitted, identity '()': each cycle is
    collected as a list from its least point and joined; the reference for
    ``groups.cycle_str``."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def oracle_commutator_set(elements):
    """Sorted {a b a^-1 b^-1}, looping over all |G|^2 pairs."""
    out = set()
    for a in elements:
        for b in elements:
            out.add(_mul(_mul(a, b), _mul(_inv(a), _inv(b))))
    return tuple(sorted(out))


def oracle_invariant_set(G, members):
    """The sorted set of members, checked element by element: each member
    lies in G (``NotAMember``, in sorted order), then each member's inverse
    lies in the set (``NotSymmetric``), then each conjugate of a member by
    a generator of G does (``NotConjInvariant``).  The reference for the
    class-table check of ``groups.word_norm``."""
    mems = tuple(sorted({tuple(m) for m in members}))
    elements = set(G.elements)
    for s in mems:
        if s not in elements:
            raise NotAMember(f"{s} is not an element of the group")
    mset = set(mems)
    for s in mems:
        if _inv(s) not in mset:
            raise NotSymmetric(f"inverse of {s} missing from the set")
    for h in G.generators:
        for s in mems:
            if _mul(_mul(h, s), _inv(h)) not in mset:
                raise NotConjInvariant(f"{h} conjugates {s} out of the set")
    return mems


def oracle_theta(hnf_basis, pivots, offset):
    """Brute-force minimal l-infinity norm over offset + lattice.

    Uses a static coefficient box derived from the bound |y| <= |offset|
    (the offset itself is a coset point) and full cartesian enumeration —
    no pruning, no canonical representative.  The hot loop is rescaled to
    plain machine integers by the common offset denominator.
    Returns (theta, sorted attaining points) as Fractions.
    """
    x = [Fraction(v) for v in offset]
    m = len(x)
    ell = len(hnf_basis)
    if ell == 0:
        norm = max((abs(v) for v in x), default=Fraction(0))
        return norm, [tuple(x)]
    xnorm = max(abs(v) for v in x)
    box = 2 * xnorm  # any y with |y| <= |x| has |y - x| <= 2|x| coordinatewise
    # Coefficient ranges by forward substitution on the triangular basis.
    ranges = []
    slack = [box] * m
    for j in range(ell):
        p = pivots[j]
        cmax = slack[p] / abs(hnf_basis[j][p])
        bound = int(cmax) + 1
        ranges.append(range(-bound, bound + 1))
        for i in range(m):
            slack[i] = slack[i] + bound * abs(hnf_basis[j][i])
    d = 1
    for v in x:
        d = d * v.denominator // _gcd(d, v.denominator)
    xi = [int(v * d) for v in x]
    rows = [[d * e for e in row] for row in hnf_basis]
    best = None
    points = set()
    for coeffs in product(*ranges):
        y = list(xi)
        for c, row in zip(coeffs, rows):
            if c:
                for i in range(m):
                    y[i] += c * row[i]
        norm = max(abs(v) for v in y)
        if best is None or norm < best:
            best = norm
            points = {tuple(y)}
        elif norm == best:
            points.add(tuple(y))
    return (
        Fraction(best, d),
        sorted(tuple(Fraction(v, d) for v in p) for p in points),
    )


class _OverBudget(Exception):
    """Unwinds ``oracle_cvp_enumerate``'s recursion past its node cap."""


def oracle_cvp_enumerate(
    basis: list[list[int]],
    pivots: list[int],
    target: list[int],
    bound: int,
    max_nodes=None,
):
    """An earlier ``_kernels.cvp_enumerate``, kept verbatim as the reference
    for the kernel that replaced it: the same result, and a least
    ``max_nodes`` that succeeds at least the kernel's, since this one enters
    nodes only to cut them.

    Exact integer l-infinity closest-point enumeration on a coset.

    Minimizes max|target + sum_j c_j * basis[j]| over integer coefficients.
    `bound` is a certified initial search radius: some optimal point has all
    pivot coordinates within it.  Branch-and-bound: the basis rows are upper
    triangular with increasing pivots, so once row j's coefficient is chosen
    the coordinate pivots[j] is final and can be capped by the best norm seen
    so far.  Coefficients are explored center-out so the radius shrinks fast.

    Returns (best_norm, points) where points is the sorted list of all
    attaining integer vectors, or None once the search has entered more than
    ``max_nodes`` nodes (one per partial choice of coefficients).
    """
    ell = len(basis)
    m = len(target)
    # Columns before the first pivot are never touched: a hard norm floor.
    first_piv = pivots[0] if ell else m
    floor_norm = max((abs(target[i]) for i in range(first_piv)), default=0)
    # After choosing row j's coefficient, every column up to (but excluding)
    # the next pivot is final: later rows vanish there.
    final_cols = [
        range(pivots[j], pivots[j + 1] if j + 1 < ell else m)
        for j in range(ell)
    ]
    y = list(target)  # current candidate: target + partial lattice sum
    best: list[int | None] = [None]
    points: list[tuple[int, ...]] = []
    budget = [INF if max_nodes is None else max_nodes]

    def rec(j: int, settled: int) -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise _OverBudget
        if best[0] is not None and max(settled, floor_norm) > best[0]:
            return
        if j == ell:
            norm = max(settled, floor_norm)
            if best[0] is None or norm < best[0]:
                best[0] = norm
                points.clear()
                points.append(tuple(y))
            elif norm == best[0]:
                points.append(tuple(y))
            return
        p = pivots[j]
        piv = basis[j][p]
        row = basis[j]

        def radius() -> int:
            return bound if best[0] is None else min(bound, best[0])

        r0 = radius()
        # c-interval with |y[p] + c*piv| <= r0 (may shrink as best improves)
        lo = -((r0 + y[p]) // piv)  # ceil((-r0 - y[p]) / piv)
        hi = (r0 - y[p]) // piv
        if lo > hi:
            return
        center = min(max(-((2 * y[p] + piv) // (2 * piv)), lo), hi)

        def visit(c: int) -> bool:
            val = y[p] + c * piv
            if abs(val) > radius():
                return False  # |val| is monotone away from center: stop side
            if c:
                for i in range(m):
                    y[i] += c * row[i]
            done = max(abs(y[i]) for i in final_cols[j])
            rec(j + 1, max(settled, done))
            if c:
                for i in range(m):
                    y[i] -= c * row[i]
            return True

        visit(center)
        c = center - 1
        while c >= lo and visit(c):
            c -= 1
        c = center + 1
        while c <= hi and visit(c):
            c += 1

    try:
        rec(0, 0)
    except _OverBudget:
        return None
    points.sort()
    return best[0], points



def oracle_canonical_rep(A, offset):
    """The representative of offset + A with each pivot coordinate in
    (-pivot/2, pivot/2], reduced row by row on Fractions: the reference for
    the offset a ``coset.AffineCoset`` holds (``coset.canonical_rep``),
    which its constructor reduces on integer numerators through
    ``coset._reduce``.  Needs a full-rank lattice."""
    y = [Fraction(v) for v in offset]
    for row, p in zip(A.hnf_basis, A.pivots):
        # y[p] - n*piv lies in (-piv/2, piv/2]  <=>  n = ceil(y[p]/piv - 1/2)
        n = ceil(y[p] / row[p] - Fraction(1, 2))
        for i in range(A.m):
            y[i] -= n * row[i]
    return tuple(y)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def oracle_theta_cost(hnf_basis, pivots, offset):
    """Number of coefficient tuples oracle_theta would enumerate."""
    x = [Fraction(v) for v in offset]
    m = len(x)
    if not hnf_basis:
        return 1
    xnorm = max(abs(v) for v in x)
    box = 2 * xnorm
    slack = [box] * m
    size = 1
    for j, p in enumerate(pivots):
        cmax = slack[p] / abs(hnf_basis[j][p])
        bound = int(cmax) + 1
        size *= 2 * bound + 1
        for i in range(m):
            slack[i] += bound * abs(hnf_basis[j][i])
    return size


def oracle_theta_sup(A, epsilon):
    """sup of theta over all cosets of A, as a certified interval [lo, hi].

    A list-based box search: every split re-filters the whole box list and
    takes its max, and every corner is a Fraction coset through the public
    ``theta``.  The exact ``coset.theta_sup`` must lie in the interval.

    Infinite for rank-deficient lattices; exactly k/2 for m = 1.  For m >= 2
    the supremum over the fundamental box J_A is bracketed by branch-and-
    bound: theta is 1-Lipschitz in the offset (l-infinity), so a box of size
    s evaluated at a corner pins its supremum within max(s).
    """
    epsilon = Q(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    info = quotient_info(A)
    if info.rank < A.m:
        return (INF, INF)
    if A.m == 1:
        v = Q(int(info.k), 2)
        return (v, v)
    cap = Q(int(info.k), 2)

    def theta_at(point):
        return theta(AffineCoset.build(A, point)).theta

    # Boxes are (upper corner, sizes); every coset meets J_A, so the initial
    # box [lo, lo + k_i] with upper corner (k_1/2, ..., k_m/2) covers all.
    corner0 = tuple(Q(int(ki), 2) for ki in info.orders)
    sizes0 = tuple(Q(int(ki)) for ki in info.orders)
    t0 = theta_at(corner0)
    lo_best = t0
    boxes = [(min(t0 + max(sizes0), cap), corner0, sizes0)]
    m = A.m
    while True:
        boxes = [b for b in boxes if b[0] > lo_best]
        if not boxes:
            return (lo_best, lo_best)
        hi_best = max(b[0] for b in boxes)
        if hi_best - lo_best <= epsilon:
            return (lo_best, min(hi_best, cap))
        widest = max(boxes, key=lambda b: b[0])
        boxes.remove(widest)
        _, corner, sizes = widest
        half = tuple(s / 2 for s in sizes)
        for mask in range(1 << m):
            child_corner = tuple(
                corner[i] - (half[i] if mask & (1 << i) else 0) for i in range(m)
            )
            t = theta_at(child_corner)
            if t > lo_best:
                lo_best = t
            boxes.append((min(t + max(half), cap), child_corner, half))


def oracle_sup_bfs(A: IntLattice):
    """(2*theta_sup, witness) for a full-rank A, by one breadth-first search.

    The nodes are the integer points y with 0 <= y_i < 2*d_i, d_i the HNF
    diagonal: one per element of Z^m/2A.  A move adds a vector of
    {-1, 0, 1}^m other than 0 and reduces the sum by the rows of the HNF of
    2A, 2*``hnf_basis``; row i is zero before column i, so reducing
    coordinate i leaves the coordinates before it alone.  The moves are
    closed under negation, so the graph is undirected and the neighbours of
    a layer lie in the layers before, at and after it: those three sets are
    all the search keeps.  Returns the depth of the last layer and its least
    node w; theta(w/2 + A) is that depth over 2.
    """
    m = A.m
    basis = [[2 * e for e in row] for row in A.hnf_basis]
    rows = [(i, row, row[i], range(i, m)) for i, row in enumerate(basis)]
    moves = [d for d in product((-1, 0, 1), repeat=m) if any(d)]
    prev, cur = set(), {(0,) * m}
    depth = 0
    while True:
        nxt = set()
        for y in cur:
            for d in moves:
                z = list(map(add, y, d))
                for i, row, p, tail in rows:
                    n = z[i] // p
                    if n:
                        for j in tail:
                            z[j] -= n * row[j]
                nxt.add(tuple(z))
        nxt -= cur
        nxt -= prev
        if not nxt:
            return depth, min(cur)
        prev, cur = cur, nxt
        depth += 1


def norm_relation_model(gens, x, ball=(0, 1, 2)):
    """Exact norms of a finite model of the ledger's algebraic relations.

    G = <gens> is a permutation group and N, the normal closure of x in G,
    plays the subgroup G of the paper.  cl is G's commutator length; clb is
    the word norm over the G-classes of the commutators [a, b] with a, b in
    the ball subgroup H (the elements of G moving only points of ``ball``).
    cl_modG and clb_modG are their quotient norms over N, and cld_G and
    clbd_G their maxima over N.  Returns (per-element values, one dict of
    cl_f, clb_f, cl_modG_f and clb_modG_f per element of G; the diameters
    cld_G and clbd_G).  Values are ints, or INF outside the subgroup a
    norm's generating set generates.
    """
    G = generate_group(gens)
    N = normal_closure(G, tuple(x))
    H = [h for h in G.elements
         if all(h[i] == i for i in range(G.degree) if i not in ball)]
    commutators = {_mul(_mul(a, b), _mul(_inv(a), _inv(b)))
                   for a in H for b in H}
    cl = commutator_length(G)
    clb = word_norm(G, {g for c in commutators
                        for g in oracle_conjugacy_class(G.elements, c)})
    per_element = [
        {"cl_f": cl.values[f], "clb_f": clb.values[f],
         "cl_modG_f": quotient_norm(cl, N.elements, f),
         "clb_modG_f": quotient_norm(clb, N.elements, f)}
        for f in G.elements]
    diameters = {"cld_G": max(cl.values[a] for a in N.elements),
                 "clbd_G": max(clb.values[a] for a in N.elements)}
    return per_element, diameters


def s4_mod_v4_to_s3(g):
    """The classical isomorphism S4 / V4 -> S3 via the action on the three
    partitions of {0,1,2,3} into pairs: 01|23, 02|13, 03|12."""
    partitions = [
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
    ]
    image = []
    for part in partitions:
        moved = frozenset(
            frozenset(g[i] for i in pair) for pair in part
        )
        image.append(partitions.index(moved))
    return tuple(image)


def quotient_group(G, N):
    """Quotient G/N realized by the left-multiplication action on cosets.

    N must be normal in G, which is checked under conjugation by G's
    generators.  Returns (Q, proj) where Q is a permutation group on the
    coset indices and proj maps each element of G to its image in Q.
    """
    members = set(N.elements)
    for n in N.elements:
        G.require_member(n)
        for g in G.generators:
            if _mul(_mul(g, n), _inv(g)) not in members:
                raise ValidationError("subgroup is not normal")
    # Enumerate cosets deterministically, keyed by their minimal element.
    coset_of = {}
    reps = []
    for g in G.elements:  # already sorted: reps are coset minima
        if g in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for n in N.elements:
            coset_of[_mul(g, n)] = idx
    proj = {g: tuple(coset_of[_mul(g, r)] for r in reps) for g in G.elements}
    return generate_group(sorted(set(proj.values()))), proj


class FractionCircleDiffeo:
    """Reference PL circle diffeo: one period of its lift as Fraction lists.

    This is the plain Fraction implementation the library's integer-exact
    ``PLCircleDiffeo`` replaced; every operation re-evaluates the lifts
    breakpoint by breakpoint with bisection, so agreement with the library
    cross-checks its merged integer walks.
    """

    def __init__(self, xs, ys):
        self.xs = tuple(Fraction(x) for x in xs)
        self.ys = tuple(Fraction(y) for y in ys)

    @classmethod
    def of(cls, f):
        """The oracle copy of a library map (read through its public lists)."""
        return cls(f.xs, f.ys)

    def eval(self, x):
        x = Fraction(x)
        n = (x - self.xs[0]) // 1
        x0 = x - n  # in [xs[0], xs[0] + 1)
        i = bisect_right(self.xs, x0) - 1
        if i == len(self.xs) - 1:
            x1, y1 = self.xs[0] + 1, self.ys[0] + 1
        else:
            x1, y1 = self.xs[i + 1], self.ys[i + 1]
        xa, ya = self.xs[i], self.ys[i]
        return ya + (x0 - xa) * (y1 - ya) / (x1 - xa) + n

    def eval_inv(self, v):
        v = Fraction(v)
        n = (v - self.ys[0]) // 1
        v0 = v - n  # in [ys[0], ys[0] + 1)
        i = bisect_right(self.ys, v0) - 1
        if i == len(self.ys) - 1:
            x1, y1 = self.xs[0] + 1, self.ys[0] + 1
        else:
            x1, y1 = self.xs[i + 1], self.ys[i + 1]
        xa, ya = self.xs[i], self.ys[i]
        return xa + (v0 - ya) * (x1 - xa) / (y1 - ya) + n

    def compose(self, other):
        """self after other, on other's breakpoints plus the preimages of
        self's breakpoints (taken mod 1)."""
        pts = set(other.xs)
        for bx in self.xs:
            t = other.eval_inv(bx)
            pts.add(t - t // 1)
        xs = sorted(pts)
        return FractionCircleDiffeo(xs, [self.eval(other.eval(x)) for x in xs])

    def inverse(self):
        pairs = sorted((y - y // 1, x - y // 1) for x, y in zip(self.xs, self.ys))
        return FractionCircleDiffeo([p[0] for p in pairs], [p[1] for p in pairs])

    def displacement(self, other):
        return max(
            abs(self.eval(x) - other.eval(x))
            for x in set(self.xs) | set(other.xs)
        )

    def interpolate(self, other, s):
        s = Fraction(s)
        if s == 0:
            return self
        if s == 1:
            return other
        xs = sorted(set(self.xs) | set(other.xs))
        return FractionCircleDiffeo(
            xs, [(1 - s) * self.eval(x) + s * other.eval(x) for x in xs]
        )


def oracle_diffeo_compose(f, g):
    """f after g with three lookups per merged point: the inverse lookups
    that give g's preimages of f's breakpoints (mod 1), then g and f
    evaluated at every merged point.  The reference for
    ``PLCircleDiffeo.compose``, which reads the values at the preimages off
    f's breakpoints; both keep the least common denominator."""
    pts = {Fraction(x, g.den) for x in g.xn}
    for b in f.xn:
        t, d = g._eval_inv(b, f.den)
        pts.add(Fraction(t % d, d))
    xs = sorted(pts)
    ys = [Fraction(*f._eval(*g._eval(x.numerator, x.denominator))) for x in xs]
    return type(f)(xs, ys)


class Path(NamedTuple):
    """An isotopy as a test wrote it: Fraction times and a library map at
    each, moving by less than 1/2 per step.  The circle isotopy oracles
    take and give paths, never a ``PLIsotopy``, which keeps only its end
    lifts."""

    times: tuple
    frames: tuple


def straight_path(times, start, end):
    """The straight lift path from the map ``start`` to the map ``end`` at
    the Fraction times, each frame interpolated by ``FractionCircleDiffeo``:
    the path of an isotopy the library derives."""
    a, b = FractionCircleDiffeo.of(start), FractionCircleDiffeo.of(end)
    frames = (a.interpolate(b, t) for t in times)
    return Path(tuple(times), tuple(type(start)(f.xs, f.ys) for f in frames))


def oracle_frame_at(F, t):
    """Frame of the path F at time t by bisecting its Fraction times."""
    t = Fraction(t)
    times = F.times
    i = bisect_right(times, t) - 1
    if i >= len(times) - 1:
        return F.frames[-1]
    if times[i] == t:
        return F.frames[i]
    s = (t - times[i]) / (times[i + 1] - times[i])
    return F.frames[i].interpolate(F.frames[i + 1], s)


def _bisected(ts, at):
    """The path through the frames ``at(t)`` at the Fraction times ts, each
    step that moves by 1/2 or more bisected at its midpoint until every
    piece moves less, so the public constructor accepts it."""
    out_t, out_f = [ts[0]], [at(ts[0])]
    pending = [(t, at(t)) for t in reversed(ts[1:])]  # earliest on top
    while pending:
        t1, f1 = pending[-1]
        if out_f[-1].displacement(f1) < Fraction(1, 2):
            out_t.append(t1)
            out_f.append(f1)
            pending.pop()
        else:
            tm = (out_t[-1] + t1) / 2
            pending.append((tm, at(tm)))
    return Path(tuple(out_t), tuple(out_f))


def oracle_isotopy_compose(F, G):
    """F_t o G_t on the merged Fraction time grid of the paths F and G,
    each frame found by ``oracle_frame_at``, with every step of 1/2 or more
    bisected.  The reference for ``circle.compose``: its grid, its end
    composites, and its mu, which this reads step by step (``oracle_mu``)."""
    def at(t):
        return oracle_diffeo_compose(oracle_frame_at(F, t), oracle_frame_at(G, t))

    return _bisected(sorted(set(F.times) | set(G.times)), at)


def oracle_invert(F):
    """t -> (F_t)^-1 at the path F's times, each frame inverted by
    ``FractionCircleDiffeo``, with every step of 1/2 or more bisected.  The
    reference for ``circle.invert``, as ``oracle_isotopy_compose`` is for
    ``circle.compose``."""
    diffeo = type(F.frames[0])

    def at(t):
        inv = FractionCircleDiffeo.of(oracle_frame_at(F, t)).inverse()
        return diffeo(inv.xs, inv.ys)

    return _bisected(list(F.times), at)


def oracle_refine(F, max_disp):
    """The path F with each step cut into the fewest equal pieces that move
    less than max_disp.  On the straight path of an isotopy (``straight_path``)
    it is the reference for ``circle.refine``."""
    max_disp = Fraction(max_disp)
    ts, frames = [], []
    for t0, t1, fa, fb in zip(F.times, F.times[1:], F.frames, F.frames[1:]):
        pieces = int(fa.displacement(fb) // max_disp) + 1
        ts.append(t0)
        frames.append(fa)
        for j in range(1, pieces):
            s = Fraction(j, pieces)
            ts.append(t0 + (t1 - t0) * s)
            frames.append(fa.interpolate(fb, s))
    ts.append(F.times[-1])
    frames.append(F.frames[-1])
    return Path(tuple(ts), tuple(frames))


def oracle_mu(F, p):
    """Rotation angle of the trace t -> F_t(p) along the path F, read
    without lifts: each frame's value at p mod 1, by
    ``FractionCircleDiffeo``, and each step's move taken in [-1/2, 1/2).
    Frames move by less than 1/2 per step, so that is the move of the
    trace's continuous lift.  The reference for ``circle.mu``, which reads
    the end lifts."""
    p = Fraction(p)
    points = [FractionCircleDiffeo.of(f).eval(p) % 1 for f in F.frames]
    half = Fraction(1, 2)
    return sum(((b - a + half) % 1 - half for a, b in zip(points, points[1:])),
               Fraction(0))


def oracle_hnf(vectors, m: int):
    """Row HNF by batch elimination, column by column: every nonzero working
    row is reduced against the one of least absolute entry until at most one
    is left nonzero in the column, then the entries above each pivot are
    reduced into [0, pivot).  The reference (basis rows, pivot columns) for
    ``lattice._hnf``, which folds the vectors in one at a time."""
    work = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(m):
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            for r in nz[1:]:
                q = r[col] // p[col]
                for i in range(m):
                    r[i] -= q * p[i]
        nz = [r for r in work if r[col] != 0]
        if nz:
            p = nz[0]
            work.remove(p)
            if p[col] < 0:
                p = [-x for x in p]
            basis.append(p)
            pivots.append(col)
        work = [r for r in work if any(r)]
    for j in range(len(basis)):
        pj = pivots[j]
        piv = basis[j][pj]
        for i in range(j):
            q = basis[i][pj] // piv
            if q:
                for col in range(m):
                    basis[i][col] -= q * basis[j][col]
    return basis, pivots


def oracle_smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, by an
    elimination with its own pivot search, row and column swaps and a
    divisibility fix-up: the reference for ``lattice._smith_factors``."""
    a = [list(r) for r in mat]
    rows, cols = len(a), (len(mat[0]) if mat else 0)
    factors: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        # Find a nonzero pivot in the remaining submatrix.
        pivot = None
        for i in range(r, rows):
            for j in range(c, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(pivot[2])):
                    pivot = (i, j, a[i][j])
        if pivot is None:
            break
        i, j, _ = pivot
        a[r], a[i] = a[i], a[r]
        for row in a:
            row[c], row[j] = row[j], row[c]
        while True:
            # Eliminate the pivot column.
            done = True
            for i in range(r + 1, rows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    for j in range(c, cols):
                        a[i][j] -= q * a[r][j]
                    if a[i][c]:
                        a[r], a[i] = a[i], a[r]
                        done = False
            # Eliminate the pivot row.
            for j in range(c + 1, cols):
                if a[r][j]:
                    q = a[r][j] // a[r][c]
                    for i in range(r, rows):
                        a[i][j] -= q * a[i][c]
                    if a[r][j]:
                        for row in a:
                            row[c], row[j] = row[j], row[c]
                        done = False
            if done:
                break
        factors.append(abs(a[r][c]))
        r += 1
        c += 1
    # Enforce the divisibility chain.
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            l = factors[i] * factors[j] // g if g else 0
            factors[i], factors[j] = g, l
    return factors


def oracle_rational_coefficients(A: IntLattice, v):
    """Coefficients of v, a rational vector, over the HNF basis in Q, or
    None if v is outside the rational span."""
    w = [Q(x) for x in v]
    coeffs = []
    for row, p in zip(A.hnf_basis, A.pivots):
        c = w[p] / row[p]
        coeffs.append(c)
        if c:
            for i in range(A.m):
                w[i] -= c * row[i]
    if any(w):
        return None
    return coeffs


def oracle_order(A, v):
    """The least t >= 1 with t*v in A, or INF: the lcm of the denominators of
    v's rational coefficients over the HNF basis.  The reference for
    ``lattice._order``."""
    coeffs = oracle_rational_coefficients(A, v)
    if coeffs is None:
        return INF
    # min t >= 1 with all t*c_j integral is the lcm of the denominators
    return lcm(*(c.denominator for c in coeffs))


def oracle_kernel_functional(A: IntLattice):
    """A primitive integer functional vanishing on A (rank < m only), by
    Fraction back-substitution: the reference for ``lattice.kernel_functional``.

    Policy: solve the echelon system for the nullspace basis vector whose
    free coordinate is the smallest non-pivot column, scale it to a primitive
    integer vector, and normalize the sign so the first nonzero entry is
    positive.  Deterministic given the canonical HNF basis.
    """
    if A.rank == A.m:
        raise FullRank("lattice has full rank; no nonzero orthogonal functional")
    free_cols = [i for i in range(A.m) if i not in A.pivots]
    f = free_cols[0]
    c = [Q(0)] * A.m
    c[f] = Q(1)
    # Back-substitute from the bottom row up: row . c = 0.
    for row, p in zip(reversed(A.hnf_basis), reversed(A.pivots)):
        s = sum(Q(row[i]) * c[i] for i in range(A.m) if i != p)
        c[p] = -s / row[p]
    _, ints = common(x.as_integer_ratio() for x in c)
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    result = tuple(ints)
    assert all(
        sum(ci * gi for ci, gi in zip(result, gen)) == 0 for gen in A.generators
    ), "functional does not vanish on the generators"
    return result


def _upper_add(a, b):
    if a == INF or b == INF:
        return INF
    if a == FINITE or b == FINITE:
        return FINITE
    return a + b


def _upper_mul(c, a):
    if a == INF or a == FINITE:
        return a
    return c * a


# Relation rules: (smaller, larger-side description).
# q1 <= q2                 : ("le", q1, q2)
# q1 <= c * q2             : ("le_scaled", q1, c, q2)
# q1 <= q2 + q3            : ("le_sum", q1, q2, q3)
_RELATIONS = (
    ("le", "cl_f", "clb_f", "cl_le_clb"),
    ("le_scaled", "clb_f", Q(2), "eta", "clb_le_2eta"),
    ("le_scaled", "zeta", Q(4), "clb_f", "zeta_le_4clb"),
    ("le_sum", "cl_f", "cl_modG_f", "cld_G", "cl_le_quotient_plus_diameter"),
    ("le_sum", "clb_f", "clb_modG_f", "clbd_G", "clb_le_quotient_plus_diameter"),
    ("le", "cl_modG_f", "clb_modG_f", "cl_modG_le_clb_modG"),
)


def oracle_relation_close(ledger: BoundLedger) -> BoundLedger:
    """Fixed point of the norm-relation rules; tightens uppers, lifts lowers."""
    led = ledger
    for _ in range(64):
        before = led
        for rel in _RELATIONS:
            kind, rule = rel[0], rel[-1]
            if kind == "le":
                _, a, b, _ = rel
                led = led.with_upper(a, led.get(b).upper, rule)
                led = led.with_lower(b, led.get(a).lower, rule)
            elif kind == "le_scaled":
                _, a, c, b, _ = rel
                led = led.with_upper(a, _upper_mul(c, led.get(b).upper), rule)
                led = led.with_lower(b, led.get(a).lower / c, rule)
            else:  # le_sum: a <= b + c
                _, a, b, c, _ = rel
                led = led.with_upper(
                    a, _upper_add(led.get(b).upper, led.get(c).upper), rule)
                for x, other in ((b, c), (c, b)):
                    u = led.get(other).upper
                    if u != INF and u != FINITE:
                        led = led.with_lower(x, led.get(a).lower - u, rule)
        if led.entries == before.entries:
            break
    else:  # pragma: no cover - the rules are monotone over a finite value set
        raise InconsistentLedger("relation closure did not stabilize")
    led.check()
    return led
