"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own enumeration strategies and
compute on fractions.Fraction directly, not on the package's integer
encodings, so that agreement is a meaningful cross-check.
``oracle_theta_sup`` is the exception: it is a list-based branch-and-bound
over dyadic boxes through the library's ``theta``, kept as the interval
oracle that must contain the exact value ``coset.theta_sup`` finds by
breadth-first search.  So are the circle composition oracles
(``oracle_diffeo_compose``, ``oracle_frame_at``, ``oracle_isotopy_compose``,
``oracle_refine``): they are the earlier lookup-per-point and Fraction-time
paths over the library's own map lookups, kept as the reference for the
exact denominators and times that ``circle.compose`` and ``circle.refine``
produce.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import ceil

from rotnorm._rat import INF, Q
from rotnorm.coset import AffineCoset, theta
from rotnorm.errors import ValidationError
from rotnorm.lattice import quotient_info


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


def oracle_commutator_set(elements):
    """Sorted {a b a^-1 b^-1}, looping over all |G|^2 pairs."""
    out = set()
    for a in elements:
        for b in elements:
            out.add(_mul(_mul(a, b), _mul(_inv(a), _inv(b))))
    return tuple(sorted(out))


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


def oracle_canonical_rep(z):
    """The representative of the coset z with each pivot coordinate in
    (-pivot/2, pivot/2], reduced row by row on Fractions: the reference for
    ``coset.canonical_rep``, which reduces integer numerators through
    ``coset._reduce``.  Needs a full-rank lattice."""
    A = z.lattice
    y = [Fraction(v) for v in z.offset]
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


def oracle_frame_at(F, t):
    """Frame of the isotopy F at time t by bisecting its Fraction times."""
    t = Fraction(t)
    times = F.times
    i = bisect_right(times, t) - 1
    if i >= len(times) - 1:
        return F.frames[-1]
    if times[i] == t:
        return F.frames[i]
    s = (t - times[i]) / (times[i + 1] - times[i])
    return F.frames[i].interpolate(F.frames[i + 1], s)


def oracle_isotopy_compose(F, G):
    """F_t o G_t on the merged Fraction time grid, each frame found by
    ``oracle_frame_at``; steps that move by 1/2 or more are bisected at
    their midpoints.  The reference for ``circle.compose``."""
    iso = type(F)
    ts = sorted(set(F.times) | set(G.times))

    def at(t):
        return oracle_diffeo_compose(oracle_frame_at(F, t), oracle_frame_at(G, t))

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
    return iso(out_t, out_f)


def oracle_refine(F, max_disp):
    """``circle.refine`` on Fraction times: each step cut into the fewest
    equal pieces that move less than max_disp."""
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
    return type(F)(ts, frames)
