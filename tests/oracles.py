"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own enumeration strategies and use
fractions.Fraction (not the package's rational type) so that agreement is a
meaningful cross-check.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import product


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
