"""Exact minimal l-infinity representatives of affine cosets x + A.

``theta`` works on integers: the offset as numerators over a common
denominator D, the HNF rows scaled by D.  One reduction, ``_reduce``, takes
each pivot coordinate into (-P/2, P/2], P the scaled pivot.  That
representative has some norm r >= theta, and every point that attains theta
has all of its coordinates within theta <= r, so r is a certified search
radius.  ``theta`` passes the representative and r to
``_kernels.cvp_enumerate``, which returns the minimum with every attaining
point; theta is the exact minimum, so any common denominator gives the same
rational.

``theta_sup`` is exact and needs no CVP.  The maximum of theta over the
torus R^m/A lies on (1/2)Z^m, and there 2*theta is the king-move distance
to 2A; so 2*theta_sup is the eccentricity of 0 in the king-move Cayley
graph of the finite group Z^m/2A, which one breadth-first search over its
2^m*det(A) nodes finds (the proof is in ``theta_sup``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import add

from rotnorm import _kernels
from rotnorm._rat import INF, Q, common, floor_q
from rotnorm.errors import DimensionMismatch, RankDeficient, ValidationError
from rotnorm.lattice import IntLattice, quotient_info


#: Most king moves one theta_sup search makes, 2^m*det(A)*(3^m - 1).  A
#: search at the cap takes 8 to 10 s for m = 2 to 5 on a 2-vCPU host with
#: Python 3.11, and the largest m = 8 search under it (det 4) 13 s; larger
#: lattices would run for hours.
MAX_SUP_MOVES = 8 * 10 ** 6


@dataclass(frozen=True)
class AffineCoset:
    """Coset x + A with the offset stored in reduced canonical form."""

    lattice: IntLattice
    offset: tuple

    @staticmethod
    def build(A: IntLattice, offset) -> "AffineCoset":
        x = [Q(v) for v in offset]
        if len(x) != A.m:
            raise DimensionMismatch(f"offset length {len(x)} != ambient {A.m}")
        # Reduce each pivot coordinate into [0, pivot) against the basis.
        for row, p in zip(A.hnf_basis, A.pivots):
            n = floor_q(x[p] / row[p])
            if n:
                for i in range(A.m):
                    x[i] -= n * row[i]
        return AffineCoset(lattice=A, offset=tuple(x))

    @property
    def m(self) -> int:
        return self.lattice.m


@dataclass(frozen=True)
class NearestData:
    """Minimal l-infinity norm over a coset and all attaining points."""

    theta: object
    theta_points: tuple


def _reduce(basis, pivots, nums) -> list:
    """The point of nums + span(basis) with each pivot coordinate in
    (-P/2, P/2], P the row's pivot entry, for any rank.

    Row j is zero before its pivot, so reducing pivot j leaves the pivots
    before it alone.  n = ceil((2y - P) / 2P) takes y[p] into (-P/2, P/2].
    """
    y = list(nums)
    m = len(y)
    for row, p in zip(basis, pivots):
        piv = row[p]
        n = -((piv - 2 * y[p]) // (2 * piv))
        if n:
            for i in range(p, m):
                y[i] -= n * row[i]
    return y


def _reduced(z: AffineCoset):
    """(d, basis, y): the offset of z as integer numerators over their least
    common denominator d, reduced by ``_reduce`` against the HNF rows scaled
    by d."""
    A = z.lattice
    d, nums = common(Q(v).as_integer_ratio() for v in z.offset)
    basis = [[d * e for e in row] for row in A.hnf_basis]
    return d, basis, _reduce(basis, A.pivots, nums)


def canonical_rep(z: AffineCoset) -> tuple:
    """The representative with each pivot coordinate in (-pivot/2, pivot/2].

    Requires full rank.  The result lies in the box J_A = prod(-k_i/2, k_i/2]
    because each pivot divides the corresponding coset order k_i.
    """
    A = z.lattice
    if A.rank < A.m:
        raise RankDeficient("canonical representative needs a full-rank lattice")
    d, _, y = _reduced(z)
    return tuple(Q(v, d) for v in y)


def theta(z: AffineCoset) -> NearestData:
    """Certified minimum l-infinity norm over the coset and its attaining set."""
    d, basis, y = _reduced(z)
    r = max(map(abs, y), default=0)
    if r:
        best, pts = _kernels.cvp_enumerate(basis, z.lattice.pivots, y, r)
    else:
        best, pts = 0, [tuple(y)]
    points = tuple(tuple(Q(v, d) for v in p) for p in pts)
    return NearestData(theta=Q(best, d), theta_points=points)


def _sup_bfs(A: IntLattice):
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


def theta_sup(A: IntLattice, epsilon):
    """sup of theta over all cosets of A, exactly, as the pair (v, v).

    Infinite for rank-deficient lattices; exactly k/2 for m = 1.  For m >= 2
    the value is exact too, so the interval has width 0 and meets every
    epsilon; epsilon must still be positive.

    Why the value is exact and half-integral.  theta(x + A), the minimum
    over a in A of ||x - a||_inf, is piecewise linear in x: on each cell of
    the arrangement of the hyperplanes x_i = c, 2x_i = c and x_i +- x_j = c
    (c an integer), one |x_i - a_i| with a fixed sign is the minimum.  The
    hyperplanes x_i = c alone cut R^m into unit cubes, so every cell is a
    bounded polytope, and theta attains its maximum over the torus R^m/A at
    a vertex.  A vertex solves m independent equations whose rows are e_i,
    2e_i or e_i +- e_j: a signed-graph incidence system, whose solutions
    are half-integral (Zaslavsky, "Signed graphs", 1982).  So the maximum
    is attained on (1/2)Z^m, and theta_sup lies in (1/2)Z.

    The search.  For x in (1/2)Z^m, 2*theta(x + A) is the l-infinity
    distance from the integer point 2x to 2A, and on Z^m the l-infinity
    distance is the king-move distance, a move changing each coordinate by
    -1, 0 or 1.  So 2*theta_sup is the eccentricity of 0 in the Cayley
    graph of Z^m/2A with the 3^m - 1 moves {-1, 0, 1}^m minus 0, which
    ``_sup_bfs`` finds by one breadth-first search over 2^m*det(A) nodes.
    That is 2^m*det(A)*(3^m - 1) moves; a lattice that needs more than
    ``MAX_SUP_MOVES`` is rejected with a ValidationError before the search
    starts.
    """
    epsilon = Q(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    info = quotient_info(A)
    if info.rank < A.m:
        return (INF, INF)
    if A.m == 1:
        v = Q(info.k, 2)
        return (v, v)
    m = A.m
    det = prod(row[i] for i, row in enumerate(A.hnf_basis))
    moves = 2 ** m * det * (3 ** m - 1)
    if moves > MAX_SUP_MOVES:
        raise ValidationError(
            f"theta_sup needs {moves} moves, which exceeds the cap "
            f"MAX_SUP_MOVES = {MAX_SUP_MOVES}")
    depth, _ = _sup_bfs(A)
    v = Q(depth, 2)
    return (v, v)
