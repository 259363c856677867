"""Exact minimal l-infinity representatives of affine cosets x + A.

Both ``theta`` and ``theta_sup`` work on integers: the offset as numerators
over a common denominator D, the HNF rows scaled by D.  One reduction,
``_reduce``, takes each pivot coordinate into (-P/2, P/2], P the scaled
pivot.  That representative has some norm r >= theta, and every point that
attains theta has all of its coordinates within theta <= r, so r is a
certified search radius.  ``theta`` passes the representative and r to
``_kernels.cvp_enumerate``, which returns the minimum with every attaining
point; theta is the exact minimum, so any common denominator gives the same
rational.

``theta_sup`` brackets sup_x theta(x + A) by branch-and-bound over dyadic
boxes of the fundamental box J_A.  Every box corner is k_i/2 - j*k_i/2^d, so
all corners share one denominator D = 2^(d+1) for the deepest depth d the
search can reach, and every corner, theta value and bound is an integer.
The lattice is scaled to D once per call.  A corner needs only its theta
value: it is reduced and passed to ``_kernels.cvp_min``, which keeps no
attaining points and prunes strictly, entering no branch that could only
tie the best norm found.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import lcm

from rotnorm import _kernels
from rotnorm._rat import INF, Q, floor_q
from rotnorm.errors import DimensionMismatch, RankDeficient, ValidationError
from rotnorm.lattice import IntLattice, quotient_info


def _ceil_q(q) -> int:
    return -floor_q(-Q(q))


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


def canonical_rep(z: AffineCoset) -> tuple:
    """The representative with each pivot coordinate in (-pivot/2, pivot/2].

    Requires full rank.  The result lies in the box J_A = prod(-k_i/2, k_i/2]
    because each pivot divides the corresponding coset order k_i.
    """
    A = z.lattice
    if A.rank < A.m:
        raise RankDeficient("canonical representative needs a full-rank lattice")
    y = list(z.offset)
    for row, p in zip(A.hnf_basis, A.pivots):
        piv = row[p]
        # n with y[p] - n*piv in (-piv/2, piv/2]  <=>  n = ceil(y[p]/piv - 1/2)
        n = _ceil_q(y[p] / piv - Q(1, 2))
        if n:
            for i in range(A.m):
                y[i] -= n * row[i]
    return tuple(y)


@dataclass(frozen=True)
class NearestData:
    """Minimal l-infinity norm over a coset and all attaining points."""

    theta: object
    theta_points: tuple


def _reduce(basis, pivots, nums) -> list:
    """The point of nums + span(basis) with each pivot coordinate in
    (-P/2, P/2], P the row's pivot entry; ``canonical_rep`` on integers,
    for any rank.

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


def theta(z: AffineCoset) -> NearestData:
    """Certified minimum l-infinity norm over the coset and its attaining set."""
    A = z.lattice
    x = [Q(v) for v in z.offset]
    d = lcm(*(int(v.denominator) for v in x)) if x else 1
    nums = [int(v.numerator) * (d // int(v.denominator)) for v in x]
    basis = [[d * e for e in row] for row in A.hnf_basis]
    pivots = list(A.pivots)
    y = _reduce(basis, pivots, nums)
    r = max(map(abs, y), default=0)
    if r:
        best, pts = _kernels.cvp_enumerate(basis, pivots, y, r)
    else:
        best, pts = 0, [tuple(y)]
    points = tuple(tuple(Q(v, d) for v in p) for p in pts)
    return NearestData(theta=Q(best, d), theta_points=points)


def theta_sup(A: IntLattice, epsilon):
    """sup of theta over all cosets of A, as a certified interval [lo, hi].

    Infinite for rank-deficient lattices; exactly k/2 for m = 1.  For m >= 2
    the supremum over the fundamental box J_A is bracketed by branch-and-
    bound: theta is 1-Lipschitz in the offset (l-infinity), so a box of size
    s evaluated at its upper corner pins its supremum within max(s).  The
    box with the largest bound is split into 2^m halves, ties going to the
    box made first; boxes whose bound is at most the best theta seen are
    dropped.  The search stops once the best bound is within epsilon of the
    best theta.

    A heap keyed (-bound, creation order) holds the boxes.  Each box keeps
    its corner's theta, which its first half (same corner) reuses, so a
    split costs 2^m - 1 corner evaluations.  A box of depth d has sizes
    k_i/2^d and is split only while k/2^d > epsilon, so every corner is an
    integer over D = 2^(depth+1), depth the first d with k/2^d <= epsilon;
    bounds, theta values and the stopping test are integers over D.  The
    basis is scaled to D once per call.  A corner is evaluated by reducing
    it into the pivot box (``_reduce``) and asking ``_kernels.cvp_min`` for
    its theta alone: no attaining points, and no branch that can only tie
    the best norm found.
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
    m = A.m
    k = int(info.k)
    depth = 0
    while k > epsilon * (1 << depth):
        depth += 1
    den = 2 << depth
    cap = k << depth  # k/2 over den
    eps = floor_q(epsilon * den)  # hi - lo <= epsilon, on integers over den

    # Boxes are (-bound, seq, theta at corner, upper corner, sizes); every
    # coset meets J_A, so the initial box [lo, lo + k_i] with upper corner
    # (k_1/2, ..., k_m/2) covers all.
    corner0 = tuple(int(ki) << depth for ki in info.orders)
    sizes0 = tuple(int(ki) * den for ki in info.orders)
    # The lattice over den, prepared once for every corner.
    basis = [[den * e for e in row] for row in A.hnf_basis]
    pivots = list(A.pivots)
    t0 = _kernels.cvp_min(basis, pivots, _reduce(basis, pivots, corner0))
    lo_best = t0
    heap = [(-min(t0 + max(sizes0), cap), 0, t0, corner0, sizes0)]
    seq = 1
    while True:
        while heap and -heap[0][0] <= lo_best:
            heapq.heappop(heap)
        if not heap:
            lo = Q(lo_best, den)
            return (lo, lo)
        hi_best = -heap[0][0]
        if hi_best - lo_best <= eps:
            return (Q(lo_best, den), Q(min(hi_best, cap), den))
        _, _, t_parent, corner, sizes = heapq.heappop(heap)
        half = tuple(s >> 1 for s in sizes)
        reach = max(half)
        for mask in range(1 << m):
            child_corner = tuple(
                c - h if mask >> i & 1 else c
                for i, (c, h) in enumerate(zip(corner, half))
            )
            if mask:
                t = _kernels.cvp_min(
                    basis, pivots, _reduce(basis, pivots, child_corner))
            else:
                t = t_parent
            if t > lo_best:
                lo_best = t
            heapq.heappush(heap, (-min(t + reach, cap), seq, t, child_corner, half))
            seq += 1
