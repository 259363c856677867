"""Exact minimal l-infinity representatives of affine cosets x + A.

theta(z) is computed by certified enumeration: starting from a reduced
representative y0 with norm r, every coset point at least as good lies in
the box |coordinate| <= r + |x|, so recursing over the triangular basis with
pivot-coordinate constraints enumerates a superset of all candidates.  The
arithmetic is rescaled to integers (common denominator of the offset) so the
enumeration in ``_kernels.cvp_enumerate`` runs on exact integers.
"""

from __future__ import annotations

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


def theta(z: AffineCoset) -> NearestData:
    """Certified minimum l-infinity norm over the coset and its attaining set."""
    A = z.lattice
    m = A.m
    if A.rank == A.m:
        y0 = canonical_rep(z)
    else:
        y0 = z.offset  # already reduced against the rank-deficient basis
    r = max(abs(v) for v in y0) if m else Q(0)
    if r == 0:
        return NearestData(theta=Q(0), theta_points=(tuple(Q(0) for _ in range(m)),))
    x = z.offset
    xnorm = max(abs(v) for v in x)
    d = lcm(*(int(Q(v).denominator) for v in x)) if x else 1
    target = [int(Q(v) * d) for v in x]
    basis = [[d * e for e in row] for row in A.hnf_basis]
    bound = _ceil_q(d * (r + xnorm))
    best, pts = _kernels.cvp_enumerate(basis, list(A.pivots), target, bound)
    points = tuple(tuple(Q(v, d) for v in p) for p in pts)
    return NearestData(theta=Q(best, d), theta_points=points)


def theta_sup(A: IntLattice, epsilon):
    """sup of theta over all cosets of A, as a certified interval [lo, hi].

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
