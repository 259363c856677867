"""Exact minimal l-infinity representatives of affine cosets x + A.

Every ``AffineCoset`` holds its centred representative: the constructor
reduces the offset once, on its numerators over their least common
denominator D against the HNF rows scaled by D (``_reduce``), so each pivot
coordinate lies in (-P/2, P/2], P the pivot; equal cosets compare equal.
That point has some norm r >= theta, and every point that attains theta has
all of its coordinates within theta <= r, so r is a certified search
radius.  ``theta`` passes the point and r to ``_kernels.cvp_enumerate``,
which returns the minimum with every attaining point; an offset in the
lattice is held as 0 and costs rank + 1 nodes.  A search past
``MAX_CVP_NODES`` nodes is a ValidationError.

``theta_sup`` is exact and needs no CVP.  The maximum of theta over the
torus R^m/A lies on (1/2)Z^m, and there 2*theta is the king-move distance
to 2A; so 2*theta_sup is the eccentricity of 0 in the king-move Cayley
graph of the finite group Z^m/2A (the proof is in ``theta_sup``), which one
breadth-first search finds in at most 6*m*2^m*det(A) one-axis steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from rotnorm import _kernels
from rotnorm._rat import INF, Q, common
from rotnorm.errors import DimensionMismatch, RankDeficient, ValidationError
# Unused here; kept because perfbench/tests/test_spans.py pins this name.
from rotnorm.lattice import IntLattice, quotient_info  # noqa: F401


#: Most axis steps one theta_sup search may need, 6*m*2^m*det(A) (proven
#: in ``_sup_bfs``).  It admits every lattice the earlier king-move cap,
#: 2^m*det(A)*(3^m - 1) <= 8*10^6, admitted (m = 2 binds: det <= 250,000).
#: A search at the cap takes 3 to 7.5 s for m = 2 to 8 (2-vCPU, Python 3.11).
MAX_SUP_MOVES = 12 * 10 ** 6

#: Most nodes one theta search enters in ``_kernels.cvp_enumerate``, each a
#: partial choice of coefficients.  The benchmark panel's searches enter at
#: most 107 (seeds 0 to 3 and 20251); a search at the cap takes 0.5 to 1.7 s
#: for m = 2 to 8 on a 2-vCPU host with Python 3.11.  Every attaining point
#: is a node, so the cap also bounds the size of the output, and every step
#: of the search enters a node, so it also bounds the time.
MAX_CVP_NODES = 3 * 10 ** 5


@dataclass(frozen=True)
class AffineCoset:
    """Coset x + A; ``offset`` is its centred representative, however the
    coset was made.  A wrong offset length is a DimensionMismatch."""

    lattice: IntLattice
    offset: tuple

    def __post_init__(self):
        A = self.lattice
        d, y = common(Q(v).as_integer_ratio() for v in self.offset)
        if len(y) != A.m:
            raise DimensionMismatch(f"offset length {len(y)} != ambient {A.m}")
        basis = [[d * e for e in row] for row in A.hnf_basis]
        y = _reduce(basis, A.pivots, y)
        object.__setattr__(self, "offset", tuple(Q(v, d) for v in y))

    @staticmethod
    def build(A: IntLattice, offset) -> "AffineCoset":
        """The coset offset + A; the constructor centres the offset."""
        return AffineCoset(lattice=A, offset=offset)

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


def canonical_rep(z: AffineCoset) -> tuple:
    """The representative with each pivot coordinate in (-pivot/2, pivot/2],
    which z holds as its offset.

    Requires full rank.  The result lies in the box J_A = prod(-k_i/2, k_i/2]
    because each pivot divides the corresponding coset order k_i.
    """
    A = z.lattice
    if A.rank < A.m:
        raise RankDeficient("canonical representative needs a full-rank lattice")
    return z.offset


def theta(z: AffineCoset) -> NearestData:
    """Certified minimum l-infinity norm over the coset and its attaining set.

    The search starts from the centred representative z holds.  A search
    past ``MAX_CVP_NODES`` nodes raises ValidationError."""
    d, y = common(v.as_integer_ratio() for v in z.offset)
    basis = [[d * e for e in row] for row in z.lattice.hnf_basis]
    found = _kernels.cvp_enumerate(basis, z.lattice.pivots, y,
                                   max(map(abs, y)), MAX_CVP_NODES)
    if found is None:
        raise ValidationError(
            f"theta needs more CVP nodes than the cap "
            f"coset.MAX_CVP_NODES = {MAX_CVP_NODES}")
    best, pts = found
    points = tuple(tuple(Q(v, d) for v in p) for p in pts)
    return NearestData(theta=Q(best, d), theta_points=points)


def _sup_bfs(A: IntLattice):
    """(2*theta_sup, witness) for a full-rank A, by one breadth-first search.

    The nodes are the N = 2^m*det(A) elements of Z^m/2A, each kept as its
    ``_reduce`` representative against 2*``hnf_basis``, the HNF of 2A.  The
    king ball K = {-1, 0, 1}^m is the sum of the segments {0, +-e_i}, and
    sums commute in Z^m/2A, so F + K is m one-axis dilations of the last
    layer F.  A step y +- e_i changes coordinate i alone, so it is still
    reduced while that coordinate stays in (-d_i, d_i], d_i the HNF pivot
    (half the pivot of 2A); a step that leaves that range ``_reduce`` wraps
    with the rows from i on.  K = -K, so F + K lies in F and the
    layers just before and after it; the next layer is F + K minus the
    other two.  Once the layers hold all N nodes the search returns the
    last depth and the least node w of that layer; theta(w/2 + A) is the
    depth over 2.  Each set dilated while expanding layer L_d lies in
    L_{d-1} | L_d | L_{d+1}, so over the whole search each axis dilates at
    most 3N nodes, at 2 steps a node: at most 6*m*N steps.
    """
    basis = [[2 * e for e in row] for row in A.hnf_basis]
    size = prod(row[i] for i, row in enumerate(basis))
    axes = [(i, A.hnf_basis[i][i], basis[i:], A.pivots[i:])
            for i in range(A.m)]
    prev, cur = set(), {(0,) * A.m}
    depth, seen = 0, 1
    while seen < size:
        ball = cur
        for i, d, rows, pivots in axes:
            grown = set(ball)
            for y in ball:
                for step in (-1, 1):
                    z = list(y)
                    z[i] += step
                    if -d < z[i] <= d:
                        grown.add(tuple(z))
                    else:
                        grown.add(tuple(_reduce(rows, pivots, z)))
            ball = grown
        prev, cur = cur, ball - cur - prev
        seen += len(cur)
        depth += 1
    return depth, min(cur)


def theta_sup(A: IntLattice, epsilon):
    """sup of theta over all cosets of A, exactly, as the pair (v, v).

    Infinite for rank-deficient lattices; k/2 = det(A)/2 for m = 1.  For
    m >= 2 it is exact too: width 0, within every epsilon (which must be
    positive).  The rank and det(A), the pivot product, come off the HNF.

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
    graph of Z^m/2A with the moves {-1, 0, 1}^m minus 0, which
    ``_sup_bfs`` finds by one breadth-first search over 2^m*det(A) nodes in
    at most 6*m*2^m*det(A) axis steps; a lattice whose bound exceeds
    ``MAX_SUP_MOVES`` is rejected with a ValidationError before the search
    starts.
    """
    epsilon = Q(epsilon)
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if A.rank < A.m:
        return (INF, INF)
    det = prod(row[i] for i, row in enumerate(A.hnf_basis))
    if A.m == 1:
        v = Q(det, 2)
    else:
        steps = 6 * A.m * 2 ** A.m * det
        if steps > MAX_SUP_MOVES:
            raise ValidationError(
                f"theta_sup may need {steps} axis steps, which exceeds the "
                f"cap coset.MAX_SUP_MOVES = {MAX_SUP_MOVES}")
        v = Q(_sup_bfs(A)[0], 2)
    return (v, v)
