"""Exact invariants of integer sublattices A < Z^m.

Row-style Hermite normal form (positive pivots, entries above a pivot reduced
into [0, pivot)) gives a unique canonical basis.  ``_hnf`` folds the
generators in one at a time and keeps the HNF of those folded so far, so its
time grows linearly with the generator count.  Everything else comes
from that one routine, on integers: the rank, the orders k_i of the unit
cosets [e_i] in Z^m/A by back-substitution (``_order``), k = max k_i, the
bound constant k_hat = 2*floor(k/2) + 3, the Smith invariant factors from
alternating row and column HNFs (``_smith_factors``), and — in the
rank-deficient case — a primitive integer functional vanishing on A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from rotnorm._rat import INF, common
from rotnorm.errors import DimensionMismatch, FullRank, ValidationError, quoted

MAX_DIM = 8


def _hnf(vectors, m: int):
    """Row HNF of the lattice the vectors span: (basis rows, pivot columns).

    Folds the vectors in one at a time; the rows, keyed by pivot column, are
    the HNF of those folded so far.  At each nonzero entry the vector becomes
    the row there, or Euclid's algorithm leaves the pair's gcd in the row
    (positive: every divisor is) and 0 in the vector.  A fold that changed a
    row then reduces the entries above each pivot into [0, pivot).  Cost per
    vector: a Euclid run per nonzero entry, O(m^3) more if a row changed.
    """
    rows: dict[int, list[int]] = {}
    for v in vectors:
        changed = False
        for col in range(m):
            if not v[col]:
                continue
            row = rows.get(col)
            if row is None:
                row, v = [-x for x in v] if v[col] < 0 else list(v), [0] * m
            while v[col]:
                q = v[col] // row[col]
                v = [x - q * y for x, y in zip(v, row)]
                if v[col]:
                    row, v = v, row
            changed |= row is not rows.get(col)
            rows[col] = row
        if changed:
            for p in sorted(rows):
                for i in rows:
                    q = rows[i][p] // rows[p][p] if i < p else 0
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[p])]
    return [rows[p] for p in sorted(rows)], sorted(rows)


def _smith_factors(basis: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the lattice spanned by the
    nonzero rows of ``basis``.

    Alternate ``_hnf`` on the rows and on the transpose until every row
    holds one nonzero entry, then take the gcd/lcm chain of those entries.
    Each HNF multiplies one side by a unimodular matrix, so the factors are
    unchanged (dropped zero rows carry none).  The loop ends: after a row
    HNF the first pivot p is the only nonzero entry of its column.  If p
    divides the rest of its row, the next HNF clears that row too, and no
    later round touches p's row or column; otherwise the next first pivot,
    a gcd of p and that row, is strictly smaller.  A positive pivot cannot
    fall forever, so by induction on the size every round that is not yet
    diagonal brings the end closer (Kannan & Bachem, SIAM J. Comput. 1979).
    """
    mat = basis
    while True:
        mat, pivots = _hnf(mat, len(mat[0]))
        if sum(map(bool, chain.from_iterable(mat))) == len(mat):
            break
        mat = list(zip(*mat))
    factors = [row[p] for row, p in zip(mat, pivots)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return factors


@dataclass(frozen=True)
class IntLattice:
    """Sublattice of Z^m with its canonical HNF basis."""

    m: int
    generators: tuple
    hnf_basis: tuple
    pivots: tuple

    @property
    def rank(self) -> int:
        return len(self.hnf_basis)

    def to_json(self) -> dict:
        return {"m": self.m, "generators": [list(g) for g in self.generators]}


def _integer(x, what: str = "lattice entry") -> int:
    """x as an int; an x not equal to an integer (3/2, 2.7, "2"), or a
    bool, is a ValidationError, not truncated or read as 0 or 1."""
    try:
        n, d = x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):  # not a real number
        d = 0
    if d != 1 or type(x) is bool:
        raise ValidationError(f"{what} {quoted(x)} is not an integer")
    return n


def normalize(generators, ambient_dim: int | None = None) -> IntLattice:
    """Canonicalize a generating set into its Hermite normal form basis.
    Every entry must equal an integer."""
    gens = [tuple(map(_integer, g)) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise ValidationError("empty generating set needs an explicit dimension")
        ambient_dim = len(gens[0])
    m = _integer(ambient_dim, "ambient dimension")
    if m < 1 or m > MAX_DIM:
        raise ValidationError(f"ambient dimension must be in 1..{MAX_DIM}, "
                              f"the cap lattice.MAX_DIM = {MAX_DIM}")
    for g in gens:
        if len(g) != m:
            raise DimensionMismatch(
                f"generator {quoted(g)} does not have length {m}")
    basis, pivots = _hnf(gens, m)
    return IntLattice(
        m=m,
        generators=tuple(gens),
        hnf_basis=tuple(tuple(r) for r in basis),
        pivots=tuple(pivots),
    )


def _order(A: IntLattice, v):
    """The least t >= 1 with t*v in A, or INF if no multiple of v lies in A.

    Back-substitution over the HNF rows on integers, w = t*v minus the rows
    taken so far: before pivot p is reduced, w and t are scaled by
    P/gcd(w[p], P), P = row[p], the least factor that makes w[p] a multiple
    of P.  So t stays the least scale whose coefficients so far are all
    integers, and t*v is in A exactly when nothing is left of w.  A rational
    v starts from t = L, its entries' least common denominator, and w =
    L*v: the numerators over L share no factor with L, so no smaller scale
    makes t*v integral.
    """
    w = list(v)
    t = 1
    if not all(type(x) is int for x in w):  # integers, as quotient_info passes, need no pass
        try:
            t, w = common(x.as_integer_ratio() for x in w)
        except (AttributeError, ValueError, OverflowError):  # not a real number
            raise ValidationError(f"vector {quoted(v)} is not rational") from None
    if len(w) != A.m:
        raise DimensionMismatch(f"vector {quoted(v)} does not have length {A.m}")
    for row, p in zip(A.hnf_basis, A.pivots):
        piv = row[p]
        s = piv // gcd(w[p], piv)
        if s != 1:
            t *= s
            w = [s * x for x in w]
        c = w[p] // piv
        if c:
            for i in range(p, A.m):
                w[i] -= c * row[i]
    return INF if any(w) else t


def member(A: IntLattice, v) -> bool:
    """Exact membership test: v lies in A when its order is 1.  v may be
    rational; one that is not integral has order at least its denominator,
    so it is not a member."""
    return _order(A, v) == 1


@dataclass(frozen=True)
class QuotientInfo:
    """Derived invariants of the quotient Z^m / A."""

    rank: int
    orders: tuple  # per-coordinate order of [e_i], int or INF
    k: object  # max of orders, int or INF
    k_hat: int | None  # defined only when rank = m
    invariant_factors: tuple
    extension: bool  # True when rank < m (infinite orders are our extension)
    k_scalar: int | None  # m = 1 only: A = k_scalar * Z

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "k": ["inf" if o == INF else o for o in self.orders],
            "k_max": "inf" if self.k == INF else self.k,
            "k_hat": self.k_hat,
            "invariant_factors": list(self.invariant_factors),
            "extension": self.extension,
        }
        if self.k_scalar is not None:
            out["k_scalar"] = self.k_scalar
        return out


def quotient_info(A: IntLattice) -> QuotientInfo:
    """Rank, coset orders k_i, k, k_hat, and Smith invariant factors."""
    orders = []
    for i in range(A.m):
        e = [0] * A.m
        e[i] = 1
        t = _order(A, e)
        if t != INF and not member(A, [t * x for x in e]):
            raise AssertionError("order certificate failed")
        orders.append(t)
    rank = A.rank
    k = max(orders) if orders else 1
    k_hat = 2 * (k // 2) + 3 if rank == A.m else None
    factors = _smith_factors(A.hnf_basis) if rank else []
    k_scalar = None
    if A.m == 1:
        k_scalar = A.hnf_basis[0][0] if rank else 0
    return QuotientInfo(
        rank=rank,
        orders=tuple(orders),
        k=k,
        k_hat=k_hat,
        invariant_factors=tuple(factors),
        extension=rank < A.m,
        k_scalar=k_scalar,
    )


def kernel_functional(A: IntLattice):
    """A primitive integer functional vanishing on A (rank < m only).

    Policy: solve the echelon system for the nullspace basis vector whose
    free coordinate is the smallest non-pivot column, scale it to a primitive
    integer vector, and normalize the sign so the first nonzero entry is
    positive.  Deterministic given the canonical HNF basis.
    """
    if A.rank == A.m:
        raise FullRank("lattice has full rank; no nonzero orthogonal functional")
    f = next(i for i in range(A.m) if i not in A.pivots)
    c = [0] * A.m
    c[f] = 1
    # Back-substitute from the bottom row up, row . c = 0, scaling c by the
    # least factor that keeps c[p] integral.  The total scale is then the
    # lcm of the denominators of the rational solution, so c is primitive.
    for row, p in zip(reversed(A.hnf_basis), reversed(A.pivots)):
        piv = row[p]
        s = sum(row[i] * c[i] for i in range(p + 1, A.m))
        g = piv // gcd(s, piv)
        if g != 1:
            c = [g * x for x in c]
            s *= g
        c[p] = -s // piv
    if next(x for x in c if x) < 0:
        c = [-x for x in c]
    result = tuple(c)
    if any(sum(ci * gi for ci, gi in zip(result, gen)) for gen in A.generators):
        raise AssertionError("functional does not vanish on the generators")
    return result


def lattice_from_json(data) -> IntLattice:
    """Parse {"m": int, "generators": [[int,...],...]}; every entry must be
    a JSON integer."""
    if not isinstance(data, dict) or "m" not in data:
        raise ValidationError('lattice JSON needs keys "m" and "generators"')
    m, gens = data["m"], data.get("generators", [])
    if type(m) is not int or not isinstance(gens, list) or not all(
            isinstance(g, list) and all(type(x) is int for x in g)
            for g in gens):
        raise ValidationError('lattice "m" and generator entries must be integers')
    return normalize(gens, ambient_dim=m)
