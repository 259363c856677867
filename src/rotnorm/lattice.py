"""Exact invariants of integer sublattices A < Z^m.

Row-style Hermite normal form (positive pivots, entries above a pivot reduced
into [0, pivot)) gives a unique canonical basis.  From it we derive the rank,
the orders k_i of the unit cosets [e_i] in Z^m/A, k = max k_i, the bound
constant k_hat = 2*floor(k/2) + 3, Smith invariant factors, and — in the
rank-deficient case — a primitive integer functional vanishing on A.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from rotnorm._rat import INF, Q, common
from rotnorm.errors import DimensionMismatch, FullRank, ValidationError

MAX_DIM = 8


def _hnf(vectors: list[list[int]], m: int):
    """Row HNF; returns (basis rows, pivot columns)."""
    work = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(m):
        # Reduce until at most one working row is nonzero in this column.
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
    # Reduce entries above each pivot into [0, pivot).
    for j in range(len(basis)):
        pj = pivots[j]
        piv = basis[j][pj]
        for i in range(j):
            q = basis[i][pj] // piv
            if q:
                for col in range(m):
                    basis[i][col] -= q * basis[j][col]
    return basis, pivots


def _smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""
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


def normalize(generators, ambient_dim: int | None = None) -> IntLattice:
    """Canonicalize a generating set into its Hermite normal form basis."""
    gens = [tuple(int(x) for x in g) for g in generators]
    if ambient_dim is None:
        if not gens:
            raise ValidationError("empty generating set needs an explicit dimension")
        ambient_dim = len(gens[0])
    m = int(ambient_dim)
    if m < 1 or m > MAX_DIM:
        raise ValidationError(f"ambient dimension must be in 1..{MAX_DIM}")
    for g in gens:
        if len(g) != m:
            raise DimensionMismatch(f"generator {g} does not have length {m}")
    basis, pivots = _hnf([list(g) for g in gens], m)
    return IntLattice(
        m=m,
        generators=tuple(gens),
        hnf_basis=tuple(tuple(r) for r in basis),
        pivots=tuple(pivots),
    )


def member(A: IntLattice, v) -> bool:
    """Exact membership test by triangular integer back-substitution."""
    w = [int(x) for x in v]
    if len(w) != A.m:
        raise DimensionMismatch(f"vector {v} does not have length {A.m}")
    for row, p in zip(A.hnf_basis, A.pivots):
        if w[p] % row[p] != 0:
            return False
        c = w[p] // row[p]
        if c:
            for i in range(A.m):
                w[i] -= c * row[i]
    return not any(w)


def _rational_coefficients(A: IntLattice, v):
    """Coefficients of v over the HNF basis in Q, or None if v is outside
    the rational span."""
    w = [Q(int(x)) for x in v]
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
        coeffs = _rational_coefficients(A, e)
        if coeffs is None:
            orders.append(INF)
            continue
        # min t >= 1 with all t*c_j integral is the lcm of the denominators
        t = lcm(*(c.denominator for c in coeffs))
        scaled = [t * x for x in e]
        assert member(A, scaled), "order certificate failed"
        orders.append(t)
    rank = A.rank
    k = max(orders) if orders else 1
    k_hat = 2 * (k // 2) + 3 if rank == A.m else None
    factors = _smith_invariant_factors([list(r) for r in A.hnf_basis]) if rank else []
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
