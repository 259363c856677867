from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotnorm._rat import INF
from rotnorm.errors import DimensionMismatch, FullRank, ValidationError
from rotnorm.lattice import (
    kernel_functional,
    lattice_from_json,
    member,
    normalize,
    quotient_info,
)

sympy = pytest.importorskip("sympy")


class TestNormalize:
    def test_example_hnf(self):
        A = normalize([(2, 0), (4, 3), (2, 3)])
        assert A.hnf_basis == ((2, 0), (0, 3))
        assert A.pivots == (0, 1)

    def test_scalar(self):
        A = normalize([(6,), (10,)])
        assert A.hnf_basis == ((2,),)

    def test_rank_deficient(self):
        A = normalize([(1, 1, 0), (0, 0, 2)])
        assert A.rank == 2
        assert A.pivots == (0, 2)

    def test_empty_needs_dim(self):
        with pytest.raises(ValidationError):
            normalize([])
        assert normalize([], ambient_dim=3).rank == 0

    def test_dim_cap(self):
        with pytest.raises(ValidationError):
            normalize([], ambient_dim=9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            normalize([(1, 2), (1, 2, 3)])

    def test_pivot_reduction_range(self):
        A = normalize([(1, 7), (0, 3)])
        # entries above a pivot lie in [0, pivot)
        for j, p in enumerate(A.pivots):
            piv = A.hnf_basis[j][p]
            assert piv > 0
            for i in range(j):
                assert 0 <= A.hnf_basis[i][p] < piv


small_vecs = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda vs: len({len(v) for v in vs}) == 1)


class TestNormalizeProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_vecs)
    def test_idempotent(self, vecs):
        A = normalize(vecs)
        B = normalize(A.hnf_basis, ambient_dim=A.m)
        assert B.hnf_basis == A.hnf_basis
        assert B.pivots == A.pivots

    @settings(max_examples=80, deadline=None)
    @given(small_vecs)
    def test_mutual_membership(self, vecs):
        A = normalize(vecs)
        for v in vecs:
            assert member(A, v)
        B = normalize(vecs * 2, ambient_dim=A.m)
        assert B.hnf_basis == A.hnf_basis
        for row in A.hnf_basis:
            spanned = normalize(vecs, ambient_dim=A.m)
            assert member(spanned, row)

    @settings(max_examples=60, deadline=None)
    @given(small_vecs)
    def test_closed_under_sums(self, vecs):
        A = normalize(vecs)
        u, v = vecs[0], vecs[-1]
        assert member(A, [a + b for a, b in zip(u, v)])
        assert member(A, [-a for a in u])


class TestQuotientInfo:
    def test_example(self):
        A = normalize([(2, 0), (4, 3), (2, 3)])
        info = quotient_info(A)
        assert info.rank == 2
        assert info.orders == (2, 3)
        assert info.k == 3
        assert info.k_hat == 5
        assert info.invariant_factors == (1, 6)
        assert not info.extension

    def test_scalar_lattice(self):
        info = quotient_info(normalize([(3,)]))
        assert info.k == 3 and info.k_scalar == 3 and info.k_hat == 5

    def test_rank_deficient_orders(self):
        A = normalize([(1, 1, 0)])
        info = quotient_info(A)
        assert info.rank == 1
        assert info.extension
        assert info.k == INF
        assert info.k_hat is None
        # e_1 - e_2 generates the line; both unit cosets have infinite order
        assert info.orders[2] == INF

    def test_diagonal_orders(self):
        info = quotient_info(normalize([(4, 0, 0), (0, 1, 0), (0, 0, 6)]))
        assert info.orders == (4, 1, 6)
        assert info.k == 6
        assert info.k_hat == 9

    def test_k_hat_sequence(self):
        # k = 1..6 gives k_hat = 3, 5, 5, 7, 7, 9
        got = [quotient_info(normalize([(k,)])).k_hat for k in range(1, 7)]
        assert got == [3, 5, 5, 7, 7, 9]

    def test_order_certificates(self):
        A = normalize([(2, 1), (0, 5)])
        info = quotient_info(A)
        for i, t in enumerate(info.orders):
            e = [0] * A.m
            e[i] = 1
            assert member(A, [t * x for x in e])
            # minimality: no smaller positive multiple lies in A
            for s in range(1, int(t)):
                assert not member(A, [s * x for x in e])

    @settings(max_examples=60, deadline=None)
    @given(small_vecs)
    def test_rank_full_iff_finite(self, vecs):
        A = normalize(vecs)
        info = quotient_info(A)
        finite = all(o != INF for o in info.orders)
        assert finite == (info.rank == A.m)
        assert info.extension == (info.rank < A.m)

    def test_quotient_order_equals_invariant_product(self):
        # brute-force coset counting in small full-rank cases
        cases = [
            [(2, 0), (0, 3)],
            [(2, 1), (0, 3)],
            [(4,)],
            [(1, 0, 0), (0, 2, 0), (0, 1, 4)],
            [(3, 1), (1, 3)],
        ]
        for gens in cases:
            A = normalize(gens)
            info = quotient_info(A)
            assert info.rank == A.m
            expected = 1
            for d in info.invariant_factors:
                expected *= d
            bound = max(info.orders) * 2
            seen = set()
            for v in product(range(bound), repeat=A.m):
                seen.add(_coset_key(A, v))
            assert len(seen) == expected
            # keys really separate cosets: same key iff difference is a member
            sample = sorted(seen)[: min(len(seen), 6)]
            for a in sample:
                for b in sample:
                    assert member(A, [x - y for x, y in zip(a, b)]) == (a == b)


def _coset_key(A, v):
    """Canonical residue of v + A: reduce each pivot coordinate into
    [0, pivot).  Top-down order keeps earlier pivots reduced because later
    HNF rows vanish on earlier pivot columns."""
    w = list(v)
    for row, p in zip(A.hnf_basis, A.pivots):
        c = w[p] // row[p]
        if c:
            for i in range(A.m):
                w[i] -= c * row[i]
    return tuple(w)


class TestSmithOracle:
    @settings(max_examples=50, deadline=None)
    @given(small_vecs)
    def test_matches_sympy(self, vecs):
        A = normalize(vecs)
        info = quotient_info(A)
        if A.rank == 0:
            assert info.invariant_factors == ()
            return
        from sympy.matrices.normalforms import smith_normal_form

        M = sympy.Matrix([list(r) for r in A.hnf_basis])
        D = smith_normal_form(M)
        diag = [int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0]
        assert list(info.invariant_factors) == diag


class TestKernelFunctional:
    def test_example(self):
        A = normalize([(1, 1, 0), (0, 0, 2)])
        assert kernel_functional(A) == (1, -1, 0)

    def test_empty_lattice(self):
        assert kernel_functional(normalize([], ambient_dim=1)) == (1,)

    def test_full_rank_rejected(self):
        with pytest.raises(FullRank):
            kernel_functional(normalize([(2, 0), (0, 3)]))

    @settings(max_examples=80, deadline=None)
    @given(small_vecs)
    def test_vanishes_primitive_positive(self, vecs):
        A = normalize(vecs)
        if A.rank == A.m:
            return
        c = kernel_functional(A)
        from math import gcd

        assert all(
            sum(ci * gi for ci, gi in zip(c, gen)) == 0 for gen in A.generators
        )
        g = 0
        for x in c:
            g = gcd(g, abs(x))
        assert g == 1
        assert next(x for x in c if x) > 0


class TestJsonRoundtrip:
    def test_roundtrip(self):
        A = normalize([(2, 0), (4, 3)])
        B = lattice_from_json(A.to_json())
        assert B.hnf_basis == A.hnf_basis

    def test_bad_payload(self):
        with pytest.raises(ValidationError):
            lattice_from_json({"generators": [[1]]})

    def test_non_integer_entries_rejected(self):
        for data in ({"m": 2, "generators": [[1, "a"]]},
                     {"m": 2, "generators": [[1, 2.0]]},
                     {"m": 2, "generators": [[1, True]]},
                     {"m": 2, "generators": [3, 4]},
                     {"m": 2, "generators": "12"},
                     {"m": "x", "generators": []},
                     {"m": 2.0, "generators": [[1, 0]]}):
            with pytest.raises(ValidationError, match="integers"):
                lattice_from_json(data)
