import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rotnorm._rat import INF
from rotnorm.errors import DimensionMismatch, FullRank, ValidationError
from rotnorm.lattice import (
    _hnf,
    _order,
    _smith_factors,
    kernel_functional,
    lattice_from_json,
    member,
    normalize,
    quotient_info,
)

from oracles import (
    oracle_hnf,
    oracle_kernel_functional,
    oracle_order,
    oracle_rational_coefficients,
    oracle_smith_invariant_factors,
)


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


def _seeded_generator_sets():
    """3,000 seeded (m, generators): m = 1..6, 0 to 9 generators, entries
    drawn from [-b, b] with b one of 1, 3, 20 or 1000."""
    rng = random.Random(3)
    out = []
    for _ in range(3000):
        m, b = rng.randint(1, 6), rng.choice((1, 3, 20, 1000))
        out.append((m, [[rng.randint(-b, b) for _ in range(m)]
                        for _ in range(rng.randint(0, 9))]))
    return out


class TestFold:
    """``_hnf`` folds one generator at a time; ``oracle_hnf`` is the batch
    elimination it replaced."""

    def test_matches_the_batch_oracle(self):
        for m, gens in _seeded_generator_sets():
            got = _hnf(gens, m)
            assert got == oracle_hnf(gens, m), (m, gens)
            if got[0]:  # the transpose, as _smith_factors passes it
                t = list(zip(*got[0]))
                assert _hnf(t, len(t[0])) == oracle_hnf(t, len(t[0])), t

    def test_leaves_its_input_alone(self):
        gens = [[0, -4, 6], (2, 3, 5), [0, 2, 0]]
        _hnf(gens, 3)
        assert gens == [[0, -4, 6], (2, 3, 5), [0, 2, 0]]

    def test_many_large_generators_in_linear_time(self):
        # Column j holds multiples of j + 1 up to 10^1000 in size, so the
        # 400 generators span the lattice with HNF diag(1, ..., 8).  On a
        # 2-vCPU host with Python 3.11.7 the batch elimination took about
        # 20 s on them, the fold about 0.5 s.
        rng = random.Random(400)
        top = 10 ** 1000
        gens = [[(j + 1) * rng.randint(-top // (j + 1), top // (j + 1))
                 for j in range(8)] for _ in range(400)]
        start = time.perf_counter()
        A = normalize(gens)
        assert time.perf_counter() - start < 3.0
        assert A.pivots == tuple(range(8))
        assert A.hnf_basis == tuple(
            tuple(j + 1 if i == j else 0 for j in range(8)) for i in range(8))
        assert all(member(A, g) for g in gens)


class TestNonIntegerEntries:
    """normalize refuses a generator entry that is not an integer, and
    member is exact on rational vectors; both used to truncate with int()."""

    @pytest.mark.parametrize("gens", [
        [[Fraction(3, 2), 0], [0, 2]],
        [[1, 0], [0, 2.7]],
        [["2"]],
        [[None]],
        [[float("inf")]],
        [[True, 0], [0, 2]],
    ], ids=["fraction", "float", "string", "none", "infinity", "bool"])
    def test_normalize_refuses_entries_that_are_not_integers(self, gens):
        with pytest.raises(ValidationError, match="is not an integer"):
            normalize(gens)

    @pytest.mark.parametrize("m", [2.5, Fraction(5, 2), True, "2"],
                             ids=["float", "fraction", "bool", "string"])
    def test_normalize_refuses_an_ambient_dim_that_is_not_an_integer(self, m):
        with pytest.raises(ValidationError, match="ambient dimension"):
            normalize([[1, 0]], ambient_dim=m)
        assert normalize([[1, 0]], ambient_dim=2.0).m == 2

    def test_entries_equal_to_integers_are_kept(self):
        A = normalize([[Fraction(4, 2), 0], [0, 3.0]])
        assert A.hnf_basis == ((2, 0), (0, 3))
        assert A.generators == ((2, 0), (0, 3))
        assert all(type(x) is int for g in A.generators for x in g)

    def test_member_is_exact_on_rational_vectors(self):
        Z = normalize([[1]])
        assert not member(Z, [Fraction(1, 2)])
        assert _order(Z, [Fraction(1, 2)]) == 2
        assert member(Z, [Fraction(6, 3)])
        A = normalize([[2, 0], [0, 3]])
        assert _order(A, [Fraction(1, 2), Fraction(1, 3)]) == 36
        assert _order(A, [Fraction(1, 2), 0.5]) == 12
        assert not member(A, [Fraction(1, 2), 0])
        assert member(A, [Fraction(4, 2), 3.0])
        assert _order(normalize([[1, 1]]), [Fraction(1, 2), 0]) == INF

    @pytest.mark.parametrize("entry", ["1/2", float("inf"), float("nan"),
                                       1j, None],
                             ids=["str", "inf", "nan", "complex", "none"])
    def test_member_refuses_a_vector_that_is_not_rational(self, entry):
        with pytest.raises(ValidationError, match="is not rational"):
            member(normalize([[2, 0], [0, 3]]), [Fraction(1, 2), entry])

    @pytest.mark.parametrize("v", [[2, 0, 0], [Fraction(1, 2)]],
                             ids=["integer", "rational"])
    def test_member_refuses_a_vector_of_the_wrong_length(self, v):
        with pytest.raises(DimensionMismatch, match="does not have length 2"):
            member(normalize([[2, 0], [0, 3]]), v)

    @seed(20251103)
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rational_orders_match_the_oracle(self, data):
        m, gens = data.draw(wide_generators())
        A = normalize(gens, ambient_dim=m)
        v = data.draw(st.lists(st.fractions(-50, 50, max_denominator=12),
                               min_size=m, max_size=m))
        assert _order(A, v) == oracle_order(A, v)
        assert member(A, v) == _oracle_member(A, v)


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
        sympy = pytest.importorskip("sympy")
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


@st.composite
def wide_generators(draw):
    """(m, generators): m = 1..8, entries up to +-1000, 0 to m + 2
    generators, some columns all zero, and sometimes one generator an
    integer combination of two others."""
    m = draw(st.integers(1, 8))
    zero = draw(st.sets(st.integers(0, m - 1), max_size=m))
    gens = [[0 if j in zero else draw(st.integers(-1000, 1000))
             for j in range(m)] for _ in range(draw(st.integers(0, m + 2)))]
    if len(gens) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        gens.append([a * x + b * y for x, y in zip(gens[0], gens[1])])
    return m, gens


def _oracle_member(A, v):
    coeffs = oracle_rational_coefficients(A, v)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


class TestAgainstEliminationOracles:
    """The integer routines on the one HNF against the elimination and
    Fraction paths they replaced (``tests/oracles.py``)."""

    @seed(20251101)
    @settings(max_examples=300, deadline=None)
    @given(wide_generators(), st.data())
    def test_orders(self, case, data):
        m, gens = case
        A = normalize(gens, ambient_dim=m)
        info = quotient_info(A)
        for i in range(m):
            e = [0] * m
            e[i] = 1
            assert info.orders[i] == oracle_order(A, e)
        v = data.draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m))
        assert _order(A, v) == oracle_order(A, v)
        assert member(A, v) == _oracle_member(A, v)

    @seed(20251102)
    @settings(max_examples=300, deadline=None)
    @given(wide_generators())
    def test_invariant_factors(self, case):
        m, gens = case
        A = normalize(gens, ambient_dim=m)
        want = oracle_smith_invariant_factors(A.hnf_basis) if A.rank else []
        assert list(quotient_info(A).invariant_factors) == want
        # The raw generators span the same lattice; with zero and dependent
        # rows they take more rounds.
        if gens:
            assert _smith_factors(gens) == want

    @seed(20251103)
    @settings(max_examples=300, deadline=None)
    @given(wide_generators())
    def test_kernel_functional(self, case):
        m, gens = case
        A = normalize(gens, ambient_dim=m)
        if A.rank < m:
            assert kernel_functional(A) == oracle_kernel_functional(A)

    @seed(20251104)
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                 max_size=m + 1),
        st.lists(st.integers(-9, 9), min_size=m, max_size=m))))
    def test_order_is_least_multiple(self, case):
        # Brute force over t <= 50: t*v is in A exactly for the multiples
        # of the order.
        gens, v = case
        A = normalize(gens, ambient_dim=len(v))
        order = _order(A, v)
        for t in range(1, 51):
            assert _oracle_member(A, [t * x for x in v]) == (
                order != INF and t % order == 0)


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


class TestSelfChecksUnderO:
    """The self-checks raise explicitly, so ``python -O`` keeps them."""

    @pytest.mark.parametrize("fault, call, message", [
        # every order certificate fails
        ("L.member = lambda A, v: False",
         "L.quotient_info(L.normalize([(2, 0), (0, 3)]))",
         "order certificate failed"),
        # generators that disagree with the HNF basis they are stored with
        ("A = L.IntLattice(m=2, generators=((1, 1),), hnf_basis=((1, 0),),"
         " pivots=(0,))",
         "L.kernel_functional(A)",
         "functional does not vanish"),
    ], ids=["quotient_info", "kernel_functional"])
    def test_planted_fault_raises(self, fault, call, message):
        script = f"from rotnorm import lattice as L\n{fault}\n{call}\n"
        r = subprocess.run([sys.executable, "-O", "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 1, r.stdout
        assert f"AssertionError: {message}" in r.stderr


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
