import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

import oracles
from rotnorm import _kernels
from rotnorm._rat import INF, Q
from rotnorm.coset import AffineCoset, canonical_rep, theta, theta_sup
from rotnorm.errors import DimensionMismatch, RankDeficient, ValidationError
from rotnorm.lattice import member, normalize, quotient_info

from oracles import oracle_theta, oracle_theta_cost, oracle_theta_sup


class TestBuild:
    def test_offset_reduced(self):
        A = normalize([(2, 0), (0, 3)])
        z = AffineCoset.build(A, (Q(7, 2), Q(-5)))
        for (row, p) in zip(A.hnf_basis, A.pivots):
            assert 0 <= z.offset[p] < row[p]

    def test_same_coset_same_offset(self):
        A = normalize([(2, 0), (0, 3)])
        z1 = AffineCoset.build(A, (Q(1, 3), Q(1, 2)))
        z2 = AffineCoset.build(A, (Q(1, 3) + 4, Q(1, 2) - 9))
        assert z1.offset == z2.offset

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineCoset.build(normalize([(2,)]), (1, 2))


class TestCanonicalRep:
    def test_example(self):
        A = normalize([(2, 0), (0, 3)])
        z = AffineCoset.build(A, (Q(5), Q(-4)))
        assert canonical_rep(z) == (1, -1)

    def test_half_integer_tie_goes_positive(self):
        A = normalize([(2,)])
        z = AffineCoset.build(A, (Q(1),))
        assert canonical_rep(z) == (1,)
        z = AffineCoset.build(A, (Q(-1),))
        assert canonical_rep(z) == (1,)

    def test_rank_deficient_rejected(self):
        A = normalize([(1, 1)])
        with pytest.raises(RankDeficient):
            canonical_rep(AffineCoset.build(A, (Q(0), Q(0))))

    def test_lies_in_half_open_box(self):
        rng = random.Random(3)
        A = normalize([(4, 1), (0, 6)])
        info = quotient_info(A)
        for _ in range(50):
            off = tuple(Q(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(2))
            y = canonical_rep(AffineCoset.build(A, off))
            for i, ki in enumerate(info.orders):
                assert -Q(int(ki), 2) < y[i] <= Q(int(ki), 2)
            # same coset as the offset
            diff = [a - b for a, b in zip(y, off)]
            assert all(Q(v).denominator == 1 for v in diff)
            assert member(A, [int(v) for v in diff])


class TestTheta:
    def test_example_2d(self):
        A = normalize([(2, 0), (0, 3)])
        z = AffineCoset.build(A, (Q(6, 5), Q(1, 2)))
        nd = theta(z)
        assert nd.theta == Q(4, 5)
        assert nd.theta_points == ((Q(-4, 5), Q(1, 2)),)

    def test_two_z_tie(self):
        A = normalize([(2,)])
        nd = theta(AffineCoset.build(A, (Q(1),)))
        assert nd.theta == 1
        assert set(nd.theta_points) == {(Q(-1),), (Q(1),)}

    def test_zero_offset(self):
        A = normalize([(2, 0), (0, 3)])
        nd = theta(AffineCoset.build(A, (Q(4), Q(-3))))
        assert nd.theta == 0
        assert nd.theta_points == ((Q(0), Q(0)),)

    def test_zero_iff_member(self):
        A = normalize([(2, 1), (0, 3)])
        rng = random.Random(9)
        for _ in range(40):
            v = [rng.randint(-6, 6) for _ in range(2)]
            nd = theta(AffineCoset.build(A, [Q(x) for x in v]))
            assert (nd.theta == 0) == member(A, v)

    def test_coset_invariance(self):
        A = normalize([(3, 1, 0), (0, 2, 0), (0, 0, 4)])
        rng = random.Random(13)
        for _ in range(25):
            off = [Q(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3)]
            shift = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(3)]
            moved = [o + sum(s * row[i] for s, row in zip(shift, A.hnf_basis))
                     for i, o in enumerate(off)]
            assert theta(AffineCoset.build(A, off)).theta == (
                theta(AffineCoset.build(A, moved)).theta
            )

    def test_rep_norm_sandwich(self):
        # theta <= l-infinity norm of the canonical representative <= k/2
        rng = random.Random(21)
        A = normalize([(4, 1), (0, 6)])
        k = quotient_info(A).k
        for _ in range(30):
            off = [Q(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(2)]
            z = AffineCoset.build(A, off)
            rep = canonical_rep(z)
            rep_norm = max(abs(v) for v in rep)
            assert theta(z).theta <= rep_norm <= Q(int(k), 2)

    def test_points_are_in_coset_and_attain(self):
        A = normalize([(5, 2), (0, 3)])
        z = AffineCoset.build(A, (Q(7, 3), Q(5, 6)))
        nd = theta(z)
        for p in nd.theta_points:
            assert max(abs(v) for v in p) == nd.theta
            diff = [a - b for a, b in zip(p, z.offset)]
            assert all(Q(v).denominator == 1 for v in diff)
            assert member(A, [int(v) for v in diff])


class TestThetaLargeMagnitudes:
    """Rescaled bases and targets past 2**31: the kernel's integers are
    unbounded, so theta stays exact however large the lattice entries."""

    BIG = 2**33 + 1

    def test_large_diagonal_lattice(self):
        A = normalize([(self.BIG, 0), (0, 3)])
        # Coordinatewise: 1/3 is the only value of 1/3 + BIG*Z within 3/2,
        # and 3/2 + 3Z ties at +-3/2.
        nd = theta(AffineCoset.build(A, (Q(1, 3), Q(3, 2))))
        assert nd.theta == Q(3, 2)
        assert nd.theta_points == ((Q(1, 3), Q(-3, 2)), (Q(1, 3), Q(3, 2)))
        # The offset is reduced to (BIG - 1/3, 1/2): a target past 2**31.
        z = AffineCoset.build(A, (Q(-1, 3), Q(1, 2)))
        assert z.offset[0] * 6 > 2**31
        nd = theta(z)
        assert nd.theta == Q(1, 2)
        assert nd.theta_points == ((Q(-1, 3), Q(1, 2)),)

    def test_large_theta_on_free_coordinate(self):
        # Rank 1: the first coordinate is fixed, the second moves by 2**42 + 1.
        A = normalize([(0, 2**42 + 1)], ambient_dim=2)
        nd = theta(AffineCoset.build(A, (2**40 + Q(1, 2), Q(1, 3))))
        assert nd.theta == 2**40 + Q(1, 2)
        assert nd.theta_points == ((2**40 + Q(1, 2), Q(1, 3)),)

    def test_shift_by_lattice_vector_near_2_40(self):
        A = normalize([(self.BIG, 0), (0, 3)])
        off = (Q(1, 3), Q(3, 2))
        want = theta(AffineCoset.build(A, off))
        for s in (1, -1):
            shift = (s * 128 * self.BIG, s * 3 * (2**40 // 3))
            moved = [o + v for o, v in zip(off, shift)]
            assert theta(AffineCoset.build(A, moved)) == want


class TestCvpMin:
    """The value-only kernel against the enumerating kernel and brute force."""

    def test_matches_enumeration_and_brute_force(self):
        # Denominators up to 2**33 + 1 put basis and target entries past
        # 2**31; the brute force works on Fractions, so its cost is unchanged.
        rng = random.Random(20261018)
        dims = []
        while len(dims) < 400:
            m = rng.randint(2, 5)
            gens = [
                [rng.randint(-5, 5) for _ in range(m)]
                for _ in range(rng.randint(1, m + 1))
            ]
            A = normalize(gens, ambient_dim=m)
            if not A.rank:
                continue
            hnf = [list(r) for r in A.hnf_basis]
            pivots = list(A.pivots)
            den = rng.choice((1, 2, 3, 4, 6, 2**33 + 1))
            target = [rng.randint(-6 * den, 6 * den) for _ in range(m)]
            frac = [Fraction(t, den) for t in target]
            if oracle_theta_cost(hnf, pivots, frac) > 20_000:
                continue
            basis = [[den * e for e in row] for row in hnf]
            got = _kernels.cvp_min(basis, pivots, target)
            bound = max(map(abs, target))
            assert got == _kernels.cvp_enumerate(
                basis, pivots, target, bound)[0], (hnf, den, target)
            assert Fraction(got, den) == oracle_theta(hnf, pivots, frac)[0]
            dims.append(m)
        assert set(dims) == {2, 3, 4, 5}

    def test_targets_in_the_lattice(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(2, 5)
            A = normalize([[rng.randint(-9, 9) for _ in range(m)]
                           for _ in range(rng.randint(1, m))], ambient_dim=m)
            basis = [[(2**33 + 1) * e for e in row] for row in A.hnf_basis]
            coeffs = [rng.randint(-50, 50) for _ in basis]
            target = [sum(c * row[i] for c, row in zip(coeffs, basis))
                      for i in range(m)]
            assert _kernels.cvp_min(basis, list(A.pivots), target) == 0

    def test_large_magnitudes_by_hand(self):
        # theta((BIG - 1/3, 1/2) + A) = 1/2 for A = BIG*Z x 3Z, over den 6,
        # also after a shift by a lattice vector with entries near 2**40.
        big = TestThetaLargeMagnitudes.BIG
        basis = [[6 * big, 0], [0, 18]]
        for shift in ((0, 0), (128 * big, 3 * (2**40 // 3)),
                      (-128 * big, -3 * (2**40 // 3))):
            target = [6 * (big + shift[0]) - 2, 3 + 6 * shift[1]]
            assert _kernels.cvp_min(basis, [0, 1], target) == 3
        # Rank 1 in Z^2: the first coordinate, 2**40 + 1/2, is never moved.
        basis = [[0, 6 * (2**42 + 1)]]
        target = [6 * 2**40 + 3, 2 + 6 * (2**42 + 1)]
        assert _kernels.cvp_min(basis, [1], target) == 6 * 2**40 + 3


class TestThetaOracle:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(42)
        checked = 0
        while checked < 100:
            m = rng.randint(1, 3)
            gens = [
                [rng.randint(-5, 5) for _ in range(m)]
                for _ in range(rng.randint(0, m + 1))
            ]
            A = normalize(gens, ambient_dim=m)
            off = [Q(rng.randint(-15, 15), rng.randint(1, 8)) for _ in range(m)]
            frac_off = [Fraction(int(Q(o).numerator), int(Q(o).denominator))
                        for o in off]
            if oracle_theta_cost(
                [list(r) for r in A.hnf_basis], list(A.pivots), frac_off
            ) > 200_000:
                continue
            nd = theta(AffineCoset.build(A, off))
            want, want_pts = oracle_theta(
                [list(r) for r in A.hnf_basis], list(A.pivots), frac_off,
            )
            assert Fraction(int(nd.theta.numerator),
                            int(nd.theta.denominator)) == want
            got_pts = sorted(
                tuple(Fraction(int(Q(v).numerator), int(Q(v).denominator))
                      for v in p)
                for p in nd.theta_points
            )
            assert got_pts == want_pts
            checked += 1


class TestThetaSup:
    def test_scalar_exact(self):
        A = normalize([(6,)])
        assert theta_sup(A, Q(1, 100)) == (3, 3)

    def test_z2_collapses_to_half(self):
        lo, hi = theta_sup(normalize([(1, 0), (0, 1)]), Q(1, 16))
        assert lo == Q(1, 2) and hi == Q(1, 2)

    def test_rank_deficient_infinite(self):
        assert theta_sup(normalize([(1, 1)]), Q(1, 4)) == (INF, INF)

    def test_interval_is_certified(self):
        A = normalize([(2, 0), (0, 3)])
        eps = Q(1, 8)
        lo, hi = theta_sup(A, eps)
        assert lo <= hi <= lo + eps
        k = quotient_info(A).k
        assert hi <= Q(int(k), 2)
        # the sup dominates theta at sampled offsets
        rng = random.Random(5)
        for _ in range(20):
            off = [Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2)]
            assert theta(AffineCoset.build(A, off)).theta <= hi

    def test_epsilon_validation(self):
        with pytest.raises(ValidationError):
            theta_sup(normalize([(2,)]), 0)


@st.composite
def _hnf_and_epsilon(draw):
    """An upper-triangular HNF (m = 2 or 3, pivots <= 9) and an epsilon."""
    m = draw(st.sampled_from((2, 3)))
    pivots = [draw(st.integers(1, 9)) for _ in range(m)]
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = pivots[i]
        for j in range(i + 1, m):
            rows[i][j] = draw(st.integers(0, pivots[j] - 1))
    return rows, draw(st.sampled_from((Q(2), Q(1, 2), Q(1, 4))))


class TestThetaSupOracle:
    """The heap search against the list-based search it replaced."""

    # Both searches split every side of a box, so they can evaluate up to
    # about (k/epsilon)^m corners, and the list-based one costs the square of
    # its box count.  Draws with more cells than this are skipped.
    CELLS = 2000

    @seed(20251018)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_hnf_and_epsilon())
    def test_matches_list_search(self, case):
        rows, eps = case
        A = normalize(rows)
        assume((Q(int(quotient_info(A).k)) / eps) ** A.m <= self.CELLS)

        def corner(basis, pivots, target):
            # The kernel gets the basis scaled by the corners' denominator.
            den = basis[0][pivots[0]] // A.hnf_basis[0][pivots[0]]
            return AffineCoset.build(A, [Q(n, den) for n in target]).offset

        with pytest.MonkeyPatch.context() as mp:
            heap_order = _record_calls(mp, _kernels, "cvp_min", corner)
            got = theta_sup(A, eps)
            mp.undo()
            list_order = _record_calls(mp, oracles, "theta", lambda z: z.offset)
            want = oracle_theta_sup(A, eps)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        # Same corners in the same order, less each split's first half,
        # whose corner is its parent's.
        halves = 1 << A.m
        assert heap_order == list_order[:1] + [
            c for i, c in enumerate(list_order[1:]) if i % halves]


def _record_calls(monkeypatch, module, name, key):
    """Wrap module.name; the returned list gets key(*args) for each call."""
    seen = []
    inner = getattr(module, name)

    def recorded(*args, **kwargs):
        seen.append(key(*args, **kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


class TestThetaSupCost:
    def test_skewed_m3_lattice_within_a_minute(self):
        # The list-based search made 35,841 theta calls here in about 3 min.
        A = normalize([(1, 0, 5), (0, 1, 46), (0, 0, 61)])
        start = time.perf_counter()
        assert theta_sup(A, 2) == (Q(5, 2), Q(9, 2))
        assert time.perf_counter() - start < 60

    def test_first_half_reuses_the_parent_theta(self, monkeypatch):
        # Each split of an m = 2 box evaluates 3 new corners, not 4.
        A = normalize([(1, 9), (0, 29)])
        core = _record_calls(monkeypatch, _kernels, "cvp_min", lambda *a: a)
        listed = _record_calls(monkeypatch, oracles, "theta", lambda z: z)
        assert theta_sup(A, Q(1, 2)) == (Q(7, 2), Q(4))
        assert (len(core), len(listed)) == (1003, 0)
        assert oracle_theta_sup(A, Q(1, 2)) == (Q(7, 2), Q(4))
        assert len(listed) == 1337
