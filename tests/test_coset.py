import random
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from rotnorm import _kernels, coset, lattice
from rotnorm._rat import INF, Q, common
from rotnorm.coset import (
    AffineCoset, _sup_bfs, canonical_rep, theta, theta_sup,
)
from rotnorm.errors import DimensionMismatch, RankDeficient, ValidationError
from rotnorm.lattice import member, normalize, quotient_info

from oracles import (
    oracle_canonical_rep,
    oracle_cvp_enumerate,
    oracle_sup_bfs,
    oracle_theta,
    oracle_theta_cost,
    oracle_theta_sup,
)


class TestBuild:
    def test_offset_reduced(self):
        A = normalize([(2, 0), (0, 3)])
        z = AffineCoset.build(A, (Q(7, 2), Q(-5)))
        assert z.offset == (Q(-1, 2), Q(1))
        for (row, p) in zip(A.hnf_basis, A.pivots):
            assert -row[p] < 2 * z.offset[p] <= row[p]

    def test_same_coset_same_offset(self):
        A = normalize([(2, 0), (0, 3)])
        z1 = AffineCoset.build(A, (Q(1, 3), Q(1, 2)))
        z2 = AffineCoset.build(A, (Q(1, 3) + 4, Q(1, 2) - 9))
        assert z1.offset == z2.offset

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AffineCoset.build(normalize([(2,)]), (1, 2))

    @seed(20251020)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda m: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                 max_size=m + 1),
        st.lists(st.fractions(-50, 50, max_denominator=12),
                 min_size=m, max_size=m))))
    def test_canonical_offset_in_same_coset(self, case):
        # The offset with every pivot coordinate in (-pivot/2, pivot/2] is
        # unique in its coset, so these two properties pin build's result.
        gens, off = case
        A = normalize(gens, ambient_dim=len(off))
        z = AffineCoset.build(A, off)
        for row, p in zip(A.hnf_basis, A.pivots):
            assert -row[p] < 2 * z.offset[p] <= row[p]
        diff = [a - b for a, b in zip(z.offset, off)]
        assert all(v.denominator == 1 for v in diff)
        assert member(A, [int(v) for v in diff])


class TestCentredRepresentative:
    """Every AffineCoset holds its centred representative, however it was
    made, so cosets compare equal exactly when they are the same coset and
    theta reduces nothing itself."""

    def test_construction_is_the_coset(self, monkeypatch):
        rng = random.Random(32)
        made = []
        while len(made) < 80:
            m = rng.randint(1, 4)
            gens = [[rng.randint(-6, 6) for _ in range(m)]
                    for _ in range(rng.randint(0, m + 1))]
            A = normalize(gens, ambient_dim=m)
            x = tuple(Q(rng.randint(-20, 20), rng.randint(1, 6))
                      for _ in range(m))
            coeffs = [rng.randint(-5, 5) for _ in A.hnf_basis]
            moved = [v + sum(c * row[i] for c, row in zip(coeffs, A.hnf_basis))
                     for i, v in enumerate(x)]
            z = AffineCoset(lattice=A, offset=x)
            assert z == AffineCoset.build(A, moved), (A, x)
            assert hash(z) == hash(AffineCoset.build(A, moved))
            for row, p in zip(A.hnf_basis, A.pivots):
                assert -row[p] < 2 * z.offset[p] <= row[p]
            if A.rank == m:
                assert canonical_rep(z) == z.offset
            for wrong in (x + (Q(0),), x[1:]):
                with pytest.raises(DimensionMismatch):
                    AffineCoset(lattice=A, offset=wrong)
            made.append((z, theta(z)))

        def refuse(*args):
            raise AssertionError("theta reduced the offset again")

        monkeypatch.setattr(coset, "_reduce", refuse)
        for z, want in made:
            assert theta(z) == want


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

    def test_matches_fraction_oracle(self):
        # Seeded full-rank lattices with m <= 4, at random offsets and at
        # offsets whose pivot coordinates sit on the ties +-P/2 (unreduced,
        # so -P/2 must move to +P/2).
        rng = random.Random(29)
        checked = 0
        while checked < 60:
            m = rng.randint(1, 4)
            A = normalize([[rng.randint(-5, 5) for _ in range(m)]
                           for _ in range(m + rng.randint(0, 1))], m)
            if A.rank < m:
                continue
            checked += 1
            piv = [row[p] for row, p in zip(A.hnf_basis, A.pivots)]
            offsets = [[Q(rng.randint(-40, 40), rng.randint(1, 6))
                        for _ in range(m)] for _ in range(4)]
            offsets += [[Q(rng.choice((-1, 1)) * P, 2) for P in piv]
                        for _ in range(4)]
            for off in offsets:
                for z in (AffineCoset.build(A, off),
                          AffineCoset(lattice=A, offset=tuple(off))):
                    assert canonical_rep(z) == oracle_canonical_rep(A, off), (
                        A, off)
        A = normalize([(4, 0), (0, 6)])
        off = (Q(-2), Q(-3))
        z = AffineCoset(lattice=A, offset=off)
        assert canonical_rep(z) == oracle_canonical_rep(A, off) == (2, 3)

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
        # On BIG*Z^2 the offset is centred to (2**32 - 1/3, 1/2), within
        # BIG/2 of 0: a target past 2**31, and the one point attaining theta.
        A = normalize([(self.BIG, 0), (0, self.BIG)])
        far = 2**32 - Q(1, 3)
        z = AffineCoset.build(A, (far - 3 * self.BIG, Q(1, 2) + 5 * self.BIG))
        assert z.offset == (far, Q(1, 2))
        assert z.offset[0] * 6 > 2**31
        nd = theta(z)
        assert nd.theta == far
        assert nd.theta_points == ((far, Q(1, 2)),)

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


class TestThetaCost:
    def test_cap_is_inclusive(self, monkeypatch):
        # Rank 1 in Z^2 at (0, 3): the root and one node per coefficient
        # c = -3..3, each attaining theta = 3.
        z = AffineCoset.build(normalize([(1, 0)]), (0, 3))
        monkeypatch.setattr(coset, "MAX_CVP_NODES", 8)
        assert len(theta(z).theta_points) == 7
        monkeypatch.setattr(coset, "MAX_CVP_NODES", 7)
        with pytest.raises(ValidationError, match="MAX_CVP_NODES = 7"):
            theta(z)

    def test_side_stops_at_first_miss(self):
        # The reduced representative (0, N) has norm N, while theta is 1:
        # a side scanned out to the initial radius would take N steps.
        N = 10**8
        z = AffineCoset.build(normalize([(1, N), (0, 2 * N + 1)]), (0, N))
        start = time.perf_counter()
        nd = theta(z)
        assert time.perf_counter() - start < 1
        assert nd.theta == 1
        assert nd.theta_points == ((-1, 0), (1, -1))

    def test_cut_children_cost_no_steps(self, monkeypatch):
        # Rank 1 in Z^2 by (1, 10**7): from the centred point (0, 10**6),
        # every c != 0 within the pivot's radius |c| <= 10**6 moves the
        # second coordinate past 10**6, so the window holds c = 0 alone and
        # the search is the root and one leaf.  A kernel that walked the
        # pivot's radius and cut each child would take 2*10**6 steps that
        # no cap counts.
        z = AffineCoset.build(normalize([(1, 10**7)]), (0, 10**6))
        monkeypatch.setattr(coset, "MAX_CVP_NODES", 2)
        start = time.perf_counter()
        nd = theta(z)
        assert time.perf_counter() - start < 0.5
        assert nd.theta == 10**6
        assert nd.theta_points == ((0, 10**6),)

    @pytest.mark.parametrize("gens, offset", [
        ([(1, 0), (0, 2 * 10**6)], (0, 10**6)),
        ([(1, 0)], (0, 300000)),
    ], ids=["4e6-points", "6e5-points"])
    def test_work_cap_fails_fast(self, gens, offset):
        # Millions of attaining points: listing them took minutes.
        z = AffineCoset.build(normalize(gens), offset)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="MAX_CVP_NODES"):
            theta(z)
        assert time.perf_counter() - start < 5


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


class TestThetaPointsOracle:
    """The attaining points of theta against the brute-force oracle, on
    criterion 2's instance draw (criterion 2 compares theta alone)."""

    def test_points_match_on_full_rank_and_deficient(self):
        rng = random.Random(20260823)
        checked = {True: 0, False: 0}  # keyed by full rank
        while min(checked.values()) < 150:
            m = rng.randint(1, 4)
            gens = [[rng.randint(-6, 6) for _ in range(m)]
                    for _ in range(rng.randint(0, m + 1))]
            A = normalize(gens, ambient_dim=m)
            off = [Q(rng.randint(-20, 20), rng.randint(1, 10))
                   for _ in range(m)]
            basis = [list(r) for r in A.hnf_basis]
            if oracle_theta_cost(basis, list(A.pivots), off) > 60_000:
                continue
            full = len(basis) == m
            if checked[full] >= 150:
                continue
            nd = theta(AffineCoset.build(A, off))
            want, want_pts = oracle_theta(basis, list(A.pivots), off)
            assert nd.theta == want, (gens, off)
            assert nd.theta_points == tuple(want_pts), (gens, off)
            checked[full] += 1


def _least_cap(cvp, inst, hi):
    """The least max_nodes at which ``cvp`` succeeds, or None past hi."""
    if cvp(*inst, hi) is None:
        return None
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cvp(*inst, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestCvpKernel:
    """``_kernels.cvp_enumerate`` against the earlier kernel it replaced."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_earlier_kernel_and_node_threshold(self, m):
        # Every third lattice is scaled by a number near 2**40; odd trials
        # are full rank, even ones have rank 0..m-1.  At every cap the
        # kernel gives up or gives the earlier kernel's uncapped answer; it
        # never needs a larger cap, and on some rank-deficient lattice a
        # smaller one, because it enters no node that is cut on entry.
        rng = random.Random(1500 + m)
        e = 6 if m <= 4 else 2
        thresholds = fewer = 0
        for trial in range(24):
            scale = 2**40 + rng.randint(-9, 9) if trial % 3 == 0 else 1
            rank = m if trial % 2 else rng.randint(0, m - 1)
            gens = [[scale * rng.randint(-e, e) for _ in range(m)]
                    for _ in range(rank)]
            A = normalize(gens, ambient_dim=m)
            top = 3 * scale * e
            off = [Q(rng.randint(-top, top), rng.randint(1, 7))
                   for _ in range(m)]
            z = AffineCoset.build(A, off)
            d, y = common(v.as_integer_ratio() for v in z.offset)
            basis = [[d * e for e in row] for row in A.hnf_basis]
            inst = (basis, list(A.pivots), y, max(map(abs, y)))
            want = oracle_cvp_enumerate(*inst)
            for cap in (5, 17, 60, 2000):
                assert _kernels.cvp_enumerate(*inst, cap) in (None, want)
            t = _least_cap(_kernels.cvp_enumerate, inst, 2000)
            if t is not None:
                assert _kernels.cvp_enumerate(*inst) == want
                t_old = _least_cap(oracle_cvp_enumerate, inst, 2000)
                assert t_old is None or t <= t_old
                fewer += A.rank < m and (t_old is None or t < t_old)
                thresholds += 1
        assert thresholds >= 16
        assert fewer or m == 1  # rank 0 is the only deficient rank at m = 1

    @pytest.mark.parametrize("m", range(1, 5))
    def test_offset_in_lattice_has_theta_zero(self, m):
        # Every rank 0..m: the zero vector is the one point, as theta gave
        # before it sent zero offsets through the kernel too.
        rng = random.Random(40 + m)
        for rank in range(m + 1):
            for _ in range(5):
                gens = [[rng.randint(-9, 9) for _ in range(m)]
                        for _ in range(rank)]
                A = normalize(gens, ambient_dim=m)
                coeffs = [rng.randint(-4, 4) for _ in gens]
                off = [sum(c * g[i] for c, g in zip(coeffs, gens))
                       for i in range(m)]
                nd = theta(AffineCoset.build(A, off))
                assert nd.theta == 0
                assert nd.theta_points == ((Q(0),) * m,)


class TestSignedPermutations:
    """theta and theta_sup under the isometries of l-infinity, the signed
    coordinate permutations s, and under scaling by 2: theta(sx + sA) =
    theta(x + A) with the attaining points moved by s, theta_sup(sA) =
    theta_sup(A) and theta(2x + 2A) = 2*theta(x + A).  s changes the HNF
    completely, so the kernel and the theta_sup search run on another
    basis, at entry sizes the brute-force oracles cannot reach."""

    #: theta_sup is compared only where its search is at most this many
    #: axis steps, 6*m*2^m*det(A).
    SUP_STEPS = 2 * 10 ** 5

    def test_invariance(self):
        rng = random.Random(2026)
        thetas = sups = 0
        while thetas < 400 or sups < 100:
            m = rng.randint(2, 4)
            e = rng.choice((3, 20))
            gens = [[rng.randint(-e, e) for _ in range(m)]
                    for _ in range(rng.randint(1, m))]
            A = normalize(gens, ambient_dim=m)
            perm = rng.sample(range(m), m)
            signs = [rng.choice((-1, 1)) for _ in range(m)]

            def act(v):
                return [signs[i] * v[perm[i]] for i in range(m)]

            sA = normalize([act(row) for row in A.hnf_basis], ambient_dim=m)
            twoA = normalize([[2 * c for c in row] for row in A.hnf_basis],
                             ambient_dim=m)
            x = [Q(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(m)]
            want = theta(AffineCoset.build(A, x))
            got = theta(AffineCoset.build(sA, act(x)))
            assert got.theta == want.theta, (A.hnf_basis, perm, signs, x)
            assert sorted(got.theta_points) == sorted(
                tuple(act(p)) for p in want.theta_points)
            twice = theta(AffineCoset.build(twoA, [2 * v for v in x]))
            assert twice.theta == 2 * want.theta
            assert twice.theta_points == tuple(
                tuple(2 * v for v in p) for p in want.theta_points)
            thetas += 1
            det = prod(row[p] for row, p in zip(A.hnf_basis, A.pivots))
            if A.rank == m and 6 * m * 2 ** m * det <= self.SUP_STEPS:
                assert theta_sup(sA, 1) == theta_sup(A, 1), A.hnf_basis
                sups += 1


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


class TestThetaSupExact:
    """The breadth-first search against brute force and the box-search
    interval oracle."""

    # Draws are skipped when the quarter grid has more than GRID points, or
    # when the box-search oracle could split into more than CELLS boxes: it
    # can evaluate about (k/epsilon)^m corners and costs the square of its
    # box count.
    GRID = 1500
    CELLS = 1000

    @seed(20251018)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_hnf_and_epsilon())
    def test_equals_quarter_grid_maximum(self, case):
        # The maximum lies on (1/2)Z^m, so the finer grid can only tie it.
        rows, eps = case
        A = normalize(rows)
        diag = [row[i] for i, row in enumerate(rows)]
        assume(prod(4 * d for d in diag) <= self.GRID)
        grid = product(*(range(-2 * d + 1, 2 * d + 1) for d in diag))
        want = max(theta(AffineCoset.build(A, [Q(j, 4) for j in x])).theta
                   for x in grid)
        assert theta_sup(A, eps) == (want, want)
        depth, witness = _sup_bfs(A)
        assert depth == 2 * want
        z = AffineCoset.build(A, [Q(c, 2) for c in witness])
        assert theta(z).theta == want

    @seed(20251019)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_hnf_and_epsilon())
    def test_inside_box_search_interval(self, case):
        rows, eps = case
        A = normalize(rows)
        assume((Q(int(quotient_info(A).k)) / eps) ** A.m <= self.CELLS)
        lo, hi = oracle_theta_sup(A, eps)
        v, w = theta_sup(A, eps)
        assert v == w and lo <= v <= hi

    def test_bfs_depth_is_k_for_m1(self):
        for k in (1, 2, 3, 6, 7, 40):
            assert _sup_bfs(normalize([(k,)])) == (k, (k,))
            assert theta_sup(normalize([(k,)]), 1) == (Q(k, 2), Q(k, 2))


def _seeded_hnfs(count, seed, max_moves=40_000):
    """count upper-triangular HNFs with m = 2..5 and small pivots, each small
    enough for the king-move oracle: 2^m*det*(3^m - 1) <= max_moves."""
    rng = random.Random(seed)
    top = {2: 9, 3: 6, 4: 4, 5: 3}
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        pivots = [rng.randint(1, top[m]) for _ in range(m)]
        if 2 ** m * prod(pivots) * (3 ** m - 1) > max_moves:
            continue
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = pivots[i]
            for j in range(i + 1, m):
                rows[i][j] = rng.randrange(pivots[j])
        out.append(rows)
    return out


class TestSupBfsOracle:
    def test_depth_matches_king_move_search(self):
        hnfs = _seeded_hnfs(240, 20261018)
        assert {len(rows) for rows in hnfs} == {2, 3, 4, 5}
        for rows in hnfs:
            A = normalize(rows)
            depth, witness = _sup_bfs(A)
            assert depth == oracle_sup_bfs(A)[0], rows
            # The witness is centred: coordinate i in (-d_i, d_i].
            assert all(-row[i] < c <= row[i]
                       for i, (row, c) in enumerate(zip(rows, witness)))
            z = AffineCoset.build(A, [Q(c, 2) for c in witness])
            assert theta(z).theta == Q(depth, 2), rows


class TestThetaSupCost:
    def test_skewed_m3_lattice_within_a_minute(self):
        A = normalize([(1, 0, 5), (0, 1, 46), (0, 0, 61)])
        start = time.perf_counter()
        assert theta_sup(A, 2) == (Q(5, 2), Q(5, 2))
        assert time.perf_counter() - start < 60

    @pytest.mark.parametrize("rows, want", [
        (((3, 1, 2), (0, 4, 1), (0, 0, 5)), Q(5, 2)),
        (((1, 9), (0, 29)), Q(7, 2)),
        (((1, 0, 0, 7), (0, 1, 0, 11), (0, 0, 1, 13), (0, 0, 0, 97)), Q(5, 2)),
    ], ids=["m3-det60", "m2-det29", "m4-det97"])
    def test_exact_within_a_minute(self, rows, want):
        start = time.perf_counter()
        assert theta_sup(normalize(rows), Q(1, 2)) == (want, want)
        assert time.perf_counter() - start < 60

    def test_work_cap_fails_fast(self):
        # 6 * 2 * 2^2 * 10^9 steps: the search would not end in hours.
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="MAX_SUP_MOVES"):
            theta_sup(normalize([(1, 0), (0, 10**9)]), Q(1, 2))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("m", range(3, 9))
    def test_work_cap_fails_fast_in_every_dimension(self, m):
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        rows[-1][-1] = 10 ** 9
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="MAX_SUP_MOVES"):
            theta_sup(normalize(rows), Q(1, 2))
        assert time.perf_counter() - start < 1

    def test_cap_is_inclusive(self, monkeypatch):
        # ((1, 0), (0, 3)) may need 6 * 2 * 2^2 * 3 = 144 axis steps.
        A = normalize([(1, 0), (0, 3)])
        monkeypatch.setattr(coset, "MAX_SUP_MOVES", 144)
        assert theta_sup(A, 1) == (Q(3, 2), Q(3, 2))
        monkeypatch.setattr(coset, "MAX_SUP_MOVES", 143)
        with pytest.raises(ValidationError, match="MAX_SUP_MOVES = 143"):
            theta_sup(A, 1)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_cap_admits_every_king_move_lattice(self, monkeypatch, m):
        # The earlier search refused 2^m * det * (3^m - 1) > 8 * 10^6 king
        # moves; the largest det it took must still pass the check.
        det = 8 * 10 ** 6 // (2 ** m * (3 ** m - 1))
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        rows[-1][-1] = det
        monkeypatch.setattr(coset, "_sup_bfs", lambda A: (0, None))
        assert theta_sup(normalize(rows), 1) == (0, 0)


class TestThetaSupReadsTheHnf:
    """theta_sup reads the rank, k (m = 1) and det(A) off the HNF: with
    quotient_info patched to raise, it keeps its values and cap messages."""

    @pytest.fixture(autouse=True)
    def no_quotient_info(self, monkeypatch):
        def refuse(A):
            raise AssertionError("theta_sup built the quotient invariants")

        monkeypatch.setattr(coset, "quotient_info", refuse)
        monkeypatch.setattr(lattice, "quotient_info", refuse)

    @pytest.mark.parametrize("rows, want", [
        (((6,),), Q(3)),
        (((7,),), Q(7, 2)),
        (((1, 0), (0, 1)), Q(1, 2)),
        (((1, 9), (0, 29)), Q(7, 2)),
        (((2, 0), (0, 3)), Q(3, 2)),
        (((3, 1, 2), (0, 4, 1), (0, 0, 5)), Q(5, 2)),
        (((1, 0, 5), (0, 1, 46), (0, 0, 61)), Q(5, 2)),
        (((1, 0, 0, 7), (0, 1, 0, 11), (0, 0, 1, 13), (0, 0, 0, 97)), Q(5, 2)),
    ], ids=["m1-k6", "m1-k7", "m2-unit", "m2-det29", "m2-diag", "m3-det60",
            "m3-det61", "m4-det97"])
    def test_full_rank_values(self, rows, want):
        assert theta_sup(normalize(rows), Q(1, 2)) == (want, want)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_cap_message(self, m):
        rows = [[int(i == j) for j in range(m)] for i in range(m)]
        rows[-1][-1] = 10 ** 9
        steps = 6 * m * 2 ** m * 10 ** 9
        with pytest.raises(ValidationError, match=(
                f"may need {steps} axis steps, which exceeds the cap "
                f"coset.MAX_SUP_MOVES = {coset.MAX_SUP_MOVES}$")):
            theta_sup(normalize(rows), Q(1, 2))

    def test_cap_is_inclusive(self, monkeypatch):
        # a skewed HNF: det(A) = 3 is its pivot product, 144 axis steps
        A = normalize([(1, 2), (0, 3)])
        monkeypatch.setattr(coset, "MAX_SUP_MOVES", 144)
        assert theta_sup(A, 1) == (1, 1)
        monkeypatch.setattr(coset, "MAX_SUP_MOVES", 143)
        with pytest.raises(ValidationError, match="may need 144 axis steps"):
            theta_sup(A, 1)

    @pytest.mark.parametrize("gens, m", [
        ([(1, 1)], 2), ([], 1), ([(2, 0, 0), (0, 3, 0)], 3),
    ], ids=["m2-rank1", "m1-rank0", "m3-rank2"])
    def test_rank_deficient_is_infinite(self, gens, m):
        assert theta_sup(normalize(gens, ambient_dim=m), 1) == (INF, INF)
