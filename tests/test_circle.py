import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotnorm._rat import Q
from rotnorm import circle as c
from rotnorm.circle import (
    MultiIsotopy,
    PLCircleDiffeo,
    PLIsotopy,
    commutator,
    compose,
    concat,
    defect_experiment,
    invert,
    mu,
    nu,
    nu_hat,
    random_based_loop,
    random_diffeo,
    random_isotopy,
    refine,
)
from rotnorm.errors import (
    AmbiguousLift,
    DimensionMismatch,
    FrameMismatch,
    ValidationError,
)
from rotnorm.lattice import normalize

from oracles import (
    FractionCircleDiffeo,
    oracle_diffeo_compose,
    oracle_frame_at,
    oracle_invert,
    oracle_isotopy_compose,
    oracle_mu,
    oracle_refine,
)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


def _rand_diffeo(seed):
    return random_diffeo(random.Random(seed))


class TestPLCircleDiffeo:
    def test_eval_periodicity(self):
        f = _rand_diffeo(1)
        x = Q(3, 7)
        assert f.eval(x + 1) == f.eval(x) + 1
        assert f.eval(x - 5) == f.eval(x) - 5

    def test_rotation(self):
        r = PLCircleDiffeo.rotation(Q(1, 3))
        assert r.eval(Q(1, 4)) == Q(1, 4) + Q(1, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), rationals)
    def test_eval_inv_roundtrip(self, seed, x):
        f = _rand_diffeo(seed)
        x = Q(x.numerator, x.denominator)
        assert f.eval_inv(f.eval(x)) == x
        assert f.eval(f.eval_inv(x)) == x

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), rationals)
    def test_compose_pointwise(self, s1, s2, x):
        f, g = _rand_diffeo(s1), _rand_diffeo(s2)
        x = Q(x.numerator, x.denominator)
        assert f.compose(g).eval(x) == f.eval(g.eval(x))

    def test_inverse_composes_to_identity(self):
        f = _rand_diffeo(5)
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse().compose(f).is_identity()

    def test_is_identity_allows_integer_shift(self):
        assert PLCircleDiffeo.rotation(2).is_identity()
        assert not PLCircleDiffeo.rotation(Q(1, 2)).is_identity()

    def test_displacement(self):
        f = PLCircleDiffeo.rotation(Q(1, 4))
        g = PLCircleDiffeo.rotation(Q(-1, 8))
        assert f.displacement(g) == Q(3, 8)

    def test_interpolate_endpoints(self):
        f, g = _rand_diffeo(8), _rand_diffeo(9)
        assert f.interpolate(g, 0) == f
        assert f.interpolate(g, 1) == g
        mid = f.interpolate(g, Q(1, 2))
        x = Q(1, 5)
        assert mid.eval(x) == (f.eval(x) + g.eval(x)) / 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            PLCircleDiffeo((0, 1), (0, 1))  # breakpoint at 1 not allowed
        with pytest.raises(ValidationError):
            PLCircleDiffeo((0, Q(1, 2)), (0, 0))  # not strictly increasing
        with pytest.raises(ValidationError):
            PLCircleDiffeo((0, Q(1, 2)), (0, Q(3, 2)))  # period overflow

    def test_unequal_lists_rejected(self):
        # The rational constructor encodes xs and ys as one list; each half
        # must keep its own length.
        for xs, ys in (((0, Q(1, 4), Q(1, 2)), (0,)),
                       ((0,), (0, Q(1, 4), Q(1, 2))),
                       ((), (0,)), ((0,), ())):
            with pytest.raises(ValidationError, match="matching"):
                PLCircleDiffeo(xs, ys)


# The constructor's six rejections in the order it runs them, each with
# integer inputs over the denominator 8 that break it (and possibly later
# ones).  Rows that break two checks must report the earlier one.
_MESSAGES = (
    "need matching non-empty breakpoint lists",
    "common denominator must be positive",
    "breakpoints must lie in [0, 1)",
    "breakpoints must strictly increase",
    "lift values must strictly increase",
    "lift must increase by less than 1 per period",
)
_REJECTIONS = [
    (0, (0, 1), (0,)),
    (0, (), ()),
    (2, (-1, 2), (0, 1)),
    (2, (0, 8), (0, 1)),
    (2, (3, 8), (0, 0)),  # also not increasing
    (3, (0, 3, 3), (0, 1, 2)),
    (3, (0, 5, 3), (0, 1, 2)),
    (3, (0, 3, 2), (0, 0, 1)),  # also lift values
    (3, (0, 3, 3), (0, 1, 9)),  # also period overflow
    (4, (0, 3), (2, 2)),
    (4, (0, 2, 4), (0, 10, 9)),  # also period overflow
    (5, (0, 3), (0, 8)),
    (5, (0, 3), (1, 10)),
]


class TestRejections:
    @pytest.mark.parametrize("check, xs, ys", _REJECTIONS)
    def test_integer_form(self, check, xs, ys):
        with pytest.raises(ValidationError) as info:
            PLCircleDiffeo(xs, ys, 8)
        assert str(info.value) == _MESSAGES[check]

    @pytest.mark.parametrize("check, xs, ys", _REJECTIONS)
    def test_rational_form(self, check, xs, ys):
        with pytest.raises(ValidationError) as info:
            PLCircleDiffeo([Q(x, 8) for x in xs], [Q(y, 8) for y in ys])
        assert str(info.value) == _MESSAGES[check]

    @pytest.mark.parametrize("den", (0, -3))
    def test_denominator(self, den):
        # Only the integer form takes a denominator; with a bad one every
        # later check is broken too.
        for xs, ys in (((0,), (0,)), ((0, 5), (0, 1)), ((0, 5, 3), (9, 1, 0))):
            with pytest.raises(ValidationError) as info:
                PLCircleDiffeo(xs, ys, den)
            assert str(info.value) == _MESSAGES[1]
        with pytest.raises(ValidationError) as info:
            PLCircleDiffeo((0, 1), (0,), den)
        assert str(info.value) == _MESSAGES[0]


def test_construction_leaves_no_freed_tuples():
    """Building maps and running defect trials holds no memory afterwards.

    A segment table built from ``map`` and then concatenated left one freed
    tuple per map on CPython's tuple free lists (about 1 MB here); a full
    collection empties those lists first.
    """
    rng = random.Random(35)
    inputs = [(sorted(rng.sample(range(1000), b)),
               sorted(rng.sample(range(1000), b)))
              for b in range(2, 9) for _ in range(2000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for xs, ys in inputs:
            PLCircleDiffeo(xs, ys, 1000)
        defect_experiment(5, 2000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 128 * 1024


def _seeded_map(kind, seed):
    """A map drawn by one of the library's seeded generators."""
    rng = random.Random(seed)
    if kind == "diffeo":
        return random_diffeo(rng)
    if kind == "isotopy":
        F = random_isotopy(rng)
    elif kind == "loop":
        F = random_based_loop(rng)
    else:  # frames of a composed isotopy: breakpoints vary frame to frame
        F = compose(refine(random_isotopy(rng), Q(1, 4)),
                    refine(random_isotopy(rng), Q(1, 4)))
    return F.frames[rng.randrange(len(F.frames))]


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
    lambda v: v < 1
)


@st.composite
def _hand_built_map(draw):
    """Arbitrary rational breakpoints; lifts rise by less than 1."""
    n = draw(st.integers(1, 6))
    points = st.lists(unit_fractions, min_size=n, max_size=n, unique=True).map(sorted)
    xs = draw(points)
    offsets = draw(points)
    shift = draw(rationals)
    return PLCircleDiffeo(xs, [shift + v for v in offsets])


maps = st.one_of(
    st.builds(_seeded_map,
              st.sampled_from(("diffeo", "isotopy", "loop", "composed")),
              st.integers(0, 10 ** 6)),
    _hand_built_map(),
)


def _same_map(f, ref):
    return f.xs == ref.xs and f.ys == ref.ys


class TestFractionOracle:
    """The integer-exact maps against the plain Fraction implementation."""

    @settings(max_examples=200, deadline=None)
    @given(maps, maps, rationals, st.fractions(0, 1, max_denominator=12))
    def test_operations_match(self, f, g, x, s):
        rf, rg = FractionCircleDiffeo.of(f), FractionCircleDiffeo.of(g)
        x = Q(x.numerator, x.denominator)
        s = Q(s.numerator, s.denominator)
        assert f.eval(x) == rf.eval(x)
        assert f.eval_inv(x) == rf.eval_inv(x)
        assert type(f.eval(x)) is Q and type(f.eval_inv(x)) is Q
        assert _same_map(f.compose(g), rf.compose(rg))
        assert _same_map(g.compose(f), rg.compose(rf))
        assert _same_map(f.inverse(), rf.inverse())
        assert f.displacement(g) == rf.displacement(rg)
        assert type(f.displacement(g)) is Q
        assert _same_map(f.interpolate(g, s), rf.interpolate(rg, s))
        assert (f == g) == (rf.displacement(rg) == 0)

    def test_composed_frames_with_differing_breakpoints(self):
        rng = random.Random(41)
        differing = 0
        for _ in range(10):
            H = compose(refine(random_isotopy(rng), Q(1, 4)),
                        refine(random_isotopy(rng), Q(1, 4)))
            for a, b in zip(H.frames, H.frames[1:]):
                ra, rb = FractionCircleDiffeo.of(a), FractionCircleDiffeo.of(b)
                differing += a.xs != b.xs
                assert a.displacement(b) == ra.displacement(rb)
                mid = a.interpolate(b, Q(1, 3))
                assert _same_map(mid, ra.interpolate(rb, Q(1, 3)))
        assert differing > 0

    def test_interpolate_on_one_grid(self):
        # adjacent frames of a based loop share one grid of breakpoints
        rng = random.Random(47)
        for _ in range(10):
            F = random_based_loop(rng)
            for a, b in zip(F.frames, F.frames[1:]):
                assert (a.den, a.xn) == (b.den, b.xn)
                ra, rb = FractionCircleDiffeo.of(a), FractionCircleDiffeo.of(b)
                for s in (Q(1, 3), Q(1, 2), Q(5, 7)):
                    mid = a.interpolate(b, s)
                    assert _same_map(mid, ra.interpolate(rb, s))
                    pair = a.interpolate(b, (2 * s.numerator, 2 * s.denominator))
                    assert (pair.den, pair.xn, pair.yn) == (mid.den, mid.xn, mid.yn)

    def test_loop_frames_compose_like_oracle(self):
        rng = random.Random(43)
        F = refine(random_based_loop(rng, winding=2), Q(1, 8))
        G = refine(random_based_loop(rng, winding=-1), Q(1, 8))
        for t in (Q(0), Q(1, 7), Q(1, 2), Q(5, 6), Q(1)):
            f, g = F.frame_at(t), G.frame_at(t)
            want = FractionCircleDiffeo.of(f).compose(FractionCircleDiffeo.of(g))
            assert _same_map(f.compose(g), want)

    def test_integer_constructor_matches_rational_one(self):
        f = PLCircleDiffeo((0, 3, 5), (2, 6, 9), 8)
        g = PLCircleDiffeo((0, Q(3, 8), Q(5, 8)), (Q(1, 4), Q(3, 4), Q(9, 8)))
        assert f == g and hash(f) == hash(g)
        assert f.xs == g.xs and f.ys == g.ys
        with pytest.raises(ValidationError):
            PLCircleDiffeo((0, 3), (0, 8), 8)  # period overflow
        with pytest.raises(ValidationError):
            PLCircleDiffeo((0,), (0,), 0)


class TestHash:
    """Maps that are equal pointwise hash equal, whatever their breakpoints."""

    def test_identity_on_two_breakpoints(self):
        a = PLCircleDiffeo.identity()
        b = PLCircleDiffeo((0, Q(1, 2)), (0, Q(1, 2)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_rotation_with_breakpoint_off_zero(self):
        a = PLCircleDiffeo.rotation(Q(1, 3))
        b = PLCircleDiffeo((Q(1, 5),), (Q(1, 5) + Q(1, 3),))
        assert a == b and hash(a) == hash(b)

    @settings(max_examples=100, deadline=None)
    @given(maps, st.lists(unit_fractions, min_size=1, max_size=5))
    def test_collinear_breakpoints_inserted(self, f, extra):
        xs = sorted(set(f.xs).union(Q(x.numerator, x.denominator) for x in extra))
        g = PLCircleDiffeo(xs, [f.eval(x) for x in xs])
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1


class TestPLIsotopy:
    def test_rotation_mu(self):
        F = PLIsotopy.rotation(Q(3, 2), samples=7)
        assert mu(F, Q(0)) == Q(3, 2)
        assert mu(F, Q(1, 3)) == Q(3, 2)

    def test_big_step_refused(self):
        ident = PLCircleDiffeo.identity()
        far = PLCircleDiffeo.rotation(Q(1, 2))
        with pytest.raises(AmbiguousLift):
            PLIsotopy((0, 1), (ident, far))

    def test_rotation_needs_enough_samples(self):
        # rotation by 3/2 over 4 samples means exactly 1/2 per step: refused
        with pytest.raises(AmbiguousLift):
            PLIsotopy.rotation(Q(3, 2), samples=4)
        PLIsotopy.rotation(Q(3, 2), samples=5)  # fine

    def test_frame_at_interpolates(self):
        F = PLIsotopy.rotation(Q(1, 2), samples=3)
        mid = F.frame_at(Q(1, 4))
        assert mid.eval(Q(0)) == Q(1, 8)

    def test_rotation_mu_matches_oracle(self):
        F = PLIsotopy.rotation(Q(5, 4), samples=6)
        assert mu(F, Q(7, 3)) == oracle_mu(F, Q(7, 3)) == Q(5, 4)

    def test_full_turn_mu_is_one(self):
        F = random_based_loop(random.Random(2), winding=1)
        assert F.is_based_loop()
        assert mu(F, Q(0)) == 1

    @pytest.mark.parametrize("winding", [1, -1, 2])
    def test_concat_adds_mu(self, winding):
        # G's knots are shifted by the gap d = winding between F's end lift
        # and G's start lift
        F = random_based_loop(random.Random(3), winding=winding)
        G = random_based_loop(random.Random(4), winding=0)
        H = concat(F, G)
        for p in (Q(0), Q(1, 8), Q(5, 7)):
            assert mu(H, p) == mu(F, p) + mu(G, p) == winding
            assert oracle_mu(H, p) == oracle_mu(F, p) + oracle_mu(G, p)

    @pytest.mark.parametrize("F, G", [
        (PLIsotopy.rotation(Q(1, 4)), PLIsotopy.rotation(Q(1, 8))),
        # F_1 is the identity one turn on and G_0 fixes 0: the lifts differ
        # by the integer 1 at 0, but not everywhere
        (PLIsotopy.rotation(1),
         PLIsotopy((0, 1), [PLCircleDiffeo((0, Q(1, 2)), (0, Q(1, 4)))] * 2)),
    ], ids=["gap_not_an_integer", "integer_gap_at_0_only"])
    def test_concat_frame_mismatch(self, F, G):
        with pytest.raises(FrameMismatch):
            concat(F, G)

    def test_rotation_needs_two_samples(self):
        for samples in (1, 0, -2):
            with pytest.raises(ValidationError):
                PLIsotopy.rotation(Q(1, 4), samples=samples)
        F = PLIsotopy.rotation(Q(1, 4), samples=2)
        assert F.times == (0, 1) and mu(F, Q(1, 3)) == Q(1, 4)

    def test_refine(self):
        F = PLIsotopy.rotation(Q(3, 2), samples=5)
        R = refine(F, Q(1, 8))
        for a, b in zip(R.frames, R.frames[1:]):
            assert a.displacement(b) < Q(1, 8)
        assert mu(R, Q(0)) == Q(3, 2)


def _rotations(*angles):
    return [PLCircleDiffeo.rotation(a) for a in angles]


class TestIntegerTimes:
    """``PLIsotopy(tn, frames, tden)`` against the rational constructor."""

    def test_integer_constructor_matches_rational_one(self):
        frames = _rotations(0, Q(1, 8), Q(3, 8), Q(1, 2))
        R = PLIsotopy((0, Q(1, 3), Q(1, 2), 1), frames)
        for tn, tden in (((0, 2, 3, 6), 6), ((0, 4, 6, 12), 12)):
            F = PLIsotopy(tn, frames, tden)
            assert F.times == R.times == (0, Q(1, 3), Q(1, 2), 1)
            assert all(type(t) is Q for t in F.times)
            assert F.frames == R.frames
            for t in (0, Q(1, 6), Q(1, 3), Q(5, 12), Q(7, 9), 1):
                assert F.frame_at(t) == R.frame_at(t)
            assert mu(F, Q(1, 5)) == mu(R, Q(1, 5)) == Q(1, 2)
        assert (R.tn, R.tden) == ((0, 2, 3, 6), 6)  # least common denominator

    def test_integer_constructor_validation(self):
        ident = PLCircleDiffeo.identity()
        three = [ident] * 3
        for tden in (0, -2):
            with pytest.raises(ValidationError, match="denominator"):
                PLIsotopy((0, 1, tden), three, tden)
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            PLIsotopy((1, 2, 3), three, 3)  # tn[0] != 0
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            PLIsotopy((0, 1, 2), three, 3)  # tn[-1] != tden
        with pytest.raises(ValidationError, match="increase"):
            PLIsotopy((0, 2, 2, 3), [ident] * 4, 3)
        with pytest.raises(ValidationError, match="increase"):
            PLIsotopy((0, 2, 1, 3), [ident] * 4, 3)
        with pytest.raises(ValidationError, match="matching"):
            PLIsotopy((0, 3), three, 3)
        with pytest.raises(AmbiguousLift):
            PLIsotopy((0, 1), _rotations(0, Q(1, 2)), 1)
        PLIsotopy((0, 1), _rotations(0, Q(7, 16)), 1)  # fine

    def test_frame_at_outside_unit_interval(self):
        F = PLIsotopy.rotation(Q(1, 2), samples=3)
        for t in (Q(-1, 7), Q(8, 7)):
            with pytest.raises(ValidationError):
                F.frame_at(t)


class TestMuAlgebra:
    def test_lazy_equals_composed(self):
        # mu of the end-composite isotopy agrees with mu read step by step,
        # without lifts, on the bisecting oracle's pointwise composite FG
        rng = random.Random(17)
        for _ in range(15):
            F, G = random_isotopy(rng), random_isotopy(rng)
            p = Q(rng.randint(0, 63), 64)
            assert mu(compose(F, G), p) == oracle_mu(oracle_isotopy_compose(F, G), p)

    def test_inverse_identity(self):
        # mu of the end-inverse isotopy agrees with the bisecting oracle's
        # pointwise inverse, and the inverse trace from f(p) retraces F's
        # trace from p: mu(F^-1, f(p)) = -mu(F, p), as F_0 is the identity
        rng = random.Random(19)
        for _ in range(10):
            F = random_isotopy(rng)
            p = Q(rng.randint(0, 63), 64)
            Finv, ref = invert(F), oracle_invert(F)
            assert mu(Finv, p) == oracle_mu(ref, p)
            fp = p + oracle_mu(F, p)  # F_1(p)
            assert mu(Finv, fp) == oracle_mu(ref, fp) == -oracle_mu(F, p)

    def test_invert_then_compose_is_loop(self):
        rng = random.Random(23)
        F = random_isotopy(rng)
        FF = compose(F, invert(F))
        assert mu(FF, Q(1, 3)) == 0

    def test_commutator_mu_bounded(self):
        rng = random.Random(29)
        for _ in range(10):
            F, G = random_isotopy(rng), random_isotopy(rng)
            K = commutator(F, G)
            assert abs(mu(K, Q(0))) < 3


def _assert_like_bisecting_oracle(H, ref, times):
    """H, a composite or an inverse, keeps the sample times ``times``, and
    agrees with ``ref``, an oracle that bisects every step of 1/2 or more:
    H's end frames are ref's, and mu(H) is ref's mu read step by step.  H's
    frames in between lie on the straight lift path between its end frames,
    by the Fraction oracle.  H refined below 1/2 passes the public
    constructor's step check, and its mu read step by step is mu(H) too."""
    assert list(H.times) == sorted(times)
    frames = H.frames
    assert _same_map(frames[0], ref.frames[0])
    assert _same_map(frames[-1], ref.frames[-1])
    start, end = FractionCircleDiffeo.of(frames[0]), FractionCircleDiffeo.of(frames[-1])
    for t, h in zip(H.times, frames):
        assert _same_map(h, start.interpolate(end, t)), t
    R = refine(H, Q(1, 4))
    PLIsotopy(R.tn, R.frames, R.tden)
    for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
        assert mu(H, p) == oracle_mu(ref, p) == oracle_mu(R, p), p


def _oracle_commutator(F, G):
    """[F, G] built by the bisecting oracles alone."""
    return oracle_isotopy_compose(oracle_isotopy_compose(F, G),
                                  oracle_isotopy_compose(oracle_invert(F), oracle_invert(G)))


class TestComposeResampling:
    # Seeds whose two random_isotopy draws compose pointwise to a step of
    # 1/2 or more on the merged time grid, though no step of either factor
    # moves that far.
    SEEDS = (184, 212, 313, 330)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bisected_steps_match_oracle(self, seed):
        # compose keeps the merged grid; the oracle bisects the long step
        rng = random.Random(seed)
        F, G = random_isotopy(rng), random_isotopy(rng)
        merged = set(F.times) | set(G.times)
        steps = [F.frame_at(t).compose(G.frame_at(t)) for t in sorted(merged)]
        with pytest.raises(AmbiguousLift):
            PLIsotopy(sorted(merged), steps)
        H = compose(F, G)
        ref = oracle_isotopy_compose(F, G)
        assert merged < set(ref.times)
        _assert_like_bisecting_oracle(H, ref, merged)
        for p in (Q(0), Q(1, 3), Q(5, 7)):
            assert abs(mu(H, p) - mu(F, p) - mu(G, p)) < 1
        _assert_like_bisecting_oracle(commutator(F, G), _oracle_commutator(F, G), merged)

    def test_concat_takes_a_composite_with_a_long_step(self):
        rng = random.Random(184)
        F, G = random_isotopy(rng), random_isotopy(rng)
        H = compose(F, G)
        ref = oracle_isotopy_compose(F, G)
        assert len(ref.times) > len(H.times)  # F_t o G_t has a long step
        loop = random_based_loop(random.Random(0), winding=1)
        C = concat(loop, H)  # H starts at the identity
        assert C.times == (tuple(t / 2 for t in loop.times)
                           + tuple(Q(1, 2) + t / 2 for t in H.times[1:]))
        assert _same_map(C.frames[0], loop.frames[0])
        end = C.frames[-1]  # one turn on from H's end frame
        assert end.xs == ref.frames[-1].xs
        assert end.ys == tuple(y + 1 for y in ref.frames[-1].ys)
        for f, h in zip(C.frames[len(loop.tn):], H.frames[1:], strict=True):
            # the same maps, one turn on; C's path starts from the loop's
            # end knot, so its breakpoints may differ from H's
            assert all(f.eval(x) == h.eval(x) + 1 for x in {*f.xs, *h.xs})
        for p in (Q(0), Q(1, 3), Q(5, 7)):
            assert (mu(C, p) == oracle_mu(loop, p) + oracle_mu(ref, p)
                    == oracle_mu(refine(C, Q(1, 4)), p))

    def test_accepted_pairs_keep_the_merged_grid(self):
        rng = random.Random(17)
        for _ in range(15):
            F, G = random_isotopy(rng), random_isotopy(rng)
            ts = sorted(set(F.times) | set(G.times))
            H = compose(F, G)
            assert list(H.times) == ts
            for t, h in ((0, H.frames[0]), (1, H.frames[-1])):
                want = F.frame_at(t).compose(G.frame_at(t))
                assert _key(h) == _key(want)
            ref = oracle_isotopy_compose(F, G)
            R = refine(H, Q(1, 4))
            for p in (Q(0), Q(1, 3), Q(5, 7)):
                assert mu(H, p) == oracle_mu(ref, p) == oracle_mu(R, p)


def _key(f):
    return f.den, f.xn, f.yn


def _diffeo_of_kind(rng):
    """A seeded map: random, inverse, interpolated, composite, identity,
    rotation, or the end frame of a random isotopy."""
    kind = rng.randrange(7)
    f = random_diffeo(rng)
    if kind == 1:
        return f.inverse()
    if kind == 2:
        return f.interpolate(random_diffeo(rng), Q(rng.randint(1, 7), 8))
    if kind == 3:
        return f.compose(random_diffeo(rng))
    if kind == 4:
        return PLCircleDiffeo.identity()
    if kind == 5:
        return PLCircleDiffeo.rotation(
            Q(rng.randint(-64, 64), rng.choice((1, 2, 3, 8, 64))))
    if kind == 6:
        return random_isotopy(rng).frames[-1]
    return f


def _same_isotopy(H, R):
    assert H.times == R.times
    assert all(type(t) is Q for t in H.times)
    assert [_key(f) for f in H.frames] == [_key(f) for f in R.frames]


def _steep_isotopy(rng):
    """t -> R(c*t) o h, sampled at S + 1 times, for a map h with segment
    slopes in [1/8, 8]: h rises by parts of 72, each at least 8, over runs
    of the same kind.  Each step moves |c| / S <= 1/16, but a composite step
    F_t o G_t moves up to 8 times as far as G_t does."""
    b, S = rng.randint(2, 4), rng.randint(2, 4)

    def parts():  # b parts of 72, each at least 8
        cuts = sorted(rng.randint(0, 72 - 8 * b) for _ in range(b - 1))
        ends = [0, *cuts, 72 - 8 * b]
        return [8 + hi - lo for lo, hi in zip(ends, ends[1:])]

    runs, rises, y0 = parts(), parts(), rng.randint(-8, 8)
    h = PLCircleDiffeo([sum(runs[:k]) for k in range(b)],
                       [y0 + sum(rises[:k]) for k in range(b)], 72)
    c = Q(rng.randint(-9, 9), 72)
    return PLIsotopy(range(S + 1), [PLCircleDiffeo.rotation(c * Q(k, S)).compose(h)
                                    for k in range(S + 1)], S)


def _isotopy_pair(seed, kind):
    rng = random.Random(seed)
    if kind == 0:
        return random_isotopy(rng), random_isotopy(rng)
    if kind == 1:
        return (refine(random_based_loop(rng), Q(1, 8)),
                refine(random_based_loop(rng), Q(1, 8)))
    if kind == 2:
        return refine(random_isotopy(rng), Q(1, rng.randint(2, 9))), random_isotopy(rng)
    if kind == 3:
        return PLIsotopy.rotation(Q(rng.randint(-9, 9), 4)), random_based_loop(rng)
    # steep outer frames: the slope bound rarely proves a composite step
    return _steep_isotopy(rng), random_based_loop(rng)


#: (seed, kind) of every _isotopy_pair the oracle tests compose
PAIR_CASES = ([(seed, seed % 4) for seed in range(40)]
              + [(seed, 4) for seed in range(12)]
              + [(seed, 0) for seed in TestComposeResampling.SEEDS])


class TestCompositionOracles:
    """compose and refine against the lookup-per-point references in
    ``tests/oracles.py``: identical denominators, numerators and times."""

    def test_diffeo_compose_matches_three_lookup_oracle(self):
        coincident = shifted = 0
        for seed in range(20_000):
            rng = random.Random(seed)
            f = _diffeo_of_kind(rng)
            g = f.inverse() if rng.random() < 0.2 else _diffeo_of_kind(rng)
            h = f.compose(g)
            assert _key(h) == _key(oracle_diffeo_compose(f, g)), seed
            coincident += len(h.xn) < len(f.xn) + len(g.xn)
            shifted += any(t // d for t, d in (g._eval_inv(b, f.den) for b in f.xn))
        assert coincident > 5000 and shifted > 5000

    def test_isotopy_operations_match_oracles(self):
        bisected = 0
        for seed, kind in PAIR_CASES:
            F, G = _isotopy_pair(seed, kind)
            merged = set(F.times) | set(G.times)
            H = compose(F, G)
            ref = oracle_isotopy_compose(F, G)
            _assert_like_bisecting_oracle(H, ref, merged)
            bisected += len(ref.times) > len(merged)
            Fi, Gi = invert(F), invert(G)
            for X, Xi in ((F, Fi), (G, Gi)):
                _assert_like_bisecting_oracle(Xi, oracle_invert(X), X.times)
                for i in (0, -1):
                    assert _key(Xi.frames[i]) == _key(X.frames[i].inverse())
                assert mu(Xi, Q(1, 3)) == (X.frames[-1].eval_inv(Q(1, 3))
                                           - X.frames[0].eval_inv(Q(1, 3)))
            K = commutator(F, G)
            _assert_like_bisecting_oracle(K, _oracle_commutator(F, G), merged)
            loop = random_based_loop(random.Random(seed))
            C = concat(loop, G)  # G starts at the identity
            assert C.times == (tuple(t / 2 for t in loop.times)
                               + tuple(Q(1, 2) + t / 2 for t in G.times[1:]))
            made = [F, G, H, Fi, K, C]
            for X, max_disp in ((F, Q(1, 3)), (K, Q(1, 8)), (C, Q(1, 5))):
                R = refine(X, max_disp)
                ref = oracle_refine(X, max_disp)
                assert R.times == ref.times
                assert all(map(_same_map, R.frames, ref.frames))
                made.append(R)
            _assert_like_bisecting_oracle(compose(C, Fi), oracle_isotopy_compose(C, Fi),
                                          set(C.times) | set(Fi.times))
            for X in made:
                for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
                    got = mu(X, p)
                    assert got == oracle_mu(oracle_refine(X, Q(1, 4)), p)
                    assert type(got) is Q
        assert bisected >= len(TestComposeResampling.SEEDS)

    def test_frame_at_matches_oracle(self):
        # at seeded times off the samples, and at t = 0 and t = 1; a
        # composite's frames lie on the straight lift path between its ends
        for seed in range(40):
            F, G = _isotopy_pair(seed, seed % 4)
            H = compose(F, G)
            start, end = (FractionCircleDiffeo.of(f.compose(g))
                          for f, g in ((F.frames[0], G.frames[0]),
                                       (F.frames[-1], G.frames[-1])))
            rng = random.Random(seed)
            times = [Q(0), Q(1)]
            while len(times) < 8:
                t = Q(rng.randint(1, 999), rng.randint(1000, 5000))
                if t not in F.times and t not in G.times:
                    times.append(t)
            for t in times:
                for X in (F, G):
                    assert _same_map(X.frame_at(t), oracle_frame_at(X, t))
                assert _same_map(H.frame_at(t), start.interpolate(end, t))
            for X in (F, G, H):
                assert X.frame_at(0) is X.frames[0]
                assert X.frame_at(1) is X.frames[-1]

    def test_refine_with_unequal_piece_counts(self):
        # steps of 3/20, 1/4, 7/20 and 9/20 below 1/10: 2, 3, 4 and 5 pieces
        angles = (0, Q(3, 20), Q(2, 5), Q(3, 4), Q(6, 5))
        F = PLIsotopy((0, Q(1, 7), Q(1, 2), Q(2, 3), 1), _rotations(*angles))
        R = refine(F, Q(1, 10))
        _same_isotopy(R, oracle_refine(F, Q(1, 10)))
        assert len(R.times) == 2 + 3 + 4 + 5 + 1
        assert R.times[:3] == (0, Q(1, 14), Q(1, 7))
        assert R.times[-2] == Q(2, 3) + Q(1, 3) * Q(4, 5)
        assert mu(R, Q(2, 9)) == Q(6, 5)

    def test_compose_interpolates_only_off_the_factor_samples(self, monkeypatch):
        calls = []
        interpolate = PLCircleDiffeo.interpolate

        def counting(f, g, s):
            calls.append(s)
            return interpolate(f, g, s)

        rng = random.Random(59)
        for _ in range(10):
            F = refine(random_based_loop(rng), Q(1, 8))
            G = refine(random_isotopy(rng), Q(1, 5))
            grid = set(F.times) | set(G.times)
            calls.clear()
            monkeypatch.setattr(PLCircleDiffeo, "interpolate", counting)
            H = compose(F, G)
            assert calls == []  # the end composites need no interpolated frame
            frames = H.frames
            monkeypatch.undo()
            assert set(H.times) == grid
            assert len(calls) == len(grid) - 2  # one per interior sample
            assert all(0 < Q(*s) < 1 for s in calls)  # s is a pair (num, den)
            assert _key(frames[0]) == _key(F.frames[0].compose(G.frames[0]))
            assert _key(frames[-1]) == _key(F.frames[-1].compose(G.frames[-1]))
            for p in (Q(0), Q(1, 3), Q(5, 7)):
                assert (mu(H, p) == oracle_mu(oracle_isotopy_compose(F, G), p)
                        == oracle_mu(refine(H, Q(1, 4)), p))


def _counting_builds(monkeypatch):
    """Count the maps PLCircleDiffeo.interpolate and .compose build."""
    calls = []
    for name in ("interpolate", "compose"):
        method = getattr(PLCircleDiffeo, name)

        def counting(f, g, s=None, *, _method=method, _name=name):
            calls.append(_name)
            return _method(f, g) if s is None else _method(f, g, s)

        monkeypatch.setattr(PLCircleDiffeo, name, counting)
    return calls


class TestKnotFrames:
    """Derived isotopies hold knot frames only: refine keeps its factor's,
    compose builds two, and neither keeps its factors."""

    def test_refine_builds_no_map_and_compose_two_end_composites(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(10):
            F = refine(random_based_loop(rng), Q(1, 8))
            G = refine(random_based_loop(rng), Q(1, 8))
            calls = _counting_builds(monkeypatch)
            R = refine(F, Q(1, 64))
            assert calls == []
            H = compose(F, G)
            assert calls == ["compose", "compose"]  # H's two end frames
            mu(R, Q(1, 3)), mu(H, Q(1, 3)), H.is_based_loop()
            assert calls == ["compose", "compose"]
            monkeypatch.undo()
            fine = oracle_refine(F, Q(1, 64))
            assert R.times == fine.times
            assert all(map(_same_map, R.frames, fine.frames))
            ref = oracle_isotopy_compose(F, G)
            assert H.times == ref.times  # loops: no pointwise step is long
            for i in (0, -1):
                assert _same_map(H.frames[i], ref.frames[i])
            for p in (Q(0), Q(1, 3), Q(5, 7)):
                assert mu(R, p) == oracle_mu(fine, p)
                assert mu(H, p) == oracle_mu(ref, p) == oracle_mu(refine(H, Q(1, 4)), p)

    def test_a_derived_isotopy_keeps_no_factor_alive(self):
        for seed, kind in PAIR_CASES[::7]:
            F, G = _isotopy_pair(seed, kind)
            R = refine(F, Q(1, 10))
            H = compose(R, G)
            K = commutator(H, invert(G))
            C = concat(random_based_loop(random.Random(seed)), G)
            refs = [weakref.ref(X) for X in (F, G, R, H)]
            want = [mu(X, Q(1, 3)) for X in (K, C)]
            del F, G, R, H
            gc.collect()
            assert [ref() for ref in refs] == [None] * 4, (seed, kind)
            assert [mu(X, Q(1, 3)) for X in (K, C)] == want
            for X in (K, C):
                assert oracle_mu(refine(X, Q(1, 4)), Q(1, 3)) == mu(X, Q(1, 3))


def _steep_for_invert():
    """F_t = R(t/8) o h for h with slopes 8 and 1/8, sampled at 0, 1/2, 1:
    F moves 1/16 per step, but its inverse moves 8/16 = 1/2."""
    h = PLCircleDiffeo([0, 8], [0, 64], 72)
    return PLIsotopy((0, Q(1, 2), 1),
                     [PLCircleDiffeo.rotation(Q(k, 16)).compose(h) for k in range(3)])


class TestInvert:
    def test_steep_steps_are_bisected(self):
        # invert keeps F's times; the oracle bisects the long steps
        F = _steep_for_invert()
        with pytest.raises(AmbiguousLift):
            PLIsotopy(F.tn, [f.inverse() for f in F.frames], F.tden)
        Fi = invert(F)
        ref = oracle_invert(F)
        assert ref.times == (0, Q(1, 4), Q(1, 2), Q(3, 4), 1)
        _assert_like_bisecting_oracle(Fi, ref, F.times)
        for i in (0, -1):
            assert _key(Fi.frames[i]) == _key(F.frames[i].inverse())
        for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
            assert mu(Fi, p) == F.frames[-1].eval_inv(p) - F.frames[0].eval_inv(p)
        G = random_isotopy(random.Random(0))
        _assert_like_bisecting_oracle(commutator(F, G), _oracle_commutator(F, G),
                                      set(F.times) | set(G.times))


class TestBasedLoopHomomorphism:
    def test_nu_additive_on_loops(self):
        rng = random.Random(31)
        for _ in range(20):
            F = refine(random_based_loop(rng), Q(1, 8))
            G = refine(random_based_loop(rng), Q(1, 8))
            p = Q(rng.randint(0, 63), 64)
            assert mu(compose(F, G), p) == mu(F, p) + mu(G, p)

    def test_mu_integer_on_loops(self):
        rng = random.Random(37)
        for _ in range(10):
            F = random_based_loop(rng)
            val = mu(F, Q(rng.randint(0, 63), 64))
            assert Q(val).denominator == 1


class TestMultiIsotopy:
    def _multi(self, seed, m=2):
        rng = random.Random(seed)
        return MultiIsotopy(
            tuple(random_isotopy(rng) for _ in range(m)),
            tuple(Q(rng.randint(0, 63), 64) for _ in range(m)),
        )

    def test_nu_components(self):
        M = self._multi(1)
        vals = nu(M)
        assert len(vals) == 2
        for v, comp, p in zip(vals, M.components, M.basepoints):
            assert v == mu(comp, p)

    def test_nu_hat_builds_coset(self):
        M = self._multi(2)
        A = normalize([(1, 0), (0, 1)])
        z = nu_hat(M, A)
        assert z.lattice is A

    def test_nu_hat_dimension_mismatch(self):
        M = self._multi(3)
        with pytest.raises(DimensionMismatch):
            nu_hat(M, normalize([(1, 0, 0)], ambient_dim=3))


class TestSeededStreams:
    """The seeded instances are part of the output: a reworked generator
    must draw these same values from the same seeds."""

    # seed -> (time denominator, lift numerators of the frames after the
    # identity); breakpoints are 64*i over 64*b, b the row length
    ISOTOPIES = {
        0: (4, [(73, 144, 216, 279, 340, 401, 471, 531),
                (64, 116, 185, 244, 307, 376, 436, 505),
                (-30, 42, 111, 163, 235, 301, 362, 422),
                (94, 160, 216, 273, 336, 402, 476, 528)]),
        1: (2, [(-72, -13, 63, 126, 191, 252), (-95, -19, 30, 106, 171, 222)]),
        2: (1, [(-19, 39)]),
    }
    # seed -> lift numerators over 64*b
    DIFFEOS = {
        0: (277, 329, 400, 472, 535, 596, 657, 727),
        1: (-144, -85, -9),
        2: (-406, -342, -269, -211, -143, -80, -18, 41),
    }
    # seed -> (denominator, lift numerators of every frame)
    LOOPS = {
        1: (1920, [(0, 320, 640, 960, 1280, 1600),
                   (-444, -149, 231, 546, 871, 1176),
                   (-823, -443, -198, 182, 507, 762),
                   (-1122, -807, -507, -152, 118, 438),
                   (-1636, -1256, -966, -611, -356, 44),
                   (-1920, -1600, -1280, -960, -640, -320)]),
        2: (1152, [(0, 576), (-265, 257), (-512, 46), (-795, -183),
                   (-970, -358), (-1226, -632), (-1599, -1032),
                   (-1738, -1198), (-1985, -1382), (-2304, -1728)]),
    }
    # every (a, b) that circle.py draws
    RANGES = ((2, 8), (-64, 64), (-8, 8), (2, 6), (-16, 16), (-2, 2), (0, 63))

    @pytest.mark.parametrize("seed", sorted(ISOTOPIES))
    def test_random_isotopy(self, seed):
        tden, rows = self.ISOTOPIES[seed]
        F = random_isotopy(random.Random(seed))
        b = len(rows[0])
        xs = tuple(64 * i for i in range(b))
        assert F.tn == tuple(range(tden + 1)) and F.tden == tden
        assert all(f.den == 64 * b and f.xn == xs for f in F.frames)
        assert [f.yn for f in F.frames] == [xs, *rows]

    @pytest.mark.parametrize("seed", sorted(DIFFEOS))
    def test_random_diffeo(self, seed):
        ys = self.DIFFEOS[seed]
        f = random_diffeo(random.Random(seed))
        assert f.den == 64 * len(ys)
        assert f.xn == tuple(64 * i for i in range(len(ys)))
        assert f.yn == ys

    @pytest.mark.parametrize("seed", sorted(LOOPS))
    def test_random_based_loop(self, seed):
        D, rows = self.LOOPS[seed]
        F = random_based_loop(random.Random(seed))
        assert F.tn == tuple(range(len(rows))) and F.tden == len(rows) - 1
        assert all(f.den == D and f.xn == rows[0] for f in F.frames)
        assert [f.yn for f in F.frames] == rows

    def test_defect_report(self):
        assert defect_experiment(0, 2000) == {
            "seed": 0,
            "trials": 2000,
            "violations": 0,
            "max_observed": {
                "left_mult": Q(15029, 196608),
                "right_mult": Q(1269, 16384),
                "product": Q(23763, 262144),
                "inverse_sum": Q(87, 1216),
                "commutator": Q(258541, 2588672),
                "basepoint_change": Q(325, 4096),
            },
            "limits": {"left_mult": 1, "right_mult": 1, "product": 1,
                       "inverse_sum": 1, "commutator": 3,
                       "basepoint_change": 1},
        }

    @pytest.mark.parametrize("seed", range(40))
    def test_end_frame_is_the_isotopy_end_frame(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(5):
            F = random_isotopy(a)
            f = c._end_frame(b)
            assert (f.den, f.xn, f.yn) == (F.frames[-1].den, F.frames[-1].xn,
                                           F.frames[-1].yn)
            assert a.getstate() == b.getstate()

    def test_row_drawer_checks_steps(self, monkeypatch):
        # two samples on two breakpoints (D = 128); the second frame sits
        # 2*160 + 80 above the identity
        monkeypatch.setattr(c, "_randint",
                            lambda bits, a, b: 2 if a == 2 else 10 * b)
        with pytest.raises(AmbiguousLift):
            c._isotopy_rows(random.Random(0))

    def test_randint_matches_stdlib(self):
        for seed in range(300):
            a, b = random.Random(seed), random.Random(seed)
            for lo, hi in self.RANGES:
                assert ([c._randint(b.getrandbits, lo, hi) for _ in range(40)]
                        == [a.randint(lo, hi) for _ in range(40)]), (seed, lo, hi)
            assert a.getstate() == b.getstate()


class TestDefectExperiment:
    def test_small_run_clean(self):
        report = defect_experiment(seed=123, trials=300)
        assert report["violations"] == 0
        assert report["trials"] == 300
        for name, lim in report["limits"].items():
            assert report["max_observed"][name] < lim

    def test_deterministic(self):
        a = defect_experiment(seed=7, trials=50)
        b = defect_experiment(seed=7, trials=50)
        assert a == b

    def test_needs_trials(self):
        with pytest.raises(ValidationError):
            defect_experiment(seed=1, trials=0)

    def test_end_frame_mu_matches_oracle_isotopy_mu(self):
        # the experiment's end-frame evaluations equal mu, read step by step
        # without lifts, of the isotopies the bisecting oracles build for the
        # same random stream
        rng = random.Random(55)
        for _ in range(8):
            F, G = random_isotopy(rng), random_isotopy(rng)
            p = Q(rng.randint(0, 63), 64)
            f, g = F.frames[-1], G.frames[-1]
            assert oracle_mu(F, p) == f.eval(p) - p
            assert oracle_mu(oracle_isotopy_compose(F, G), p) == f.eval(g.eval(p)) - p
            K = _oracle_commutator(F, G)
            assert oracle_mu(K, p) == f.eval(g.eval(f.eval_inv(g.eval_inv(p)))) - p
