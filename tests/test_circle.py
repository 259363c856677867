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
    ValidationError,
)
from rotnorm.lattice import normalize

from oracles import (
    FractionCircleDiffeo,
    Path,
    oracle_diffeo_compose,
    oracle_frame_at,
    oracle_invert,
    oracle_isotopy_compose,
    oracle_mu,
    oracle_refine,
    straight_path,
)


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=16
)


def _rand_diffeo(seed):
    return random_diffeo(random.Random(seed))


def _rows_path(S, D, xs, rows):
    """The path at the times 0, 1/S, ..., 1 through the identity and the
    frames whose lift numerators over D, on the breakpoints ``xs``, are
    ``rows``."""
    return Path(tuple(Q(j, S) for j in range(S + 1)),
                tuple(PLCircleDiffeo(xs, ys, D) for ys in [xs, *rows]))


def _isotopy_path(rng):
    """The path ``random_isotopy(rng)`` is built from, from the same draws."""
    return _rows_path(*c._isotopy_rows(rng))


def _loop_path(rng, winding=None):
    """The path ``random_based_loop(rng, winding)`` is built from, from the
    same draws."""
    return _rows_path(*c._loop_rows(rng, winding))


def _drawn_isotopy_rows(rng):
    """The lift rows of ``random_isotopy``'s frames, identity first, drawn
    with ``rng.randint`` in the generator's order."""
    samples, b = rng.randint(2, 6), rng.randint(2, 8)
    xs = [64 * i for i in range(b)]
    rows, drift = [xs], 0
    for _ in range(samples - 1):
        drift += rng.randint(-16, 16) * b
        rows.append([x + drift + rng.randint(-8, 8) for x in xs])
    return rows


def _drawn_loop_rows(rng, winding):
    """The lift rows of ``random_based_loop``'s frames, identity first,
    drawn with ``rng.randint`` in the generator's order."""
    w = winding if winding is not None else rng.randint(-2, 2)
    S, b = 4 * abs(w) + 1, rng.randint(2, 8)
    xs = [64 * S * i for i in range(b)]
    rows = [xs]
    for j in range(1, S):
        drift = 64 * b * w * j + rng.randint(-2, 2) * b * S
        rows.append([x + drift + rng.randint(-8, 8) * S for x in xs])
    return rows + [[x + w * 64 * b * S for x in xs]]


def _straight(X):
    """The library isotopy X's lift path at its sample times: straight from
    its start to its end lift, by the Fraction oracle."""
    return straight_path(X.times, X.start, X.end)


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
        frames = _isotopy_path(rng).frames
    elif kind == "loop":
        frames = _loop_path(rng).frames
    else:  # frames of a composed isotopy: breakpoints vary frame to frame
        F = compose(refine(random_isotopy(rng), Q(1, 4)),
                    refine(random_isotopy(rng), Q(1, 4)))
        frames = [F.frame_at(t) for t in F.times]
    return frames[rng.randrange(len(frames))]


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
            frames = [H.frame_at(t) for t in H.times]
            for a, b in zip(frames, frames[1:]):
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
            frames = _loop_path(rng).frames
            for a, b in zip(frames, frames[1:]):
                assert (a.den, a.xn) == (b.den, b.xn)
                ra, rb = FractionCircleDiffeo.of(a), FractionCircleDiffeo.of(b)
                for s in (Q(1, 3), Q(1, 2), Q(5, 7)):
                    assert _same_map(a.interpolate(b, s), ra.interpolate(rb, s))

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


def _wide_frame(rng, k, digits, shift=0):
    """A frame of k breakpoints i/k + 1/(3k d_i) and values
    shift + i/k + 1/(5k e_i), the d_i and e_i cycling through five distinct
    odd integers of ``digits`` digits each."""
    def odd_ints():
        drawn = []
        while len(drawn) < 5:
            n = rng.randrange(10 ** (digits - 1), 10 ** digits) | 1
            if n not in drawn:
                drawn.append(n)
        return drawn

    ds, es = odd_ints(), odd_ints()
    return PLCircleDiffeo(
        [Q(i, k) + Q(1, 3 * k * ds[i % 5]) for i in range(k)],
        [shift + Q(i, k) + Q(1, 5 * k * es[i % 5]) for i in range(k)])


@pytest.fixture
def lookups(monkeypatch):
    """The arguments of every ``circle._lookup`` call from here on."""
    calls = []
    lookup = c._lookup

    def counting(*args):
        calls.append(args)
        return lookup(*args)

    monkeypatch.setattr(c, "_lookup", counting)
    return calls


#: Two maps on disjoint grids; every other map below is on one of them.
_F = PLCircleDiffeo([0, Q(1, 3), Q(2, 3)], [Q(1, 10), Q(1, 2), Q(4, 5)])
_G = PLCircleDiffeo([Q(1, 8), Q(3, 8), Q(5, 8), Q(7, 8)],
                    [Q(1, 4), Q(1, 3), Q(3, 5), Q(6, 7)])


def _oracle_displacement(a, b):
    return FractionCircleDiffeo.of(a).displacement(FractionCircleDiffeo.of(b))


class TestDisplacement:
    """``_gaps`` reads each map's stored values at its own breakpoints and
    looks the other map up there; ``displacement`` is their largest, and
    the step rule and ``==`` stop at the first point that decides them."""

    def test_one_lookup_per_breakpoint_of_each(self, lookups):
        f, g = _F, _G
        h = PLCircleDiffeo(f.xn, (6, 12, 18), f.den)  # f's grid, over 30
        for a, b in ((f, g), (g, f)):
            lookups.clear()
            assert a.displacement(b) == _oracle_displacement(a, b)
            assert len(lookups) == 3 + 4
        lookups.clear()
        assert f.displacement(h) == _oracle_displacement(f, h)
        assert lookups == []  # one grid: no lookup

    @pytest.mark.parametrize("order", ["f first", "g first"])
    def test_a_refused_step_stops_at_the_first_point(self, lookups, order):
        # _G one period up moves by more than 1/2 at every point
        up = PLCircleDiffeo(_G.xn, [y + _G.den for y in _G.yn], _G.den)
        frames = (_F, up) if order == "f first" else (up, _F)
        with pytest.raises(AmbiguousLift):
            PLIsotopy((0, 1), frames)
        assert len(lookups) == 1

    def test_unequal_at_the_first_point_is_one_lookup(self, lookups):
        assert _F.eval(0) != _G.eval(0)  # 0 is the first point walked
        lookups.clear()
        assert _F != _G
        assert len(lookups) == 1

    @pytest.mark.parametrize("order", ["f first", "g first"])
    def test_equal_maps_walk_every_point(self, lookups, order):
        # _F written again with a collinear breakpoint at 1/6
        xs = sorted({*_F.xs, Q(1, 6)})
        f2 = PLCircleDiffeo(xs, [_F.eval(x) for x in xs])
        lookups.clear()
        assert (_F == f2 if order == "f first" else f2 == _F)
        assert len(lookups) == 3 + 4

    @pytest.mark.parametrize("eps", [0, Q(1, 2 ** 70), -Q(1, 2 ** 70)],
                             ids=["half", "below", "above"])
    @pytest.mark.parametrize("order", ["f first", "g first"])
    def test_half_reached_only_at_the_second_maps_breakpoints(self, eps,
                                                              order):
        # g - _F is 1/2 - eps at g's breakpoint 1/6 and less than 1/2 at
        # every other breakpoint of either map
        g = PLCircleDiffeo([Q(1, 6), Q(1, 2), Q(5, 6)],
                           [Q(4, 5) - eps, Q(9, 10), Q(19, 20)])
        assert max(abs(g.eval(x) - _F.eval(x)) for x in _F.xs) < Q(1, 2)
        assert abs(g.eval(Q(1, 6)) - _F.eval(Q(1, 6))) == Q(1, 2) - eps
        a, b = (_F, g) if order == "f first" else (g, _F)
        if eps > 0:
            assert PLIsotopy((0, 1), (a, b)).end is b
        else:
            with pytest.raises(AmbiguousLift):
                PLIsotopy((0, 1), (a, b))
        assert a.displacement(b) == _oracle_displacement(a, b) == Q(1, 2) - eps

    @pytest.mark.parametrize("shift", [0, Q(1, 4), Q(1, 2), Q(-1, 2), Q(3, 4)])
    def test_wide_denominators_match_the_oracle(self, shift):
        rng = random.Random(5)
        a = _wide_frame(rng, 5, 50)
        b = _wide_frame(rng, 5, 50, shift)
        assert a.xn != b.xn
        want = FractionCircleDiffeo.of(a).displacement(FractionCircleDiffeo.of(b))
        assert a.displacement(b) == b.displacement(a) == want
        if 2 * want < 1:
            assert PLIsotopy((0, 1), (a, b)).end is b
        else:
            with pytest.raises(AmbiguousLift):
                PLIsotopy((0, 1), (a, b))


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
        P = Path(tuple(Q(j, 5) for j in range(6)),
                 _rotations(*(Q(j, 4) for j in range(6))))
        assert (F.times, F.start, F.end) == (P.times, P.frames[0], P.frames[-1])
        assert (F.tn, F.tden) == (tuple(range(6)), 5)
        assert mu(F, Q(7, 3)) == oracle_mu(P, Q(7, 3)) == Q(5, 4)

    def test_full_turn_mu_is_one(self):
        F = random_based_loop(random.Random(2), winding=1)
        assert F.is_based_loop()
        assert mu(F, Q(0)) == 1

    @pytest.mark.parametrize("winding", [1, -1, 2])
    def test_joined_loops_add_mu(self, winding):
        # the joined path shifts PG's lifts by the gap d = winding between
        # PF's end lift and PG's start lift
        PF = _loop_path(random.Random(3), winding)
        PG = _loop_path(random.Random(4), 0)
        PH = _concat_path(PF, PG)
        H = PLIsotopy(*PH)
        for p in (Q(0), Q(1, 8), Q(5, 7)):
            assert (mu(H, p) == oracle_mu(PH, p) == winding
                    == mu(PLIsotopy(*PF), p) + mu(PLIsotopy(*PG), p))

    def test_rotation_needs_two_samples(self):
        for samples in (1, 0, -2):
            with pytest.raises(ValidationError):
                PLIsotopy.rotation(Q(1, 4), samples=samples)
        F = PLIsotopy.rotation(Q(1, 4), samples=2)
        assert F.times == (0, 1) and mu(F, Q(1, 3)) == Q(1, 4)

    def test_refine(self):
        F = PLIsotopy.rotation(Q(3, 2), samples=5)
        R = refine(F, Q(1, 8))
        frames = _straight(R).frames
        for a, b in zip(frames, frames[1:]):
            assert a.displacement(b) < Q(1, 8)
        assert mu(R, Q(0)) == Q(3, 2)

    @pytest.mark.parametrize("max_disp", [0, Q(-1, 8)],
                             ids=["zero", "negative"])
    def test_refine_needs_a_positive_bound(self, max_disp):
        F = PLIsotopy.rotation(Q(3, 2), samples=5)
        with pytest.raises(ValidationError, match="max_disp must be positive"):
            refine(F, max_disp)


def _rotations(*angles):
    return tuple(PLCircleDiffeo.rotation(a) for a in angles)


def _concat_path(P, R):
    """P on [0, 1/2], then R on [1/2, 1], R's lifts shifted by the integer
    that takes its start lift to P's end lift."""
    d = P.frames[-1].eval(0) - R.frames[0].eval(0)
    assert d.denominator == 1
    return Path(tuple(t / 2 for t in P.times)
                + tuple(Q(1, 2) + t / 2 for t in R.times[1:]),
                P.frames + tuple(PLCircleDiffeo(f.xs, [y + d for y in f.ys])
                                 for f in R.frames[1:]))


class TestIntegerTimes:
    """Rational times, kept as integer numerators over one denominator."""

    def test_integer_constructor_validation(self):
        ident = PLCircleDiffeo.identity()
        three = [ident] * 3
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            PLIsotopy((Q(1, 3), Q(2, 3), 1), three)  # starts after 0
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            PLIsotopy((0, Q(1, 3), Q(2, 3)), three)  # ends before 1
        with pytest.raises(ValidationError, match="increase"):
            PLIsotopy((0, Q(2, 3), Q(2, 3), 1), [ident] * 4)
        with pytest.raises(ValidationError, match="increase"):
            PLIsotopy((0, Q(2, 3), Q(1, 3), 1), [ident] * 4)
        with pytest.raises(ValidationError, match="matching"):
            PLIsotopy((0, 1), three)
        with pytest.raises(AmbiguousLift):
            PLIsotopy((0, 1), _rotations(0, Q(1, 2)))
        PLIsotopy((0, 1), _rotations(0, Q(7, 16)))  # fine

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
            PF, PG = _isotopy_path(rng), _isotopy_path(rng)
            p = Q(rng.randint(0, 63), 64)
            H = compose(PLIsotopy(*PF), PLIsotopy(*PG))
            assert mu(H, p) == oracle_mu(oracle_isotopy_compose(PF, PG), p)

    def test_inverse_identity(self):
        # mu of the end-inverse isotopy agrees with the bisecting oracle's
        # pointwise inverse, and the inverse trace from f(p) retraces F's
        # trace from p: mu(F^-1, f(p)) = -mu(F, p), as F_0 is the identity
        rng = random.Random(19)
        for _ in range(10):
            PF = _isotopy_path(rng)
            p = Q(rng.randint(0, 63), 64)
            Finv, ref = invert(PLIsotopy(*PF)), oracle_invert(PF)
            assert mu(Finv, p) == oracle_mu(ref, p)
            fp = p + oracle_mu(PF, p)  # F_1(p)
            assert mu(Finv, fp) == oracle_mu(ref, fp) == -oracle_mu(PF, p)

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


class TestEisenbudHirschNeumann:
    """``compose``, ``invert`` and ``commutator`` against a theorem: a lift
    f~ that is a product of n commutators of lifts has
    min(f~(x) - x) < 2n - 1 and max(f~(x) - x) > 1 - 2n (Eisenbud, Hirsch
    & Neumann, Comment. Math. Helv. 56, 1981).  f~(x) - x is linear between
    the breakpoints, so they hold its extremes.  The check reads the end
    lift alone, so it holds at any size; an ``invert`` that returned its
    argument fails 55 of these 300 seeds."""

    def test_products_of_commutators(self):
        for seed in range(300):
            rng = random.Random(seed)
            for n in range(1, 4):
                K = PLIsotopy.rotation(0)
                for _ in range(n):
                    K = compose(K, commutator(random_isotopy(rng),
                                              random_isotopy(rng)))
                f = K.end
                moves = [y - x for x, y in zip(f.xs, f.ys)]
                assert min(moves) < 2 * n - 1, (seed, n)
                assert max(moves) > 1 - 2 * n, (seed, n)


class TestProductDefect:
    def test_product_defect_comes_within_one_percent_of_its_limit(self):
        # F runs straight, in 4 steps, from the identity to the lift f
        # through (0, 0) and (1/400, 399/400); G rotates by 1/400.  At
        # p = 0: mu(F) = 0, mu(G) = 1/400 and mu(FG) = f(1/400) = 399/400,
        # so the defect is 199/200, against the limit 1 that criterion 3
        # checks on random draws, which stay far below it.
        f = PLCircleDiffeo((0, Q(1, 400)), (0, Q(399, 400)))
        steps = [Q(k, 4) for k in range(5)]
        F = PLIsotopy(steps, [PLCircleDiffeo.identity().interpolate(f, s)
                              for s in steps])
        G = PLIsotopy.rotation(Q(1, 400))
        defect = mu(compose(F, G), 0) - mu(F, 0) - mu(G, 0)
        assert defect == Q(199, 200)
        report = defect_experiment(seed=3, trials=2000)
        assert Q(99, 100) <= defect < report["limits"]["product"]
        assert report["max_observed"]["product"] < Q(1, 4)


def _held(h):
    """The constant isotopy at h."""
    return PLIsotopy((0, 1), (h, h))


_STEEP = PLCircleDiffeo((0, Q(1, 400)), (0, Q(399, 400)))


class TestDefectWitnesses:
    """Hand-built witnesses for the other quantities of limit 1, each read
    as ``defect_experiment`` reads it, through the public ``compose``,
    ``invert`` and ``mu``.  f is the lift through (0, 0) and (1/400,
    399/400), F runs straight from the identity to f in 4 steps, and R
    rotates by a = 1/400; a map h acts through the constant isotopy at h.
    f(a) - a = 398/400, where f - id is largest."""

    F = PLIsotopy([Q(k, 4) for k in range(5)],
                  [PLCircleDiffeo.identity().interpolate(_STEEP, Q(k, 4))
                   for k in range(5)])
    R = PLIsotopy.rotation(Q(1, 400))
    a = Q(1, 400)

    def _check(self, name, value, want):
        # criterion 3's draws stay below 1/4 on every quantity of limit 1
        report = defect_experiment(seed=3, trials=2000)
        assert value == want
        assert Q(99, 100) <= abs(value) < report["limits"][name]
        assert report["max_observed"][name] < Q(1, 4)

    def test_left_mult(self):
        # mu(hF) - mu(F) with h = f and F = R, at 0: f(a) - f(0) - a
        value = mu(compose(_held(_STEEP), self.R), 0) - mu(self.R, 0)
        self._check("left_mult", value, Q(398, 400))

    def test_right_mult(self):
        # mu(Fh) - mu(F) with h the rotation by a, at 0: f(a) - a - f(0)
        value = (mu(compose(self.F, _held(PLCircleDiffeo.rotation(self.a))), 0)
                 - mu(self.F, 0))
        self._check("right_mult", value, Q(398, 400))

    def test_inverse_sum(self):
        # mu(F) + mu(F^-1) at a: (f(a) - a) + (f^-1(a) - a), where f^-1
        # has slope 1/399 on [0, 399/400], so f^-1(a) = a / 399
        value = mu(self.F, self.a) + mu(invert(self.F), self.a)
        self._check("inverse_sum", value, Q(397, 400) + self.a / 399)

    def test_basepoint_change(self):
        # mu at q = a minus mu at p = 0: f(a) - a - f(0)
        value = mu(self.F, self.a) - mu(self.F, 0)
        self._check("basepoint_change", value, Q(398, 400))


def _assert_like_bisecting_oracle(H, ref, times):
    """H, a composite or an inverse, keeps the sample times ``times``, and
    agrees with ``ref``, the path an oracle builds pointwise, bisecting
    every step of 1/2 or more: H's end lifts are ref's, and mu(H) is ref's
    mu read step by step.  H's straight lift path, by the Fraction oracle,
    on H's grid refined below 1/4 passes the public constructor's step
    check, and its mu read step by step is mu(H) too."""
    assert list(H.times) == sorted(times)
    assert _same_map(H.start, ref.frames[0])
    assert _same_map(H.end, ref.frames[-1])
    R = _straight(refine(H, Q(1, 4)))
    PLIsotopy(*R)
    for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
        assert mu(H, p) == oracle_mu(ref, p) == oracle_mu(R, p), p


def _oracle_commutator(F, G):
    """[F, G] built by the bisecting oracles alone, from the paths F, G."""
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
        PF, PG = _isotopy_path(rng), _isotopy_path(rng)
        F, G = PLIsotopy(*PF), PLIsotopy(*PG)
        merged = set(F.times) | set(G.times)
        steps = [oracle_frame_at(PF, t).compose(oracle_frame_at(PG, t))
                 for t in sorted(merged)]
        with pytest.raises(AmbiguousLift):
            PLIsotopy(sorted(merged), steps)
        H = compose(F, G)
        ref = oracle_isotopy_compose(PF, PG)
        assert merged < set(ref.times)
        _assert_like_bisecting_oracle(H, ref, merged)
        for p in (Q(0), Q(1, 3), Q(5, 7)):
            assert abs(mu(H, p) - mu(F, p) - mu(G, p)) < 1
        _assert_like_bisecting_oracle(commutator(F, G), _oracle_commutator(PF, PG),
                                      merged)

    def test_accepted_pairs_keep_the_merged_grid(self):
        rng = random.Random(17)
        for _ in range(15):
            PF, PG = _isotopy_path(rng), _isotopy_path(rng)
            ts = sorted(set(PF.times) | set(PG.times))
            H = compose(PLIsotopy(*PF), PLIsotopy(*PG))
            assert list(H.times) == ts
            for i, h in ((0, H.start), (-1, H.end)):
                assert _key(h) == _key(PF.frames[i].compose(PG.frames[i]))
            ref = oracle_isotopy_compose(PF, PG)
            R = _straight(refine(H, Q(1, 4)))
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
        return random_isotopy(rng).end
    return f


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
    return Path(tuple(Q(k, S) for k in range(S + 1)),
                tuple(PLCircleDiffeo.rotation(c * Q(k, S)).compose(h)
                      for k in range(S + 1)))


def _isotopy_pair(seed, kind):
    """Two paths, each an input path or the path of a refined isotopy."""
    rng = random.Random(seed)
    if kind == 0:
        return _isotopy_path(rng), _isotopy_path(rng)
    if kind == 1:
        return (_straight(refine(random_based_loop(rng), Q(1, 8))),
                _straight(refine(random_based_loop(rng), Q(1, 8))))
    if kind == 2:
        return (_straight(refine(random_isotopy(rng), Q(1, rng.randint(2, 9)))),
                _isotopy_path(rng))
    if kind == 3:
        R = PLIsotopy.rotation(Q(rng.randint(-9, 9), 4))
        return _straight(R), _loop_path(rng)
    # steep outer frames: the slope bound rarely proves a composite step
    return _steep_isotopy(rng), _loop_path(rng)


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
        # each isotopy X against its own path: an input path, a path the
        # oracles build pointwise, or the straight path of what refine gives
        bisected = 0
        for seed, kind in PAIR_CASES:
            PF, PG = _isotopy_pair(seed, kind)
            F, G = PLIsotopy(*PF), PLIsotopy(*PG)
            merged = set(F.times) | set(G.times)
            H = compose(F, G)
            ref = oracle_isotopy_compose(PF, PG)
            _assert_like_bisecting_oracle(H, ref, merged)
            bisected += len(ref.times) > len(merged)
            Fi, Gi = invert(F), invert(G)
            for X, PX, Xi in ((F, PF, Fi), (G, PG, Gi)):
                _assert_like_bisecting_oracle(Xi, oracle_invert(PX), X.times)
                assert _key(Xi.start) == _key(X.start.inverse())
                assert _key(Xi.end) == _key(X.end.inverse())
                assert mu(Xi, Q(1, 3)) == (X.end.eval_inv(Q(1, 3))
                                           - X.start.eval_inv(Q(1, 3)))
            PK = _oracle_commutator(PF, PG)
            K = commutator(F, G)
            _assert_like_bisecting_oracle(K, PK, merged)
            PC = _concat_path(_loop_path(random.Random(seed)), PG)
            C = PLIsotopy(*PC)
            assert C.times == PC.times
            made = [(F, PF), (G, PG), (H, ref), (Fi, oracle_invert(PF)), (K, PK),
                    (C, PC)]
            for X, max_disp in ((F, Q(1, 3)), (K, Q(1, 8)), (C, Q(1, 5))):
                R = refine(X, max_disp)
                fine = oracle_refine(_straight(X), max_disp)
                assert R.times == fine.times
                assert all(map(_same_map, _straight(R).frames, fine.frames))
                made.append((R, fine))
            _assert_like_bisecting_oracle(compose(C, Fi),
                                          oracle_isotopy_compose(PC, oracle_invert(PF)),
                                          set(C.times) | set(Fi.times))
            for X, PX in made:
                for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
                    got = mu(X, p)
                    assert got == oracle_mu(PX, p)
                    assert got == oracle_mu(_straight(refine(X, Q(1, 4))), p)
                    assert type(got) is Q
        assert bisected >= len(TestComposeResampling.SEEDS)

    def test_frame_at_matches_oracle(self):
        # at seeded times off the samples, and at t = 0 and t = 1, every
        # frame lies on the straight lift path between the end lifts
        for seed in range(40):
            PF, PG = _isotopy_pair(seed, seed % 4)
            F, G = PLIsotopy(*PF), PLIsotopy(*PG)
            H = compose(F, G)
            ends = {F: (PF.frames[0], PF.frames[-1]), G: (PG.frames[0], PG.frames[-1]),
                    H: (oracle_diffeo_compose(PF.frames[0], PG.frames[0]),
                        oracle_diffeo_compose(PF.frames[-1], PG.frames[-1]))}
            rng = random.Random(seed)
            times = [Q(0), Q(1)]
            while len(times) < 8:
                t = Q(rng.randint(1, 999), rng.randint(1000, 5000))
                if t not in F.times and t not in G.times:
                    times.append(t)
            for X, (start, end) in ends.items():
                path = straight_path(times, start, end)
                for t, want in zip(times, path.frames):
                    assert _same_map(X.frame_at(t), want)
                assert X.frame_at(0) is X.start
                assert X.frame_at(1) is X.end

    def test_refine_with_unequal_piece_counts(self):
        # rotation by 6t sampled at 0, 1/8, 1/3, 5/8 and 1: steps of 3/20,
        # 1/4, 7/20 and 9/20 below 1/10, so 2, 3, 4 and 5 pieces
        angles = (0, Q(3, 20), Q(2, 5), Q(3, 4), Q(6, 5))
        P = Path((0, Q(1, 8), Q(1, 3), Q(5, 8), 1), _rotations(*angles))
        R = refine(PLIsotopy(*P), Q(1, 10))
        fine = oracle_refine(P, Q(1, 10))
        assert R.times == fine.times
        assert all(type(t) is Q for t in R.times)
        assert all(map(_same_map, _straight(R).frames, fine.frames))
        assert len(R.times) == 2 + 3 + 4 + 5 + 1
        assert R.times[:3] == (0, Q(1, 16), Q(1, 8))
        assert R.times[-2] == Q(5, 8) + Q(3, 8) * Q(4, 5)
        assert mu(R, Q(2, 9)) == Q(6, 5)


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
    """Derived isotopies hold their two end lifts only: refine builds no
    map, compose builds two, and neither keeps its factors."""

    def test_refine_builds_no_map_and_compose_two_end_composites(self, monkeypatch):
        rng = random.Random(61)
        for _ in range(10):
            F = refine(random_based_loop(rng), Q(1, 8))
            G = refine(random_based_loop(rng), Q(1, 8))
            calls = _counting_builds(monkeypatch)
            R = refine(F, Q(1, 64))
            assert calls == []
            H = compose(F, G)
            assert calls == ["compose", "compose"]  # H's two end lifts
            mu(R, Q(1, 3)), mu(H, Q(1, 3)), H.is_based_loop()
            assert calls == ["compose", "compose"]
            monkeypatch.undo()
            fine = oracle_refine(_straight(F), Q(1, 64))
            assert R.times == fine.times
            assert all(map(_same_map, _straight(R).frames, fine.frames))
            ref = oracle_isotopy_compose(_straight(F), _straight(G))
            assert H.times == ref.times  # loops: no pointwise step is long
            assert _same_map(H.start, ref.frames[0])
            assert _same_map(H.end, ref.frames[-1])
            for p in (Q(0), Q(1, 3), Q(5, 7)):
                assert mu(R, p) == oracle_mu(fine, p)
                assert (mu(H, p) == oracle_mu(ref, p)
                        == oracle_mu(_straight(refine(H, Q(1, 4))), p))

    def test_a_derived_isotopy_keeps_no_factor_alive(self):
        for seed, kind in PAIR_CASES[::7]:
            PF, PG = _isotopy_pair(seed, kind)
            F, G = PLIsotopy(*PF), PLIsotopy(*PG)
            R = refine(F, Q(1, 10))
            H = compose(R, G)
            K = commutator(H, invert(G))
            C = PLIsotopy(*_concat_path(_loop_path(random.Random(seed)), PG))
            refs = [weakref.ref(X) for X in (F, G, R, H)]
            want = [mu(X, Q(1, 3)) for X in (K, C)]
            del F, G, R, H
            gc.collect()
            assert [ref() for ref in refs] == [None] * 4, (seed, kind)
            assert [mu(X, Q(1, 3)) for X in (K, C)] == want
            for X in (K, C):
                R = _straight(refine(X, Q(1, 4)))
                assert oracle_mu(R, Q(1, 3)) == mu(X, Q(1, 3))


def _steep_for_invert():
    """F_t = R(t/8) o h for h with slopes 8 and 1/8, sampled at 0, 1/2, 1:
    F moves 1/16 per step, but its inverse moves 8/16 = 1/2."""
    h = PLCircleDiffeo([0, 8], [0, 64], 72)
    return Path((0, Q(1, 2), 1),
                tuple(PLCircleDiffeo.rotation(Q(k, 16)).compose(h) for k in range(3)))


class TestInvert:
    def test_steep_steps_are_bisected(self):
        # invert keeps F's times; the oracle bisects the long steps
        PF = _steep_for_invert()
        with pytest.raises(AmbiguousLift):
            PLIsotopy(PF.times, [f.inverse() for f in PF.frames])
        F = PLIsotopy(*PF)
        Fi = invert(F)
        ref = oracle_invert(PF)
        assert ref.times == (0, Q(1, 4), Q(1, 2), Q(3, 4), 1)
        _assert_like_bisecting_oracle(Fi, ref, F.times)
        assert _key(Fi.start) == _key(PF.frames[0].inverse())
        assert _key(Fi.end) == _key(PF.frames[-1].inverse())
        for p in (Q(0), Q(1, 3), Q(5, 7), Q(63, 64)):
            assert mu(Fi, p) == F.end.eval_inv(p) - F.start.eval_inv(p)
        PG = _isotopy_path(random.Random(0))
        _assert_like_bisecting_oracle(commutator(F, PLIsotopy(*PG)),
                                      _oracle_commutator(PF, PG),
                                      set(PF.times) | set(PG.times))


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
        P = _isotopy_path(random.Random(seed))
        b = len(rows[0])
        xs = tuple(64 * i for i in range(b))
        assert F.tn == tuple(range(tden + 1)) and F.tden == tden
        assert all(f.den == 64 * b and f.xn == xs for f in P.frames)
        assert [f.yn for f in P.frames] == [xs, *rows]
        assert (_key(F.start), _key(F.end)) == (_key(P.frames[0]), _key(P.frames[-1]))

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
        P = _loop_path(random.Random(seed))
        assert F.tn == tuple(range(len(rows))) and F.tden == len(rows) - 1
        assert all(f.den == D and f.xn == rows[0] for f in P.frames)
        assert [f.yn for f in P.frames] == rows
        assert (_key(F.start), _key(F.end)) == (_key(P.frames[0]), _key(P.frames[-1]))

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
            assert _key(f) == _key(F.end)
            assert a.getstate() == b.getstate()

    def test_row_drawer_checks_steps(self, monkeypatch):
        # two samples on two breakpoints (D = 128); the second frame sits
        # 2*160 + 80 above the identity
        monkeypatch.setattr(c, "_randint",
                            lambda bits, a, b: 2 if a == 2 else 10 * b)
        with pytest.raises(AmbiguousLift):
            c._isotopy_rows(random.Random(0))

    @pytest.mark.parametrize("winding", [None, -2, -1, 0, 1, 2])
    def test_generators_match_the_public_constructor(self, winding):
        # each generator keeps the grid and end lifts that PLIsotopy keeps
        # from the frames its rows build, and draws what randint draws
        for seed in range(300):
            a, b, o = (random.Random(seed) for _ in range(3))
            for gen, path, drawn in (
                    (lambda r: random_based_loop(r, winding),
                     lambda r: _loop_path(r, winding),
                     lambda r: _drawn_loop_rows(r, winding)),
                    (random_isotopy, _isotopy_path, _drawn_isotopy_rows)):
                F, P = gen(a), path(b)
                want = PLIsotopy(P.times, P.frames)
                assert (F.tn, F.tden) == (want.tn, want.tden)
                assert _key(F.start) == _key(want.start)
                assert _key(F.end) == _key(want.end)
                assert [list(f.yn) for f in P.frames] == drawn(o)
                assert a.getstate() == b.getstate() == o.getstate()

    def test_generators_build_only_the_two_end_lifts(self, monkeypatch):
        built = []
        init = PLCircleDiffeo.__init__

        def counting(self, *args):
            built.append(args[1])
            init(self, *args)

        monkeypatch.setattr(PLCircleDiffeo, "__init__", counting)
        monkeypatch.setattr(PLIsotopy, "__init__", None)  # never called
        rng = random.Random(9)
        for winding in (None, -2, -1, 0, 1, 2):
            for gen in (lambda: random_based_loop(rng, winding),
                        lambda: random_isotopy(rng)):
                F = gen()
                assert built == [list(F.start.yn), list(F.end.yn)]
                built.clear()

    # Rigged draws whose first row after the identity breaks one rule; the
    # rows after it keep every rule.  The isotopy draws samples, b, then per
    # row its drift and b jitters (D = 128); the loop, at winding 1, draws
    # b, then per row the same (S = 5, D = 640).  Draws run out as 0.
    RIGGED = {
        "step": (AmbiguousLift, "1/2", (3, 2, 40, 0, 0), (2, 40, 0, 0)),
        "order": (ValidationError, "strictly increase",
                  (3, 2, 0, 40, -40), (2, 0, 30, -34)),
        "period": (ValidationError, "less than 1 per period",
                   (3, 2, 0, -40, 40), (2, 0, -30, 34)),
    }

    @pytest.mark.parametrize("rule", sorted(RIGGED))
    @pytest.mark.parametrize("kind", ["isotopy", "loop"])
    def test_generators_check_every_row(self, monkeypatch, rule, kind):
        error, message, isotopy_draws, loop_draws = self.RIGGED[rule]
        draws = iter(isotopy_draws if kind == "isotopy" else loop_draws)
        monkeypatch.setattr(c, "_randint", lambda bits, a, b: next(draws, 0))
        with pytest.raises(error, match=message) as info:
            if kind == "isotopy":
                random_isotopy(random.Random(0))
            else:
                random_based_loop(random.Random(0), 1)
        assert info.type is error

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

    @staticmethod
    def _shifted_inverse(monkeypatch, shift):
        """Plant a fault: every inverse lift value moves up by shift."""
        eval_inv = PLCircleDiffeo._eval_inv

        def planted(self, a, q):
            n, d = eval_inv(self, a, q)
            return n * shift.denominator + shift.numerator * d, d * shift.denominator

        monkeypatch.setattr(PLCircleDiffeo, "_eval_inv", planted)

    def test_counts_a_broken_inverse_round_trip(self, monkeypatch):
        # f^-1(f(p)) - p reads 1/2 in every trial, and no observed sum
        # reaches its limit
        self._shifted_inverse(monkeypatch, Q(1, 2))
        report = defect_experiment(seed=3, trials=200)
        assert report["violations"] == 200
        for name, lim in report["limits"].items():
            assert report["max_observed"][name] < lim

    def test_counts_sums_past_their_limits(self, monkeypatch):
        # shifted by 1, the round trip fails in every trial and
        # |mu(F) + mu(F^-1)| reaches 1 in some: more violations than trials
        self._shifted_inverse(monkeypatch, Q(1))
        report = defect_experiment(seed=3, trials=200)
        assert report["violations"] > 200
        assert report["max_observed"]["inverse_sum"] >= 1

    def test_end_frame_mu_matches_oracle_isotopy_mu(self):
        # the experiment's end-frame evaluations equal mu, read step by step
        # without lifts, of the isotopies the bisecting oracles build for the
        # same random stream
        rng = random.Random(55)
        for _ in range(8):
            F, G = _isotopy_path(rng), _isotopy_path(rng)
            p = Q(rng.randint(0, 63), 64)
            f, g = F.frames[-1], G.frames[-1]
            assert oracle_mu(F, p) == f.eval(p) - p
            assert oracle_mu(oracle_isotopy_compose(F, G), p) == f.eval(g.eval(p)) - p
            K = _oracle_commutator(F, G)
            assert oracle_mu(K, p) == f.eval(g.eval(f.eval_inv(g.eval_inv(p)))) - p
