import itertools
import json
import random
from pathlib import Path

import pytest

from rotnorm._rat import INF, Q
from rotnorm.bounds import (
    _RELATIONS,
    _upper_rank,
    FINITE,
    NU_COMMUTATOR_BOUND,
    NU_DEFECT,
    QUANTITIES,
    BoundEntry,
    BoundLedger,
    ManifoldContext,
    Status,
    diameter_ledger,
    element_ledger,
    lower_cl,
    relation_close,
    theta_lower_cl,
    upper_clb_modG,
    verdict,
)
from rotnorm.catalog import list_fixtures, load_fixture
from rotnorm.circle import (
    MultiIsotopy,
    PLIsotopy,
    commutator,
    compose,
    nu_hat,
    random_isotopy,
)
from rotnorm.coset import theta
from rotnorm.errors import (
    DimensionMismatch,
    InconsistentLedger,
    ValidationError,
    ZeroDenominator,
)
from rotnorm.lattice import normalize, quotient_info

from oracles import norm_relation_model, oracle_relation_close

# Every combination of context flags for n = 2..8, and lattices of rank m
# and rank < m for m = 1..3.
BATTERY_FLAGS = list(itertools.product(
    range(2, 9), (True, False), ("smooth", "finite_r"), (True, False),
    ("closed", "open")))
FULL_RANK = ([(2,)], [(3,)], [(2, 0), (4, 3)], [(1, 0), (0, 1)],
             [(1, 0, 5), (0, 1, 46), (0, 0, 61)],
             [(2, 0, 0), (0, 2, 0), (0, 0, 3)])
DEFICIENT = ([], [(1, 1)], [(1, 1, 1)])


def battery_contexts(m):
    for n, connected, regularity, P, closed_or_open in BATTERY_FLAGS:
        yield ManifoldContext(n=n, m=m, connected=connected,
                              regularity=regularity, assumption_P=P,
                              closed_or_open=closed_or_open)


def lattice(gens):
    return normalize(gens, ambient_dim=len(gens[0]) if gens else 1)


class TestContext:
    def test_smooth_forces_perfectness(self):
        ctx = ManifoldContext(n=3, m=1)
        assert ctx.assumption_P

    def test_finite_r_keeps_flag(self):
        ctx = ManifoldContext(n=3, m=1, regularity="finite_r")
        assert not ctx.assumption_P
        ctx = ManifoldContext(n=3, m=1, regularity="finite_r", assumption_P=True)
        assert ctx.assumption_P

    def test_validation(self):
        with pytest.raises(ValidationError):
            ManifoldContext(n=1, m=1)
        with pytest.raises(ValidationError):
            ManifoldContext(n=3, m=0)
        with pytest.raises(ValidationError):
            ManifoldContext(n=3, m=1, closed_or_open="compact")
        with pytest.raises(ValidationError):
            ManifoldContext(n=3, m=1, regularity="analytic")

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            ManifoldContext.from_json({"n": 3, "m": 1, "genus": 2})
        with pytest.raises(ValidationError):
            ManifoldContext.from_json({"n": 3})

    def test_from_json_rejects_non_integer_n_m(self):
        for data in ({"n": "3", "m": 1}, {"n": 3, "m": 1.0},
                     {"n": 3, "m": True}, {"n": None, "m": 1}):
            with pytest.raises(ValidationError, match="integers"):
                ManifoldContext.from_json(data)

    def test_from_json_rejects_non_boolean_flags(self):
        for data in ({"n": 3, "m": 1, "connected": "false"},
                     {"n": 3, "m": 1, "connected": 0},
                     {"n": 3, "m": 1, "assumption_P": "no"},
                     {"n": 3, "m": 1, "assumption_P": None}):
            with pytest.raises(ValidationError, match="true or false"):
                ManifoldContext.from_json(data)
        ctx = ManifoldContext.from_json({"n": 3, "m": 1, "connected": False})
        assert ctx.connected is False


class TestFormulas:
    def test_lower_cl_example(self):
        # theta = 1/2, defect 1, commutator bound 3: (1/2 + 1)/4 = 3/8
        assert lower_cl(Q(1, 2), NU_DEFECT, NU_COMMUTATOR_BOUND) == Q(3, 8)

    def test_lower_cl_zero_theta(self):
        assert lower_cl(0, 1, 3) == Q(1, 4)

    def test_lower_cl_bad_denominator(self):
        with pytest.raises(ZeroDenominator):
            lower_cl(1, -2, 2)

    def test_upper_clb_modG_battery(self):
        # l = floor(theta) + 1, bound 2l + 1
        cases = [
            (Q(0), 3), (Q(1, 2), 3), (Q(1), 5), (Q(3, 2), 5),
            (Q(2), 7), (Q(7, 3), 7), (Q(10), 23),
        ]
        for theta, want in cases:
            assert upper_clb_modG(theta) == want

    def test_upper_clb_modG_negative(self):
        with pytest.raises(ValidationError):
            upper_clb_modG(-1)

    def test_monotone(self):
        prev = 0
        for i in range(30):
            v = upper_clb_modG(Q(i, 4))
            assert v >= prev
            prev = v

    def test_lower_cl_consistent_with_upper(self):
        # (theta + 1)/4 <= 2*(floor(theta)+1) + 1 for all theta >= 0
        for i in range(0, 80):
            theta = Q(i, 5)
            assert lower_cl(theta, 1, 3) <= upper_clb_modG(theta)


class TestLedger:
    def test_with_lower_only_tightens(self):
        led = BoundLedger().with_lower("cl_f", Q(2), "a")
        assert led.with_lower("cl_f", Q(1), "b") is led
        led2 = led.with_lower("cl_f", Q(3), "b")
        assert led2.get("cl_f").lower == 3
        assert led2.get("cl_f").rules == ("a", "b")

    def test_with_upper_tower_order(self):
        led = BoundLedger().with_upper("cld", INF, "x")
        assert led.get("cld").upper == INF
        led = led.with_upper("cld", FINITE, "fin")
        assert led.get("cld").upper == FINITE
        led = led.with_upper("cld", Q(7), "num")
        assert led.get("cld").upper == 7
        # going back up the tower is a no-op
        assert led.with_upper("cld", FINITE, "y") is led

    def test_upper_rank_orders_the_tower(self):
        # rationals and ints < "finite" < infinity, whatever their size
        tower = [INF, FINITE, Q(10**30), 10**30 + 1, Q(7, 2), 3, Q(0), 0]
        ranked = sorted(tower, key=_upper_rank)
        assert ranked == [Q(0), 0, 3, Q(7, 2), Q(10**30), 10**30 + 1,
                          FINITE, INF]
        assert _upper_rank(Q(10**30)) < _upper_rank(FINITE) < _upper_rank(INF)
        assert _upper_rank(2) < _upper_rank(Q(5, 2)) < _upper_rank(3)
        led = BoundLedger().with_upper("cld", 10**30, "int")
        assert led.with_upper("cld", FINITE, "fin") is led
        assert led.with_upper("cld", INF, "inf") is led
        assert led.with_upper("cld", Q(7, 2), "q").get("cld").upper == Q(7, 2)

    def test_check_raises_on_crossing(self):
        led = BoundLedger().with_lower("cld", Q(9), "a").with_upper("cld", Q(4), "b")
        with pytest.raises(InconsistentLedger):
            led.check()

    def test_finite_never_conflicts(self):
        led = BoundLedger().with_lower("cld", Q(100), "a")
        led = led.with_upper("cld", FINITE, "b")
        led.check()

    def test_to_json_shape(self):
        led = BoundLedger().with_lower("cl_f", Q(3, 8), "r1")
        led = led.with_upper("cld", FINITE, "r2")
        data = led.to_json()
        assert data["cl_f"] == {"lower": "3/8", "upper": "inf", "rules": ["r1"]}
        assert data["cld"]["upper"] == "finite"


class TestDiameterLedger:
    def test_torus_knot_style_case(self):
        # k = 3 => k_hat = 5; n = 3 odd: cld <= 5 + 4 = 9? no: example has
        # cld <= k_hat + 4 and clbd <= k_hat + 2n + 4
        ctx = ManifoldContext(n=3, m=1)
        q = quotient_info(normalize([(3,)]))
        led = diameter_ledger(ctx, q)
        assert led.get("clb_modG_f").upper == 5
        assert led.get("cld_G").upper == 4
        assert led.get("clbd_G").upper == 10
        assert led.get("cld").upper == 9
        assert led.get("clbd").upper == 15
        assert led.get("cld").lower == Q(5, 8)

    def test_spec_worked_diameters(self):
        # m = 1, k = 2, n = 3: cld <= k_hat + 4 = 7, clbd <= k_hat + 2n + 4 = 13,
        # lower cld >= (k + 2)/8 = 1/2... with k = 1: (1+2)/8 = 3/8
        ctx = ManifoldContext(n=3, m=1)
        q = quotient_info(normalize([(1,)]))
        led = diameter_ledger(ctx, q)
        assert led.get("cld").upper == 7
        assert led.get("clbd").upper == 13
        assert led.get("cld").lower == Q(3, 8)

    def test_even_dim_finiteness(self):
        ctx = ManifoldContext(n=6, m=1)
        led = diameter_ledger(ctx, quotient_info(normalize([(2,)])))
        for name in ("cld", "clbd", "cld_G", "clbd_G"):
            assert led.get(name).upper == FINITE

    def test_dim_2_and_4_give_no_uppers(self):
        for n in (2, 4):
            ctx = ManifoldContext(n=n, m=1)
            led = diameter_ledger(ctx, quotient_info(normalize([(2,)])))
            for name in ("cld", "clbd", "cld_G", "clbd_G"):
                assert led.get(name).upper == INF

    def test_open_manifold_gives_no_uppers(self):
        # The closed-pair rules would give cld <= 9 and clbd <= 15 here.
        ctx = ManifoldContext(n=3, m=1, closed_or_open="open")
        led = diameter_ledger(ctx, quotient_info(normalize([(2,)])))
        assert all(e.upper == INF for e in led.entries.values())
        assert led.get("cld").lower == Q(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diameter_ledger(ManifoldContext(n=3, m=1),
                            quotient_info(normalize([(1, 0), (0, 1)])))

    def test_rank_deficient_emits_nothing(self):
        ctx = ManifoldContext(n=3, m=2)
        led = diameter_ledger(ctx, quotient_info(normalize([(1, 1)])))
        assert led.entries == {}

    @pytest.mark.parametrize("flags", [
        {"connected": False},
        {"regularity": "finite_r"},
    ], ids=["disconnected", "finite_r_without_P"])
    def test_missing_hypothesis_gives_no_diameter_uppers(self, flags):
        # Both used to certify cld <= 9 and clbd <= 15 while the verdict
        # was Unknown.
        ctx = ManifoldContext(n=3, m=1, **flags)
        A = normalize([(2,)])
        assert verdict(ctx, A).status == Status.UNKNOWN
        led = relation_close(diameter_ledger(ctx, quotient_info(A)))
        for name in ("cld", "clbd", "cld_G", "clbd_G"):
            assert led.get(name).upper == INF
        assert led.get("clb_modG_f").upper == 5
        assert led.get("cld").lower == Q(1, 2)

    def test_constants_are_the_per_element_rules_at_k_over_2(self):
        for k in range(1, 51):
            q = quotient_info(normalize([(k,)]))
            assert upper_clb_modG(Q(k, 2)) == q.k_hat
            assert lower_cl(Q(k, 2), 1, 3) == Q(k + 2, 8)
            led = diameter_ledger(ManifoldContext(n=3, m=1), q)
            assert led.get("clb_modG_f").upper == q.k_hat
            assert led.get("cld").lower == Q(k + 2, 8)

    def test_generic_lower_quarter(self):
        ctx = ManifoldContext(n=3, m=2)
        q = quotient_info(normalize([(1, 0), (0, 1)]))
        led = diameter_ledger(ctx, q)
        assert led.get("cld").lower == Q(1, 4)


class TestRelationClose:
    def test_example_quotient_plus_diameter(self):
        led = BoundLedger()
        led = led.with_upper("clb_modG_f", Q(7), "given")
        led = led.with_upper("clbd_G", Q(10), "given")
        closed = relation_close(led)
        assert closed.get("clb_f").upper == 17
        assert closed.get("cl_f").upper == 17

    def test_example_zeta_from_clb(self):
        led = BoundLedger().with_upper("clb_f", Q(5), "given")
        closed = relation_close(led)
        assert closed.get("cl_f").upper == 5
        assert closed.get("zeta").upper == 20

    def test_idempotent(self):
        led = BoundLedger().with_upper("eta", Q(3), "given")
        once = relation_close(led)
        twice = relation_close(once)
        assert once.entries == twice.entries

    def test_monotone_in_inputs(self):
        loose = relation_close(BoundLedger().with_upper("eta", Q(5), "g"))
        tight = relation_close(BoundLedger().with_upper("eta", Q(3), "g"))
        for name in ("clb_f", "cl_f", "zeta"):
            lu, tu = loose.get(name).upper, tight.get(name).upper
            assert tu <= lu

    def test_lower_propagates_up(self):
        led = BoundLedger().with_lower("cl_f", Q(2), "given")
        closed = relation_close(led)
        assert closed.get("clb_f").lower == 2
        assert closed.get("eta").lower == 1  # clb <= 2 eta

    def test_le_sum_lower_propagation(self):
        led = BoundLedger()
        led = led.with_lower("cl_f", Q(10), "given")
        led = led.with_upper("cld_G", Q(4), "given")
        closed = relation_close(led)
        assert closed.get("cl_modG_f").lower == 6

    def test_inconsistent_detected(self):
        led = BoundLedger()
        led = led.with_lower("cl_f", Q(100), "given")
        led = led.with_upper("clb_modG_f", Q(3), "given")
        led = led.with_upper("clbd_G", Q(4), "given")
        with pytest.raises(InconsistentLedger):
            relation_close(led)

    def test_finite_absorbs_addition(self):
        led = BoundLedger()
        led = led.with_upper("clb_modG_f", Q(5), "given")
        led = led.with_upper("clbd_G", FINITE, "given")
        closed = relation_close(led)
        assert closed.get("clb_f").upper == FINITE

    def test_table_is_in_topological_order(self):
        # A rule that reads a quantity's upper bound comes after every rule
        # that writes it; otherwise one forward walk leaves uppers stale.
        for i, (_, _, terms, rule) in enumerate(_RELATIONS):
            later = {target for target, _, _, _ in _RELATIONS[i:]}
            assert not later & set(terms), rule

    def test_agrees_with_fixed_point_on_random_ledgers(self):
        rng = random.Random(20260823)

        def draw():
            entries = {}
            for name in QUANTITIES:
                if rng.random() < 0.4:
                    continue
                lower = (Q(rng.randint(0, 24), rng.randint(1, 4))
                         if rng.random() < 0.4 else Q(0))
                r = rng.random()
                upper = (INF if r < 0.15 else FINITE if r < 0.3
                         else Q(rng.randint(0, 60), rng.randint(1, 3)))
                entries[name] = BoundEntry(lower, upper, ("given",))
            return BoundLedger(entries)

        def bounds_of(close, led):
            try:
                out = close(led)
            except InconsistentLedger:
                return "inconsistent"
            return [(out.get(n).lower, out.get(n).upper) for n in QUANTITIES]

        outcomes = []
        for _ in range(10_000):
            led = draw()
            got = bounds_of(relation_close, led)
            assert got == bounds_of(oracle_relation_close, led), led
            outcomes.append(got == "inconsistent")
        assert 0 < sum(outcomes) < len(outcomes)

    def test_battery_json_matches_fixed_point(self):
        for gens in FULL_RANK + DEFICIENT:
            A = lattice(gens)
            q = quotient_info(A)
            for ctx in battery_contexts(A.m):
                led = diameter_ledger(ctx, q)
                got, want = (json.dumps(close(led).to_json(), sort_keys=True)
                             for close in (relation_close,
                                           oracle_relation_close))
                assert got == want, ctx


# The exact norms of a finite model: G = S_n, N the normal closure of x (V4
# in S4, A_n in S5 and S6), the ball subgroup Sym{0, 1, 2}.
NORM_MODELS = {
    "S4/V4": ([(1, 0, 2, 3), (1, 2, 3, 0)], (1, 0, 3, 2)),
    "S5/A5": ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], (1, 2, 0, 3, 4)),
    "S6/A6": ([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], (1, 2, 0, 3, 4, 5)),
}
PER_ELEMENT = ("cl_f", "clb_f", "cl_modG_f", "clb_modG_f")


class TestNormRelationModel:
    """The four algebraic rows of `_RELATIONS` (cl <= clb, their quotient
    form, and each norm <= its quotient norm plus the diameter) hold in any
    finite model, so every bound `relation_close` derives from exact values
    must bracket the exact value.  `clb_le_2eta` and `zeta_le_4clb` are
    theorems about the diffeomorphism group and are left out: eta and zeta
    are never seeded or checked.  An exact value INF (an element outside
    the subgroup a norm's set generates) is seeded as a lower bound, so any
    finite upper derived for it is a violation."""

    @pytest.mark.parametrize("model", NORM_MODELS)
    def test_derived_bounds_bracket_exact_norms(self, model):
        per_element, diameters = norm_relation_model(*NORM_MODELS[model])
        violations = []
        for exact in per_element:
            exact = {**exact, **diameters}
            for pair in itertools.combinations(PER_ELEMENT, 2):
                led = BoundLedger()
                for name in (*pair, "cld_G", "clbd_G"):
                    led = led.with_lower(name, exact[name], "exact")
                    led = led.with_upper(name, exact[name], "exact")
                try:
                    closed = relation_close(led)
                except InconsistentLedger as exc:
                    violations.append((exact, pair, str(exc)))
                    continue
                for name, value in exact.items():
                    e = closed.get(name)
                    if not (e.lower <= value
                            and _upper_rank(value) <= _upper_rank(e.upper)):
                        violations.append((exact, pair, name, e))
        assert not violations, (len(violations), violations[:3])


class TestElementLedger:
    """element_ledger: the diameter ledger, then the two per-element rules
    at theta, then the relation closure; on a full-rank lattice a theta
    above k/2 is refused."""

    def test_rules_at_theta(self):
        # HNF diag(2, 3): k = 3, so k/2 = 3/2 and k_hat = 5; n = 3 is odd
        ctx = ManifoldContext(n=3, m=2)
        q = quotient_info(normalize([(2, 0), (4, 3)]))
        led = element_ledger(ctx, q, Q(1, 2))
        assert led.get("cl_f").lower == lower_cl(Q(1, 2), 1, 3) == Q(3, 8)
        assert led.get("clb_modG_f").upper == upper_clb_modG(Q(1, 2)) == 3
        assert "quasimorphism_theta_lower" in led.get("cl_f").rules
        assert led.get("clb_modG_f").rules == (
            "quotient_diameter_k_hat", "quotient_norm_theta_upper")
        # closed: cl_f <= cl mod G + cld_G = 3 + 4, zeta <= 4 (3 + 2n + 4)
        assert led.get("cl_f").upper == 7
        assert led.get("zeta").upper == 52
        want = relation_close(diameter_ledger(ctx, q).with_lower(
            "cl_f", Q(3, 8), "quasimorphism_theta_lower").with_upper(
            "clb_modG_f", Q(3), "quotient_norm_theta_upper"))
        assert led.to_json() == want.to_json()

    def test_theta_above_half_k_is_refused(self):
        q = quotient_info(normalize([(2, 0), (4, 3)]))
        with pytest.raises(ValidationError, match="exceeds k/2 = 3/2"):
            element_ledger(ManifoldContext(n=3, m=2), q, Q(8, 5))

    def test_theta_zero_adds_no_cl_lower(self):
        # The identity has theta = 0 and cl = clb = eta = 0; (theta + 1)/4
        # bounds cl only on a product of at least one commutator.
        ctx = ManifoldContext(n=3, m=2)
        q = quotient_info(normalize([(1, 0), (0, 1)]))
        led = element_ledger(ctx, q, 0)
        assert [led.get(name).lower for name in ("cl_f", "clb_f", "eta")] == [0] * 3
        assert "quasimorphism_theta_lower" not in led.get("cl_f").rules
        assert theta_lower_cl(0) == 0
        assert theta_lower_cl(Q(5, 2)) == lower_cl(
            Q(5, 2), NU_DEFECT, NU_COMMUTATOR_BOUND) == Q(7, 8)

    def test_rank_deficient_takes_any_theta(self):
        q = quotient_info(normalize([(1, 1)]))
        led = element_ledger(ManifoldContext(n=3, m=2), q, 100)
        assert led.get("cl_f").lower == Q(101, 4)
        assert led.get("clb_modG_f").upper == 203

    def test_dimension_mismatch_comes_first(self):
        q = quotient_info(normalize([(2, 0), (4, 3)]))
        with pytest.raises(DimensionMismatch):
            element_ledger(ManifoldContext(n=3, m=1), q, 100)


class TestThetaRulesCircleModel:
    """A circle-side model of the theta rules.  Each of the m components is
    a product of n commutators of random isotopies (the identity isotopy
    for n = 0).  Such an end lift moves every point by less than 2n
    (Eisenbud, Hirsch & Neumann, Comment. Math. Helv. 56, 1981), so
    theta(nu + A) < 2n, and theta = 0 for n = 0; the cl_f lower bound of
    the ledger at that theta must be at most n."""

    def test_products_of_commutators(self):
        rng = random.Random(20261020)
        positive = 0
        for fx in map(load_fixture, list_fixtures()):
            if fx.lattice is None:
                continue
            q = quotient_info(fx.lattice)
            for n, _ in itertools.product(range(4), range(3)):
                comps = []
                for _ in range(fx.lattice.m):
                    K = PLIsotopy.rotation(0)
                    for _ in range(n):
                        K = compose(K, commutator(random_isotopy(rng),
                                                  random_isotopy(rng)))
                    comps.append(K)
                F = MultiIsotopy(comps, [Q(rng.randint(0, 63), 64) for _ in comps])
                th = theta(nu_hat(F, fx.lattice)).theta
                assert (th == 0) if n == 0 else (th < 2 * n), (fx.name, n, th)
                lower = element_ledger(fx.ctx, q, th).get("cl_f").lower
                assert lower <= n, (fx.name, n, th, lower)
                positive += lower > 0
        assert positive  # the rule fired on some n >= 1


class TestVerdict:
    def test_unbounded_rank_deficient(self):
        v = verdict(ManifoldContext(n=3, m=2), normalize([(1, 1)]))
        assert v.status == Status.UNBOUNDED
        assert v.justification[0] == "rank_lt_m"
        assert "orthogonal_functional_exists" in v.justification

    def test_bounded_full_rank_odd_dim(self):
        v = verdict(ManifoldContext(n=3, m=1), normalize([(3,)]))
        assert v.status == Status.BOUNDED
        assert v.justification[0] == "rank_eq_m"

    def test_unknown_dimension_4(self):
        v = verdict(ManifoldContext(n=4, m=1), normalize([(2,)]))
        assert v.status == Status.UNKNOWN
        assert "dimension_2_or_4_excluded" in v.justification

    def test_unknown_disconnected(self):
        v = verdict(ManifoldContext(n=3, m=1, connected=False), normalize([(2,)]))
        assert v.status == Status.UNKNOWN
        assert "disconnected_base" in v.justification

    def test_unknown_no_perfectness(self):
        ctx = ManifoldContext(n=3, m=1, regularity="finite_r")
        v = verdict(ctx, normalize([(2,)]))
        assert v.status == Status.UNKNOWN
        assert "perfectness_assumption_missing" in v.justification

    def test_unknown_open_manifold(self):
        ctx = ManifoldContext(n=3, m=1, closed_or_open="open")
        v = verdict(ctx, normalize([(2,)]))
        assert v.status == Status.UNKNOWN
        assert v.justification == ("rank_eq_m", "open_manifold_excluded")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verdict(ManifoldContext(n=3, m=2), normalize([(2,)]))

    def test_bounded_implies_finite_uppers(self):
        ctx = ManifoldContext(n=5, m=2)
        A = normalize([(2, 0), (0, 3)])
        v = verdict(ctx, A)
        assert v.status == Status.BOUNDED
        led = relation_close(diameter_ledger(ctx, quotient_info(A)))
        for name in ("cld", "clbd", "cld_G", "clbd_G", "clb_modG_f"):
            assert led.get(name).upper != INF

    @pytest.mark.parametrize("gens", FULL_RANK)
    def test_finite_cld_iff_bounded(self, gens):
        A = lattice(gens)
        q = quotient_info(A)
        for ctx in battery_contexts(A.m):
            bounded = verdict(ctx, A).status == Status.BOUNDED
            led = relation_close(diameter_ledger(ctx, q))
            assert (led.get("cld").upper != INF) == bounded, ctx

    def test_unbounded_implies_functional(self):
        from rotnorm.lattice import kernel_functional

        A = normalize([(2, 1, 0)])
        v = verdict(ManifoldContext(n=3, m=3), A)
        assert v.status == Status.UNBOUNDED
        c = kernel_functional(A)
        assert any(c)

    def test_json_shape(self):
        v = verdict(ManifoldContext(n=3, m=1), normalize([(2,)]))
        data = v.to_json()
        assert data["status"] == "Bounded"
        assert isinstance(data["justification"], list)

    def test_status_is_a_str_with_its_value(self):
        for status, text in ((Status.BOUNDED, "Bounded"),
                             (Status.UNBOUNDED, "Unbounded"),
                             (Status.UNKNOWN, "Unknown")):
            assert status == text and json.dumps(status) == f'"{text}"'
            assert type(status.value) is str and status.value == text


def test_every_emitted_tag_is_documented():
    """Each verdict tag and ledger rule bounds.py can emit is named in the
    output schema, so the documented rule list cannot drift."""
    names = {rel[-1] for rel in _RELATIONS}
    for gens in FULL_RANK + DEFICIENT:
        A = lattice(gens)
        q = quotient_info(A)
        for ctx in battery_contexts(A.m):
            names.update(verdict(ctx, A).justification)
            for entry in diameter_ledger(ctx, q).entries.values():
                names.update(entry.rules)
            for th in (0, Q(1, 2)):  # theta > 0 adds the cl_f lower rule
                for entry in element_ledger(ctx, q, th).entries.values():
                    names.update(entry.rules)
    doc = (Path(__file__).resolve().parents[1]
           / "docs" / "schemas" / "outputs.md").read_text()
    assert sorted(n for n in names if f"`{n}`" not in doc) == []
