import dataclasses

import pytest

from rotnorm import catalog
from rotnorm.bounds import Status, Verdict
from rotnorm.catalog import (
    check_fixture,
    hopf_lattice,
    list_fixtures,
    load_fixture,
    s1_action_vector,
    vanishing_condition,
)
from rotnorm.errors import ValidationError
from rotnorm.lattice import normalize, quotient_info


class TestHopfLattice:
    def test_m1_is_all_of_z(self):
        A = hopf_lattice(1)
        assert A.hnf_basis == ((1,),)
        assert quotient_info(A).k == 1

    def test_m2_is_full_z2(self):
        A = hopf_lattice(2)
        assert A.rank == 2
        assert quotient_info(A).k == 1

    def test_m3_is_diagonal_line(self):
        A = hopf_lattice(3)
        assert A.rank == 1
        assert A.hnf_basis == ((1, 1, 1),)

    def test_bad_m(self):
        with pytest.raises(ValidationError):
            hopf_lattice(0)


class TestAssertions:
    def test_s1_action_membership(self):
        a = s1_action_vector([3, 3, 3])
        assert a.holds_in(hopf_lattice(3))
        assert not s1_action_vector([1, 2, 3]).holds_in(hopf_lattice(3))

    def test_divides_form(self):
        a = s1_action_vector([6])
        assert a.divides(3)
        assert not a.divides(4)
        with pytest.raises(ValidationError):
            s1_action_vector([1, 2]).divides(2)

    def test_vanishing(self):
        cond = vanishing_condition(center_trivial=True, pi1_injective=True)
        assert cond.check(normalize([], ambient_dim=2))
        assert not cond.check(normalize([(1, 0)]))
        weak = vanishing_condition(center_trivial=True, pi1_injective=False)
        assert weak.check(normalize([(1, 0)]))


class TestCatalog:
    def test_list_nonempty_sorted(self):
        names = list_fixtures()
        assert names == sorted(names)
        assert len(names) >= 8

    def test_unknown_fixture(self):
        with pytest.raises(ValidationError):
            load_fixture("no-such-fixture")

    @pytest.mark.parametrize("name", ["../fixtures/hopf-1",
                                      "../../../BENCHMARK", "hopf-1.json"])
    def test_path_like_name_is_unknown(self, name):
        with pytest.raises(ValidationError, match="unknown fixture"):
            load_fixture(name)

    def test_unknown_expected_key_is_rejected(self, monkeypatch):
        # A misspelt key used to be skipped, and the fixture reported ok.
        fx = load_fixture("hopf-1")
        bad = dataclasses.replace(fx, expected={**fx.expected, "k_mx": 7})
        monkeypatch.setattr(catalog, "load_fixture", lambda name: bad)
        with pytest.raises(ValidationError, match="k_mx"):
            check_fixture("hopf-1")

    def test_expected_keys_checked_against_lattice_json(self, monkeypatch):
        fx = load_fixture("seifert-multiple-fiber")
        wrong = dataclasses.replace(
            fx, expected={"invariant_factors": [3], "k": [4],
                          "verdict": "Bounded"})
        monkeypatch.setattr(catalog, "load_fixture", lambda name: wrong)
        report = check_fixture(fx.name)
        assert not report["ok"]
        assert report["checks"]["invariant_factors"]["ok"]
        assert report["checks"]["k"] == {
            "expected": [4], "actual": [3], "ok": False}

    def test_rank_only_verdict_comes_from_the_engine(self, monkeypatch):
        # The rank-only verdict was the literal "Unbounded", never computed.
        calls = []

        def bounded(ctx, A):
            calls.append(A.rank)
            return Verdict(Status.BOUNDED, ())

        monkeypatch.setattr(catalog, "verdict", bounded)
        report = check_fixture("circle-bundle")
        assert calls == [1]
        assert not report["ok"]
        assert report["checks"]["verdict"]["actual"] == "Bounded"

    @pytest.mark.parametrize("name", list_fixtures())
    def test_every_fixture_self_checks(self, name):
        report = check_fixture(name)
        failing = {k: v for k, v in report["checks"].items() if not v["ok"]}
        assert report["ok"], f"{name}: {failing}"

    def test_fixture_fields(self):
        for name in list_fixtures():
            fx = load_fixture(name)
            assert fx.name
            assert fx.source
            assert (fx.lattice is None) != (fx.rank_at_most is None)
            assert "verdict" in fx.expected
