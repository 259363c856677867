import dataclasses

import pytest

from rotnorm import catalog
from rotnorm.bounds import Status, Verdict
from rotnorm.catalog import check_fixture, list_fixtures, load_fixture
from rotnorm.errors import ValidationError


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

    def test_degrees_outside_the_lattice_fail_the_check(self, monkeypatch):
        # hopf-3's lattice is the diagonal line spanned by (1, 1, 1).
        fx = load_fixture("hopf-3")
        off = dataclasses.replace(
            fx, expected={**fx.expected, "degrees_in_lattice": [1, 2, 3]})
        monkeypatch.setattr(catalog, "load_fixture", lambda name: off)
        report = check_fixture(fx.name)
        assert not report["ok"]
        assert report["checks"]["degrees_in_lattice"] == {
            "expected": True, "actual": False, "ok": False}

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
