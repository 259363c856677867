"""tools/interleave_ops.py: the repo against a copy of itself exits 0, and
a copy with a planted change of output is still timed, then exits 1 naming
the ops that differ."""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "interleave_ops.py"
ROUNDS = 2
_SPEC = importlib.util.spec_from_file_location("interleave_ops", TOOL)
interleave_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interleave_ops)


def _copy(tmp_path) -> Path:
    dst = tmp_path / "copy"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dst / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    return dst


def _run(change: Path, workload: str):
    return subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(change), "--workload",
         workload, "--seed", "0", "--rounds", str(ROUNDS)],
        capture_output=True, text=True, timeout=300)


def _plant(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("workload", ["circle", "coset-groups"])
def test_copy_of_itself_exits_0(tmp_path, workload):
    r = _run(_copy(tmp_path), workload)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    overall = report["overall"]
    assert overall["pairs"] > 0 and overall["pairs"] % ROUNDS == 0
    for key in ("pairs", "parent_ns", "change_ns"):
        assert overall[key] == sum(
            entry[key] for entry in report["per_label"].values()), key
    assert overall["total_ratio"] == round(
        overall["change_ns"] / overall["parent_ns"], 4)
    q1, q3 = overall["quartiles"]
    assert 0 < q1 <= overall["median_ratio"] <= q3
    lo, hi = overall["median_ci95"]
    assert lo <= overall["median_ratio"] <= hi
    assert "median_ci95_family" not in overall
    assert all("median_ci95_family" in entry
               for entry in report["per_label"].values())
    assert report["differs"] == {}


def test_planted_output_change_exits_1(tmp_path):
    change = _copy(tmp_path)
    # the identity's cycle notation: a key of every group op's norm table
    _plant(change / "src" / "rotnorm" / "groups.py",
           'return out or "()"', 'return out or "(0)"')
    r = _run(change, "coset-groups")
    assert r.returncode == 1
    assert "the change's output differs on " in r.stderr
    report = json.loads(r.stdout)
    differs = report["differs"]
    assert any(label in report["per_label"] for label in differs)
    # every timed run of a group op differs; no coset op does
    for label, count in differs.items():
        assert not label.startswith("coset|"), label
        if label in report["per_label"]:
            assert count == report["per_label"][label]["pairs"], label
    assert all(label in r.stderr for label in differs)
    assert report["overall"]["pairs"] == sum(
        entry["pairs"] for entry in report["per_label"].values())


def test_each_side_reads_its_own_fixtures(tmp_path):
    # catalog resolves its fixture files at call time: the change side
    # must read the copy's, which expect another k_hat
    change = _copy(tmp_path)
    _plant(change / "src" / "rotnorm" / "fixtures" / "hopf-1.json",
           '"k_hat": 3', '"k_hat": 5')
    r = _run(change, "coset-groups")
    assert r.returncode == 1
    assert "raised on the change side" in r.stderr


@pytest.mark.parametrize("n, k", [(6, 1), (10, 2), (20, 6), (100, 40),
                                  (1000, 469)])
def test_median_interval_takes_the_sign_test_ranks(n, k):
    # [x_(k), x_(n+1-k)], k from the binomial tables (1000: the normal
    # approximation, 500 - 1.96 * sqrt(1000) / 2 = 469.0, agrees); ratio
    # r has rank r, whatever order the pairs came in
    ratios = [1 + rank / 10**4 for rank in range(1, n + 1)]
    random.Random(n).shuffle(ratios)
    assert interleave_ops.median_interval(ratios) == [
        1 + k / 10**4, 1 + (n + 1 - k) / 10**4]


def _below(n, k):
    """P(B < k) for B ~ Bin(n, 1/2)."""
    return Fraction(sum(comb(n, i) for i in range(k)), 2**n)


def test_median_interval_coverage_is_exact():
    # k is the largest with P(B < k) <= 2.5%, so the coverage 1 - 2 P(B < k)
    # is at least 95%; below 6 values even k = 1 misses it
    for n in range(1, 80):
        got = interleave_ops.median_interval(list(range(1, n + 1)))
        if n < 6:
            assert got is None and _below(n, 1) > Fraction(1, 40)
            continue
        k = got[0]
        assert got == [k, n + 1 - k]
        assert _below(n, k) <= Fraction(1, 40) < _below(n, k + 1)


@pytest.mark.parametrize("n, family, k", [
    (10, 2, 2), (20, 2, 5), (10, 10, 1), (20, 10, 4), (40, 10, 11),
    (100, 10, 36), (1000, 10, 456)])
def test_family_interval_takes_the_bonferroni_ranks(n, family, k):
    # level 1 - 0.05/family: P(B < k) <= 1/(40 family).  n = 20, family =
    # 10: P(B <= 3) = 1351/2^20 = 0.0013 <= 0.0025 < P(B <= 4) = 0.0059;
    # n = 1000: the normal approximation, 500 - 2.807 * sqrt(1000) / 2 =
    # 455.6, agrees
    ratios = [1 + rank / 10**4 for rank in range(1, n + 1)]
    random.Random(n).shuffle(ratios)
    assert interleave_ops.median_interval(ratios, family) == [
        1 + k / 10**4, 1 + (n + 1 - k) / 10**4]


@pytest.mark.parametrize("family", [2, 3, 10, 25])
def test_family_interval_coverage_is_exact(family):
    # each of the family's intervals misses its median with probability
    # 2 P(B < k) <= 0.05/family, so all hold with probability >= 95%; the
    # interval is the widest rank pair that does so, and is None where even
    # k = 1 misses
    for n in range(1, 120):
        got = interleave_ops.median_interval(list(range(1, n + 1)), family)
        bound = Fraction(1, 40 * family)
        if got is None:
            assert _below(n, 1) > bound
            continue
        k = got[0]
        assert got == [k, n + 1 - k]
        assert _below(n, k) <= bound < _below(n, k + 1)
        # no narrower than the 95% interval
        assert k <= interleave_ops.median_interval(
            list(range(1, n + 1)))[0]


def test_report_gives_each_label_its_family_interval():
    pairs = [(100, 100 + i % 7 - 3) for i in range(40)]
    entry = interleave_ops.summarize(
        [c / p for p, c in pairs], 4000, sum(c for _, c in pairs), 10)
    lo, hi = entry["median_ci95_family"]
    lo95, hi95 = entry["median_ci95"]
    assert lo <= lo95 <= entry["median_ratio"] <= hi95 <= hi
    assert "median_ci95_family" not in interleave_ops.summarize(
        [1.0] * 6, 6, 6)
