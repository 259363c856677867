"""tools/interleave_ops.py: the repo against a copy of itself exits 0, and
a copy with a planted change of output exits 1 naming the op."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "interleave_ops.py"
ROUNDS = 2


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
    assert overall["pairs"] == sum(
        entry["pairs"] for entry in report["per_label"].values())
    q1, q3 = overall["quartiles"]
    assert 0 < q1 <= overall["median_ratio"] <= q3


def test_planted_output_change_exits_1(tmp_path):
    change = _copy(tmp_path)
    # the identity's cycle notation: a key of every group op's norm table
    _plant(change / "src" / "rotnorm" / "groups.py",
           'return out or "()"', 'return out or "(0)"')
    r = _run(change, "coset-groups")
    assert r.returncode == 1
    assert "the change's output differs" in r.stderr
    assert r.stdout == ""


def test_each_side_reads_its_own_fixtures(tmp_path):
    # catalog resolves its fixture files at call time: the change side
    # must read the copy's, which expect another k_hat
    change = _copy(tmp_path)
    _plant(change / "src" / "rotnorm" / "fixtures" / "hopf-1.json",
           '"k_hat": 3', '"k_hat": 5')
    r = _run(change, "coset-groups")
    assert r.returncode == 1
    assert "raised on the change side" in r.stderr
