"""The summary of tools/bench_pairs.py on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PAIRS = 10
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
DIGEST = "sha256:00"


def _runs(metric, parent, change, workload="circle", seed=0):
    """One run record per side and pair, holding only ``metric``."""
    return [
        {"workload": workload, "seed": seed, "pair": pair, "side": side,
         "digest": DIGEST, "returncode": 0,
         "last_line": {"correct": True, "failed": 0,
                       "metrics": {metric: {"value": value}}}}
        for pair in range(PAIRS)
        for side, value in (("parent", parent[pair]), ("change", change[pair]))
    ]


def _summary(spec, parent, change):
    summary, unresolved = bench_pairs.summarize(
        _runs(spec["name"], parent, change), [spec], PAIRS)
    return (summary["circle seed 0"][spec["name"]],
            unresolved.get("circle seed 0", []))


def test_lower_is_better_gain():
    parent = [23.0 + 0.01 * i for i in range(PAIRS)]
    change = [22.0 + 0.01 * i for i in range(PAIRS)]
    entry, unresolved = _summary(RSS, parent, change)
    assert entry["change_wins"] == "10/10" and entry["gain"] is True
    assert entry["parent_median"] == pytest.approx(23.045)
    assert entry["change_vs_parent"] == pytest.approx(-0.0434, abs=1e-4)
    # inclusive quartiles of 23.00 .. 23.09: 23.0225 and 23.0675
    assert entry["parent_iqr"] == pytest.approx(0.045)
    assert unresolved == []


def test_higher_is_better_gain_and_loss():
    parent = [100.0 + i for i in range(PAIRS)]
    entry, _ = _summary(OPS, parent, [200.0 + i for i in range(PAIRS)])
    assert entry["change_wins"] == "10/10" and entry["gain"] is True
    assert entry["change_vs_parent"] == pytest.approx(0.9569, abs=1e-4)
    entry, _ = _summary(OPS, parent, [50.0 + i for i in range(PAIRS)])
    assert entry["change_wins"] == "0/10" and entry["gain"] is False
    assert entry["change_vs_parent"] == pytest.approx(-0.4785, abs=1e-4)


def test_ties_count_for_neither_side():
    parent = [10.0 + i for i in range(PAIRS)]
    change = list(parent)
    change[0] -= 5  # one win; nine ties
    entry, _ = _summary(RSS, parent, change)
    assert entry["change_wins"] == "1/10" and entry["gain"] is False


def test_nine_wins_need_a_median_past_the_spread():
    parent = [10.0 + i for i in range(PAIRS)]  # quartile spread 4.5
    change = [v - 1 for v in parent]
    change[9] = 20.0  # nine wins by 1
    entry, _ = _summary(RSS, parent, change)
    assert entry["change_wins"] == "9/10" and entry["gain"] is False
    change = [v - 6 for v in parent]
    change[9] = 20.0  # nine wins, median 6 below
    entry, _ = _summary(RSS, parent, change)
    assert entry["change_wins"] == "9/10" and entry["gain"] is True


def test_a_gain_must_pass_the_floor():
    # peak_rss_mb of BENCH_35.json: coset-groups seed 20251 ran none of the
    # changed code and moved 1.1%; circle moved 4.3%.
    parent = [25.3515625, 25.32421875, 25.3515625, 25.39453125, 25.33203125,
              25.375, 25.39453125, 25.3515625, 25.34765625, 25.3359375]
    change = [25.078125, 25.05078125, 25.0234375, 25.0546875, 25.078125,
              25.06640625, 25.0546875, 25.109375, 25.08203125, 25.015625]
    entry, _ = _summary(RSS, parent, change)
    assert entry["change_wins"] == "10/10"
    assert entry["parent_iqr"] == pytest.approx(0.0303, abs=1e-4)
    assert entry["gain"] is False
    parent = [23.1171875, 23.1328125, 23.10546875, 23.1328125, 23.140625,
              23.1875, 23.1484375, 23.12890625, 23.20703125, 23.13671875]
    change = [22.21484375, 22.09375, 22.15625, 22.08984375, 22.1328125,
              22.12890625, 22.0859375, 22.16015625, 22.14453125, 22.14453125]
    entry, _ = _summary(RSS, parent, change)
    assert entry["change_wins"] == "10/10" and entry["gain"] is True


def test_wide_parent_spread_is_unresolved_unless_separated():
    parent = [10.0 + 2 * i for i in range(PAIRS)]  # spread 9 of a median 19
    overlapping = [v - 1 for v in parent]
    _, unresolved = _summary(RSS, parent, overlapping)
    assert unresolved == ["peak_rss_mb"]
    separated = [v - 20 for v in parent]  # every change run below 10
    entry, unresolved = _summary(RSS, parent, separated)
    assert unresolved == [] and entry["parent_iqr_rel"] > RSS["bound"]


def test_failed_runs_are_left_out_of_the_summary():
    runs = _runs("peak_rss_mb", [1.0] * PAIRS, [1.0] * PAIRS)
    runs[3]["last_line"] = None
    summary, _ = bench_pairs.summarize(runs, [RSS], PAIRS)
    assert summary == {}


def test_problems_name_each_bad_run():
    runs = _runs("peak_rss_mb", [1.0] * PAIRS, [1.0] * PAIRS)
    assert bench_pairs.problems(runs) == []
    runs[1]["returncode"], runs[1]["last_line"] = 1, None
    runs[2]["last_line"] = {"correct": False, "failed": 3, "metrics": {}}
    runs[5]["digest"] = "sha256:ff"
    assert bench_pairs.problems(runs) == [
        "circle seed 0 pair 0 change: failed (exit 1)",
        "circle seed 0 pair 1 parent: incorrect (3 failed ops)",
        "circle seed 0 pair 2 change: digest sha256:ff differs from the "
        "parent's",
    ]


def test_one_pair_fails_at_parse_time(tmp_path, capsys):
    # The summary's quartiles need two runs per side: with one pair every
    # run ran, and then summarize raised StatisticsError and wrote nothing.
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--pairs", "1",
                          "--out", str(out)])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()
