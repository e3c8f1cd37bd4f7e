"""`tools/bench_pairs.py`'s summary of alternating before/after runs, on
fixed perfbench result lines; no process is started."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"samples_per_s": "higher", "cpu_s_per_sample": "lower", "accepted": "higher"}


def _line(samples_per_s, cpu, failed=0):
    values = {"samples_per_s": samples_per_s, "cpu_s_per_sample": cpu, "accepted": 164}
    return {"correct": True, "attempted": 1, "failed": failed,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def test_summary_counts_wins_ties_quartiles_and_failures():
    parent = [_line(50.0, 0.020), _line(52.0, 0.019), _line(48.0, 0.021), _line(51.0, 0.020), _line(49.0, 0.022)]
    change = [_line(56.0, 0.018), _line(51.0, 0.017), None, _line(55.0, 0.020), _line(57.0, 0.016, failed=1)]
    first = ["parent", "change", "parent", "change", "parent"]
    group = bench_pairs.summarize({"parent": parent, "change": change}, first, BETTER)

    assert group["pairs"] == 5 and group["first_in_pair"] == first
    assert group["failed_runs"] == {"parent": 0, "change": 1}
    assert group["failed_jobs"] == {"parent": 0, "change": 1}
    assert group["all_correct"] is False  # a run failed

    sps = group["metrics"]["samples_per_s"]
    assert sps["parent"]["runs"] == [50.0, 52.0, 48.0, 51.0, 49.0]
    assert sps["change"]["runs"] == [56.0, 51.0, 55.0, 57.0]  # the failed run is left out
    q1, _, q3 = statistics.quantiles([50.0, 52.0, 48.0, 51.0, 49.0], n=4)
    assert (sps["parent"]["median"], sps["parent"]["q1"], sps["parent"]["q3"]) == (50.0, q1, q3)
    assert sps["parent_iqr"] == q3 - q1
    assert sps["change"]["median"] == 55.5
    assert sps["median_ratio_change_over_parent"] == 55.5 / 50.0
    # pairs 1, 2, 4, 5 have both sides: 56 > 50, 51 < 52, 55 > 51, 57 > 49
    assert (sps["change_wins"], sps["ties"]) == (3, 0)

    cpu = group["metrics"]["cpu_s_per_sample"]  # lower is better; pair 4 ties
    assert (cpu["change_wins"], cpu["ties"]) == (3, 1)
    accepted = group["metrics"]["accepted"]
    assert (accepted["change_wins"], accepted["ties"]) == (0, 4)
    assert accepted["parent_iqr"] == 0.0


def test_verdict_needs_nine_wins_in_ten_and_a_gain_beyond_the_parent_iqr():
    parent = [_line(50.0 + 0.1 * i, 0.02) for i in range(10)]
    change = [_line(56.0 + 0.1 * i, 0.02) for i in range(10)]
    change[3] = _line(40.0, 0.02)
    first = ["parent", "change"] * 5
    group = bench_pairs.summarize({"parent": parent, "change": change}, first, BETTER)
    assert bench_pairs.verdict(group, "samples_per_s") == {
        "wins": 9, "pairs": 10, "wins_at_least_9_of_10": True, "median_gain_exceeds_parent_iqr": True,
    }
    change[4] = _line(40.0, 0.02)
    group = bench_pairs.summarize({"parent": parent, "change": change}, first, BETTER)
    assert bench_pairs.verdict(group, "samples_per_s")["wins_at_least_9_of_10"] is False
    # a gain inside the parent's spread
    wide = [_line(v, 0.02) for v in (40.0, 60.0) * 5]
    close = [_line(v + 1.0, 0.02) for v in (40.0, 60.0) * 5]
    group = bench_pairs.summarize({"parent": wide, "change": close}, first, BETTER)
    assert bench_pairs.verdict(group, "samples_per_s") == {
        "wins": 10, "pairs": 10, "wins_at_least_9_of_10": True, "median_gain_exceeds_parent_iqr": False,
    }
    assert bench_pairs.verdict(group, "cpu_s_per_sample")["wins"] == 0


def test_group_argument():
    assert bench_pairs.parse_group("planner:2026:10") == ("planner", 2026, 10)
    with pytest.raises(ValueError):
        bench_pairs.parse_group("planner:2026")
