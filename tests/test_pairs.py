"""tools/pairs.py: the alternating order of a pair's sides, the result line it
reads, the summary of canned result lines and its gain verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def result(run_s, peak, correct=True, failed=0):
    """A result line of bench/run.py with two metrics."""
    return {"correct": correct, "attempted": 8, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": peak, "unit": "MB"}}}


def test_odd_pairs_run_the_parent_first():
    assert [pairs.sides_in_order(k)[0] for k in (1, 2, 3, 4)] == [
        "parent", "change", "parent", "change"]
    assert sorted(pairs.sides_in_order(2)) == ["change", "parent"]


def test_the_result_is_the_last_line():
    stdout = "whiten_deep seed 0: 9 reps\n" + json.dumps(result(1.0, 130.0)) + "\n"
    assert pairs.last_json_line(stdout) == result(1.0, 130.0)
    with pytest.raises(ValueError):
        pairs.last_json_line("\n")


def test_summary_of_canned_pairs():
    parent = [(1.10, 129.5), (1.00, 129.4), (1.20, 129.6), (1.05, 129.5)]
    change = [(1.00, 129.6), (1.02, 129.4), (1.10, 129.5), (1.01, 129.3)]
    runs = {side: [{"pair": k, "first": pairs.sides_in_order(k)[0], "result": result(*v)}
                   for k, v in enumerate(values, start=1)]
            for side, values in (("parent", parent), ("change", change))}
    runs["change"][1]["result"] = result(1.02, 129.4, correct=False, failed=2)
    summary = pairs.summarize(runs, {"run_s": "lower", "peak_rss_mb": "lower"})
    assert summary == {
        "pairs": 4, "all_correct": False, "failed": [0, 2],
        "run_s": {"parent_median": 1.075, "parent_q1_q3": [1.0375, 1.125],
                  "change_median": 1.015, "change_q1_q3": [1.0075, 1.04],
                  "pairs_change_better": 3, "pairs_change_worse": 1},
        "peak_rss_mb": {"parent_median": 129.5, "parent_q1_q3": [129.475, 129.525],
                        "change_median": 129.45, "change_q1_q3": [129.375, 129.525],
                        "pairs_change_better": 2, "pairs_change_worse": 1},
    }


def test_higher_is_better_counts_the_other_way():
    runs = {"parent": [{"pair": 1, "first": "parent", "result": result(1.0, 100.0)}],
            "change": [{"pair": 1, "first": "parent", "result": result(2.0, 100.0)}]}
    summary = pairs.summarize(runs, {"run_s": "higher", "peak_rss_mb": "higher"})
    assert summary["run_s"]["pairs_change_better"] == 1
    assert summary["run_s"]["parent_q1_q3"] == [1.0, 1.0]
    assert (summary["peak_rss_mb"]["pairs_change_better"],
            summary["peak_rss_mb"]["pairs_change_worse"]) == (0, 0)


def canned_runs(parent, change):
    """The runs of pairs whose run_s values are parent[k] and change[k]."""
    return {side: [{"pair": k, "first": pairs.sides_in_order(k)[0], "result": result(v, 100.0)}
                   for k, v in enumerate(values, start=1)]
            for side, values in (("parent", parent), ("change", change))}


GAIN = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 1.20]


@pytest.mark.parametrize("change, resolved", [
    # better in 9 of 10 pairs, medians 1.045 -> 0.945, parent quartiles 1.0225-1.0675
    (GAIN, True),
    # better in 9 of 9 pairs, medians 1.04 -> 0.94: too few pairs
    (GAIN[:9], False),
    # better in 8 of 10 pairs, one a tie
    (GAIN[:8] + [1.08, 1.20], False),
    # better in 10 of 10 pairs, but medians 0.005 apart, inside the parent's spread
    ([0.995, 1.005, 1.015, 1.025, 1.035, 1.045, 1.055, 1.065, 1.075, 1.085], False),
], ids=["met", "missed-nine-pairs", "missed-pairs", "missed-spread"])
def test_gain_verdict_of_canned_pairs(change, resolved):
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09][:len(change)]
    stats = pairs.summarize(canned_runs(parent, change), {"run_s": "lower"})["run_s"]
    assert pairs.gain_resolved(stats, len(parent)) is resolved
