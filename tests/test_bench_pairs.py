"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "work_per_s", "better": "higher", "bound": 0.24},
           {"name": "time_to_result_s", "better": "lower", "bound": 0.24}]
PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartile spread 4.5


def runs(metric, parent, change, workload="w"):
    """Synthetic perfbench results, one per side of each pair."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), values):
            out.append({"workload": workload, "pair": pair, "side": side, "json": {
                "attempted": 3, "failed": 0, "metrics": {metric: {"value": value, "unit": ""}}}})
    return out


def summary(metric, parent, change, claim=False):
    got = bench_pairs.summarize(runs(metric, parent, change), METRICS,
                                (metric, "w") if claim else None)
    return got["w"][metric]


def test_clear_gain_is_a_gain_only_where_claimed():
    change = [v * 1.2 for v in PARENT]
    got = summary("work_per_s", PARENT, change, claim=True)
    assert (got["verdict"], got["change_better_pairs"], got["pairs"]) == ("gain", 10, 10)
    assert got["parent"]["q1_median_q3"] == [102.25, 104.5, 106.75]
    assert got["median_change_worse_by"] == pytest.approx(-0.2)
    assert got["parent_iqr_over_median"] == pytest.approx(4.5 / 104.5)
    assert summary("work_per_s", PARENT, change)["verdict"] == "within bound"


def test_gain_needs_nine_of_ten_pairs_and_medians_apart():
    change = [v * 1.2 for v in PARENT]
    change[0] = change[1] = 50.0  # 8 of 10
    assert summary("work_per_s", PARENT, change, claim=True)["verdict"] == "within bound"
    change[0] = 120.0  # 9 of 10
    assert summary("work_per_s", PARENT, change, claim=True)["verdict"] == "gain"
    close = [v + 1.0 for v in PARENT]  # 10 of 10, but medians 1 apart against a spread of 4.5
    got = summary("work_per_s", PARENT, close, claim=True)
    assert (got["verdict"], got["change_better_pairs"]) == ("within bound", 10)


@pytest.mark.parametrize("factor, verdict", [(0.9, "within bound"), (0.7, "worse than bound")])
def test_change_against_the_bound(factor, verdict):
    got = summary("work_per_s", PARENT, [v * factor for v in PARENT])
    assert got["verdict"] == verdict
    assert got["change_better_pairs"] == 0
    assert got["median_change_worse_by"] == pytest.approx(1.0 - factor)


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 150.0] * 5  # quartiles 50, 100, 150
    got = summary("work_per_s", parent, parent, claim=True)
    assert got["parent_iqr_over_median"] == 1.0
    assert got["verdict"] == "unresolved: parent spread exceeds bound"
    # unless every run of the change reads better than every run of the parent
    got = summary("work_per_s", parent, [200.0] * 10)
    assert (got["parent_iqr_over_median"], got["verdict"]) == (1.0, "within bound")


def test_lower_is_better():
    faster = [v * 0.8 for v in PARENT]
    got = summary("time_to_result_s", PARENT, faster, claim=True)
    assert (got["verdict"], got["change_better_pairs"]) == ("gain", 10)
    assert got["median_change_worse_by"] == pytest.approx(-0.2)
    got = summary("time_to_result_s", PARENT, [v * 1.3 for v in PARENT])
    assert (got["verdict"], got["change_better_pairs"]) == ("worse than bound", 0)
    assert got["median_change_worse_by"] == pytest.approx(0.3)


def test_failed_runs_are_counted_and_left_out_of_the_pairs():
    results = runs("work_per_s", PARENT[:3], PARENT[:3])
    results[1]["json"] = None  # pair 0's change side printed no result
    results[2]["json"]["failed"] = 2
    got = bench_pairs.summarize(results, METRICS)["w"]
    assert got["failed"] == {"parent": 2, "change": 1}
    assert got["attempted"] == {"parent": 9, "change": 7}
    assert got["work_per_s"]["pairs"] == 2
    assert got["time_to_result_s"] == {"pairs": 0, "bound": 0.24,
                                       "verdict": "unresolved: no pair of runs"}


@pytest.mark.parametrize("value, flag", [(None, False), ("", False), ("1", True)])
def test_host_records_the_bytecode_setting(monkeypatch, value, flag):
    # with PYTHONDONTWRITEBYTECODE set, each launch compiles bovirial again,
    # which setup_s includes; python reads an empty value as unset
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.host()["dont_write_bytecode"] is flag
