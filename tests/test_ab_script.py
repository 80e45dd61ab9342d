"""benchmarks/ab.py's statistics on fixed lists of run times; no process is started."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_clear_gain_meets_the_wins_rule():
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 12.5, 11.5, 10.5, 13.5, 12.0]
    change = [b - 3.0 for b in base]
    s = ab.summarize(base, change, "lower")
    assert (s["base_median"], s["change_median"]) == (12.0, 9.0)
    assert s["base_quartiles"] == [11.125, 12.875] and s["base_iqr"] == 1.75
    assert s["change_quartiles"] == [8.125, 9.875]
    assert (s["pairs"], s["wins"], s["losses"]) == (10, 10, 0)
    assert s["median_gap_exceeds_base_iqr"] and s["meets_wins_rule"]


def test_nine_of_ten_is_enough_and_eight_is_not():
    base = [10.0] * 5 + [11.0] * 5
    change = [8.0] * 9 + [12.0]
    s = ab.summarize(base, change, "lower")
    assert (s["wins"], s["losses"], s["base_iqr"]) == (9, 1, 1.0)
    assert s["meets_wins_rule"]
    change[0] = 10.0  # a tie counts for neither side
    s = ab.summarize(base, change, "lower")
    assert (s["wins"], s["losses"]) == (8, 1)
    assert s["median_gap_exceeds_base_iqr"] and not s["meets_wins_rule"]


def test_every_pair_won_by_less_than_the_base_iqr():
    base = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
    change = [b - 0.5 for b in base]
    s = ab.summarize(base, change, "lower")
    assert s["wins"] == 10 and s["base_iqr"] == 4.0
    assert not s["median_gap_exceeds_base_iqr"] and not s["meets_wins_rule"]


def test_higher_is_better():
    base = [100.0, 102.0, 98.0, 101.0, 99.0]
    s = ab.summarize(base, [b + 10.0 for b in base], "higher")
    assert (s["wins"], s["base_median"], s["change_median"], s["base_iqr"]) == (5, 100.0, 110.0, 2.0)
    assert s["median_gap_exceeds_base_iqr"] and not s["meets_wins_rule"]  # five pairs cannot carry a gain
    s = ab.summarize(base * 2, [b + 10.0 for b in base * 2], "higher")
    assert (s["pairs"], s["wins"], s["change_median"]) == (10, 10, 110.0)
    assert s["meets_wins_rule"]
    s = ab.summarize(base, [b - 10.0 for b in base], "higher")
    assert (s["wins"], s["losses"]) == (0, 5)
    assert s["median_gap_exceeds_base_iqr"] and not s["meets_wins_rule"]


def test_identical_runs_win_nothing():
    runs = [5.0, 6.0, 7.0, 8.0]
    s = ab.summarize(runs, list(runs), "lower")
    assert (s["wins"], s["losses"]) == (0, 0)
    assert not s["median_gap_exceeds_base_iqr"] and not s["meets_wins_rule"]


@pytest.mark.parametrize("base, change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_needs_paired_runs(base, change):
    with pytest.raises(ValueError):
        ab.summarize(base, change, "lower")


def test_a_run_that_writes_an_argument_path_stops_the_tool(tmp_path):
    gold, report = tmp_path / "gold.jsonl", tmp_path / "report.csv"
    gold.write_text("gold")
    report.write_text("old report")
    argv = ["evaluate", "--input", str(gold), "--pred", str(tmp_path / "pred.jsonl"), "--output", str(report)]
    before = ab.input_snapshot(argv)
    assert set(before) == {str(gold), str(report)}
    ab.check_inputs_unchanged(argv, before)  # nothing was written
    report.write_text("new report")
    with pytest.raises(SystemExit, match="report.csv"):
        ab.check_inputs_unchanged(argv, before)
    report.write_text("old report")  # the same bytes, written again
    with pytest.raises(SystemExit, match="report.csv"):
        ab.check_inputs_unchanged(argv, {**before, str(report): (before[str(report)][0] - 1, before[str(report)][1])})


def test_a_file_added_under_a_directory_argument_stops_the_tool(tmp_path):
    gold, splits = tmp_path / "gold.jsonl", tmp_path / "splits"
    gold.write_text("gold")
    splits.mkdir()
    (splits / "train.jsonl").write_text("train")
    argv = ["split", "--input", str(gold), "--output-dir", str(splits)]
    before = ab.input_snapshot(argv)
    assert set(before) == {str(gold), str(splits / "train.jsonl")}
    (splits / "test.jsonl").write_text("test")
    with pytest.raises(SystemExit, match="test.jsonl"):
        ab.check_inputs_unchanged(argv, before)
