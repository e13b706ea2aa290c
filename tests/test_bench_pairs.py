"""``tools/bench_pairs.summarise``, which gives every ``BENCH_*.json``
verdict, on hand-made run lists."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise


def test_quartiles_and_ratio():
    s = summarise([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0],
                  "higher", 0.25)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"] == {"median": 6.0, "q1": 4.0, "q3": 8.0}
    assert s["median_ratio"] == 2.0 and s["bound"] == 0.25


@pytest.mark.parametrize("better, change, worse_by", [
    ("higher", [3.0, 3.0, 3.0], 0.25),   # a lower throughput is worse
    ("higher", [5.0, 5.0, 5.0], -0.25),
    ("lower", [5.0, 5.0, 5.0], 0.25),    # a longer time is worse
    ("lower", [3.0, 3.0, 3.0], -0.25),
])
def test_change_worse_by_has_the_sign_of_worse(better, change, worse_by):
    s = summarise([4.0, 4.0, 4.0], change, better, 0.25)
    assert s["change_worse_by"] == worse_by
    # exactly at the bound is within it
    assert s["within_bound"]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_worse_than_the_bound_is_not_within_it(better):
    change = [2.9, 2.9, 2.9] if better == "higher" else [5.1, 5.1, 5.1]
    s = summarise([4.0, 4.0, 4.0], change, better, 0.25)
    assert s["change_worse_by"] > 0.25 and not s["within_bound"]


@pytest.mark.parametrize("better, wins", [("higher", "1/4"),
                                          ("lower", "2/4")])
def test_ties_count_for_neither_side(better, wins):
    # pair by pair: a tie, a rise, a fall, a fall
    s = summarise([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 3.0], better, 0.25)
    assert s["change_better_in"] == wins


def test_medians_differ_by_more_than_the_parent_iqr():
    parent = [9.0, 10.0, 10.0, 10.0, 11.0]  # IQR 0, median 10
    assert not summarise(parent, parent, "lower", 0.25)[
        "medians_differ_by_more_than_parent_iqr"]
    assert summarise(parent, [10.5] * 5, "lower", 0.25)[
        "medians_differ_by_more_than_parent_iqr"]
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]  # IQR 4
    assert not summarise(wide, [13.0] * 5, "higher", 0.25)[
        "medians_differ_by_more_than_parent_iqr"]  # differ by 3
    assert not summarise(wide, [14.0] * 5, "higher", 0.25)[
        "medians_differ_by_more_than_parent_iqr"]  # by 4, not more
    assert summarise(wide, [14.5] * 5, "higher", 0.25)[
        "medians_differ_by_more_than_parent_iqr"]
