"""Tests for the benchmark's own arithmetic: self time from nested spans,
percentiles with their sample-count rule, and gate margins."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_disjoint_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child
    # [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert list(tracing.self_times(starts, ends, parents)) == pytest.approx(
        [4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] cover [1, 7] together: 6 of the root's 10
    starts = [0.0, 1.0, 3.0]
    ends = [10.0, 5.0, 7.0]
    parents = [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    starts = [0.0, -1.0, 9.0]
    ends = [10.0, 2.0, 12.0]
    parents = [-1, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(7.0)


def test_self_time_ignores_unrelated_spans_in_the_same_interval():
    # span 2 lies inside span 0 in time but is a root of its own
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 3.0, 9.0]
    parents = [-1, 0, -1]
    assert list(tracing.self_times(starts, ends, parents)) == pytest.approx(
        [8.0, 2.0, 7.0])


def test_union_length_of_nested_and_overlapping_intervals():
    assert tracing.union_length([0.0, 1.0, 5.0, 6.0],
                                [4.0, 2.0, 7.0, 9.0]) == pytest.approx(8.0)
    assert tracing.union_length([], []) == 0.0


def test_tracer_records_parents_and_self_time():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    leaf_w = tracer.spanned(leaf, "numerics.leaf")

    def outer():
        return leaf_w() + leaf_w()

    outer_w = tracer.spanned(outer, "monodromy.outer")
    tracer.request = 7
    assert outer_w() == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.req) == [7, 7, 7]
    summary = tracer.summary()["spans"]
    assert summary["numerics.leaf"]["calls"] == 2
    outer_span = summary["monodromy.outer"]
    inside = tracer.t1[0] - tracer.t0[0]
    leaves = sum(tracer.t1[i] - tracer.t0[i] for i in (1, 2))
    assert outer_span["s"] == pytest.approx(inside)
    assert outer_span["self_s"] == pytest.approx(inside - leaves)


def test_tracer_counts_errors_that_leave_a_layer():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("boom")

    inner = tracer.spanned(fail, "numerics.fail")

    def same_layer():
        return inner()

    def other_layer():
        return numerics_outer()

    numerics_outer = tracer.spanned(same_layer, "numerics.outer")
    top = tracer.spanned(other_layer, "periods.top")
    with pytest.raises(ValueError):
        top()
    errors = tracer.summary()["errors"]
    assert errors["numerics"] == 1
    assert errors["periods"] == 1


def test_percentile_nearest_rank_and_beyond_count():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == (50.0, 100, 50)
    assert stats.percentile(values, 90) == (90.0, 100, 10)
    assert stats.percentile([3.0, 1.0, 2.0], 90) == (3.0, 3, 0)
    assert stats.percentile([5.0], 50) == (5.0, 1, 0)


def test_percentile_resolved_needs_ten_samples_beyond():
    assert stats.resolved(list(range(100)), 90)
    assert not stats.resolved(list(range(99)), 90)
    assert stats.resolved(list(range(20)), 50)
    assert not stats.resolved(list(range(19)), 50)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = 11.75, 14.5, 17.25
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


def test_gate_margin_in_decades():
    assert run.gate_margin(1e-7, 1e-5) == pytest.approx(2.0)
    assert run.gate_margin(2e-5, 1e-5) == pytest.approx(-math.log10(2.0))
    assert run.gate_margin(0.0, 1e-5) == pytest.approx(295.0)
    assert run.gate_margin(math.nan, 1.0) == -run.MARGIN_CAP
    assert run.gate_margin(math.inf, 1.0) == -run.MARGIN_CAP
