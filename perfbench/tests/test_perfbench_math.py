"""Self-tests for the benchmark's own arithmetic (no library import)."""

import math
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmath import (  # noqa: E402
    BACKLOG_SLOPE,
    Rung,
    Span,
    backlog_slope,
    max_supported_percentile,
    pooled_tail,
    reconcile,
    samples_needed,
    self_times,
    sustainable_rate,
)


# --------------------------------------------------------------------- #
# the percentile rule: at least ten samples beyond the reported value
# --------------------------------------------------------------------- #
def test_pooled_tail_is_linear_interpolation():
    tail = pooled_tail([4.0, 1.0, 3.0, 2.0], 50)
    assert tail.value == 2.5 and tail.n == 4 and tail.beyond == 2
    assert pooled_tail([5.0], 95).value == 5.0


@pytest.mark.parametrize("p, needed", [(50, 20), (95, 200), (99, 1000)])
def test_samples_needed_leaves_ten_beyond(p, needed):
    assert samples_needed(p) == needed
    samples = [float(i) for i in range(needed)]
    assert pooled_tail(samples, p).beyond == 10
    assert pooled_tail(samples, p).supported
    assert not pooled_tail(samples[:-1], p).supported


def test_max_supported_percentile():
    assert max_supported_percentile(200) == pytest.approx(95.0)
    assert max_supported_percentile(1000) == pytest.approx(99.0)
    assert max_supported_percentile(10) == 0.0


def test_ties_do_not_count_as_beyond():
    tail = pooled_tail([1.0] * 300, 95)
    assert tail.value == 1.0 and tail.beyond == 0 and not tail.supported


# --------------------------------------------------------------------- #
# sustainable rate and backlog growth
# --------------------------------------------------------------------- #
def test_backlog_slope_flat_vs_growing():
    rng = random.Random(3)
    arrivals = sorted(rng.uniform(0.0, 0.5) for _ in range(64))
    steady = [rng.uniform(0.0, 0.005) for _ in arrivals]
    assert abs(backlog_slope(arrivals, steady)) < BACKLOG_SLOPE
    # Offered 1.5x capacity: waits grow by ~0.5 s per second of trace.
    growing = [0.5 * t + rng.uniform(0.0, 0.005) for t in arrivals]
    assert backlog_slope(arrivals, growing) == pytest.approx(0.5, abs=0.05)
    assert backlog_slope([1.0], [2.0]) == 0.0


def _curve(rates, capacity=2000.0, base_ms=2.0, backlog=()):
    """M/M/1-like p95: latency blows up as the rate nears capacity."""
    return [
        Rung(rate, base_ms / max(1e-9, 1.0 - rate / capacity),
             1.0 if rate in backlog else 0.0, 0)
        for rate in rates
    ]


LADDER = (500.0, 707.0, 1000.0, 1414.0, 2000.0 * 0.99, 2828.0)


def test_sustainable_rate_interpolates_the_latency_crossing():
    rungs = _curve(LADDER)
    limit = 33.0
    passing = [r for r in rungs if r.passes(limit)]
    assert [r.offered_fps for r in passing] == [500.0, 707.0, 1000.0, 1414.0]
    below, above = rungs[3], rungs[4]
    t = (limit - below.p95_ms) / (above.p95_ms - below.p95_ms)
    want = below.offered_fps * (above.offered_fps / below.offered_fps) ** t
    got = sustainable_rate(rungs, limit)
    assert got == pytest.approx(want)
    assert below.offered_fps < got < above.offered_fps


def test_backlog_is_a_cliff_even_with_low_latency():
    rungs = _curve(LADDER, capacity=1e9, backlog=(1000.0,))
    assert all(r.p95_ms < 33.0 for r in rungs)
    assert sustainable_rate(rungs, 33.0) == 707.0


def test_failures_stop_the_search_and_nothing_above_counts():
    rungs = _curve(LADDER, capacity=1e9)
    rungs[1] = Rung(707.0, 1.0, 0.0, failures=1)
    assert sustainable_rate(rungs, 33.0) == 500.0


def test_edges_of_the_ladder():
    assert sustainable_rate(_curve(LADDER, capacity=1e9), 33.0) == 2828.0
    assert sustainable_rate(_curve(LADDER, capacity=400.0), 33.0) == 0.0
    # Order of the input does not matter.
    assert sustainable_rate(list(reversed(_curve(LADDER))), 33.0) == (
        sustainable_rate(_curve(LADDER), 33.0)
    )


# --------------------------------------------------------------------- #
# self time and reconciliation
# --------------------------------------------------------------------- #
def _step_spans():
    """One step: begin [0, 4] holds rfbme [0, 3]; finish [5, 10] holds
    cnn_prefix [5, 8] and record [8, 9]; a top-level flush sits at [4, 5]."""
    return [
        Span(0, "step.begin", 0.0, 4.0),
        Span(1, "rfbme", 0.0, 3.0, parent=0),
        Span(2, "prefix_service.flush", 4.0, 5.0),
        Span(3, "step.finish", 5.0, 10.0),
        Span(4, "cnn_prefix", 5.0, 8.0, parent=3),
        Span(5, "record", 8.0, 9.0, parent=3),
    ]


def test_self_time_subtracts_direct_children():
    selfs = self_times(_step_spans())
    assert selfs == pytest.approx({
        "step.begin": 1.0, "rfbme": 3.0, "prefix_service.flush": 1.0,
        "step.finish": 1.0, "cnn_prefix": 3.0, "record": 1.0,
    })
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_nested_and_clipped():
    spans = [
        Span(0, "outer", 0.0, 10.0),
        Span(1, "mid", 2.0, 8.0, parent=0),
        Span(2, "leaf", 3.0, 12.0, parent=1),  # clipped to mid's end
    ]
    selfs = self_times(spans)
    assert selfs["outer"] == pytest.approx(4.0)
    assert selfs["mid"] == pytest.approx(1.0)
    assert selfs["leaf"] == pytest.approx(9.0)


def test_reconcile_counts_stages_and_top_level_flush():
    spans = _step_spans()
    stages = ("rfbme", "cnn_prefix", "record")
    steps = ("step.begin", "step.finish")
    # (3 + 3 + 1 + flush 1) / (4 + 5 + flush 1)
    assert reconcile(spans, steps, stages, ("prefix_service.flush",)) == (
        pytest.approx(8.0 / 10.0)
    )
    assert reconcile(spans, steps, stages) == pytest.approx(7.0 / 9.0)
    # A flush nested inside a stage is already counted by that stage.
    nested = spans + [Span(6, "prefix_service.flush", 5.5, 6.0, parent=4)]
    assert reconcile(nested, steps, stages, ("prefix_service.flush",)) == (
        pytest.approx(8.0 / 10.0)
    )
    assert reconcile([], steps, stages) == 0.0


def test_reconcile_is_one_when_stages_cover_the_step():
    spans = [Span(0, "step.begin", 0.0, 2.0), Span(1, "rfbme", 0.0, 2.0, 0)]
    assert math.isclose(reconcile(spans, ("step.begin",), ("rfbme",)), 1.0)
