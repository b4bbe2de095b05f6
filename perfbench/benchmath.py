"""The benchmark's own arithmetic: percentiles, rate search, span algebra.

Kept free of any ``repro`` import (numpy only) so the self-tests in
``tests/`` can check it on synthetic data, and so the orchestrating
process in ``run.py`` can use it without loading the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def max_supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest percentile with at least ``min_beyond`` of ``n`` samples above.

    0.0 when there are too few samples for any tail at all.
    """
    if n <= min_beyond:
        return 0.0
    return 100.0 * (1.0 - min_beyond / n)


@dataclass
class Tail:
    """One pooled percentile with its support."""

    p: float
    value: float
    n: int
    #: samples strictly greater than ``value``.
    beyond: int

    @property
    def supported(self) -> bool:
        """Enough samples for this tail, and no ties hiding it."""
        return self.n >= samples_needed(self.p) and self.beyond >= MIN_BEYOND


def pooled_tail(samples: Sequence[float], p: float) -> Tail:
    """The ``p``-th percentile of pooled samples (numpy's linear rule),
    with its sample count."""
    value = float(np.percentile(samples, p))
    return Tail(p, value, len(samples), sum(1 for s in samples if s > value))


def samples_needed(p: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest pool for which ``p`` has ``min_beyond`` samples above it."""
    return math.ceil(min_beyond / (1.0 - p / 100.0) - 1e-9)


# --------------------------------------------------------------------- #
# open-loop rate ladder
# --------------------------------------------------------------------- #
def backlog_slope(arrivals: Sequence[float], waits: Sequence[float]) -> float:
    """Least-squares slope of queue wait against arrival time (s per s).

    A server that keeps up shows waits that do not trend with time; one
    that falls behind the offered rate by a fraction ``f`` shows waits
    growing at about ``f`` seconds per second of trace.
    """
    n = len(arrivals)
    if n < 2:
        return 0.0
    mean_t = sum(arrivals) / n
    mean_w = sum(waits) / n
    var = sum((t - mean_t) ** 2 for t in arrivals)
    if var == 0:
        return 0.0
    cov = sum((t - mean_t) * (w - mean_w) for t, w in zip(arrivals, waits))
    return cov / var


#: queue-wait growth (s per s of trace) above which a backlog is growing.
BACKLOG_SLOPE = 0.1


@dataclass
class Rung:
    """What one offered rate of the ladder measured (pooled over sweeps)."""

    offered_fps: float
    p95_ms: float
    #: median over sweeps of :func:`backlog_slope`.
    backlog_slope: float
    failures: int

    @property
    def backlog_growing(self) -> bool:
        return self.backlog_slope > BACKLOG_SLOPE

    def passes(self, limit_ms: float) -> bool:
        return (
            self.p95_ms <= limit_ms
            and not self.backlog_growing
            and self.failures == 0
        )


def sustainable_rate(rungs: Iterable[Rung], limit_ms: float) -> float:
    """Highest offered rate meeting ``limit_ms`` at p95, with no failures
    and no growing backlog.

    Rungs are walked in ascending order and the walk stops at the first
    failing rung, so a rate above a failure never counts.  When that
    first failing rung failed on latency alone, the answer is refined to
    where p95 crosses the limit, interpolated in log-rate and linear in
    latency between the last passing rung and it; a backlog or a failure
    is a cliff and leaves the last passing rung as the answer.  0.0 when
    even the lowest rung fails; the top rung when none does.
    """
    ordered = sorted(rungs, key=lambda rung: rung.offered_fps)
    best: Optional[Rung] = None
    for rung in ordered:
        if rung.passes(limit_ms):
            best = rung
            continue
        if (
            best is not None
            and rung.failures == 0
            and not rung.backlog_growing
            and rung.p95_ms > best.p95_ms
        ):
            t = (limit_ms - best.p95_ms) / (rung.p95_ms - best.p95_ms)
            return best.offered_fps * (rung.offered_fps / best.offered_fps) ** t
        break
    return best.offered_fps if best is not None else 0.0


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's ``sid`` or None."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    tid: int = 0
    #: work items the call handled (rows, frames), when meaningful.
    rows: int = 0
    #: identity of the call's first argument (pairs a step's two phases).
    owner: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its direct children (children are clipped to the parent's
    interval; siblings never overlap on one thread).
    """
    by_id = {span.sid: span for span in spans}
    covered: Dict[int, float] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        overlap = min(span.end, parent.end) - max(span.start, parent.start)
        covered[parent.sid] = covered.get(parent.sid, 0.0) + max(overlap, 0.0)
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.duration - covered.get(span.sid, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def reconcile(
    spans: Sequence[Span],
    step_names: Iterable[str],
    stage_names: Iterable[str],
    round_names: Iterable[str] = (),
) -> float:
    """(stage time + round time) / (step time + round time).

    ``step_names`` are the step entry points, ``stage_names`` the stages
    they run, and ``round_names`` top-level spans that belong to a serve
    round without being inside a step (a prefix flush between the two
    phases of a round).  1.0 means the stage spans account for all of
    the step wall; the gap is executor bookkeeping the stages miss.
    """
    steps, stages, rounds = set(step_names), set(stage_names), set(round_names)
    step_wall = sum(s.duration for s in spans if s.name in steps)
    stage_time = sum(s.duration for s in spans if s.name in stages)
    round_time = sum(
        s.duration for s in spans if s.name in rounds and s.parent is None
    )
    denominator = step_wall + round_time
    return (stage_time + round_time) / denominator if denominator else 0.0


def chrome_trace(spans: Sequence[Span], pid: int = 1) -> List[dict]:
    """Chrome trace-event ``X`` (complete) events, microsecond timestamps."""
    if not spans:
        return []
    origin = min(span.start for span in spans)
    return [
        {
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.tid,
            "args": {"id": span.sid, "parent": span.parent, "rows": span.rows},
        }
        for span in spans
    ]
