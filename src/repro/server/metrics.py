"""Serving metrics: latency percentiles and the ``ServerStats`` snapshot.

The recorder is deliberately simple — a bounded ring of recent latencies
behind a lock, summarized on demand — because the serving path must pay
(nearly) nothing per request: one append to a ``deque`` with a ``maxlen``.
Percentiles are computed with the nearest-rank method over whatever the
ring currently holds, which for a load test (thousands of requests against
a ring of 2¹³) is the exact distribution.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from ..session.cache import PlanCacheInfo


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sequence.

    Classic nearest-rank: the smallest value with at least ``fraction`` of
    the sample at or below it — ``⌈fraction·n⌉``-th order statistic.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution of the recently completed requests, in seconds."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)


class LatencyRecorder:
    """A thread-safe ring of request latencies with percentile snapshots."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("latency ring capacity must be at least 1")
        self._latencies: "deque[float]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Record one completed request's latency."""
        with self._lock:
            self._latencies.append(seconds)

    def summary(self) -> LatencySummary:
        """The distribution over the retained (most recent) latencies."""
        with self._lock:
            values = sorted(self._latencies)
        if not values:
            return LatencySummary.empty()
        return LatencySummary(
            count=len(values),
            mean=sum(values) / len(values),
            p50=percentile(values, 0.50),
            p95=percentile(values, 0.95),
            p99=percentile(values, 0.99),
            max=values[-1],
        )


@dataclass(frozen=True)
class ServerStats:
    """One consistent snapshot of the serving layer's counters and gauges.

    ``submitted`` counts every admission attempt, including the
    ``rejected`` ones that never entered the line; ``completed`` +
    ``timed_out`` + ``cancelled`` + ``failed`` + ``rejected`` + the
    requests still waiting or running account for all of them.  ``latency``
    covers completed requests end to end (admission to response).
    ``plan_cache`` is the shared cache's counter snapshot — its
    ``hit_rate`` across *all* sessions is the number the shared cache
    exists for.  ``worker_crashes`` counts requests crashed by an escaped
    ``BaseException`` (each was answered, its slot got a fresh session, and
    the server keeps serving).  ``queue_depth`` is the number of requests
    waiting in line for a slot; ``active_workers`` the number of slots in
    use — a *worker* is the thread running a request, its caller's.
    """

    submitted: int
    completed: int
    rejected: int
    timed_out: int
    failed: int
    queue_depth: int
    active_workers: int
    peak_active_workers: int
    max_concurrency: int
    queue_limit: Optional[int]
    epoch: int
    latency: LatencySummary
    plan_cache: PlanCacheInfo
    cancelled: int = 0
    worker_crashes: int = 0
