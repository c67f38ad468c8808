"""Slow-query logging: structured records for requests over a threshold.

When a session (or every worker session of a server) is given
``slow_query_seconds``, any request whose total wall-clock meets the
threshold emits one structured record through stdlib :mod:`logging` — a
rendering of the request's record
(:class:`~repro.session.session.SessionResult`): fingerprint, its phase
seconds, chosen-plan cost, and per operator EXPLAIN's own line (rows,
inclusive seconds) with the estimate-vs-actual q-error.  The q-errors are
the point: reading them off the slow tail is exactly where estimation
feedback pays.

The record is attached to the log record as the ``slow_query`` attribute
(and rendered as JSON in the message), so both a human tail and a
structured shipper can consume the same stream.
"""

from __future__ import annotations

import json
import logging
from typing import Any, Dict, Optional

_LOGGER_NAME = "repro.slow_query"


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimate-quality ratio ``max(est/act, act/est)``.

    Both sides are floored at one row, the usual convention, so empty
    results don't divide by zero and a 0-vs-0 match scores a perfect 1.0.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def build_slow_query_record(result: Any) -> Dict[str, Any]:
    """The structured record for one slow request.

    ``result`` is the request's finished
    :class:`~repro.session.session.SessionResult`; ``operators`` are its
    EXPLAIN lines (``result.operators``, built with the costing pass the
    session pays only once a request has crossed the threshold) that have an
    actual row count.
    """
    operators = [
        {
            "path": list(line.path),
            "operator": line.label,
            "estimated_rows": line.estimated_rows,
            "actual_rows": line.actual_rows,
            "seconds": line.time_seconds,
            "q_error": q_error(line.estimated_rows, line.actual_rows),
        }
        for line in result.operators
        if line.actual_rows is not None
    ]
    record: Dict[str, Any] = {
        "fingerprint": result.fingerprint,
        "statement": result.statement,
        "epoch": result.epoch,
        "cache_hit": result.cache_hit,
        "total_seconds": result.timings.total_seconds,
        "phase_seconds": result.phase_seconds(),
        "chosen_plan_cost": result.optimization.chosen_cost.total,
        "trace_id": result.trace_id,
        "operators": operators,
    }
    if operators:
        record["max_q_error"] = max(op["q_error"] for op in operators)
    return record


class SlowQueryLog:
    """Threshold gate + emitter for slow-query records.

    ``threshold_seconds`` is the inclusive lower bound on a request's
    total wall-clock; the log is off when constructed with ``None`` (the
    sessions' default).  Records go to the ``repro.slow_query`` logger
    unless another is injected.
    """

    def __init__(
        self,
        threshold_seconds: Optional[float],
        logger: Optional[logging.Logger] = None,
        level: int = logging.WARNING,
    ) -> None:
        self.threshold_seconds = threshold_seconds
        self.logger = logger if logger is not None else logging.getLogger(_LOGGER_NAME)
        self.level = level

    @property
    def enabled(self) -> bool:
        return self.threshold_seconds is not None

    def should_log(self, total_seconds: float) -> bool:
        """Whether a request of this duration crosses the threshold."""
        return self.threshold_seconds is not None and total_seconds >= self.threshold_seconds

    def emit(self, record: Dict[str, Any]) -> None:
        """Emit one structured record (attached as ``record.slow_query``)."""
        self.logger.log(
            self.level,
            "slow query %s: %.3fs %s",
            record.get("fingerprint"),
            record.get("total_seconds", 0.0),
            json.dumps(record, default=str, sort_keys=True),
            extra={"slow_query": record},
        )
