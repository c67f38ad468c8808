"""`ExecutionOptions` — the one configuration object of the public API.

All execution configuration lives in one frozen dataclass accepted by
:class:`~repro.stratum.layer.TemporalDatabase`,
:class:`~repro.session.session.Session` and
:class:`~repro.server.server.Server` as ``options=``.

The module is deliberately a leaf: it imports nothing from the rest of the
package, so every layer can depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Default rows per columnar chunk.  Large enough to amortize per-batch
#: bookkeeping (accounting, kernel dispatch), small enough that a chunk of
#: Python lists stays cache- and memory-friendly.
DEFAULT_BATCH_SIZE = 1024


def check_batch_size(batch_size: int) -> int:
    """Return ``batch_size`` if it is a valid chunk size (a positive integer)."""
    if not isinstance(batch_size, int) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
    return batch_size


@dataclass(frozen=True)
class ExecutionOptions:
    """Execution configuration shared by database, session and server.

    Construct once, pass everywhere: ``repro.connect(ExecutionOptions(...))``
    wires a :class:`~repro.stratum.layer.TemporalDatabase` from it, sessions
    created via :meth:`~repro.stratum.layer.TemporalDatabase.session` inherit
    it, and :class:`~repro.server.server.Server` applies it to every slot's
    session.  Instances are frozen (hashable, safely shared across threads);
    derive variants with :meth:`replace`.

    Pool-shape arguments — ``Server(max_concurrency=, queue_limit=,
    request_timeout=, cache_size=)`` and ``Session(cache_size=, cache=)`` —
    describe the *container*, not the execution of one query, and stay
    constructor arguments.

    Fields:

    * ``use_statistics`` — collect table statistics and feed the
      histogram-backed cardinality estimator into the optimizer.
    * ``batch_size`` — rows per columnar chunk of the physical operators
      (both engines), a positive integer.
    * ``tracer`` — a :class:`~repro.obs.trace.Tracer` for structured
      per-request traces (``None``: tracing off).
    * ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`; the
      server defaults to a private registry when ``None``.
    * ``slow_query_seconds`` / ``slow_query_logger`` — slow-query-log
      threshold and sink.
    * ``max_rows_per_request`` / ``max_bytes_per_request`` — per-request
      resource budgets enforced by the execution-control ticks.
    """

    use_statistics: bool = False
    batch_size: int = DEFAULT_BATCH_SIZE
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    slow_query_seconds: Optional[float] = None
    slow_query_logger: Optional[Any] = None
    max_rows_per_request: Optional[int] = None
    max_bytes_per_request: Optional[int] = None

    def __post_init__(self) -> None:
        check_batch_size(self.batch_size)

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with the given fields replaced (the instance is frozen).

        ``ExecutionOptions(tracer=t).replace(batch_size=64)`` is the idiom
        for deriving per-call variants from a shared base configuration.
        """
        return dataclasses.replace(self, **changes)

    def non_defaults(self) -> Dict[str, Any]:
        """The fields that differ from the defaults, as a dict.

        Useful for logging which knobs a deployment actually turned: the
        returned dict is empty for ``ExecutionOptions()``.
        """
        defaults = _DEFAULTS
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != getattr(defaults, field.name)
        }


_DEFAULTS = ExecutionOptions()
