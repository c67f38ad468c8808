"""The concurrent serving layer: many sessions, one catalog, one plan cache.

The paper's stratum architecture assumes a DBMS serving many concurrent
users; this package supplies the reproduction's serving layer on top of the
:class:`~repro.session.session.Session` lifecycle:

* :class:`Server` — ``max_concurrency`` session slots over the shared
  :class:`~repro.stratum.layer.TemporalDatabase`, every request running on
  the thread that asks for it (waiting in line for a slot when all are
  busy), all sharing one process-wide, thread-safe
  :class:`~repro.session.cache.PlanCache` (keyed by ``(fingerprint,
  statistics epoch)``, so cross-session sharing and invalidation are safe
  by construction);
* **snapshot reads** — every query is pinned at admission to
  :meth:`TemporalDatabase.snapshot() <repro.stratum.layer.TemporalDatabase.snapshot>`,
  the same database class over a pinned catalog, so it returns exactly the
  serial result for the epoch it was admitted at while concurrent appends
  proceed;
* **admission control** — a bounded FIFO line of waiting requests with
  explicit rejection (:class:`ServerOverloadedError`) and a per-request
  deadline, so overload produces backpressure instead of unbounded growth;
* **metrics** — per-request latency percentiles, line length, slots in
  use and plan-cache counters as one :class:`ServerStats` snapshot;
* **fault tolerance** — in-flight deadlines and :meth:`Server.cancel`
  (cooperative, answering ``timed_out``/``cancelled``), per-request
  resource budgets, worker-crash containment, and a
  :class:`~repro.server.tcp.RetryPolicy`-driven client that backs off on
  ``OVERLOADED``/``UNAVAILABLE`` — see ``docs/robustness.md``;
* :class:`TCPFrontend`/:class:`TCPClient` — an optional newline-delimited
  JSON protocol over TCP (stdlib ``socketserver``) for remote clients,
  with bounded request lines and a ``cancel`` op.

See ``docs/server.md`` for the architecture and the knobs.
"""

from .metrics import LatencyRecorder, LatencySummary, ServerStats
from .server import (
    Response,
    Server,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
)
from .tcp import RetryPolicy, TCPClient, TCPFrontend

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "Response",
    "RetryPolicy",
    "Server",
    "ServerClosedError",
    "ServerError",
    "ServerOverloadedError",
    "ServerStats",
    "TCPClient",
    "TCPFrontend",
]
