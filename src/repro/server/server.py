"""The multi-client server core: session slots, shared plan cache, admission.

One :class:`Server` owns a :class:`~repro.stratum.layer.TemporalDatabase`
and runs queries for many concurrent clients.  It starts no thread of its
own: every request runs on the thread that asks for it — the caller of
:meth:`Server.query`/:meth:`Server.append`, or a TCP front end's handler
thread — and that thread is the request's *worker*.

* **admission** stamps the request with a deadline and, for a query, a
  catalog snapshot (so the answer is the serial result for the admission
  epoch no matter when the request runs); a request whose deadline has
  already passed is answered ``timed_out`` without taking a slot;
* **slots** are ``max_concurrency``
  :class:`~repro.session.session.Session` objects sharing the process-wide
  plan cache: a free session is a free slot, so at most
  ``max_concurrency`` requests execute at once.  A caller that finds a slot
  free takes it and runs its request at once;
* **the line** holds, in admission order, the callers that found every
  slot busy.  It is bounded by ``queue_limit``: past the bound admission
  raises :class:`ServerOverloadedError` — backpressure, not unbounded
  growth.  A request that finishes hands its session straight to the head
  of the line, so no later caller overtakes a waiting one.  A waiter that
  is cancelled or whose deadline passes leaves the line and is answered
  ``cancelled``/``timed_out`` without running;
* **results** are a :class:`Response` — also for failures, so one client's
  bad statement never takes down the thread serving it.

The server lock is taken twice per request: once to admit it (take a slot
or join the line) and once to release it (hand the slot on or free it).

Appends are admitted the same way (``kind="append"``), executing against
the live catalog under its lock; the response reports the epoch the append
moved the catalog to, which is what makes lost-update checks possible.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..core.exceptions import (
    CancelledError,
    DeadlineExceededError,
    ReproError,
    error_code,
)
from ..options import ExecutionOptions
from ..core.relation import Relation
from ..faults import FAULTS, CancellationToken
from ..obs.metrics import MetricsRegistry
from ..session.cache import PlanCache
from ..session.session import Session
from ..stratum.layer import TemporalDatabase
from .metrics import LatencyRecorder, ServerStats


class ServerError(ReproError):
    """Base class of the serving layer's errors."""

    code = "SERVER_ERROR"


class ServerOverloadedError(ServerError):
    """Admission rejected: the line of waiting requests is at its limit.

    Carries the ``OVERLOADED`` code — retryable: backing off and trying
    again is exactly what backpressure asks of the client.
    """

    code = "OVERLOADED"


class ServerClosedError(ServerError):
    """The server is closed and accepts no new requests.

    Carries ``UNAVAILABLE`` — retryable against a replacement server.
    """

    code = "UNAVAILABLE"


@dataclass
class Response:
    """The outcome of one request, whatever that outcome was.

    ``status`` is ``"ok"``, ``"error"``, ``"timed_out"`` or
    ``"cancelled"``; rejected requests never produce a response (admission
    raises instead).  For an ``ok`` query ``relation`` holds the rows — or,
    for an ``EXPLAIN [ANALYZE]`` statement, ``explain`` the rendered report
    — and ``epoch`` the statistics epoch the query was admitted
    (snapshotted) at; for an ``ok`` append ``rows_inserted`` and the epoch
    *after* the append are set.  Every non-``ok`` response carries the stable error
    ``code`` next to the human-readable ``error`` text — clients branch on
    the code (see :data:`~repro.core.exceptions.RETRYABLE_CODES`), never
    on the text.
    """

    status: str
    kind: str
    relation: Optional[Relation] = None
    #: The text of the report an ``ok`` ``EXPLAIN [ANALYZE]`` answers with.
    explain: Optional[str] = None
    rows_inserted: int = 0
    epoch: int = -1
    cache_hit: bool = False
    error: Optional[str] = None
    #: Stable error code of a non-``ok`` response (``None`` when ok).
    code: Optional[str] = None
    latency_seconds: float = 0.0
    #: The server-assigned id of the request (pass to :meth:`Server.cancel`).
    request_id: int = 0
    #: Per-phase seconds (``parse``/``optimize``/``execute``) of an ``ok``
    #: query, so clients see the breakdown without a server-side lookup.
    timings: Optional[dict] = None
    #: The server-side trace id when the request was sampled — correlate
    #: with the ``trace`` command of the TCP front end.
    trace_id: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(eq=False)  # compared by identity: the line finds a request by ``in``
class _Request:
    kind: str
    admitted_at: float
    request_id: int
    #: The request's stop signal; its deadline is the request's deadline.
    token: CancellationToken
    statement: str = ""
    params: Sequence[object] = ()
    snapshot: object = None
    table: str = ""
    rows: Sequence[Sequence[object]] = field(default_factory=tuple)
    #: The session a finishing request handed over while this one waited.
    session: Optional[Session] = None

    def stopped(self) -> bool:
        return self.token.cancelled or self.token.expired()


class Server:
    """An admission-controlled front end over one database.

    >>> from repro.server import Server
    >>> from repro.workloads import employee_relation
    >>> server = Server(max_concurrency=2)
    >>> server.database.register("EMPLOYEE", employee_relation())
    >>> with server:
    ...     response = server.query("SELECT EmpName FROM EMPLOYEE WHERE Dept = ?",
    ...                             params=("Sales",))
    >>> sorted({t["EmpName"] for t in response.relation.tuples})
    ['Anna', 'John']
    """

    def __init__(
        self,
        database: Optional[TemporalDatabase] = None,
        max_concurrency: int = 4,
        queue_limit: Optional[int] = 64,
        request_timeout: Optional[float] = None,
        cache_size: int = 512,
        plan_cache: Optional[PlanCache] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be at least 1 (or None for unbounded)")
        if request_timeout is not None and not math.isfinite(request_timeout):
            raise ValueError(f"request_timeout must be finite, got {request_timeout}")
        self.database = database or TemporalDatabase(options=options)
        #: Execution configuration applied to every slot's session (and,
        #: when the server creates its own database, to the database too);
        #: inherited from the database when not given.  Read on every
        #: request — its per-request budgets and tracer are never copied.
        #: Pool-shape arguments (``max_concurrency``, ``queue_limit``,
        #: ``request_timeout``, ``cache_size``, ``plan_cache``) describe the
        #: container and stay constructor arguments.
        self.options = options if options is not None else self.database.options
        self.max_concurrency = max_concurrency
        #: How many requests may wait in line for a slot (``None``: no bound).
        self.queue_limit = queue_limit
        #: Default request deadline in seconds (``None``: no deadline).  It
        #: holds end to end: a request whose deadline passes while it waits
        #: in line is answered ``timed_out`` without running, and an
        #: *executing* request is stopped cooperatively within one check
        #: interval of its deadline passing.
        self.request_timeout = request_timeout
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        #: The serving counters live in a :class:`MetricsRegistry`, which is
        #: the single source of truth: :meth:`stats` reads the same
        #: instruments the Prometheus exposition renders, so the two can
        #: never disagree.  The default is a *per-server* registry (tests
        #: run many servers in one process); pass :data:`repro.obs.REGISTRY`
        #: to publish process-wide instead.
        metrics = self.options.metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._latencies = LatencyRecorder()
        # Everything below up to ``_request_ids`` is guarded by ``_lock``.
        self._lock = threading.Lock()
        #: Notified when a waiter is handed a slot or cancelled, and when a
        #: request is answered.
        self._changed = threading.Condition(self._lock)
        self._started = False
        self._closed = False
        #: The free slots (filled by :meth:`start`); a free session is a
        #: free slot.
        self._free: list[Session] = []
        #: Requests waiting for a slot, oldest first; non-empty only while
        #: every slot is busy.
        self._line: "deque[_Request]" = deque()
        #: Slots in use, and the most ever in use at once.
        self._busy = 0
        self._peak = 0
        #: Tokens of admitted, unanswered requests, by request id — what
        #: :meth:`cancel` looks up and :meth:`close` waits to see empty.
        self._inflight: Dict[int, CancellationToken] = {}
        self._request_ids = itertools.count(1)
        registry = self.metrics
        self._submitted = registry.counter(
            "repro_server_requests_submitted_total",
            "Requests entering admission (accepted or rejected).",
        )
        self._completed = registry.counter(
            "repro_server_requests_completed_total", "Requests answered ok."
        )
        self._rejected = registry.counter(
            "repro_server_requests_rejected_total",
            "Requests rejected at admission (line full).",
        )
        self._timed_out = registry.counter(
            "repro_server_requests_timed_out_total",
            "Requests whose deadline expired (waiting or executing).",
        )
        self._failed = registry.counter(
            "repro_server_requests_failed_total", "Requests answered with an error."
        )
        self._cancelled = registry.counter(
            "repro_server_requests_cancelled_total",
            "Requests stopped by an explicit cancel.",
        )
        self._worker_crashes = registry.counter(
            "repro_server_worker_crashes_total",
            "Requests crashed by an escaped BaseException (the server keeps serving).",
        )
        # Get-or-create: the slots' sessions request the same instrument,
        # so session-counted and server-counted failures land in one place.
        self._errors = registry.counter(
            "repro_request_errors_total",
            "Failed statement executions by stable error code.",
            labelnames=("code",),
        )
        for name, help, read in (
            ("repro_server_active_workers", "Requests executing right now, on a slot each.",
             lambda: self._busy),
            ("repro_server_peak_active_workers", "High-water mark of active workers.",
             lambda: self._peak),
            ("repro_server_queue_depth", "Requests waiting in line for a slot.",
             lambda: len(self._line)),
            ("repro_server_epoch", "The live catalog's statistics epoch.",
             self.database.statistics_epoch),
            ("repro_plan_cache_size", "Plans currently cached.",
             lambda: self.plan_cache.info().size),
        ):
            registry.callback(name, help, read)
        for name, help in (
            ("hits", "Shared plan-cache hits."),
            ("misses", "Shared plan-cache misses."),
            ("coalesced",
             "Shared plan-cache hits served by waiting for another request's search."),
            ("explorations_reused",
             "Searches that re-costed a remembered exploration instead of exploring."),
        ):
            registry.callback(
                f"repro_plan_cache_{name}_total",
                help,
                lambda name=name: getattr(self.plan_cache.info(), name),
                kind="counter",
            )

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "Server":
        """Fill the session slots (idempotent); starts no thread."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            if not self._started:
                self._free = [self._new_session() for _ in range(self.max_concurrency)]
                self._started = True
        return self

    def close(self) -> None:
        """Stop admitting requests; return once every admitted request is
        answered and every slot is free."""
        with self._lock:
            self._closed = True
            while self._inflight:
                self._changed.wait()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests -----------------------------------------------------------------

    def query(
        self,
        statement: str,
        params: Sequence[object] = (),
        timeout: Optional[float] = None,
        admitted: Optional[Callable[[int], None]] = None,
    ) -> Response:
        """Admit a query and run it on this thread; returns its response.

        The catalog is snapshotted *here*, under the catalog lock — the
        result is the serial answer for the epoch current at this moment,
        regardless of concurrent appends and of how long the request waits
        in line.  The deadline (``timeout`` or the server default) holds
        while the query waits and while it runs.  Raises
        :class:`ServerOverloadedError` when the line is full,
        :class:`ServerClosedError` before :meth:`start` and after
        :meth:`close`, and ``ValueError`` for a ``timeout`` that is not
        finite.  ``admitted`` is called with the request id once the
        request is admitted and before it runs, so a caller can make it
        cancellable by :meth:`cancel` while it blocks here.
        """
        snapshot = self.database.snapshot()
        request = self._request(
            "query", timeout, statement=statement, params=tuple(params), snapshot=snapshot
        )
        return self._call(request, admitted)

    def append(
        self,
        table: str,
        rows: Iterable[Sequence[object]],
        timeout: Optional[float] = None,
    ) -> Response:
        """Admit an append of ``rows`` (in schema order) to ``table`` and
        run it on this thread, as :meth:`query` does."""
        request = self._request("append", timeout, table=table, rows=tuple(map(tuple, rows)))
        return self._call(request, None)

    def cancel(self, request_id: int, reason: str = "cancelled by client") -> bool:
        """Cancel an admitted, unanswered request by its id.

        Cooperative, so asynchronous-safe: this only flips the request's
        token; an executing request notices at its next check (within one
        check interval) and answers ``cancelled``.  A request waiting in
        line leaves it at once and is answered ``cancelled`` without
        running.  Returns False when the id is unknown or already answered
        — cancellation races completion by design, and losing that race is
        not an error.
        """
        with self._lock:
            token = self._inflight.get(request_id)
            if token is None:
                return False
            token.cancel(reason)
            self._changed.notify_all()
        return True

    def _request(self, kind: str, timeout: Optional[float], **fields) -> _Request:
        if timeout is None:
            timeout = self.request_timeout
        elif not math.isfinite(timeout):
            raise ValueError(f"timeout must be finite, got {timeout}")
        now = time.perf_counter()
        return _Request(
            kind=kind,
            admitted_at=now,
            request_id=next(self._request_ids),
            token=CancellationToken(deadline=None if timeout is None else now + timeout),
            **fields,
        )

    def _call(
        self, request: _Request, admitted: Optional[Callable[[int], None]]
    ) -> Response:
        session = self._admit(request)
        if admitted is not None:
            admitted(request.request_id)
        if session is None:
            session = self._wait_in_line(request)
        if session is None:  # stopped before it got a slot
            if request.token.expired():
                exc: ReproError = DeadlineExceededError("deadline expired before the request ran")
            else:
                exc = CancelledError("cancelled before the request ran")
            self._count_error(exc)
            response = self._error_response(request, exc)
        else:
            try:
                response = self._process(session, request)
            except BaseException as exc:
                # _process answers every Exception itself; what reaches here
                # is BaseException-adjacent (KeyboardInterrupt, ...) —
                # *contained*: the request is answered, the books stay
                # consistent, the slot gets a fresh session and the server
                # keeps serving.
                response = self._crash_response(request, exc)
                session = self._new_session()
        self._respond(request, response)
        self._release(request, session)
        return response

    def _admit(self, request: _Request) -> Optional[Session]:
        """Admit ``request``: the free session it runs on, else None — it
        joined the line, or its deadline has already passed."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            if not self._started:
                raise ServerClosedError("server is not started (call start())")
            self._submitted.inc()
            session = None
            if request.token.expired():
                pass  # answered without a slot
            elif self._free:  # then the line is empty
                self._busy += 1
                self._peak = max(self._peak, self._busy)
                session = self._free.pop()
            elif self.queue_limit is not None and len(self._line) >= self.queue_limit:
                self._rejected.inc()
                raise ServerOverloadedError(
                    f"request line is at its limit ({self.queue_limit}); retry later"
                )
            else:
                self._line.append(request)
            self._inflight[request.request_id] = request.token
            return session

    def _wait_in_line(self, request: _Request) -> Optional[Session]:
        """The session handed to ``request`` in line; None once it stopped (and left)."""
        with self._lock:
            while request.session is None:
                if request.stopped():
                    if request in self._line:
                        self._line.remove(request)
                    return None
                self._changed.wait(_until(request.token.deadline))
            return request.session

    def _release(self, request: _Request, session: Optional[Session]) -> None:
        """Forget the answered ``request`` and pass on the slot it held: to
        the oldest live waiter, else back to the free slots."""
        with self._lock:
            del self._inflight[request.request_id]
            if session is not None:
                while self._line:
                    waiter = self._line.popleft()
                    if not waiter.stopped():  # a stopped one answers itself
                        waiter.session = session
                        break
                else:
                    self._free.append(session)
                    self._busy -= 1
            self._changed.notify_all()

    # -- execution ----------------------------------------------------------------

    def _new_session(self) -> Session:
        # Sessions are cheap: the expensive state (tables, statistics) lives
        # in the shared database and the optimized plans in the shared
        # thread-safe cache.
        return Session(
            self.database, cache=self.plan_cache, options=self.options.replace(metrics=self.metrics)
        )

    def _process(self, session: Session, request: _Request) -> Response:
        token = request.token
        in_session = False
        try:
            if FAULTS.active:
                FAULTS.check("server.worker", token=token)
            if request.kind == "query":
                in_session = True
                result = session.execute(
                    request.statement,
                    request.params,
                    snapshot=request.snapshot,
                    token=token,
                )
                seconds = result.phase_seconds()
                return Response(
                    status="ok",
                    kind="query",
                    relation=result.relation,
                    explain=None if result.explain is None else result.explain.render(),
                    epoch=result.epoch,
                    cache_hit=result.cache_hit,
                    timings={name: seconds[name] for name in ("parse", "optimize", "execute")},
                    trace_id=result.trace_id,
                    request_id=request.request_id,
                )
            # append() reports the epoch atomically with the insert, so
            # concurrent appends each see their own resulting epoch.  Appends
            # are short and atomic; they take the worker-point fault check
            # above but no mid-flight cancellation (nothing to stop halfway).
            inserted, epoch = self.database.append(request.table, request.rows)
            return Response(
                status="ok",
                kind="append",
                rows_inserted=inserted,
                epoch=epoch,
                request_id=request.request_id,
            )
        except Exception as exc:  # one bad request must not take the thread down
            # Sessions record their own failures in the shared
            # ``repro_request_errors_total`` counter; the server counts only
            # failures that never reached a session (appends, injected
            # worker faults) so each lands exactly once.
            if not in_session:
                self._count_error(exc)
            return self._error_response(request, exc)

    def _crash_response(self, request: _Request, exc: BaseException) -> Response:
        self._worker_crashes.inc()
        self._count_error(exc)
        return Response(
            status="error",
            kind=request.kind,
            error=f"worker crashed: {exc!r}",
            code=error_code(exc),
            request_id=request.request_id,
        )

    def _count_error(self, exc: BaseException) -> None:
        self._errors.labels(code=error_code(exc)).inc()

    @staticmethod
    def _error_response(request: _Request, exc: BaseException) -> Response:
        if isinstance(exc, DeadlineExceededError):
            status = "timed_out"
        elif isinstance(exc, CancelledError):
            status = "cancelled"
        else:
            status = "error"
        return Response(
            status=status,
            kind=request.kind,
            error=str(exc),
            code=error_code(exc),
            request_id=request.request_id,
        )

    def _respond(self, request: _Request, response: Response) -> None:
        response.latency_seconds = time.perf_counter() - request.admitted_at
        if response.status == "ok":
            self._completed.inc()
        elif response.status == "timed_out":
            self._timed_out.inc()
        elif response.status == "cancelled":
            self._cancelled.inc()
        else:
            self._failed.inc()
        self._latencies.record(response.latency_seconds)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> ServerStats:
        """A snapshot of the serving counters and gauges.

        Reads the same :class:`~repro.obs.metrics.MetricsRegistry`
        instruments the Prometheus exposition renders — the registry is the
        single source of truth, ``ServerStats`` just a typed view of it.
        """
        latency, plan_cache = self._latencies.summary(), self.plan_cache.info()
        epoch = self.database.statistics_epoch()
        with self._lock:
            return ServerStats(
                submitted=int(self._submitted.value()),
                completed=int(self._completed.value()),
                rejected=int(self._rejected.value()),
                timed_out=int(self._timed_out.value()),
                failed=int(self._failed.value()),
                queue_depth=len(self._line),
                active_workers=self._busy,
                peak_active_workers=self._peak,
                max_concurrency=self.max_concurrency,
                queue_limit=self.queue_limit,
                epoch=epoch,
                latency=latency,
                plan_cache=plan_cache,
                cancelled=int(self._cancelled.value()),
                worker_crashes=int(self._worker_crashes.value()),
            )

    def metrics_exposition(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self.metrics.exposition()

    def recent_traces(self, limit: Optional[int] = None) -> list:
        """The last-N finished request traces as structured dicts.

        Empty unless the server's options carry a tracer.
        """
        tracer = self.options.tracer
        if tracer is None:
            return []
        return [trace.to_dict() for trace in tracer.recent(limit)]


def _until(deadline: Optional[float]) -> Optional[float]:
    """Seconds left before ``deadline``, as a wait timeout (``None``: no
    deadline, or one too far off — infinite or NaN — to wait for)."""
    if deadline is None:
        return None
    remaining = deadline - time.perf_counter()
    return remaining if remaining < threading.TIMEOUT_MAX else None
