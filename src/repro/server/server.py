"""The multi-client server core: session slots, shared plan cache, admission.

One :class:`Server` owns a :class:`~repro.stratum.layer.TemporalDatabase`
and runs queries for many concurrent clients:

* **admission** happens on the *caller's* thread: the request is stamped
  with a deadline and the catalog is snapshotted (queries only — so the
  answer is the serial result for the admission epoch no matter when the
  request runs);
* **slots** are a pool of ``max_concurrency``
  :class:`~repro.session.session.Session` objects sharing the process-wide
  plan cache: a free session is a free slot, so at most
  ``max_concurrency`` requests execute at once;
* **execution** happens on the thread that waits for the answer when it
  can: a blocking caller (:meth:`Server.query`, :meth:`Server.append`, the
  TCP front end's handler threads) that finds a free slot and nothing
  queued ahead of it runs its request itself, with no hand-off between
  threads;
* **the queue is for overflow**: when every slot is busy (or requests are
  already waiting) the request enters a bounded FIFO queue that
  ``max_concurrency`` worker threads serve, as they serve every
  :meth:`Server.submit`.  A full queue rejects immediately
  (:class:`ServerOverloadedError`) — backpressure, not unbounded growth.
  A request whose deadline passed while it queued is answered
  ``timed_out`` without executing, so a backlog drains at dequeue speed
  instead of running stale work;
* **results** are a :class:`Response` — also for failures, so one client's
  bad statement never kills a worker — resolving the request's
  :class:`concurrent.futures.Future`.

Appends are admitted the same way (``kind="append"``), executing against
the live catalog under its lock; the response reports the epoch the append
moved the catalog to, which is what makes lost-update checks possible.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
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
    """Admission rejected: the request queue is at its limit.

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


@dataclass
class _Request:
    kind: str
    future: "Future[Response]"
    admitted_at: float
    deadline: Optional[float]
    request_id: int = 0
    token: Optional[CancellationToken] = None
    statement: str = ""
    params: Sequence[object] = ()
    snapshot: object = None
    table: str = ""
    rows: Sequence[Sequence[object]] = field(default_factory=tuple)


class RequestFuture(Future):
    """A :class:`~concurrent.futures.Future` that knows its request id.

    The id is what :meth:`Server.cancel` takes — returned from ``submit``
    so a client can cancel the request it just started without waiting for
    any part of the response.
    """

    def __init__(self, request_id: int) -> None:
        super().__init__()
        self.request_id = request_id


_SHUTDOWN = object()


class Server:
    """A thread-pooled, admission-controlled front end over one database.

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
        self.database = database or TemporalDatabase(options=options)
        #: Execution configuration applied to every worker session (and,
        #: when the server creates its own database, to the database too);
        #: inherited from the database when not given.  Read on every
        #: request — its ``cancellation``, per-request budgets and tracer
        #: are never copied.  Pool-shape arguments (``max_concurrency``,
        #: ``queue_limit``, ``request_timeout``, ``cache_size``,
        #: ``plan_cache``) describe the container and stay constructor
        #: arguments.
        self.options = options if options is not None else self.database.options
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        #: Default request deadline in seconds (``None``: no deadline).
        #: With ``options.cancellation`` on (the default) the deadline holds
        #: end to end: expired-while-queued requests are answered
        #: ``timed_out`` without running, and an *executing* request is
        #: stopped cooperatively within one check interval of its deadline
        #: passing.  With it off the deadline bounds only the queue wait
        #: (the pre-cancellation behaviour).
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
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_limit or 0)
        #: The slots: a free session is a free slot (filled by :meth:`start`).
        self._sessions: "queue.LifoQueue[Session]" = queue.LifoQueue()
        self._workers: list[threading.Thread] = []
        self._latencies = LatencyRecorder()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._request_ids = itertools.count(1)
        #: Tokens of admitted, unanswered requests, by request id — what
        #: :meth:`cancel` looks up.  Guarded by ``_lock``.
        self._inflight: Dict[int, CancellationToken] = {}
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
            "Requests rejected at admission (queue full).",
        )
        self._timed_out = registry.counter(
            "repro_server_requests_timed_out_total",
            "Requests whose deadline expired (queued or executing).",
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
        # Get-or-create: the pooled sessions request the same instrument,
        # so session-counted and server-counted failures land in one place.
        self._errors = registry.counter(
            "repro_request_errors_total",
            "Failed statement executions by stable error code.",
            labelnames=("code",),
        )
        self._active = registry.gauge(
            "repro_server_active_workers", "Requests executing right now, on a slot each."
        )
        self._peak_active = registry.gauge(
            "repro_server_peak_active_workers", "High-water mark of active workers."
        )
        registry.callback(
            "repro_server_queue_depth",
            "Requests waiting in the admission queue.",
            self._queue.qsize,
        )
        registry.callback(
            "repro_server_epoch",
            "The live catalog's statistics epoch.",
            self.database.statistics_epoch,
        )
        registry.callback(
            "repro_plan_cache_hits_total",
            "Shared plan-cache hits.",
            lambda: self.plan_cache.info().hits,
            kind="counter",
        )
        registry.callback(
            "repro_plan_cache_misses_total",
            "Shared plan-cache misses.",
            lambda: self.plan_cache.info().misses,
            kind="counter",
        )
        registry.callback(
            "repro_plan_cache_coalesced_total",
            "Shared plan-cache hits served by waiting for another request's search.",
            lambda: self.plan_cache.info().coalesced,
            kind="counter",
        )
        registry.callback(
            "repro_plan_cache_explorations_reused_total",
            "Searches that re-costed a remembered exploration instead of exploring.",
            lambda: self.plan_cache.info().explorations_reused,
            kind="counter",
        )
        registry.callback(
            "repro_plan_cache_size",
            "Plans currently cached.",
            lambda: self.plan_cache.info().size,
        )

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "Server":
        """Fill the session slots and spawn the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            if self._started:
                return self
            self._started = True
        for _ in range(self.max_concurrency):
            self._sessions.put(self._new_session())
        for index in range(self.max_concurrency):
            worker = threading.Thread(
                target=self._worker, name=f"repro-server-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def close(self) -> None:
        """Stop accepting requests, drain the queue, join the workers and
        wait for the requests running on their callers' threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if started:
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
            for worker in self._workers:
                worker.join()
            for _ in range(self.max_concurrency):
                self._sessions.get()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission ----------------------------------------------------------------

    def submit(
        self,
        statement: str,
        params: Sequence[object] = (),
        timeout: Optional[float] = None,
    ) -> "Future[Response]":
        """Admit a query; returns a future resolving to its :class:`Response`.

        The catalog is snapshotted *here*, on the caller's thread, under the
        catalog lock — the returned result is the serial answer for the
        epoch current at this moment, regardless of concurrent appends and
        of when a worker actually executes the request.  Raises
        :class:`ServerOverloadedError` when the queue is full and
        :class:`ServerClosedError` after :meth:`close`.

        The returned :class:`RequestFuture` carries the ``request_id``
        :meth:`cancel` takes; with the options' ``cancellation`` on, the
        deadline (``timeout`` or the server default) also stops the query
        mid-execution, answering ``timed_out``.
        """
        request = self._query_request(statement, params, timeout)
        self._admit(request, inline=False)
        return request.future

    def submit_append(
        self,
        table: str,
        rows: Iterable[Sequence[object]],
        timeout: Optional[float] = None,
    ) -> "Future[Response]":
        """Admit an append of ``rows`` (in schema order) to ``table``."""
        request = self._append_request(table, rows, timeout)
        self._admit(request, inline=False)
        return request.future

    def cancel(self, request_id: int, reason: str = "cancelled by client") -> bool:
        """Cancel an admitted, unanswered request by its id.

        Cooperative, so asynchronous-safe: this only flips the request's
        token; the executing worker notices at its next check (within one
        check interval) and answers ``cancelled``.  A request still queued
        is answered ``cancelled`` at dequeue without executing.  Returns
        False when the id is unknown or already answered — cancellation
        races completion by design, and losing that race is not an error.
        """
        with self._lock:
            token = self._inflight.get(request_id)
        if token is None:
            return False
        token.cancel(reason)
        return True

    def query(
        self,
        statement: str,
        params: Sequence[object] = (),
        timeout: Optional[float] = None,
        admitted: Optional[Callable[[int], None]] = None,
    ) -> Response:
        """Admit a query and block for its response.

        Admission is :meth:`submit`'s; with a slot free and nothing queued
        the query then runs on this thread, otherwise it waits in the queue
        for a worker.  ``admitted`` is called with the request id once the
        request is admitted and before it runs, so a caller can make it
        cancellable by :meth:`cancel` while it blocks here.
        """
        return self._call(self._query_request(statement, params, timeout), admitted)

    def append(
        self,
        table: str,
        rows: Iterable[Sequence[object]],
        timeout: Optional[float] = None,
    ) -> Response:
        """Admit an append and block for its response (on this thread when
        a slot is free, as :meth:`query` does)."""
        return self._call(self._append_request(table, rows, timeout), None)

    def _call(
        self, request: _Request, admitted: Optional[Callable[[int], None]]
    ) -> Response:
        session = self._admit(request, inline=True)
        if admitted is not None:
            admitted(request.request_id)
        if session is not None:
            self._run(session, request)
        return request.future.result()

    def _query_request(
        self, statement: str, params: Sequence[object], timeout: Optional[float]
    ) -> _Request:
        snapshot = self.database.snapshot()
        return self._request(
            kind="query",
            deadline=self._deadline(timeout),
            statement=statement,
            params=tuple(params),
            snapshot=snapshot,
        )

    def _append_request(
        self, table: str, rows: Iterable[Sequence[object]], timeout: Optional[float]
    ) -> _Request:
        return self._request(
            kind="append",
            deadline=self._deadline(timeout),
            table=table,
            rows=tuple(tuple(row) for row in rows),
        )

    def _deadline(self, timeout: Optional[float]) -> Optional[float]:
        timeout = timeout if timeout is not None else self.request_timeout
        if timeout is None:
            return None
        return time.perf_counter() + timeout

    def _request(self, kind: str, deadline: Optional[float], **fields) -> _Request:
        request_id = next(self._request_ids)
        token = CancellationToken(deadline=deadline) if self.options.cancellation else None
        return _Request(
            kind=kind,
            future=RequestFuture(request_id),
            admitted_at=time.perf_counter(),
            deadline=deadline,
            request_id=request_id,
            token=token,
            **fields,
        )

    def _admit(self, request: _Request, inline: bool) -> Optional[Session]:
        """Admit ``request``: the free session it runs on when ``inline``
        and nothing is queued ahead of it, else None once it is queued.

        One decision under the server lock, so admission order is queue
        order: a request counts as queued until a worker holds a session
        for it (``task_done``), and no caller runs inline past it.
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            if not self._started:
                raise ServerClosedError("server is not started (call start())")
            self._submitted.inc()
            if request.token is not None:
                self._inflight[request.request_id] = request.token
            if inline and not self._queue.unfinished_tasks:
                try:
                    return self._sessions.get_nowait()
                except queue.Empty:
                    pass
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self._inflight.pop(request.request_id, None)
                self._rejected.inc()
                raise ServerOverloadedError(
                    f"request queue is at its limit ({self.queue_limit}); retry later"
                ) from None
        return None

    # -- execution ----------------------------------------------------------------

    def _new_session(self) -> Session:
        # Sessions are cheap: the expensive state (tables, statistics) lives
        # in the shared database and the optimized plans in the shared
        # thread-safe cache.
        return Session(
            self.database, cache=self.plan_cache, options=self.options.replace(metrics=self.metrics)
        )

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            session = self._sessions.get()
            self._queue.task_done()
            if not self._run(session, item):
                return

    def _run(self, session: Session, request: _Request) -> bool:
        """Process ``request`` on ``session`` and free the slot; False when
        it crashed."""
        try:
            self._process(session, request)
        except BaseException as exc:
            # _process answers every Exception itself; what reaches here is
            # BaseException-adjacent (KeyboardInterrupt, ...) — *contained*:
            # the request is answered, the books stay consistent, the slot
            # gets a fresh session and the server keeps serving.  A worker
            # thread ends; a caller running its own request returns.
            self._contain_crash(request, exc)
            self._sessions.put(self._new_session())
            return False
        self._sessions.put(session)
        return True

    def _contain_crash(self, request: _Request, exc: BaseException) -> None:
        self._worker_crashes.inc()
        self._failed.inc()
        self._count_error(exc)
        with self._lock:
            self._inflight.pop(request.request_id, None)
        if not request.future.done():
            request.future.set_result(
                Response(
                    status="error",
                    kind=request.kind,
                    error=f"worker crashed: {exc!r}",
                    code=error_code(exc),
                    latency_seconds=time.perf_counter() - request.admitted_at,
                    request_id=request.request_id,
                )
            )

    def _count_error(self, exc: BaseException) -> None:
        self._errors.labels(code=error_code(exc)).inc()

    def _process(self, session: Session, request: _Request) -> None:
        now = time.perf_counter()
        token = request.token
        try:
            if request.deadline is not None and now > request.deadline:
                exc: BaseException = DeadlineExceededError(
                    "deadline expired before the request ran"
                )
                self._count_error(exc)
                self._respond(request, self._error_response(request, exc, now))
                return
            if token is not None and token.cancelled:
                exc = CancelledError("cancelled before the request ran")
                self._count_error(exc)
                self._respond(request, self._error_response(request, exc, now))
                return
            with self._lock:
                # The peak needs a read-modify-write over both gauges, so it
                # stays under the server lock even though each gauge has its
                # own.
                self._active.inc()
                self._peak_active.set(
                    max(self._peak_active.value(), self._active.value())
                )
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
                    response = Response(
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
                else:
                    # append() reports the epoch atomically with the insert,
                    # so concurrent appends each see their own resulting
                    # epoch.  Appends are short and atomic; they take the
                    # worker-point fault check above but no mid-flight
                    # cancellation (nothing to stop halfway).
                    inserted, epoch = self.database.append(request.table, request.rows)
                    response = Response(
                        status="ok",
                        kind="append",
                        rows_inserted=inserted,
                        epoch=epoch,
                        request_id=request.request_id,
                    )
            except Exception as exc:  # one bad request must not kill the worker
                # Sessions record their own failures in the shared
                # ``repro_request_errors_total`` counter; the server counts
                # only failures that never reached a session (appends,
                # injected worker faults) so each lands exactly once.
                response = self._error_response(request, exc, time.perf_counter())
                if not in_session:
                    self._count_error(exc)
            finally:
                self._active.dec()
            self._respond(request, response)
        finally:
            with self._lock:
                self._inflight.pop(request.request_id, None)

    def _error_response(
        self, request: _Request, exc: BaseException, now: float
    ) -> Response:
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
            latency_seconds=now - request.admitted_at,
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
        request.future.set_result(response)

    # -- introspection ------------------------------------------------------------

    def stats(self) -> ServerStats:
        """A snapshot of the serving counters and gauges.

        Reads the same :class:`~repro.obs.metrics.MetricsRegistry`
        instruments the Prometheus exposition renders — the registry is the
        single source of truth, ``ServerStats`` just a typed view of it.
        """
        with self._lock:
            return ServerStats(
                submitted=int(self._submitted.value()),
                completed=int(self._completed.value()),
                rejected=int(self._rejected.value()),
                timed_out=int(self._timed_out.value()),
                failed=int(self._failed.value()),
                queue_depth=self._queue.qsize(),
                active_workers=int(self._active.value()),
                peak_active_workers=int(self._peak_active.value()),
                max_concurrency=self.max_concurrency,
                queue_limit=self.queue_limit,
                epoch=self.database.statistics_epoch(),
                latency=self._latencies.summary(),
                plan_cache=self.plan_cache.info(),
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
