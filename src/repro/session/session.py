"""The :class:`Session` façade: parse → optimize → bind → execute.

One object drives the whole query lifecycle the layers below implement:

* :mod:`repro.tsql` lexes/parses the statement and translates it to the
  initial algebra plan plus its Definition 5.1 result specification;
* the database's one :class:`~repro.search.MemoSearch` rewrites the plan
  under the rule catalogue and picks the cheapest alternative, consuming the
  catalog's statistics — and, with ``use_statistics=True`` in the database's
  options, its histogram-backed
  :class:`~repro.stats.estimator.CardinalityEstimator`;
* the :class:`~repro.stratum.executor.StratumExecutor` runs the chosen plan
  across the two engines.

What the session adds over calling the layers directly:

* a **plan cache** (:class:`~repro.session.cache.PlanCache`) keyed by
  ``(statement fingerprint, statistics epoch)`` — repeated statements skip
  translation and optimization entirely (the cached plan is the plan that
  executes), and any data change invalidates by moving the epoch; a repeated
  statement *text* also skips the lexer, the parser and the fingerprint — a
  warm execution is lookup + bind + execute;
* **positional parameters**: ``?`` markers are optimized as placeholders
  and bound per execution, so every constant variant of a statement shares
  one cache entry;
* **one record per request**: every statement — plain, ``EXPLAIN``,
  ``EXPLAIN ANALYZE``, traced or not, successful or failed — runs the same
  lifecycle once and fills one :class:`SessionResult`, each phase stamped on
  one clock.  The trace, the ``EXPLAIN`` report
  (:meth:`Session.explain`, or the statement prefix), the slow-query record,
  the metric observations and the server's ``Response.timings`` are
  renderings of that record.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..core.cost import cost_annotations
from ..core.exceptions import ParameterError, error_code
from ..core.lowering import ExecutionReport
from ..options import ExecutionOptions
from ..faults import FAULTS, ExecutionControl, ResourceGuard
from ..core.operations import Operation
from ..core.query import QueryResultSpec
from ..core.relation import Relation
from ..obs.slowlog import SlowQueryLog, build_slow_query_record
from ..obs.trace import Tracer
from ..stratum.executor import StratumExecutor
from ..stratum.layer import OptimizationOutcome, TemporalDatabase
from ..tsql.ast import Statement
from ..tsql.parser import parse_statement
from ..tsql.translator import translate
from .cache import CachedPlan, PlanCache, PlanCacheInfo, PlanCacheKey
from .explain import ExplainReport, OperatorLine, build_explain_report, build_operator_lines
from .fingerprint import normalize_statement
from .parameters import bind_parameters

#: The lifecycle phases, in order; a request's record holds the ones it entered.
PHASES = ("parse", "optimize", "bind", "execute")

#: Stands in when the options carry no tracer: samples nothing, and lends
#: its clock (:func:`time.perf_counter`) to the phase stamps.
_UNTRACED = Tracer(enabled=False)


@dataclass(frozen=True)
class SessionTimings:
    """Wall-clock seconds spent in each lifecycle phase of one execution.

    ``plan_seconds`` covers everything between parsing and binding — cache
    lookup plus, on a miss, translation and optimization (or the wait for
    another request's search of the same key).  The plan cache's
    entire point is visible here: on a hit it collapses to the lookup.  A
    phase the request never entered (``execute`` for a plain ``EXPLAIN``)
    reads 0.
    """

    parse_seconds: float
    plan_seconds: float
    bind_seconds: float
    execute_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.plan_seconds + self.bind_seconds + self.execute_seconds


@dataclass
class SessionResult:
    """The record of one request: created on entry, filled phase by phase.

    A failed request leaves one too (the session finishes it before the
    exception propagates): the phases it entered, the failing one carrying
    the stable error code, and ``error_code`` set.
    """

    statement: str
    parameters: PyTuple[object, ...] = ()
    #: ``name -> (start, seconds, attributes)`` of every phase entered, in
    #: order, on one clock (:meth:`Session._phase`); the attributes are the
    #: ones the phase's trace span shows.
    phases: Dict[str, PyTuple[float, float, Dict[str, object]]] = field(default_factory=dict)
    #: The statement's coarse kind (``Statement.kind``); labels the latency metric.
    kind: str = ""
    cache_hit: bool = False
    fingerprint: str = ""
    epoch: int = -1
    query_spec: Optional[QueryResultSpec] = None
    optimization: Optional[OptimizationOutcome] = None
    #: The executed (bound) plan.
    plan: Optional[Operation] = None
    #: The result rows; ``None`` for ``EXPLAIN [ANALYZE]``, whose answer is ``explain``.
    relation: Optional[Relation] = None
    #: The execution report — also of an ``EXPLAIN ANALYZE``.
    report: Optional[ExecutionReport] = None
    #: The per-operator join of path, label, estimate, actuals and time;
    #: built once, when EXPLAIN, the slow log or a sampled trace reads it.
    operators: Optional[List[OperatorLine]] = None
    explain: Optional[ExplainReport] = None
    #: The id of the request trace this execution recorded, when the
    #: session's tracer sampled it — correlate with ``Tracer.recent()``.
    trace_id: Optional[str] = None
    #: The stable error code of a failed request.
    error_code: Optional[str] = None

    def phase_seconds(self) -> Dict[str, float]:
        """Seconds per lifecycle phase (0 for one never entered)."""
        return {name: self.phases[name][1] if name in self.phases else 0.0 for name in PHASES}

    @property
    def timings(self) -> SessionTimings:
        return SessionTimings(*self.phase_seconds().values())


class Session:
    """A query session over a :class:`~repro.stratum.layer.TemporalDatabase`.

    Sessions are cheap; the expensive state (tables, statistics) lives in
    the database, the session holds the plan cache.  Several sessions over
    one database are fine — each keeps its own cache, all invalidate
    correctly through the shared statistics epoch.

    >>> from repro.session import Session
    >>> from repro.workloads import employee_relation, project_relation
    >>> session = Session()
    >>> session.database.register("EMPLOYEE", employee_relation())
    >>> session.database.register("PROJECT", project_relation())
    >>> result = session.query("SELECT EmpName FROM EMPLOYEE WHERE Dept = ?",
    ...                        params=("Advertising",))
    >>> sorted({t["EmpName"] for t in result.tuples})
    ['Anna', 'John']
    """

    def __init__(
        self,
        database: Optional[TemporalDatabase] = None,
        cache_size: int = 128,
        cache: Optional[PlanCache] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        self.database = database or TemporalDatabase(options=options)
        #: Execution configuration (:class:`~repro.options.ExecutionOptions`):
        #: observability and the batch size.  When not given, the database's
        #: own options are inherited.
        resolved = self.options = options if options is not None else self.database.options
        #: ``cache`` lets many sessions share one (thread-safe) plan cache —
        #: the serving layer (:mod:`repro.server`) passes its process-wide
        #: cache here, so a statement optimized by any session is a cache
        #: hit for every other session at the same statistics epoch.
        self.cache = cache if cache is not None else PlanCache(cache_size)
        #: The tracer decides which requests are sampled and lends the
        #: lifecycle its clock; a disabled stand-in when the options carry none.
        self.tracer = resolved.tracer if resolved.tracer is not None else _UNTRACED
        metrics = self.metrics = resolved.metrics
        self.slow_query_log = SlowQueryLog(
            resolved.slow_query_seconds, logger=resolved.slow_query_logger
        )
        if metrics is not None:
            self._latency_histogram = metrics.histogram(
                "repro_request_seconds",
                "End-to-end statement latency by statement kind.",
                labelnames=("kind",),
            )
            self._memo_tasks = metrics.counter(
                "repro_memo_tasks_total",
                "Memo-search rule-application tasks attempted (plan-cache misses only).",
            )
            self._operator_rows = metrics.counter(
                "repro_operator_rows_total",
                "Rows produced by plan operators the stratum executed.",
            )
            self._errors = metrics.counter(
                "repro_request_errors_total",
                "Failed statement executions by stable error code.",
                labelnames=("code",),
            )
            self._degraded = metrics.counter(
                "repro_degraded_total",
                "Requests that fell back to a degraded path, by stage.",
                labelnames=("stage",),
            )

    # -- the lifecycle ------------------------------------------------------------

    def execute(
        self,
        statement: str,
        params: Sequence[object] = (),
        snapshot=None,
        token=None,
        guard=None,
    ) -> SessionResult:
        """Run a statement end to end; ``EXPLAIN`` statements return a report.

        For a plain statement the result carries the relation, the (possibly
        cached) optimization outcome and the execution report; for an
        ``EXPLAIN [ANALYZE]`` statement ``relation`` is ``None`` and
        ``explain`` holds the :class:`~repro.session.explain.ExplainReport`.
        Either way it is the same lifecycle: ``EXPLAIN`` stops after binding,
        ``EXPLAIN ANALYZE`` executes like the plain statement (same snapshot,
        token, guard and armed faults) with the per-operator clock on.

        With a ``snapshot`` (the pinned database
        :meth:`TemporalDatabase.snapshot` returns) the whole lifecycle reads,
        plans and executes through it in place of the session's own
        database: the cache key carries the snapshot's epoch, a miss
        optimizes against the pinned statistics, and execution reads only
        the pinned relations — so the result is exactly the serial answer at
        that epoch even while concurrent appends advance the live catalog.
        The cache is still purged against the live epoch.

        With a ``token`` (:class:`~repro.faults.control.CancellationToken`)
        the lifecycle is cooperatively cancellable: the token is checked
        on entry to every phase and every few tuples inside both engines'
        pull loops, so a cancel or an expired deadline stops the statement
        within one check interval, raising
        :class:`~repro.core.exceptions.CancelledError` /
        :class:`~repro.core.exceptions.DeadlineExceededError`.  A ``guard``
        (:class:`~repro.faults.control.ResourceGuard`) bounds rows pulled
        and bytes materialized on the same hook; without one, the session
        builds a fresh guard per request from its options'
        ``max_rows_per_request``/``max_bytes_per_request`` (none when both
        are unset).  Any failure is recorded before it propagates: the
        record is finished with the stable error code (so is the request's
        trace, when sampled), and ``repro_request_errors_total{code=}``
        counts it.
        """
        return self._request(statement, params, snapshot, token, guard)

    def query(self, statement: str, params: Sequence[object] = ()):
        """Execute and return the result relation (or, for EXPLAIN, the text)."""
        result = self.execute(statement, params)
        if result.explain is not None:
            return result.explain.render()
        return result.relation

    def explain(
        self,
        statement: str,
        params: Sequence[object] = (),
        analyze: bool = True,
        snapshot=None,
        token=None,
        guard=None,
    ) -> ExplainReport:
        """The chosen plan for ``statement``, annotated per operator.

        The same request as ``execute("EXPLAIN [ANALYZE] " + statement)``:
        with ``analyze=True`` (the default) the plan is also executed and
        every operator's actual output cardinality is reported next to its
        estimate; ``analyze=False`` skips execution and reports estimates
        only.  The lookup populates the same cache ``execute`` uses.
        """
        return self._request(statement, params, snapshot, token, guard, explain=analyze).explain

    def _request(
        self, statement, params, snapshot, token, guard, explain: Optional[bool] = None
    ) -> SessionResult:
        record = SessionResult(statement, tuple(params), trace_id=self.tracer.sample())
        try:
            self._lifecycle(record, snapshot, token, guard, explain)
        except BaseException as exc:
            # Intentionally BaseException — a worker killed by
            # KeyboardInterrupt should leave a finished record behind.
            record.error_code = error_code(exc)
            raise
        finally:
            self._observe(record)
        return record

    @contextmanager
    def _phase(
        self, record: SessionResult, name: str, token, **attributes: object
    ) -> Iterator[Dict[str, object]]:
        """Stamp one lifecycle phase on the record: the only clock reads per request.

        The token is checked on entry, inside the stamp, so a request
        stopped between phases shows where it was stopped; a phase that
        raises is stamped all the same, with the stable error code.
        """
        clock = self.tracer.clock
        start = clock()
        try:
            if token is not None:
                token.check()
            yield attributes
        except BaseException as exc:
            attributes["error_code"] = error_code(exc)
            raise
        finally:
            record.phases[name] = (start, clock() - start, attributes)

    def _lifecycle(
        self, record: SessionResult, snapshot, token, guard, explain: Optional[bool]
    ) -> None:
        """parse → optimize → bind → execute, each once; then the renderings that need the plan."""
        params = record.parameters
        database = snapshot if snapshot is not None else self.database
        with self._phase(record, "parse", token) as attributes:
            ast, normalized, fingerprint, attributes["memo_hit"] = self._parse(record.statement)
            if explain is not None:  # Session.explain(): the prefix, as an argument
                ast = replace(ast, explain=True, analyze=explain or ast.analyze)
            record.kind = ast.kind
        with self._phase(record, "optimize", token) as attributes:
            entry, record.cache_hit, waited = self._entry_for(
                ast, normalized, fingerprint, database, token
            )
            optimization = record.optimization = entry.optimization
            record.query_spec = entry.query_spec
            record.fingerprint, record.epoch = entry.key.fingerprint, entry.key.epoch
            attributes.update(
                cache_hit=record.cache_hit, fingerprint=record.fingerprint, epoch=record.epoch
            )
            if waited is not None:
                # Missed while another request was searching the same
                # (fingerprint, epoch): it waited here, inside ``optimize``,
                # and — unless that search failed and this one took over —
                # was served the other request's entry.
                attributes.update(coalesced=record.cache_hit, wait_seconds=waited)
            if optimization.degraded is not None:
                attributes["degraded"] = optimization.degraded
            if optimization.search is not None:
                attributes.update(optimization.search.statistics.as_span_attributes())
        with self._phase(record, "bind", token, parameters=len(params)):
            # Estimates-only EXPLAIN of a parameterized statement: the markers
            # may stay unbound (selectivities fall back to constants).
            record.plan = self._bind(entry, params, optional=ast.explain and not ast.analyze)
        if not ast.explain or ast.analyze:
            with self._phase(record, "execute", token) as attributes:
                if guard is None:
                    guard = self._guard()
                # The control bundle exists only when something rides on it —
                # a token, a budget, or an armed fault point; the default path
                # hands the executors ``None`` and stays control-free.
                control = None
                if token is not None or guard is not None or FAULTS.active:
                    control = ExecutionControl(token=token, guard=guard)
                # The per-operator clock is what sampling (or ANALYZE) turns on.
                timed = record.trace_id is not None or ast.analyze
                executor = StratumExecutor(
                    database.dbms,
                    clock=self.tracer.clock if timed else None,
                    control=control,
                    batch_size=self.options.batch_size,
                )
                relation = executor.execute(record.plan)
                report = record.report = executor.report
                if not ast.explain:
                    record.relation = relation
                attributes.update(
                    rows=len(relation),
                    dbms_calls=report.dbms_calls,
                    transferred_tuples=report.transferred_tuples,
                )
                if report.degraded_operations:
                    attributes["degraded"] = list(report.degraded_operations)
        log = self.slow_query_log
        slow = log.enabled and log.should_log(record.timings.total_seconds)
        # The costing pass is paid only for EXPLAIN or once the threshold has
        # been crossed — never on the fast path, nor per sampled request.
        costed = ast.explain or slow
        if costed or record.trace_id is not None:
            annotations = None
            if costed:
                annotations = cost_annotations(
                    record.plan,
                    database.statistics(),
                    database.optimizer.cost_model,
                    estimator=database.costing_estimator(),
                )
            record.operators = build_operator_lines(record.plan, record.report, annotations)
        if ast.explain:
            record.explain = build_explain_report(
                record, entry.normalized_statement, self.options.batch_size
            )
        if slow:
            log.emit(build_slow_query_record(record))

    def _observe(self, record: SessionResult) -> None:
        """Everything taken from a finished record, success and failure alike."""
        if record.trace_id is not None:
            # Names, numbers and plan paths only: the ring must not pin a
            # relation or a plan.  Spans are built from these on export.
            self.tracer.retain(
                trace_id=record.trace_id,
                statement=record.statement,
                phases=record.phases,
                operators=record.operators or (),
                error_code=record.error_code,
            )
        if self.metrics is None:
            return
        if record.error_code is not None:
            self._errors.labels(code=record.error_code).inc()
        else:
            self._latency_histogram.labels(kind=record.kind).observe(
                record.timings.total_seconds
            )
        optimization = record.optimization
        if optimization is not None and not record.cache_hit:
            if optimization.search is not None:
                self._memo_tasks.inc(optimization.search.statistics.applications_attempted)
            if optimization.degraded is not None:
                # "memo_search:<code>"
                self._degraded.labels(stage=optimization.degraded.partition(":")[0]).inc()
        report = record.report
        if report is not None:
            self._operator_rows.inc(sum(report.node_rows.values()))
            if report.degraded_operations:
                self._degraded.labels(stage="stratum_physical").inc(
                    len(report.degraded_operations)
                )

    def cache_info(self) -> PlanCacheInfo:
        """Plan-cache counters (hits, misses, evictions, invalidations)."""
        return self.cache.info()

    # -- internals ----------------------------------------------------------------

    def _parse(self, text: str) -> "PyTuple[Statement, str, str, bool]":
        """``(Statement, normalized text, fingerprint, resolved from the cache's text memo?)``.

        The stored ``Statement`` is shared between requests and never
        assigned to.  A text that fails to parse is not remembered, and the
        ``tsql.parse`` fault point fires whether or not the parser runs.
        """
        parsed = self.cache.statement(text)
        if parsed is not None:
            if FAULTS.active:
                FAULTS.check("tsql.parse")
            return parsed + (True,)
        ast = parse_statement(text)
        normalized, fingerprint = normalize_statement(ast)
        self.cache.remember_statement(text, ast, normalized, fingerprint)
        return ast, normalized, fingerprint, False

    def _entry_for(
        self, ast: Statement, normalized: str, fingerprint: str, database: TemporalDatabase, token
    ) -> "PyTuple[CachedPlan, bool, Optional[float]]":
        """``(entry, cache hit?, seconds spent waiting on another request's search)``.

        ``database`` is the one the request reads: the session's own, or a
        snapshot of it.
        """
        key = PlanCacheKey(fingerprint=fingerprint, epoch=database.statistics_epoch())

        def plan() -> CachedPlan:
            # Purge against the *live* epoch: a request planning against an
            # older snapshot must not evict entries the current epoch still
            # serves from a shared cache.
            self.cache.purge_stale(self.database.statistics_epoch())
            statement = replace(ast, explain=False, analyze=False)
            initial_plan, query_spec = translate(statement, database.schemas())
            # The cache is also the store of explored memos: a statement
            # explored under another epoch is re-costed.
            optimization = database.optimize_plan(
                initial_plan, query_spec, explorations=self.cache, token=token
            )
            return CachedPlan(
                key=key,
                plan=optimization.chosen_plan,
                query_spec=query_spec,
                optimization=optimization,
                parameter_count=statement.parameter_count,
                normalized_statement=normalized,
            )

        return self.cache.get_or_plan(key, plan, token)

    def _guard(self) -> Optional[ResourceGuard]:
        """A fresh per-request guard from the options' budgets, or None."""
        options = self.options
        if options.max_rows_per_request is None and options.max_bytes_per_request is None:
            return None
        return ResourceGuard(
            max_rows=options.max_rows_per_request, max_bytes=options.max_bytes_per_request
        )

    def _bind(self, entry: CachedPlan, params: Sequence[object], optional: bool = False) -> Operation:
        if FAULTS.active:
            FAULTS.check("session.bind")
        if not params and (optional or entry.parameter_count == 0):
            return entry.plan
        if len(params) != entry.parameter_count:
            raise ParameterError(
                f"statement has {entry.parameter_count} parameter marker(s), "
                f"got {len(params)} value(s)"
            )
        return bind_parameters(entry.plan, params)
