"""The :class:`Session` façade: parse → translate → optimize → execute.

One object drives the whole query lifecycle the layers below implement:

* :mod:`repro.tsql` lexes/parses the statement and translates it to the
  initial algebra plan plus its Definition 5.1 result specification;
* the :class:`~repro.stratum.layer.TemporalQueryOptimizer` (memo search by
  default) rewrites the plan under the rule catalogue and picks the
  cheapest alternative, consuming the catalog's statistics — and, with
  ``use_statistics=True`` on the database, its histogram-backed
  :class:`~repro.stats.estimator.CardinalityEstimator`;
* the :class:`~repro.stratum.executor.StratumExecutor` runs the chosen plan
  across the two engines.

What the session adds over calling the layers directly:

* a **plan cache** (:class:`~repro.session.cache.PlanCache`) keyed by
  ``(statement fingerprint, statistics epoch)`` — repeated statements skip
  translation and optimization entirely, and any data change invalidates by
  moving the epoch;
* **positional parameters**: ``?`` markers are optimized as placeholders
  and bound per execution, so every constant variant of a statement shares
  one cache entry;
* **EXPLAIN** (:meth:`Session.explain`, or the ``EXPLAIN [ANALYZE]``
  statement prefix): the chosen plan with per-operator estimated vs.
  actual cardinalities, costs, engine assignment, optimizer counters and
  rule provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple as PyTuple

from ..core.cost import cost_annotations
from ..core.exceptions import ParameterError, error_code
from ..options import ExecutionOptions
from ..faults import FAULTS, ExecutionControl
from ..core.operations import Operation
from ..core.query import QueryResultSpec
from ..core.relation import Relation
from ..obs.slowlog import SlowQueryLog, build_slow_query_record
from ..stratum.executor import StratumExecutionReport, StratumExecutor
from ..stratum.layer import OptimizationOutcome, TemporalDatabase
from ..stratum.partition import partition_plan
from ..tsql.ast import Statement
from ..tsql.parser import parse_statement
from ..tsql.translator import translate
from ..tsql.unparse import unparse_statement
from .cache import CachedPlan, PlanCache, PlanCacheInfo, PlanCacheKey
from .explain import ExplainReport, actual_cardinalities, build_operator_lines
from .fingerprint import statement_fingerprint
from .parameters import bind_parameters


@dataclass(frozen=True)
class SessionTimings:
    """Wall-clock seconds spent in each lifecycle stage of one execution.

    ``plan_seconds`` covers everything between parsing and execution —
    cache lookup plus, on a miss, translation and optimization.  The plan
    cache's entire point is visible here: on a hit it collapses to the
    lookup.  For an ``EXPLAIN`` statement ``execute_seconds`` covers the
    report construction, including the ANALYZE execution when requested.
    """

    parse_seconds: float
    plan_seconds: float
    execute_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.plan_seconds + self.execute_seconds


@dataclass
class SessionResult:
    """The full record of one :meth:`Session.execute` call."""

    statement: str
    relation: Optional[Relation]
    query_spec: QueryResultSpec
    optimization: OptimizationOutcome
    plan: Operation
    cache_hit: bool
    fingerprint: str
    epoch: int
    parameters: PyTuple[object, ...]
    timings: SessionTimings
    report: Optional[StratumExecutionReport] = None
    explain: Optional[ExplainReport] = None
    #: The id of the request trace this execution recorded, when the
    #: session's tracer sampled it — correlate with ``Tracer.recent()``.
    trace_id: Optional[str] = None


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
        #: Observability is opt-in and ``None``-gated: without a tracer /
        #: registry / threshold, every instrumentation site below is a
        #: single branch on the default path.
        self.tracer = resolved.tracer
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

        With a ``snapshot`` (a :class:`~repro.stratum.layer.DatabaseSnapshot`
        from :meth:`TemporalDatabase.snapshot`) the whole lifecycle runs
        against the pinned state: the cache key carries the snapshot's
        epoch, a miss optimizes against the pinned statistics, and execution
        reads only the pinned relations — so the result is exactly the
        serial answer at that epoch even while concurrent appends advance
        the live catalog.

        With a ``token`` (:class:`~repro.faults.control.CancellationToken`)
        the lifecycle is cooperatively cancellable: the token is checked
        between phases and every few tuples inside both engines' pull
        loops, so a cancel or an expired deadline stops the statement
        within one check interval, raising
        :class:`~repro.core.exceptions.CancelledError` /
        :class:`~repro.core.exceptions.DeadlineExceededError`.  A ``guard``
        (:class:`~repro.faults.control.ResourceGuard`) bounds rows pulled
        and bytes materialized on the same hook.  Any failure is recorded
        before it propagates: the request trace (when sampled) finishes
        with ``error=True`` and the stable error code, and
        ``repro_request_errors_total{code=}`` counts it.
        """
        tracer = self.tracer
        trace = None if tracer is None else tracer.start_trace("request", statement=statement)
        try:
            return self._execute(statement, params, snapshot, token, guard, trace)
        except BaseException as exc:
            self._record_failure(exc, trace)
            raise

    def _execute(
        self, statement: str, params: Sequence[object], snapshot, token, guard, trace
    ) -> SessionResult:
        tracer = self.tracer
        if token is not None:
            token.check()
        started = time.perf_counter()
        if trace is None:
            ast = parse_statement(statement)
        else:
            with trace.span("parse"):
                ast = parse_statement(statement)
        parse_seconds = time.perf_counter() - started
        if ast.explain:
            entry, hit, plan_seconds = self._plan_traced(ast, None, trace)
            explain_started = time.perf_counter()
            if trace is None:
                report = self._explain_entry(
                    entry, hit, params, analyze=ast.analyze, text=statement
                )
            else:
                with trace.span("explain", analyze=ast.analyze):
                    report = self._explain_entry(
                        entry, hit, params, analyze=ast.analyze, text=statement
                    )
            explain_seconds = time.perf_counter() - explain_started
            result = SessionResult(
                statement=statement,
                relation=None,
                query_spec=entry.query_spec,
                optimization=entry.optimization,
                plan=entry.plan,
                cache_hit=hit,
                fingerprint=entry.key.fingerprint,
                epoch=entry.key.epoch,
                parameters=tuple(params),
                timings=SessionTimings(parse_seconds, plan_seconds, explain_seconds),
                explain=report,
                trace_id=None if trace is None else trace.trace_id,
            )
            self._finish_request(ast, result, trace)
            return result
        entry, hit, plan_seconds = self._plan_traced(ast, snapshot, trace)
        if token is not None:
            token.check()
        if trace is None:
            bound = self._bind(entry, params)
        else:
            with trace.span("bind", parameters=len(params)):
                bound = self._bind(entry, params)
        # The control bundle exists only when something rides on it — a
        # token, a budget, or an armed fault point; the default path hands
        # the executors ``None`` and stays control-free end to end.
        control = None
        if token is not None or guard is not None or FAULTS.active:
            control = ExecutionControl(token=token, guard=guard)
        executor = StratumExecutor(
            snapshot.dbms if snapshot is not None else self.database.dbms,
            clock=None if trace is None else tracer.clock,
            control=control,
            batch_size=self.options.batch_size,
        )
        execute_started = time.perf_counter()
        if trace is None:
            relation = executor.execute(bound)
        else:
            with trace.span("execute") as span:
                relation = executor.execute(bound)
                span.set(
                    rows=len(relation),
                    dbms_calls=executor.report.dbms_calls,
                    transferred_tuples=executor.report.transferred_tuples,
                )
                if executor.report.degraded_operations:
                    span.set(degraded=list(executor.report.degraded_operations))
                self._record_operator_spans(trace, bound, executor.report)
        execute_seconds = time.perf_counter() - execute_started
        result = SessionResult(
            statement=statement,
            relation=relation,
            query_spec=entry.query_spec,
            optimization=entry.optimization,
            plan=bound,
            cache_hit=hit,
            fingerprint=entry.key.fingerprint,
            epoch=entry.key.epoch,
            parameters=tuple(params),
            timings=SessionTimings(parse_seconds, plan_seconds, execute_seconds),
            report=executor.report,
            trace_id=None if trace is None else trace.trace_id,
        )
        self._finish_request(ast, result, trace)
        return result

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
    ) -> ExplainReport:
        """The chosen plan for ``statement``, annotated per operator.

        With ``analyze=True`` (the default) the plan is also executed and
        every operator's actual output cardinality is reported next to its
        estimate; ``analyze=False`` skips execution and reports estimates
        only.  The lookup populates the same cache ``execute`` uses.
        """
        ast = parse_statement(statement)
        entry, hit = self._entry_for(ast)
        return self._explain_entry(
            entry, hit, params, analyze=analyze or ast.analyze, text=statement
        )

    def cache_info(self) -> PlanCacheInfo:
        """Plan-cache counters (hits, misses, evictions, invalidations)."""
        return self.cache.info()

    # -- internals ----------------------------------------------------------------

    def _plan_traced(self, ast: Statement, snapshot, trace) -> "PyTuple[CachedPlan, bool, float]":
        """Plan, recording the optimize span (cache outcome + memo counters)."""
        if trace is None:
            return self._plan(ast, snapshot)
        with trace.span("optimize") as span:
            entry, hit, plan_seconds = self._plan(ast, snapshot)
            attributes = {
                "cache_hit": hit,
                "fingerprint": entry.key.fingerprint,
                "epoch": entry.key.epoch,
            }
            if entry.optimization.degraded is not None:
                attributes["degraded"] = entry.optimization.degraded
            search = entry.optimization.search
            if search is not None:
                attributes.update(search.statistics.as_span_attributes())
            span.set(**attributes)
        return entry, hit, plan_seconds

    @staticmethod
    def _record_operator_spans(trace, plan: Operation, report: StratumExecutionReport) -> None:
        """Attach per-operator child spans under the open execute span.

        Timings are inclusive (a node's interval covers its children), so
        the Chrome-trace view nests them by time; row counts are the same
        per-path actuals EXPLAIN ANALYZE reports.
        """
        labels = {path: node.label() for path, node in plan.locations()}
        for path in sorted(report.node_timings):
            start, duration = report.node_timings[path]
            trace.record(
                labels.get(path, "operator"),
                start,
                duration,
                {"path": list(path), "rows": report.node_rows.get(path)},
            )
        for span in report.dbms_operator_spans:
            trace.record(
                span.operator,
                span.start,
                span.duration,
                {"rows": span.rows, "engine": "dbms"},
            )

    def _record_failure(self, exc: BaseException, trace) -> None:
        """Mark a failed execution before the exception propagates.

        Failures stay *visible* even though the session re-raises: the
        sampled trace finishes flagged with the stable error code (instead
        of leaking unfinished), and the error counter records one more
        failure under that code.  Intentionally takes ``BaseException`` —
        a worker killed by ``KeyboardInterrupt`` should leave a marked
        trace behind, not a dangling one.
        """
        if self.tracer is not None and trace is not None:
            trace.root.set(error=True, error_code=error_code(exc))
            self.tracer.finish(trace)
        if self.metrics is not None:
            self._errors.labels(code=error_code(exc)).inc()

    def _finish_request(self, ast: Statement, result: SessionResult, trace) -> None:
        """Post-request observability: finish the trace, count, slow-log."""
        if self.tracer is not None:
            self.tracer.finish(trace)
        if self.metrics is not None:
            self._latency_histogram.labels(kind=ast.kind).observe(
                result.timings.total_seconds
            )
            if not result.cache_hit:
                search = result.optimization.search
                if search is not None:
                    self._memo_tasks.inc(search.statistics.applications_attempted)
                if result.optimization.degraded is not None:
                    self._degraded.labels(stage="memo_search").inc()
            if result.report is not None:
                self._operator_rows.inc(sum(result.report.node_rows.values()))
                if result.report.degraded_operations:
                    self._degraded.labels(stage="stratum_physical").inc(
                        len(result.report.degraded_operations)
                    )
        if self.slow_query_log.should_log(result.timings.total_seconds):
            # The costing pass is paid only here, after the threshold has
            # already been crossed — never on the fast path.
            annotations = None
            if result.report is not None:
                database = self.database
                estimator = database.estimator() if database.use_statistics else None
                annotations = cost_annotations(
                    result.plan,
                    database.statistics(),
                    database.optimizer.cost_model,
                    estimator=estimator,
                )
            self.slow_query_log.emit(build_slow_query_record(result, annotations))

    def _plan(self, ast: Statement, snapshot=None) -> "PyTuple[CachedPlan, bool, float]":
        started = time.perf_counter()
        entry, hit = self._entry_for(ast, snapshot)
        return entry, hit, time.perf_counter() - started

    def _entry_for(self, ast: Statement, snapshot=None) -> "PyTuple[CachedPlan, bool]":
        database = self.database
        fingerprint = statement_fingerprint(ast)
        epoch = snapshot.epoch if snapshot is not None else database.statistics_epoch()
        key = PlanCacheKey(fingerprint=fingerprint, epoch=epoch)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, True
        # Purge against the *live* epoch: a request planning against an
        # older snapshot must not evict entries the current epoch still
        # serves from a shared cache.
        self.cache.purge_stale(database.statistics_epoch())
        if ast.explain or ast.analyze:
            ast = replace(ast, explain=False, analyze=False)
        schemas = snapshot.schemas() if snapshot is not None else self._schemas()
        initial_plan, query_spec = translate(ast, schemas)
        optimization = database.optimize_plan(initial_plan, query_spec, snapshot=snapshot)
        entry = CachedPlan(
            key=key,
            plan=optimization.chosen_plan,
            query_spec=query_spec,
            optimization=optimization,
            parameter_count=ast.parameter_count,
            normalized_statement=unparse_statement(ast),
        )
        self.cache.put(entry)
        return entry, False

    def _bind(self, entry: CachedPlan, params: Sequence[object]) -> Operation:
        if FAULTS.active:
            FAULTS.check("session.bind")
        if entry.parameter_count == 0 and not params:
            return entry.plan
        if len(params) != entry.parameter_count:
            raise ParameterError(
                f"statement has {entry.parameter_count} parameter marker(s), "
                f"got {len(params)} value(s)"
            )
        return bind_parameters(entry.plan, params)

    def _explain_entry(
        self,
        entry: CachedPlan,
        hit: bool,
        params: Sequence[object],
        analyze: bool,
        text: str,
    ) -> ExplainReport:
        database = self.database
        if not analyze and not params and entry.parameter_count:
            # Estimates-only explain of a parameterized statement: the
            # markers stay unbound (selectivities fall back to constants).
            bound = entry.plan
        else:
            bound = self._bind(entry, params)
        estimator = database.estimator() if database.use_statistics else None
        annotations = cost_annotations(
            bound,
            database.statistics(),
            database.optimizer.cost_model,
            estimator=estimator,
        )
        actuals = None
        report = None
        result_rows = None
        timings = None
        execute_seconds = None
        if analyze:
            # ANALYZE always times: per-operator wall-clock is the point of
            # executing the plan at all.  The session's tracer clock (when
            # present) keeps tests deterministic.
            clock = self.tracer.clock if self.tracer is not None else time.perf_counter
            executor = StratumExecutor(
                database.dbms, clock=clock, batch_size=self.options.batch_size
            )
            relation = executor.execute(bound)
            report = executor.report
            result_rows = len(relation)
            timings = report.node_timings
            root_timing = timings.get(())
            execute_seconds = None if root_timing is None else root_timing[1]
            # The executor already counted every node it evaluated itself; a
            # reference walk breaks out only the operators inside DBMS
            # fragments, which the substrate executed as one opaque call.
            actuals = {}
            context = database.evaluation_context()
            for fragment_path in partition_plan(bound).dbms_fragments:
                fragment_counts = actual_cardinalities(
                    bound.subtree_at(fragment_path), context
                )
                actuals.update(
                    (fragment_path + path, count)
                    for path, count in fragment_counts.items()
                )
            actuals.update(report.node_rows)
        optimization = entry.optimization
        search = optimization.search
        return ExplainReport(
            statement=text,
            normalized_statement=entry.normalized_statement,
            fingerprint=entry.key.fingerprint,
            epoch=entry.key.epoch,
            cache_hit=hit,
            analyze=analyze,
            query_spec=entry.query_spec,
            plan=bound,
            lines=build_operator_lines(bound, annotations, actuals, timings),
            estimated_cost=optimization.chosen_cost.total,
            initial_cost=optimization.initial_cost.total,
            plans_considered=optimization.plans_considered,
            memo_groups=None if search is None else search.statistics.groups,
            memo_expressions=None if search is None else search.statistics.expressions,
            sweeps=None if search is None else search.statistics.sweeps,
            rule_usage=dict(search.statistics.rule_usage) if search is not None else {},
            rules_applied=() if search is None else search.rules_applied,
            dbms_calls=None if report is None else report.dbms_calls,
            transferred_tuples=None if report is None else report.transferred_tuples,
            result_rows=result_rows,
            batch_size=self.options.batch_size if analyze else None,
            execute_seconds=execute_seconds,
        )

    def _schemas(self):
        catalog = self.database.dbms.catalog
        return {name: catalog.table(name).schema for name in catalog.table_names()}
