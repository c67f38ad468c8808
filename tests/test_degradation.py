"""Graceful degradation: fall back, answer correctly, count it, flag it.

Two degradation paths exist, and both are *differentially* tested — the
degraded answer must be tuple-for-tuple identical to the healthy one,
because a fallback that changes answers is a correctness bug wearing a
robustness costume:

* **memo-search failure** → the optimizer returns the default (initial)
  plan, flagged ``OptimizationOutcome.degraded``;
* **an operator failure while the request's tree drains** → the request
  re-runs once through the reference evaluator, flagged in
  ``ExecutionReport.degraded_operations``.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import (
    CancelledError,
    InjectedFaultError,
    ResourceExhaustedError,
)
from repro.core.expressions import count
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    Projection,
    Sort,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
)
from repro.core.order_spec import OrderSpec
from repro.dbms import ConventionalDBMS
from repro.faults import FAULTS, CancellationToken, ExecutionControl, ResourceGuard
from repro.obs import MetricsRegistry, Tracer
from repro.options import ExecutionOptions
from repro.search import MemoSearch
from repro.session import Session
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.workloads import employee_relation, project_relation


def make_database():
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


def rows_of(relation):
    return sorted(tuple(t.values()) for t in relation.tuples)


def same_answer(degraded, healthy) -> bool:
    """Identical rows, or (for temporal results) snapshot-set equivalent.

    The optimizer is *allowed* to return a differently-coalesced relation
    when the statement's required equivalence type permits it (that freedom
    is the paper's Section 3) — so the differential check compares at the
    weakest guarantee both plans must honor, and exact rows otherwise.
    """
    if rows_of(degraded) == rows_of(healthy):
        return True
    from repro.core.equivalence import snapshot_set_equivalent

    return snapshot_set_equivalent(degraded, healthy)


STATEMENTS = [
    "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'",
    "SELECT DISTINCT EmpName FROM EMPLOYEE COALESCE",
    (
        "SELECT DISTINCT EmpName FROM EMPLOYEE "
        "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
        "ORDER BY EmpName COALESCE"
    ),
]


class TestMemoSearchDegradation:
    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_default_plan_fallback_matches_optimized_answer(self, statement):
        healthy = Session(make_database()).execute(statement)
        degraded_session = Session(make_database())
        with FAULTS.armed("search.memo", times=1):
            degraded = degraded_session.execute(statement)
        assert degraded.optimization.degraded == "memo_search:FAULT_INJECTED"
        assert healthy.optimization.degraded is None
        assert same_answer(degraded.relation, healthy.relation)

    def test_degraded_outcome_reports_initial_plan_as_chosen(self):
        session = Session(make_database())
        with FAULTS.armed("search.memo", times=1):
            result = session.execute(STATEMENTS[2])
        outcome = result.optimization
        # The initial plan executes as translated: the whole statement is one
        # DBMS fragment, and nothing searches it either.
        assert outcome.search is None
        assert outcome.chosen_plan is outcome.initial_plan is result.plan
        assert outcome.chosen_cost.total == outcome.initial_cost.total

    def test_memo_degradation_counted_and_flagged_on_trace(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        session = Session(
            make_database(), options=ExecutionOptions(tracer=tracer, metrics=metrics)
        )
        with FAULTS.armed("search.memo", times=1):
            session.execute(STATEMENTS[1])
        assert 'repro_degraded_total{stage="memo_search"} 1' in metrics.exposition()
        (trace,) = tracer.recent(1)
        optimize_spans = [s for s in trace.root.children if s.name == "optimize"]
        assert optimize_spans[0].attributes["degraded"] == "memo_search:FAULT_INJECTED"

    def test_next_statement_recovers_fully(self):
        session = Session(make_database())
        with FAULTS.armed("search.memo", times=1):
            session.execute(STATEMENTS[0])
        result = session.execute(STATEMENTS[1])
        assert result.optimization.degraded is None

    @staticmethod
    def break_search(monkeypatch, error=RuntimeError("the memo search is broken")):
        def optimize(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(MemoSearch, "optimize", optimize)

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_a_broken_search_runs_the_initial_plan_as_translated(self, statement, monkeypatch):
        healthy = Session(make_database()).execute(statement)
        self.break_search(monkeypatch)
        degraded = Session(make_database()).execute(statement)
        outcome = degraded.optimization
        assert outcome.degraded == "memo_search:INTERNAL" and outcome.search is None
        assert outcome.chosen_plan is outcome.initial_plan is degraded.plan
        assert same_answer(degraded.relation, healthy.relation)

    def test_counted_once_flagged_on_both_spans_and_the_request_is_ok(self, monkeypatch):
        self.break_search(monkeypatch)
        metrics = MetricsRegistry()
        tracer = Tracer()
        session = Session(
            make_database(), options=ExecutionOptions(tracer=tracer, metrics=metrics)
        )
        first = session.execute(STATEMENTS[2])
        hit = session.execute(STATEMENTS[2])  # the degraded entry serves, uncounted
        assert first.error_code is None and hit.cache_hit
        assert hit.optimization is first.optimization
        exposition = metrics.exposition()
        assert 'repro_degraded_total{stage="memo_search"} 1' in exposition
        assert "repro_request_errors_total{" not in exposition
        spans = [
            next(s for s in trace.root.children if s.name == "optimize").attributes
            for trace in tracer.recent(2)
        ]
        assert [s["degraded"] for s in spans] == ["memo_search:INTERNAL"] * 2

    @pytest.mark.parametrize("stop", [CancelledError("stop"), ResourceExhaustedError("stop")])
    def test_stop_errors_propagate(self, stop, monkeypatch):
        self.break_search(monkeypatch, stop)
        session = Session(make_database())
        with pytest.raises(type(stop)):
            session.execute(STATEMENTS[0])
        assert len(session.cache) == 0


class TestTheTextMemoSwallowsNoFault:
    def test_an_armed_parse_fault_fails_a_remembered_text(self):
        session = Session(make_database())
        session.execute(STATEMENTS[0])
        assert session.cache.statement(STATEMENTS[0]) is not None
        with FAULTS.armed("tsql.parse", times=1) as fault:
            with pytest.raises(InjectedFaultError):
                session.execute(STATEMENTS[0])
            assert fault.fired == 1
        assert session.execute(STATEMENTS[0]).cache_hit  # nothing was forgotten

    def test_the_fault_fires_once_per_request_hit_or_miss(self):
        session = Session(make_database())
        with FAULTS.armed("tsql.parse", kind="latency", latency=1e-6, times=None) as fault:
            session.execute(STATEMENTS[0])  # parsed: the parser's own check
            session.execute(STATEMENTS[0])  # remembered: the session's
            assert fault.fired == 2


class TestStratumPhysicalDegradation:
    def test_reference_fallback_matches_pipelined_answer(self):
        statement = STATEMENTS[2]
        healthy = Session(make_database()).execute(statement)
        with FAULTS.armed("stratum.pull", times=1):
            degraded = Session(make_database()).execute(statement)
        assert degraded.report.degraded_operations
        assert not healthy.report.degraded_operations
        assert rows_of(degraded.relation) == rows_of(healthy.relation)

    def test_degradation_entry_names_operator_path_and_code(self):
        with FAULTS.armed("stratum.pull", times=1):
            result = Session(make_database()).execute(STATEMENTS[2])
        entry = result.report.degraded_operations[0]
        assert " at " in entry and entry.endswith("FAULT_INJECTED")

    def test_stratum_degradation_counted_and_flagged_on_trace(self):
        metrics = MetricsRegistry()
        tracer = Tracer()
        session = Session(
            make_database(), options=ExecutionOptions(tracer=tracer, metrics=metrics)
        )
        with FAULTS.armed("stratum.pull", times=1):
            session.execute(STATEMENTS[2])
        assert 'repro_degraded_total{stage="stratum_physical"} 1' in metrics.exposition()
        (trace,) = tracer.recent(1)
        execute_spans = [s for s in trace.root.children if s.name == "execute"]
        assert execute_spans[0].attributes["degraded"]

    def test_repeated_faults_degrade_repeatedly_with_identical_answers(self):
        statement = STATEMENTS[2]
        healthy_rows = rows_of(Session(make_database()).execute(statement).relation)
        session = Session(make_database())
        with FAULTS.armed("stratum.pull", times=3):
            first = session.execute(statement)
        assert first.report.degraded_operations
        assert rows_of(first.relation) == healthy_rows
        # fault exhausted: back on the fast path, same answer
        second = session.execute(statement)
        assert not second.report.degraded_operations
        assert rows_of(second.relation) == healthy_rows


class TestTemporalRegionDegradation:
    """A region holding temporal operators falls back like any other: the
    reference recursion — the only place ``node._evaluate`` still runs for
    them — re-executes it to the identical tuple sequence."""

    def counted(self):
        narrow = Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation()))
        counted = TemporalAggregation(["EmpName"], [count(alias="n")], TemporalDuplicateElimination(narrow))
        return Sort(OrderSpec.of("EmpName DESC"), counted)

    def chained(self):
        """All five temporal operations in one region, the ``chained`` shape on top."""
        employee = Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation()))
        project = Projection(["EmpName", "T1", "T2"], LiteralRelation(project_relation()))
        idle = TemporalDifference(TemporalDuplicateElimination(employee), project)
        merged = Coalescing(TemporalUnion(idle, TemporalDuplicateElimination(project)))
        return Sort(
            OrderSpec.of("EmpName DESC"), TemporalAggregation(["EmpName"], [count(alias="n")], merged)
        )

    def test_a_failed_region_with_rdupt_reexecutes_through_the_reference(self, monkeypatch):
        self.check_reference_reexecution(self.counted(), ["rdupT", "γT"], monkeypatch)

    def test_a_failed_region_with_all_five_operations_reexecutes_through_the_reference(self, monkeypatch):
        calls = ["rdupT", "\\T", "rdupT", "∪T", "coalT", "γT"]
        self.check_reference_reexecution(self.chained(), calls, monkeypatch)

    def check_reference_reexecution(self, plan, reference_calls, monkeypatch):
        evaluated = []
        for node_type in {type(node) for _, node in plan.locations() if node.is_temporal_operator}:

            def spy(self, child_results, context, original=node_type._evaluate):
                evaluated.append(self.symbol)
                return original(self, child_results, context)

            monkeypatch.setattr(node_type, "_evaluate", spy)

        def execute(faults):
            executor = StratumExecutor(ConventionalDBMS(), control=ExecutionControl())
            with FAULTS.armed("stratum.pull", times=faults):
                return executor.execute(plan), executor.report

        healthy, healthy_report = execute(faults=0)
        assert healthy_report.degraded_operations == [] and evaluated == []
        degraded, report = execute(faults=1)
        assert report.degraded_operations == ["sort[EmpName DESC] at (): FAULT_INJECTED"]
        assert evaluated == reference_calls
        assert list(degraded.tuples) == list(healthy.tuples)
        assert degraded.order == healthy.order
        # The reference also counts each rdupT that the operator above runs
        # itself, which never drains on its own in the healthy tree.
        absorbed = set(report.node_rows) - set(healthy_report.node_rows)
        assert all(plan.subtree_at(path).symbol == "rdupT" for path in absorbed)
        assert {path: report.node_rows[path] for path in healthy_report.node_rows} == healthy_report.node_rows


class TestDegradationNeverMasksControl:
    """Cancellation and budgets must stop the query, not trigger a fallback."""

    def test_cancellation_is_not_degraded_away(self):
        session = Session(make_database())
        token = CancellationToken()
        token.cancel("stop")
        with pytest.raises(CancelledError):
            session.execute(STATEMENTS[2], token=token)

    def test_resource_exhaustion_is_not_degraded_away(self):
        session = Session(make_database())
        with pytest.raises(ResourceExhaustedError):
            session.execute(STATEMENTS[2], guard=ResourceGuard(max_rows=1))
