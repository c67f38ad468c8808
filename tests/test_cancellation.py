"""In-flight deadlines, cooperative cancellation and resource guards."""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.core.exceptions import (
    CancelledError,
    DeadlineExceededError,
    ResourceExhaustedError,
)
from repro.core.expressions import count
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
)
from repro.core.operations.base import EvaluationContext
from repro.core.physical import SourceOp
from repro.core.relation import Relation
from repro.core.rules import TransformationRule
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.dbms import ConventionalDBMS
from repro.faults import (
    FAULTS,
    CancellationToken,
    ExecutionControl,
    ResourceGuard,
)
from repro.options import ExecutionOptions
from repro.search import MemoSearch
from repro.server import Server
from repro.session import Session
from repro.session.cache import PlanCache
from repro.workloads import PAPER_SQL, employee_relation, project_relation

from .conftest import flight_waiters, in_threads, wait_until

SNAPSHOT = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)])


class TestCancellationToken:
    def test_fresh_token_checks_clean(self):
        token = CancellationToken()
        token.check()
        assert token.cancelled is False
        assert token.expired() is False

    def test_cancel_makes_next_check_raise_with_reason(self):
        token = CancellationToken()
        token.cancel("client went away")
        with pytest.raises(CancelledError, match="client went away"):
            token.check()
        assert token.cancelled is True

    def test_deadline_expiry_raises_deadline_exceeded(self):
        clock_value = [0.0]
        token = CancellationToken(deadline=1.0, clock=lambda: clock_value[0])
        token.check()
        clock_value[0] = 1.5
        assert token.expired() is True
        with pytest.raises(DeadlineExceededError):
            token.check()

    def test_deadline_exceeded_is_a_cancelled_error(self):
        # One except clause stops both kinds of stop request.
        assert issubclass(DeadlineExceededError, CancelledError)

    def test_cancel_from_another_thread_is_seen(self):
        token = CancellationToken()
        thread = threading.Thread(target=token.cancel)
        thread.start()
        thread.join()
        with pytest.raises(CancelledError):
            token.check()


class TestResourceGuard:
    def test_row_budget(self):
        guard = ResourceGuard(max_rows=100)
        guard.charge_rows(100)
        with pytest.raises(ResourceExhaustedError, match="row budget"):
            guard.charge_rows(1)

    def test_byte_budget(self):
        guard = ResourceGuard(max_bytes=1000)
        guard.charge_bytes(1000)
        with pytest.raises(ResourceExhaustedError, match="materialization budget"):
            guard.charge_bytes(1)

    def test_charge_relation_estimates_footprint(self):
        guard = ResourceGuard(max_bytes=10)
        with pytest.raises(ResourceExhaustedError):
            guard.charge_relation(employee_relation())

    def test_unbounded_guard_never_raises(self):
        guard = ResourceGuard()
        guard.charge_rows(10**9)
        guard.charge_relation(employee_relation())
        assert guard.rows == 10**9


class TestExecutionControl:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ExecutionControl(interval=0)

    def test_tick_checks_token_then_guard(self):
        token = CancellationToken()
        control = ExecutionControl(token=token, guard=ResourceGuard(max_rows=1), interval=128)
        token.cancel()
        # token wins over the guard at the same tick
        with pytest.raises(CancelledError):
            control.tick("stratum.pull")

    def test_a_drain_stops_within_one_interval_of_the_cancel(self):
        token = CancellationToken()
        control = ExecutionControl(token=token, interval=10)
        source = SourceOp(Relation.from_rows(SNAPSHOT, [("n", i) for i in range(1000)]))
        source.instrument("dbms.scan", 1, control=control)
        pulled = []
        with pytest.raises(CancelledError):
            for batch in source.batches():
                pulled.extend(batch.rows())
                if len(pulled) == 15:
                    token.cancel()
        # cancelled at tuple 15, next check at tuple 20: within one interval
        assert 15 <= len(pulled) <= 20


HISTORY = LiteralRelation(
    Relation.from_rows(
        RelationSchema.temporal([("Name", STRING)]),
        [(f"n{i % 7}", i % 40, i % 40 + 1 + i % 9) for i in range(300)],
    )
)

#: Every third row of ``HISTORY``, shifted: the same value classes, other periods.
SHIFTED = LiteralRelation(
    Relation.from_rows(
        HISTORY.relation.schema,
        [(name, t1 + 3, t2 + 5) for name, t1, t2 in (tup.values() for tup in HISTORY.relation.tuples[::3])],
    )
)


class TestDeadlineInsideATemporalDrain:
    """All five temporal operations drain as batch operators, so they tick.

    A deadline that expires while one of them is producing rows raises from
    inside that drain — before this they ran as one uninterruptible call
    between two plan-node checkpoints.
    """

    INTERVAL = 16

    def executor_with(self, deadline):
        """An executor whose token's clock advances by one per check, and that clock."""
        from repro.stratum import StratumExecutor

        clock = itertools.count(1)
        token = CancellationToken(deadline=deadline, clock=lambda: next(clock))
        control = ExecutionControl(token=token, interval=self.INTERVAL)
        return StratumExecutor(ConventionalDBMS(), control=control), clock

    @pytest.mark.parametrize(
        "plan",
        [
            TemporalDuplicateElimination(HISTORY),
            TemporalAggregation(["Name"], [count(alias="n")], HISTORY),
        ],
        ids=["rdupT", "γT"],
    )
    def test_the_typed_error_comes_from_the_operators_own_ticks(self, plan):
        interval = self.INTERVAL
        rows_in = len(HISTORY.relation)
        rows_out = len(plan.evaluate(EvaluationContext()))

        executor, clock = self.executor_with(deadline=10**6)
        executor.execute(plan)
        checks = next(clock) - 1
        # Two plan-node checkpoints (one per node, while lowering), the
        # source's drain, and the temporal operator's own: one tick at its
        # start and one per `interval` rows out.
        assert rows_out // interval >= 2
        assert checks == 2 + (1 + rows_in // interval) + (1 + rows_out // interval)
        # Expire on the very last check: by then the source is exhausted, so
        # only the temporal operator's drain can be the one that raises.
        executor, _ = self.executor_with(deadline=checks - 1)
        with pytest.raises(DeadlineExceededError):
            executor.execute(plan)
        assert () not in executor.report.node_rows  # the region never finished
        assert executor.report.degraded_operations == []  # "stop", not "broken"

    def test_a_deadline_lands_inside_a_coalesce_union_difference_drain(self):
        from repro.core.lowering import Lowering

        interval = self.INTERVAL
        plan = Coalescing(TemporalUnion(TemporalDifference(HISTORY, SHIFTED), SHIFTED))
        root = Lowering().lower(plan)
        root.to_relation()
        operators = list(root.operators())
        assert [operator.describe() for operator in operators] == [
            "Coalesce", "TemporalUnion", "TemporalDifference",
            "Source(rows=300)", "Source(rows=100)", "Source(rows=100)",
        ]
        # Each of the three emits several intervals' worth of rows: it ticks
        # while it runs, not only when it starts.
        assert all(operator.rows_out // interval >= 2 for operator in operators[:3])

        executor, clock = self.executor_with(deadline=10**6)
        executor.execute(plan)
        checks = next(clock) - 1
        # One checkpoint per plan node, taken while the tree is lowered, and
        # every operator's own ticks: one at its start, one per `interval`
        # rows out.
        nodes = len(list(plan.locations()))
        assert checks == nodes + sum(1 + operator.rows_out // interval for operator in operators)
        # Wherever the deadline falls the typed error comes out and nothing
        # degrades; on the very last check every input is exhausted, so only
        # coalT's own drain can be the one that raises.
        for deadline in range(1, checks):
            executor, _ = self.executor_with(deadline)
            with pytest.raises(DeadlineExceededError):
                executor.execute(plan)
            assert () not in executor.report.node_rows  # the region never finished
            assert executor.report.degraded_operations == []  # "stop", not "broken"


def make_database():
    from repro.stratum import TemporalDatabase

    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


class TestSessionCancellation:
    def test_pre_cancelled_token_stops_before_parsing(self):
        session = Session(make_database())
        token = CancellationToken()
        token.cancel("gone")
        with pytest.raises(CancelledError):
            session.execute("SELECT EmpName FROM EMPLOYEE", token=token)

    def test_a_remembered_text_is_still_stopped_in_parse(self, monkeypatch):
        """The text memo skips the parser, never the phase's token check."""
        session = Session(make_database())
        statement = "SELECT EmpName FROM EMPLOYEE"
        session.execute(statement)
        assert session.cache.statement(statement) is not None
        records = []
        real_observe = Session._observe

        def observe(self, record):
            records.append(record)
            real_observe(self, record)

        monkeypatch.setattr(Session, "_observe", observe)
        token = CancellationToken()
        token.cancel("gone")
        with pytest.raises(CancelledError):
            session.execute(statement, token=token)
        (record,) = records
        assert list(record.phases) == ["parse"]
        assert record.phases["parse"][2] == {"error_code": "CANCELLED"}

    def test_deadline_stops_mid_execution(self):
        session = Session(make_database())
        token = CancellationToken(deadline=time.perf_counter() + 0.05)
        # a deliberately slow scan: injected stalls totalling ~2s
        with FAULTS.armed("dbms.scan", kind="latency", latency=0.5, times=4):
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                session.execute("SELECT EmpName FROM EMPLOYEE", token=token)
            wall = time.perf_counter() - started
        # stopped well under the uncancelled runtime (≥ 2s of injected stall)
        assert wall < 0.5, f"deadline ignored for {wall:.3f}s"

    def test_row_guard_enforced_through_session(self):
        session = Session(make_database())
        guard = ResourceGuard(max_rows=1)
        with pytest.raises(ResourceExhaustedError):
            session.execute("SELECT EmpName FROM EMPLOYEE", guard=guard)

    def test_byte_guard_enforced_through_session(self):
        session = Session(make_database())
        guard = ResourceGuard(max_bytes=10)
        with pytest.raises(ResourceExhaustedError):
            session.execute("SELECT EmpName FROM EMPLOYEE", guard=guard)

    def test_token_without_pressure_changes_nothing(self):
        session = Session(make_database())
        token = CancellationToken(deadline=time.perf_counter() + 60.0)
        result = session.execute(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", ("Sales",), token=token
        )
        assert {t["EmpName"] for t in result.relation.tuples} == {"Anna", "John"}


class TestAStopInsideTheSearch:
    """A leader's cancel or deadline lands inside the memo search, not after it."""

    @pytest.mark.parametrize(
        "stop, error, code",
        [("cancel", CancelledError, "CANCELLED"), ("deadline", DeadlineExceededError, "TIMED_OUT")],
    )
    #: Calls of ``match`` (of ~500 in the whole search) after which the stop
    #: lands: two where the same expression has further rules to run.
    @pytest.mark.parametrize("at", [30, 92])
    def test_a_stop_from_inside_a_rule_ends_the_request_within_one_task(
        self, stop, error, code, at, monkeypatch, records
    ):
        database, cache = make_database(), PlanCache()
        now = [0.0]
        token = CancellationToken(deadline=1.0, clock=lambda: now[0])
        calls, applied_after = [0], []
        real_match = TransformationRule.match

        def match(rule, node, children):
            calls[0] += 1
            if calls[0] == at:
                if stop == "cancel":
                    token.cancel("gone")
                else:
                    now[0] = 2.0
            if calls[0] >= at:
                applied_after.append(rule)
            return real_match(rule, node, children)

        monkeypatch.setattr(TransformationRule, "match", match)
        with pytest.raises(error):
            Session(database, cache=cache).execute(PAPER_SQL, token=token)
        # Within one task: no rule after the one that saw the stop was applied.
        assert applied_after and all(rule is applied_after[0] for rule in applied_after)
        (record,) = records
        assert record.error_code == code and list(record.phases) == ["parse", "optimize"]
        assert record.phases["optimize"][2] == {"error_code": code}
        # Nothing half-explored was kept, and the next search is a clean one.
        assert not cache._explorations and not cache._entries
        again = Session(database, cache=cache).execute(PAPER_SQL)
        clean = Session(make_database(), cache=PlanCache()).execute(PAPER_SQL)
        assert not again.cache_hit
        assert not again.optimization.search.statistics.exploration_reused
        assert again.optimization.search.statistics == clean.optimization.search.statistics


class TestAWaitersTokenIsItsOwn:
    """A request waiting on another's search gives up alone; the search goes on."""

    def test_a_waiters_deadline_ends_it_in_optimize_while_the_leader_is_parked(
        self, park_first_call, records
    ):
        database, cache = make_database(), PlanCache()
        gate = park_first_call(MemoSearch, "optimize")
        leader = in_threads(lambda: Session(database, cache=cache).execute(PAPER_SQL))
        assert gate.entered.wait(timeout=30.0)
        now = [0.0]  # the waiter's own clock: its deadline passes when the test says so
        token = CancellationToken(deadline=1.0, clock=lambda: now[0])
        waiter = in_threads(
            lambda: Session(database, cache=cache).execute(PAPER_SQL, token=token)
        )
        wait_until(lambda: flight_waiters(cache) == 1)
        now[0] = 2.0
        (outcome,) = waiter()  # within a wait slice — the leader is still parked
        assert isinstance(outcome, DeadlineExceededError) and not gate.release.is_set()
        (record,) = records
        assert record.error_code == "TIMED_OUT" and list(record.phases) == ["parse", "optimize"]
        assert record.phases["optimize"][2] == {"error_code": "TIMED_OUT"}
        # The leader never noticed: it lands its entry and the next request hits.
        gate.release.set()
        (led,) = leader()
        assert led.relation is not None and not led.cache_hit
        assert Session(database, cache=cache).execute(PAPER_SQL).cache_hit
        info = cache.info()
        assert (info.misses, info.hits, info.coalesced) == (1, 1, 0)

    def test_server_cancel_reaches_a_waiting_request_and_only_it(self, park_first_call):
        server = Server(make_database(), max_concurrency=2)
        with server:
            gate = park_first_call(MemoSearch, "optimize")
            leader = server.submit(PAPER_SQL)
            assert gate.entered.wait(timeout=30.0)
            waiter = server.submit(PAPER_SQL)
            wait_until(lambda: flight_waiters(server.plan_cache) == 1)
            assert server.cancel(waiter.request_id) is True
            cancelled = waiter.result(timeout=30.0)
            assert cancelled.status == "cancelled" and cancelled.code == "CANCELLED"
            assert not gate.release.is_set() and not leader.done()
            gate.release.set()
            assert leader.result(timeout=30.0).ok
            assert server.query(PAPER_SQL).cache_hit
            stats = server.stats()
            assert (stats.cancelled, stats.completed, stats.worker_crashes) == (1, 2, 0)
            assert (stats.plan_cache.misses, stats.plan_cache.coalesced) == (1, 0)


class TestServerCancellation:
    """The acceptance path: deadline and cancel end to end through the server."""

    #: ``EXPLAIN ANALYZE`` is the same lifecycle: the deadline and the cancel
    #: reach its drain exactly as they reach the plain statement's.
    PREFIXES = pytest.mark.parametrize("prefix", ["", "EXPLAIN ANALYZE "])

    @PREFIXES
    def test_slow_query_times_out_well_under_uncancelled_runtime(self, prefix):
        server = Server(make_database(), max_concurrency=2)
        with server:
            with FAULTS.armed("dbms.scan", kind="latency", latency=0.5, times=4):
                started = time.perf_counter()
                response = server.query(prefix + "SELECT EmpName FROM EMPLOYEE", timeout=0.05)
                wall = time.perf_counter() - started
            assert response.status == "timed_out"
            assert response.code == "TIMED_OUT"
            # ≥ 2s of injected stall, answered in a fraction of it
            assert wall < 0.5, f"timed out too slowly: {wall:.3f}s"
            # the worker survives and keeps serving
            assert server.query("SELECT EmpName FROM EMPLOYEE").ok
            stats = server.stats()
            assert stats.timed_out == 1 and stats.worker_crashes == 0

    @PREFIXES
    def test_explicit_cancel_stops_a_running_query(self, prefix):
        server = Server(make_database(), max_concurrency=2)
        with server:
            with FAULTS.armed("dbms.scan", kind="latency", latency=10.0, times=4):
                future = server.submit(prefix + "SELECT EmpName FROM EMPLOYEE")
                time.sleep(0.05)  # let a worker pick it up and hit the stall
                assert server.cancel(future.request_id) is True
                response = future.result(timeout=5.0)
            assert response.status == "cancelled"
            assert response.code == "CANCELLED"
            assert response.request_id == future.request_id
            assert server.stats().cancelled == 1

    def test_cancel_unknown_or_finished_request_returns_false(self):
        server = Server(make_database(), max_concurrency=1)
        with server:
            response = server.query("SELECT EmpName FROM EMPLOYEE")
            assert server.cancel(response.request_id) is False
            assert server.cancel(987654) is False

    def test_cancelled_while_queued_never_executes(self):
        server = Server(make_database(), max_concurrency=1)
        with server:
            with FAULTS.armed("dbms.scan", kind="latency", latency=10.0, times=4):
                blocker = server.submit("SELECT EmpName FROM EMPLOYEE")
                queued = server.submit("SELECT EmpName FROM PROJECT")
                time.sleep(0.05)
                assert server.cancel(queued.request_id) is True
                assert server.cancel(blocker.request_id) is True
                blocked_response = blocker.result(timeout=5.0)
                queued_response = queued.result(timeout=5.0)
            assert blocked_response.status == "cancelled"
            assert queued_response.status == "cancelled"
            stats = server.stats()
            assert stats.cancelled == 2 and stats.completed == 0

    def test_deadline_expired_in_queue_still_answers_timed_out(self):
        server = Server(make_database(), max_concurrency=1)
        with server:
            with FAULTS.armed("dbms.scan", kind="latency", latency=0.3, times=1):
                blocker = server.submit("SELECT EmpName FROM EMPLOYEE")
                stale = server.submit("SELECT EmpName FROM PROJECT", timeout=0.01)
                assert blocker.result(timeout=5.0).ok
                response = stale.result(timeout=5.0)
            assert response.status == "timed_out" and response.code == "TIMED_OUT"

    def test_cancellation_disabled_reverts_to_queue_deadline_only(self):
        server = Server(
            make_database(), max_concurrency=1, options=ExecutionOptions(cancellation=False)
        )
        with server:
            future = server.submit("SELECT EmpName FROM EMPLOYEE")
            assert server.cancel(future.request_id) is False  # no token registered
            assert future.result(timeout=5.0).ok

    def test_per_request_resource_budget(self):
        server = Server(
            make_database(),
            max_concurrency=1,
            options=ExecutionOptions(max_rows_per_request=2),
        )
        with server:
            response = server.query("SELECT EmpName FROM EMPLOYEE")
            assert response.status == "error"
            assert response.code == "RESOURCE_EXHAUSTED"

    def test_error_metrics_and_trace_marks(self):
        from repro.obs import Tracer

        tracer = Tracer()
        server = Server(make_database(), max_concurrency=1, options=ExecutionOptions(tracer=tracer))
        with server:
            with FAULTS.armed("dbms.scan", kind="latency", latency=0.5, times=4):
                server.query("SELECT EmpName FROM EMPLOYEE", timeout=0.05)
        exposition = server.metrics_exposition()
        assert 'repro_request_errors_total{code="TIMED_OUT"} 1' in exposition
        failed = [
            trace
            for trace in tracer.recent()
            if trace.root.attributes.get("error") is True
        ]
        assert failed, "the timed-out request must finish an error-marked trace"
        assert failed[0].root.attributes["error_code"] == "TIMED_OUT"
