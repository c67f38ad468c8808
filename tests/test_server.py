"""The serving layer: lifecycle, admission control, shared cache, TCP.

Deterministic unit tests of :mod:`repro.server` — the timing-sensitive
admission paths (rejection, a deadline passing in line, line order) are
driven by parking the requests that hold the slots on an event, and by
waiting for the line to reach a length, rather than by racing sleeps, so
they cannot flake.  Requests come from threads of the test's own
(``in_threads``): the server starts none.  The snapshot-differential and
mixed-load stress coverage lives in ``tests/test_server_snapshots.py``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time

import pytest

from repro.core.relation import Relation
from repro.core.schema import STRING, RelationSchema
from repro.options import ExecutionOptions
from repro.search import MemoSearch
from repro.server import (
    Server,
    ServerClosedError,
    ServerOverloadedError,
    TCPClient,
    TCPFrontend,
)
from repro.obs import Tracer
from repro.server.metrics import LatencyRecorder, percentile
from repro.session import Session
from repro.session.cache import PlanCache
from repro.stratum import TemporalDatabase
from repro.workloads import PAPER_SQL, POINT_SQL, employee_relation, project_relation


def make_server(**kwargs) -> Server:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return Server(database, **kwargs)


from .conftest import flight_waiters, in_threads, wait_until

NAN = float("nan")

BLOCK_MARKER = "SELECT-BLOCK-MARKER"


@pytest.fixture
def blockable(monkeypatch):
    """Patch the sessions so the BLOCK_MARKER statement parks on an event.

    Lets a test occupy every slot deterministically, then fill the line,
    then release — no sleeps, no races.
    """
    release = threading.Event()
    real_execute = Session.execute

    def execute(self, statement, params=(), snapshot=None, **kwargs):
        if statement == BLOCK_MARKER:
            assert release.wait(timeout=30.0), "test never released the workers"
            raise ValueError("block marker completed")
        return real_execute(self, statement, params, snapshot=snapshot, **kwargs)

    monkeypatch.setattr(Session, "execute", execute)
    yield release
    release.set()


class TestLifecycle:
    def test_context_manager_runs_queries(self):
        with make_server(max_concurrency=2) as server:
            response = server.query(POINT_SQL, params=("Sales",))
            assert response.ok and response.kind == "query"
            assert sorted({t["EmpName"] for t in response.relation.tuples}) == [
                "Anna",
                "John",
            ]

    def test_a_request_before_start_and_after_close_raises(self):
        server = make_server()
        with pytest.raises(ServerClosedError):
            server.query(PAPER_SQL)
        server.start()
        assert server.query(PAPER_SQL).ok
        server.close()
        with pytest.raises(ServerClosedError):
            server.append("EMPLOYEE", [("Zoe", "Sales", 1, 5)])
        server.close()  # idempotent

    def test_a_started_server_starts_no_thread(self):
        server = make_server(max_concurrency=4)
        before = threading.active_count()
        server.start()
        try:
            assert threading.active_count() == before
            assert server.query(POINT_SQL, params=("Sales",)).ok
            assert threading.active_count() == before
        finally:
            server.close()

    def test_close_drains_queued_requests(self, blockable):
        server = make_server(max_concurrency=1)
        server.start()
        blocker = in_threads(lambda: server.query(BLOCK_MARKER))
        wait_until(lambda: server.stats().active_workers == 1)
        queued = in_threads(lambda: server.query(POINT_SQL, params=("Sales",)))
        wait_until(lambda: server.stats().queue_depth == 1)
        blockable.set()
        server.close()
        (blocked,), (answered,) = blocker(), queued()
        assert blocked.status == "error"
        assert answered.ok

    def test_constructor_validates_knobs(self):
        with pytest.raises(ValueError):
            Server(max_concurrency=0)
        with pytest.raises(ValueError):
            Server(queue_limit=0)


class TestExecution:
    def test_bad_statement_returns_error_response_and_worker_survives(self):
        with make_server(max_concurrency=1) as server:
            bad = server.query("SELECT FROM WHERE")
            assert bad.status == "error" and bad.error
            good = server.query(PAPER_SQL)
            assert good.ok

    def test_append_reports_rows_and_epoch(self):
        with make_server() as server:
            before = server.database.statistics_epoch()
            response = server.append("EMPLOYEE", [("Zoe", "Sales", 1, 5)])
            assert response.ok and response.kind == "append"
            assert response.rows_inserted == 1
            assert response.epoch == before + 1

    def test_unknown_table_append_is_an_error_response(self):
        with make_server() as server:
            response = server.append("NOPE", [("x",)])
            assert response.status == "error"

    def test_server_matches_serial_session(self):
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.register("PROJECT", project_relation())
        serial = Session(database).execute(PAPER_SQL).relation
        with make_server(max_concurrency=4) as server:
            responses = in_threads(*[lambda: server.query(PAPER_SQL)] * 8)()
            for response in responses:
                assert response.ok
                assert list(response.relation.tuples) == list(serial.tuples)


class TestSharedPlanCache:
    def test_second_worker_hits_the_shared_cache(self):
        # max_concurrency=2 gives two distinct sessions; the statement is
        # optimized once and every later execution hits, whichever worker.
        with make_server(max_concurrency=2) as server:
            first = server.query(PAPER_SQL)
            assert first.ok and not first.cache_hit
            hits = [server.query(PAPER_SQL) for _ in range(8)]
            assert all(r.ok and r.cache_hit for r in hits)
            info = server.plan_cache.info()
            assert info.misses == 1
            assert info.hits == 8

    def test_a_text_first_seen_by_one_worker_costs_the_other_nothing(
        self, monkeypatch, planning_work
    ):
        """Session B's first sight of a text session A planned: no search, no lexer, no hash.

        Each of the two sessions is parked in turn, so which of them serves
        a request is decided by the test, not by the slot pool.  The
        sessions are told apart by identity.
        """
        gates = {"PARK-FIRST": threading.Event(), "PARK-SECOND": threading.Event()}
        served_by = []
        real_execute = Session.execute

        def execute(self, statement, params=(), **kwargs):
            if statement in gates:
                assert gates[statement].wait(timeout=30.0), "test never released the worker"
                raise ValueError("parked worker released")
            served_by.append(id(self))
            return real_execute(self, statement, params, **kwargs)

        monkeypatch.setattr(Session, "execute", execute)
        with make_server(max_concurrency=2) as server:
            try:
                parked = in_threads(lambda: server.query("PARK-FIRST"))
                wait_until(lambda: server.stats().active_workers == 1)
                first = server.query(PAPER_SQL)  # the one free session
                assert first.ok and not first.cache_hit
                assert planning_work == {
                    "searches": 1, "explorations": 1, "tokenize": 1, "fingerprint": 1
                }
                second_parked = in_threads(lambda: server.query("PARK-SECOND"))
                wait_until(lambda: server.stats().active_workers == 2)  # ... which now parks
                gates["PARK-FIRST"].set()
                (released,) = parked()
                assert released.status == "error"
                planning_work.clear()
                second = server.query(PAPER_SQL)  # the other session, its first sight
                assert second.ok and second.cache_hit
                assert not planning_work
                assert len(set(served_by)) == 2
                assert list(second.relation.tuples) == list(first.relation.tuples)
            finally:
                for gate in gates.values():
                    gate.set()
            (released,) = second_parked()
            assert released.status == "error"

    def test_external_cache_is_shared_across_servers(self):
        cache = PlanCache(64)
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.register("PROJECT", project_relation())
        with Server(database, plan_cache=cache) as first:
            assert not first.query(PAPER_SQL).cache_hit
        with Server(database, plan_cache=cache) as second:
            assert second.query(PAPER_SQL).cache_hit

    def test_append_invalidates_across_workers(self):
        with make_server(max_concurrency=2) as server:
            assert not server.query(POINT_SQL, params=("Sales",)).cache_hit
            assert server.query(POINT_SQL, params=("Sales",)).cache_hit
            server.append("EMPLOYEE", [("Fresh", "Sales", 2, 4)])
            after = server.query(POINT_SQL, params=("Sales",))
            assert not after.cache_hit, "stale plan served after epoch bump"
            assert any(t["EmpName"] == "Fresh" for t in after.relation.tuples)
            assert server.query(POINT_SQL, params=("Sales",)).cache_hit


class TestSingleFlightAcrossWorkers:
    """Two workers missing one (statement, epoch) at once run one search."""

    def both_workers_miss(self, server, gate, statement=PAPER_SQL):
        """Worker A parked inside its search, worker B waiting on A's flight."""
        leader = in_threads(lambda: server.query(statement))
        assert gate.entered.wait(timeout=30.0)
        waiter = in_threads(lambda: server.query(statement))
        wait_until(lambda: flight_waiters(server.plan_cache) == 1)
        gate.release.set()
        (led,), (served,) = leader(), waiter()
        return led, served

    def test_the_second_worker_waits_and_is_served_the_firsts_entry(
        self, planning_work, park_first_call
    ):
        with make_server(max_concurrency=2) as server:
            serial = server.query(PAPER_SQL)
            server.append("EMPLOYEE", [("Fresh", "Sales", 2, 4)])  # both workers now miss
            planning_work.clear()
            gate = park_first_call(MemoSearch, "optimize")
            led, served = self.both_workers_miss(server, gate)
            assert led.ok and served.ok and (led.cache_hit, served.cache_hit) == (False, True)
            # One search and no exploration: the serial request's memo is
            # re-costed at the new epoch.
            assert planning_work == {"searches": 1}
            assert list(served.relation.tuples) == list(led.relation.tuples)
            assert led.epoch == served.epoch == serial.epoch + 1
            # The wait is inside the waiter's ``optimize`` phase, so inside its service time.
            assert served.timings["optimize"] > 0
            info = server.plan_cache.info()
            assert (info.misses, info.hits, info.coalesced) == (2, 1, 1)
            stats = dataclasses.asdict(server.stats())["plan_cache"]  # what the stats op sends
            assert (stats["hits"], stats["misses"], stats["coalesced"]) == (1, 2, 1)
            exposition = server.metrics_exposition()
            assert "repro_plan_cache_coalesced_total 1" in exposition
            assert "repro_plan_cache_misses_total 2" in exposition
            assert server.query(PAPER_SQL).cache_hit
            assert server.plan_cache.info().coalesced == 1  # a plain hit is not coalesced

    def test_a_degraded_search_is_shared_and_counted_once(self, park_first_call):
        """The leader's fallback plan is an entry like any other: served, not re-derived."""
        with make_server(max_concurrency=2) as server:
            gate = park_first_call(MemoSearch, "optimize", then_raise=RuntimeError("search broke"))
            led, served = self.both_workers_miss(server, gate)
            assert led.ok and served.ok and (led.cache_hit, served.cache_hit) == (False, True)
            assert list(served.relation.tuples) == list(led.relation.tuples)
            exposition = server.metrics_exposition()
            assert 'repro_degraded_total{stage="memo_search"} 1' in exposition
            info = server.plan_cache.info()
            assert (info.misses, info.coalesced) == (1, 1)


class TestAdmissionControl:
    def test_full_queue_rejects_with_backpressure(self, blockable):
        server = make_server(max_concurrency=1, queue_limit=2)
        server.start()
        try:
            blocker = in_threads(lambda: server.query(BLOCK_MARKER))
            wait_until(lambda: server.stats().active_workers == 1)
            queued = in_threads(*[lambda: server.query(POINT_SQL, params=("Sales",))] * 2)
            wait_until(lambda: server.stats().queue_depth == 2)
            with pytest.raises(ServerOverloadedError):
                server.query(POINT_SQL, params=("Sales",))
            stats = server.stats()
            assert stats.rejected == 1
            assert stats.queue_depth == 2
            blockable.set()
            (blocked,) = blocker()
            assert blocked.status == "error"
            for response in queued():
                assert response.ok
        finally:
            blockable.set()
            server.close()
        assert server.stats().rejected == 1

    def test_deadline_expired_in_queue_times_out_without_running(self, blockable, executions):
        server = make_server(max_concurrency=1)
        server.start()
        try:
            blocker = in_threads(lambda: server.query(BLOCK_MARKER))
            wait_until(lambda: server.stats().active_workers == 1)
            doomed = in_threads(lambda: server.query(POINT_SQL, params=("Sales",), timeout=0.01))
            # Answered at its deadline, while the blocker still holds the slot.
            (response,) = doomed()
            assert response.status == "timed_out"
            assert response.relation is None
            assert server.stats().queue_depth == 0
            blockable.set()
            (blocked,) = blocker()
            assert blocked.status == "error"
            stats = server.stats()
            assert stats.timed_out == 1
        finally:
            blockable.set()
            server.close()
        assert [statement for statement, _, _ in executions] == [BLOCK_MARKER]

    def test_default_request_timeout_applies(self, blockable):
        server = make_server(max_concurrency=1, request_timeout=0.01)
        server.start()
        try:
            blocker = in_threads(lambda: server.query(BLOCK_MARKER, timeout=30.0))
            wait_until(lambda: server.stats().active_workers == 1)
            doomed = in_threads(lambda: server.query(POINT_SQL, params=("Sales",)))
            (response,) = doomed()
            assert response.status == "timed_out"
            blockable.set()
            blocker()
        finally:
            blockable.set()
            server.close()

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf], ids=str)
    def test_a_non_finite_timeout_is_rejected(self, timeout):
        with pytest.raises(ValueError, match="request_timeout"):
            make_server(request_timeout=timeout)
        with make_server(max_concurrency=1) as server:
            epoch = server.database.statistics_epoch()
            with pytest.raises(ValueError, match="timeout"):
                server.query(POINT_SQL, params=("Sales",), timeout=timeout)
            with pytest.raises(ValueError, match="timeout"):
                server.append("EMPLOYEE", [("Zoe", "Sales", 1, 5)], timeout=timeout)
            # Rejected before admission: nothing ran, nothing landed, and
            # the one slot still serves.
            assert server.database.statistics_epoch() == epoch
            assert server.stats().timed_out == 0
            assert server.query(POINT_SQL, params=("Sales",)).ok

    def test_peak_active_workers_is_bounded_by_max_concurrency(self):
        with make_server(max_concurrency=2) as server:
            for response in in_threads(*[lambda: server.query(PAPER_SQL)] * 12)():
                assert response.ok
            stats = server.stats()
            assert 1 <= stats.peak_active_workers <= 2

    def test_stats_accounting_adds_up(self, blockable):
        server = make_server(max_concurrency=1, queue_limit=1)
        server.start()
        try:
            blocker = in_threads(lambda: server.query(BLOCK_MARKER))
            wait_until(lambda: server.stats().active_workers == 1)
            queued = in_threads(lambda: server.query(POINT_SQL, params=("Sales",)))
            wait_until(lambda: server.stats().queue_depth == 1)
            with pytest.raises(ServerOverloadedError):
                server.query(POINT_SQL, params=("Sales",))
            blockable.set()
        finally:
            blockable.set()
            server.close()
        stats = server.stats()
        assert stats.submitted == 3
        assert stats.completed + stats.failed + stats.rejected == 3
        assert stats.rejected == 1
        assert stats.queue_depth == 0 and stats.active_workers == 0
        blocker(), queued()


@pytest.fixture
def executions(monkeypatch):
    """``(statement, params, thread)`` per ``Session.execute``."""
    seen = []
    real_execute = Session.execute

    def execute(self, statement, params=(), **kwargs):
        seen.append((statement, tuple(params), threading.current_thread()))
        return real_execute(self, statement, params, **kwargs)

    monkeypatch.setattr(Session, "execute", execute)
    return seen


def on_this_thread(request):
    """``request()`` called on a thread of its own: ``(its outcome, that thread)``."""
    return lambda: (request(), threading.current_thread())


class TestInlineExecution:
    """Every request runs on the thread that asks for it; a caller that
    finds every slot busy waits in line and is handed a slot in turn."""

    def test_a_free_slot_runs_the_request_on_the_callers_thread(self, executions):
        with make_server(max_concurrency=2) as server:
            assert server.query(POINT_SQL, params=("Sales",)).ok
            assert server.append("EMPLOYEE", [("Zoe", "Sales", 1, 5)]).ok
            ((response, caller),) = in_threads(
                on_this_thread(lambda: server.query(POINT_SQL, params=("Research",)))
            )()
            stats = server.stats()
        assert response.ok
        (_, _, first), (_, _, other) = executions
        assert first is threading.current_thread()
        assert other is caller
        assert (stats.completed, stats.submitted, stats.peak_active_workers) == (3, 3, 1)

    def test_the_line_runs_requests_in_admission_order(self, monkeypatch):
        """One blocker, two waiters and a later caller run in admission
        order, each on its caller's thread; a waiter cancelled in line and
        one whose deadline passes in line are answered without executing;
        ``close()`` returns only once every admitted request is answered."""
        gates = {"PARK-BLOCKER": threading.Event(), "PARK-FIRST-WAITER": threading.Event()}
        executed = []
        real_execute = Session.execute

        def execute(self, statement, params=(), **kwargs):
            executed.append((statement, tuple(params), threading.current_thread()))
            if statement in gates:
                assert gates[statement].wait(timeout=30.0), "test never released the slot"
                raise ValueError("parked request released")
            return real_execute(self, statement, params, **kwargs)

        monkeypatch.setattr(Session, "execute", execute)
        server = make_server(max_concurrency=1, queue_limit=None)
        server.start()
        request_ids = {}

        def caller(name, statement, params=(), timeout=None, depth=None):
            def request():
                def admitted(request_id):
                    request_ids[name] = request_id

                return server.query(statement, params, timeout=timeout, admitted=admitted)

            join = in_threads(on_this_thread(request))
            if depth is not None:
                wait_until(lambda: server.stats().queue_depth == depth)
            return join

        try:
            blocker = caller("blocker", "PARK-BLOCKER")
            wait_until(lambda: server.stats().active_workers == 1)
            first = caller("first", "PARK-FIRST-WAITER", depth=1)
            cancelled = caller("cancelled", POINT_SQL, ("Sales",), depth=2)
            expired = caller("expired", POINT_SQL, ("Sales",), timeout=0.05, depth=3)
            second = caller("second", POINT_SQL, ("Research",), depth=4)
            assert server.cancel(request_ids["cancelled"]) is True
            # Both leave the line while the blocker still holds the slot.
            ((gone, _),), ((late, _),) = cancelled(), expired()
            assert (gone.status, gone.code) == ("cancelled", "CANCELLED")
            assert (late.status, late.code) == ("timed_out", "TIMED_OUT")
            assert server.stats().queue_depth == 2
            gates["PARK-BLOCKER"].set()
            # The blocker hands its slot to the first waiter: a caller arriving
            # now finds it busy and waits behind the second.
            wait_until(lambda: len(executed) == 2)
            later = caller("later", POINT_SQL, ("Sales",), depth=2)
            closing = threading.Event()
            closer = in_threads(lambda: (server.close(), closing.set()))
            wait_until(lambda: server._closed)
            with pytest.raises(ServerClosedError):
                server.query(POINT_SQL, params=("Sales",))
            assert not closing.is_set()  # the first waiter still runs
            gates["PARK-FIRST-WAITER"].set()
            closer()
            stats = server.stats()
        finally:
            for gate in gates.values():
                gate.set()
            server.close()
        assert closing.is_set()
        # close() returned with every admitted request answered and every slot free.
        assert stats.submitted == 6 and stats.rejected == 0
        assert (stats.completed, stats.failed, stats.cancelled, stats.timed_out) == (2, 2, 1, 1)
        assert (stats.queue_depth, stats.active_workers, stats.peak_active_workers) == (0, 0, 1)
        outcomes = {
            name: join()[0]
            for name, join in [("blocker", blocker), ("first", first), ("second", second),
                               ("later", later)]
        }
        assert [response.status for response, _ in outcomes.values()] == [
            "error", "error", "ok", "ok"
        ]
        assert [(statement, params) for statement, params, _ in executed] == [
            ("PARK-BLOCKER", ()),
            ("PARK-FIRST-WAITER", ()),
            (POINT_SQL, ("Research",)),
            (POINT_SQL, ("Sales",)),
        ]
        assert [thread for _, _, thread in executed] == [
            thread for _, thread in outcomes.values()
        ]

    def test_many_callers_waiting_cancelling_and_timing_out_lose_no_slot(self):
        """More callers than cores and slots, a thread switch every few
        bytecodes: every request is answered once and every slot comes back."""
        callers, requests_each, slots = 12, 6, 2
        server = make_server(max_concurrency=slots, queue_limit=None)
        admitted = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server.start()

            def caller(index):
                def run():
                    responses = []
                    for attempt in range(requests_each):
                        # Every third request has a deadline short enough to
                        # pass in line; a canceller takes others as they come.
                        timeout = 1e-4 if (index + attempt) % 3 == 0 else None
                        responses.append(
                            server.query(POINT_SQL, ("Sales",), timeout, admitted.append)
                        )
                    return responses

                return run

            def canceller():
                for request_id in range(1, callers * requests_each + 1, 4):
                    wait_until(lambda: len(admitted) >= request_id)
                    server.cancel(request_id)

            outcomes = in_threads(canceller, *[caller(index) for index in range(callers)])()
            server.close()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[0] is None  # the canceller saw every request admitted
        responses = [response for outcome in outcomes[1:] for response in outcome]
        stats = server.stats()
        assert len(responses) == stats.submitted == callers * requests_each
        assert {response.status for response in responses} <= {"ok", "timed_out", "cancelled"}
        assert sum(response.ok for response in responses) == stats.completed > 0
        assert stats.completed + stats.timed_out + stats.cancelled == stats.submitted
        assert (stats.queue_depth, stats.active_workers) == (0, 0)
        assert 1 <= stats.peak_active_workers <= slots
        assert len(server._free) == slots and not server._inflight

    def test_six_tcp_clients_share_two_slots(self):
        with make_server(max_concurrency=2, queue_limit=None) as server:
            with TCPFrontend(server) as frontend:
                barrier = threading.Barrier(6)

                def client():
                    with TCPClient(*frontend.address) as connection:
                        barrier.wait(timeout=30.0)
                        return [connection.query(PAPER_SQL)["status"] for _ in range(5)]

                outcomes = in_threads(*[client] * 6)()
            stats = server.stats()
        assert outcomes == [["ok"] * 5] * 6
        assert 1 <= stats.peak_active_workers <= 2
        assert (stats.completed, stats.submitted) == (30, 30)

    def test_a_deadline_already_passed_times_out_without_executing(self, executions):
        """Checked at admission, before a slot is taken."""
        with make_server(max_concurrency=1) as server:
            # A deadline at the admission instant has passed when the request runs.
            response = server.query(POINT_SQL, params=("Sales",), timeout=0.0)
            assert response.status == "timed_out" and response.code
            assert response.relation is None
            stats = server.stats()
        assert executions == []
        assert (stats.timed_out, stats.submitted, stats.peak_active_workers) == (1, 1, 0)

    def test_a_base_exception_inline_is_contained_and_the_slot_renewed(self, monkeypatch):
        class SimulatedCrash(BaseException):
            pass

        sessions = []
        real_execute = Session.execute

        def execute(self, statement, params=(), **kwargs):
            sessions.append(id(self))
            if len(sessions) == 1:
                raise SimulatedCrash("inline crash")
            return real_execute(self, statement, params, **kwargs)

        monkeypatch.setattr(Session, "execute", execute)
        with make_server(max_concurrency=1) as server:
            crashed = server.query(POINT_SQL, params=("Sales",))
            assert crashed.status == "error"
            assert crashed.error.startswith("worker crashed: SimulatedCrash")
            # The one slot holds a fresh session, and this thread still serves.
            assert server.query(POINT_SQL, params=("Sales",)).ok
            stats = server.stats()
        assert sessions[0] != sessions[1]
        assert (stats.worker_crashes, stats.failed, stats.completed) == (1, 1, 1)
        assert stats.submitted == 2


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.0) == 100.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_recorder_summary(self):
        recorder = LatencyRecorder(capacity=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):  # first value falls off the ring
            recorder.record(value)
        summary = recorder.summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(3.5)
        assert summary.max == 5.0

    def test_latency_recorded_per_request(self):
        with make_server() as server:
            server.query(PAPER_SQL)
            summary = server.stats().latency
            assert summary.count == 1
            assert summary.p50 > 0.0


class TestTCPFrontend:
    def test_round_trip_query_append_stats(self):
        with make_server(max_concurrency=2) as server:
            with TCPFrontend(server) as frontend:
                host, port = frontend.address
                with TCPClient(host, port) as client:
                    assert client.ping() == {"status": "ok", "pong": True}

                    reply = client.query(POINT_SQL, params=["Sales"])
                    assert reply["status"] == "ok"
                    assert reply["columns"] == ["EmpName", "T1", "T2"]
                    names = {row[0] for row in reply["rows"]}
                    assert names == {"Anna", "John"}

                    appended = client.append("EMPLOYEE", [["Rem", "Sales", 3, 6]])
                    assert appended["status"] == "ok"
                    assert appended["rows_inserted"] == 1

                    again = client.query(POINT_SQL, params=["Sales"])
                    assert "Rem" in {row[0] for row in again["rows"]}

                    stats = client.stats()["stats"]
                    assert stats["completed"] >= 3
                    assert stats["plan_cache"]["misses"] >= 1

    def test_explain_is_answered_with_the_rendered_report(self):
        with make_server() as server:
            session = Session(server.database)
            with TCPFrontend(server) as frontend:
                with TCPClient(*frontend.address) as client:
                    for prefix in ("EXPLAIN ", "EXPLAIN ANALYZE "):
                        response = server.query(prefix + PAPER_SQL)
                        assert response.ok and response.relation is None
                        assert response.explain.startswith("statement:  SELECT DISTINCT EmpName")
                        reply = client.query(prefix + PAPER_SQL)
                        assert reply["status"] == "ok" and "rows" not in reply
                        assert "est rows=" in reply["explain"]
                        assert ("result rows=10" in reply["explain"]) == ("ANALYZE" in prefix)
                    # What the server answers is what the session renders.
                    plain = session.query("EXPLAIN " + PAPER_SQL)
                    assert server.query("EXPLAIN " + PAPER_SQL).explain.splitlines()[3:] == (
                        plain.splitlines()[3:]
                    )
                    assert "explain" not in client.query(PAPER_SQL)

    def test_protocol_errors_keep_the_connection_alive(self):
        with make_server() as server:
            with TCPFrontend(server) as frontend:
                host, port = frontend.address
                with TCPClient(host, port) as client:
                    assert client.request({"op": "nope"})["status"] == "error"
                    bad_sql = client.query("SELECT FROM WHERE")
                    assert bad_sql["status"] == "error"
                    # The connection still serves after both errors.
                    assert client.ping()["status"] == "ok"

    def test_multiple_clients_share_one_server(self):
        with make_server(max_concurrency=2) as server:
            with TCPFrontend(server) as frontend:
                host, port = frontend.address
                clients = [TCPClient(host, port) for _ in range(4)]
                try:
                    for client in clients:
                        assert client.query(PAPER_SQL)["status"] == "ok"
                finally:
                    for client in clients:
                        client.close()
            info = server.plan_cache.info()
            assert info.misses == 1 and info.hits == 3


    @pytest.mark.parametrize(
        "message, field",
        [
            ({"op": "append", "table": "EMPLOYEE", "rows": [5]}, "rows"),
            ({"op": "append", "table": "EMPLOYEE", "rows": ["abcd"]}, "rows"),
            # Four string columns: split per character, "abcd" would fit.
            ({"op": "append", "table": "LETTERS", "rows": ["abcd"]}, "rows"),
            ({"op": "append", "table": "LETTERS", "rows": [list("abcd"), "abcd"]}, "rows"),
            (
                {"op": "append", "table": "LETTERS", "rows": [list("abcd")], "timeout": NAN},
                "timeout",
            ),
            ({"op": "query", "statement": PAPER_SQL, "timeout": NAN}, "timeout"),
            ({"op": "query", "statement": PAPER_SQL, "timeout": -math.inf}, "timeout"),
        ],
        ids=["int-row", "string-row", "string-row-all-strings", "second-row", "append-nan",
             "query-nan", "query-infinity"],
    )
    def test_a_row_that_is_no_list_or_a_non_finite_timeout_is_a_bad_request(self, message, field):
        letters = RelationSchema.snapshot([(name, STRING) for name in "ABCD"], name="LETTERS")
        with make_server() as server:
            server.database.register("LETTERS", Relation.from_rows(letters, []))
            epoch = server.database.statistics_epoch()
            with TCPFrontend(server) as frontend, TCPClient(*frontend.address) as client:
                reply = client.request(message)
                assert (reply["status"], reply.get("code")) == ("error", "BAD_REQUEST"), reply
                assert field in reply["error"]
                assert client.ping()["pong"] is True
            # Checked before anything is stored: no row of a bad batch lands.
            assert server.database.statistics_epoch() == epoch
            assert len(server.database.table("LETTERS")) == 0


class TestObservabilityIntegration:
    def test_response_carries_timings_and_exposition_matches_stats(self):
        with make_server(max_concurrency=2, options=ExecutionOptions(tracer=Tracer())) as server:
            with TCPFrontend(server) as frontend:
                host, port = frontend.address
                with TCPClient(host, port) as client:
                    first = client.query(PAPER_SQL)
                    second = client.query(PAPER_SQL)
                    for reply in (first, second):
                        assert reply["status"] == "ok"
                        assert set(reply["timings"]) == {"parse", "optimize", "execute"}
                        assert all(v >= 0.0 for v in reply["timings"].values())
                        assert reply["trace_id"]
                    assert first["trace_id"] != second["trace_id"]

                    stats = server.stats()
                    lines = client.metrics()["exposition"].splitlines()
                    assert (
                        f"repro_server_requests_completed_total {stats.completed}"
                        in lines
                    )
                    assert (
                        f"repro_plan_cache_hits_total {stats.plan_cache.hits}" in lines
                    )
                    assert (
                        f"repro_plan_cache_misses_total {stats.plan_cache.misses}"
                        in lines
                    )
                    assert "repro_server_queue_depth 0" in lines
                    assert f"repro_server_epoch {stats.epoch}" in lines
                    # Per-kind request latency histograms come from the
                    # worker sessions sharing the server's registry.
                    assert any(
                        line.startswith('repro_request_seconds_count{kind="compound"}')
                        for line in lines
                    )

                    traces = client.trace(limit=5)["traces"]
                    assert {t["trace_id"] for t in traces} == {
                        first["trace_id"],
                        second["trace_id"],
                    }
                    newest = traces[-1]
                    child_names = [c["name"] for c in newest["root"]["children"]]
                    assert child_names[:4] == ["parse", "optimize", "bind", "execute"]

    def test_untraced_server_still_serves_metrics(self):
        with make_server() as server:
            with TCPFrontend(server) as frontend:
                host, port = frontend.address
                with TCPClient(host, port) as client:
                    reply = client.query(PAPER_SQL)
                    assert reply["status"] == "ok"
                    assert "trace_id" not in reply
                    assert set(reply["timings"]) == {"parse", "optimize", "execute"}
                    assert client.trace()["traces"] == []
                    assert "repro_server_requests_completed_total 1" in (
                        client.metrics()["exposition"].splitlines()
                    )
