"""Thread-safety of the shared plan cache and the catalog.

The serving layer (:mod:`repro.server`) shares one :class:`PlanCache` and
one :class:`~repro.dbms.catalog.Catalog` across every worker session, so
both must survive concurrent get/put/invalidation and concurrent appends
without losing updates or tearing reads.  These tests hammer exactly those
surfaces with plain threads — no server in the loop — so a failure points
at the data structure, not the scheduling above it.

The single-flight classes drive :meth:`PlanCache.get_or_plan` by events and
counts: the leader is parked inside its ``plan()``, the test watches the
other requests *become* waiters (``flight_waiters``), and only then lets the
leader land or fail — no sleep stands in for an interleaving.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

import repro.session.session
from repro.core.query import QueryResultSpec
from repro.dbms.catalog import Catalog
from repro.core.exceptions import CancelledError, CatalogError, ReproError
from repro.faults import FAULTS, CancellationToken
from repro.obs.metrics import MetricsRegistry
from repro.options import ExecutionOptions
from repro.search import MemoSearch
from repro.session import Session
from repro.session.cache import CachedPlan, PlanCache, PlanCacheKey
from repro.stratum import TemporalDatabase
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PAPER_SQL,
    POINT_SQL,
    employee_relation,
    project_relation,
)

from .conftest import ParkedCall, flight_waiters, in_threads, wait_until


def _entry(fingerprint: str, epoch: int) -> CachedPlan:
    # The cache never inspects the plan payload; a sentinel is enough.
    return CachedPlan(
        key=PlanCacheKey(fingerprint, epoch),
        plan=None,
        query_spec=QueryResultSpec.multiset(),
        optimization=None,
        parameter_count=0,
        normalized_statement=f"SELECT {fingerprint}",
    )


class TestPlanCacheThreadSafety:
    def test_concurrent_get_put_purge_is_consistent(self):
        """Many threads get/put/purge one cache: no exception, sane counters."""
        cache = PlanCache(capacity=32)
        threads = 8
        rounds = 300
        errors: list = []
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            try:
                barrier.wait()
                for round_ in range(rounds):
                    epoch = round_ % 5
                    key = PlanCacheKey(f"stmt-{worker % 4}", epoch)
                    if cache.get(key) is None:
                        cache.put(_entry(f"stmt-{worker % 4}", epoch))
                    if round_ % 50 == 49:
                        cache.purge_stale(epoch)
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert not errors
        info = cache.info()
        assert info.hits + info.misses == threads * rounds
        assert info.size <= info.capacity
        # Every put corresponds to a miss; entries leave only by purge/evict.
        assert info.size + info.evictions + info.invalidations <= info.misses

    def test_purge_under_contention_never_serves_stale_epochs(self):
        """get() never returns an entry whose epoch differs from its key."""
        cache = PlanCache(capacity=16)
        stop = threading.Event()
        wrong: list = []

        def reader() -> None:
            while not stop.is_set():
                for epoch in range(4):
                    entry = cache.get(PlanCacheKey("q", epoch))
                    if entry is not None and entry.key.epoch != epoch:
                        wrong.append(entry)

        def writer() -> None:
            epoch = 0
            while not stop.is_set():
                cache.put(_entry("q", epoch % 4))
                cache.purge_stale(epoch % 4)
                epoch += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads += [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join()
        timer.cancel()
        assert not wrong


def _parked_plan(fingerprint: str, epoch: int, failure: BaseException = None) -> ParkedCall:
    """A ``plan()`` whose first call parks, then lands ``.entry`` or raises ``failure``."""
    entry = _entry(fingerprint, epoch)
    plan = ParkedCall(lambda: entry, then_raise=failure)
    plan.entry = entry
    return plan


def _flight(cache: PlanCache, key: PlanCacheKey, plan: ParkedCall, waiters: int):
    """Park a leader in ``plan``, then ``waiters`` lookups of ``key`` behind it.

    Every other waiter carries a token, so both wait loops (sliced with a
    token, unbounded without) are behind the one flight.  Returns the two
    ``join`` functions once every waiter is observably waiting.
    """
    leader = in_threads(lambda: cache.get_or_plan(key, plan))
    assert plan.entered.wait(timeout=30.0)
    others = in_threads(*(
        (lambda token=(CancellationToken() if index % 2 else None):
            cache.get_or_plan(key, plan, token))
        for index in range(waiters)
    ))
    wait_until(lambda: flight_waiters(cache) == waiters)
    return leader, others


class TestSingleFlight:
    """``get_or_plan`` on a bare cache: who plans, who waits, what is counted."""

    def test_concurrent_misses_of_one_key_plan_once(self):
        cache, key = PlanCache(), PlanCacheKey("q", 0)
        plan = _parked_plan("q", 0)
        leader, others = _flight(cache, key, plan, waiters=5)
        assert cache.info().misses == 1 and cache.info().hits == 0  # counted on take-off
        plan.release.set()
        (led,), served = leader(), others()
        assert plan.calls == 1
        assert led == (plan.entry, False, None)
        for entry, hit, waited in served:
            assert entry is plan.entry and hit and waited > 0
        info = cache.info()
        assert (info.misses, info.hits, info.coalesced) == (1, 5, 5)
        assert plan.entry.hits == 5 and not cache._flights
        assert cache.get_or_plan(key, plan) == (plan.entry, True, None)  # a plain hit
        assert cache.info().coalesced == 5

    @pytest.mark.parametrize(
        "failure", [ValueError("no such table"), CancelledError("stop"), KeyboardInterrupt()],
        ids=lambda failure: type(failure).__name__,
    )
    def test_a_failed_leader_caches_nothing_and_one_waiter_takes_over(self, failure):
        cache, key = PlanCache(), PlanCacheKey("q", 0)
        plan = _parked_plan("q", 0, failure)
        leader, others = _flight(cache, key, plan, waiters=4)
        plan.release.set()
        assert leader() == [failure]  # its own error, to its own caller only
        served = others()
        assert plan.calls == 2, "exactly one waiter searched again"
        assert sorted(hit for _, hit, _ in served) == [False, True, True, True]
        assert all(entry is plan.entry and waited > 0 for entry, _, waited in served)
        info = cache.info()
        assert (info.misses, info.hits, info.coalesced) == (2, 3, 3)
        assert info.misses == plan.calls and not cache._flights

    @pytest.mark.parametrize("failure", [ValueError("boom"), KeyboardInterrupt()], ids=repr)
    def test_a_leader_failing_alone_leaves_no_flight_behind(self, failure):
        cache, key = PlanCache(), PlanCacheKey("q", 0)

        def failing():
            raise failure

        with pytest.raises(type(failure)):
            cache.get_or_plan(key, failing)
        assert key not in cache and not cache._flights
        # The next request for the key leads — it does not wait for a ghost.
        entry = _entry("q", 0)
        assert cache.get_or_plan(key, lambda: entry) == (entry, False, None)
        assert cache.info().misses == 2

    def test_different_keys_never_wait_for_each_other(self):
        cache = PlanCache()
        plan = _parked_plan("slow", 0)
        leader = in_threads(lambda: cache.get_or_plan(PlanCacheKey("slow", 0), plan))
        assert plan.entered.wait(timeout=30.0)
        # Another statement, and the same statement at another epoch: both
        # plan to completion on this thread while the first is still parked.
        for key in (PlanCacheKey("fast", 0), PlanCacheKey("slow", 1)):
            entry = _entry(key.fingerprint, key.epoch)
            assert cache.get_or_plan(key, lambda: entry) == (entry, False, None)
        assert not plan.release.is_set() and flight_waiters(cache) == 0
        plan.release.set()
        assert leader() == [(plan.entry, False, None)]
        assert cache.info().misses == 3 and cache.info().coalesced == 0

    def test_clear_during_a_flight_loses_nothing_and_hangs_nobody(self):
        cache, key = PlanCache(), PlanCacheKey("q", 0)
        plan = _parked_plan("q", 0)
        leader, others = _flight(cache, key, plan, waiters=3)
        cache.clear()  # the flight is not an entry: it stays in the air
        assert key in cache._flights
        plan.release.set()
        assert leader() == [(plan.entry, False, None)]
        assert all(entry is plan.entry and hit for entry, hit, _ in others())
        assert plan.calls == 1 and key in cache

    def test_a_waiter_stopped_by_its_token_leaves_the_leader_flying(self):
        cache, key = PlanCache(), PlanCacheKey("q", 0)
        plan = _parked_plan("q", 0)
        leader = in_threads(lambda: cache.get_or_plan(key, plan))
        assert plan.entered.wait(timeout=30.0)
        token = CancellationToken()
        waiter = in_threads(lambda: cache.get_or_plan(key, plan, token))
        wait_until(lambda: flight_waiters(cache) == 1)
        token.cancel("client went away")
        (outcome,) = waiter()  # returns while the leader is still parked
        assert isinstance(outcome, CancelledError) and not plan.release.is_set()
        assert key in cache._flights
        plan.release.set()
        assert leader() == [(plan.entry, False, None)]
        info = cache.info()  # the waiter that gave up is neither a hit nor a miss
        assert (info.misses, info.hits, info.coalesced) == (1, 0, 0)

    def test_stampedes_under_a_short_switch_interval_keep_the_books(self):
        """More threads than cores racing few keys: one plan per flight, no lost count."""
        cache = PlanCache(capacity=64)
        threads, deadline = 8, time.monotonic() + 1.0
        planned: list = []  # one append per plan() call (list.append is atomic)
        lookups: list = []
        errors: list = []

        def plan_for(key: PlanCacheKey):
            def plan() -> CachedPlan:
                planned.append(key)
                return _entry(key.fingerprint, key.epoch)
            return plan

        def stampede(worker: int) -> None:
            rng = random.Random(worker)
            try:
                while time.monotonic() < deadline:
                    key = PlanCacheKey(f"stmt-{rng.randrange(3)}", rng.randrange(2))
                    entry, hit, waited = cache.get_or_plan(key, plan_for(key))
                    assert entry.key == key and (hit or waited is None or waited >= 0)
                    lookups.append(hit)
                    if rng.random() < 0.05:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            join = in_threads(*(lambda worker=worker: stampede(worker) for worker in range(threads)))
            join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not cache._flights
        info = cache.info()
        assert info.misses == len(planned) == lookups.count(False)
        assert info.hits == lookups.count(True) and info.coalesced <= info.hits
        assert info.hits + info.misses == len(lookups)


def _database() -> TemporalDatabase:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


class TestSessionSingleFlight:
    """Sessions sharing one cache: N concurrent misses of a statement are one search."""

    WAITERS = 3

    def stampede(self, database, cache, gate, statement=PAPER_SQL, options=None):
        """One leader parked at ``gate``, ``WAITERS`` more requests waiting behind it."""
        def request():
            return Session(database, cache=cache, options=options).execute(statement)

        leader = in_threads(request)
        assert gate.entered.wait(timeout=30.0)
        others = in_threads(*[request] * self.WAITERS)
        wait_until(lambda: flight_waiters(cache) == self.WAITERS)
        return leader, others

    def test_concurrent_misses_run_one_statement_search(
        self, planning_work, park_first_call, records
    ):
        database, cache = _database(), PlanCache()
        serial = Session(_database()).execute(PAPER_SQL)
        planning_work.clear()
        del records[:]
        registry = MetricsRegistry()
        gate = park_first_call(MemoSearch, "optimize")
        leader, others = self.stampede(
            database, cache, gate, options=ExecutionOptions(metrics=registry)
        )
        gate.release.set()
        results = leader() + others()
        assert planning_work["searches"] == 1
        info = cache.info()
        assert (info.misses, info.hits, info.coalesced) == (1, self.WAITERS, self.WAITERS)
        for result in results:
            assert list(result.relation.tuples) == list(serial.relation.tuples)
            assert result.plan is results[0].plan  # the one entry's tree
        assert [result.cache_hit for result in results] == [False] + [True] * self.WAITERS
        # Records land in finishing order, so tell leader from waiters by content.
        optimize = sorted(
            (record.phases["optimize"][2] for record in records), key=lambda a: a["cache_hit"]
        )
        led, *served = optimize
        assert not led["cache_hit"] and "coalesced" not in led and "wait_seconds" not in led
        assert len(served) == self.WAITERS
        for attributes in served:
            assert attributes["cache_hit"] and attributes["coalesced"]
            assert attributes["wait_seconds"] > 0
        # The one search is counted once, whoever else was served by it.
        assert registry.counter("repro_memo_tasks_total", "").value() == (
            serial.optimization.search.statistics.applications_attempted
        )

    def test_explain_of_a_waiter_reports_a_hit(self, park_first_call):
        database, cache = _database(), PlanCache()
        gate = park_first_call(MemoSearch, "optimize")
        leader = in_threads(lambda: Session(database, cache=cache).execute(PAPER_SQL))
        assert gate.entered.wait(timeout=30.0)
        waiter = in_threads(lambda: Session(database, cache=cache).explain(PAPER_SQL))
        wait_until(lambda: flight_waiters(cache) == 1)
        gate.release.set()
        (report,), (led,) = waiter(), leader()
        assert report.cache_hit and "plan cache: hit" in report.render()
        assert not led.cache_hit and cache.info().coalesced == 1

    def test_an_untranslatable_statement_is_nobodys_entry(self, park_first_call):
        """Leader fails in ``translate``: each waiter leads in turn and fails alike."""
        database, cache = _database(), PlanCache()
        gate = park_first_call(repro.session.session, "translate")
        leader, others = self.stampede(database, cache, gate, "SELECT X FROM NOWHERE")
        gate.release.set()
        outcomes = leader() + others()
        assert all(isinstance(outcome, ReproError) for outcome in outcomes), outcomes
        info = cache.info()
        assert (info.misses, info.hits, info.size) == (1 + self.WAITERS, 0, 0)
        assert info.misses == gate.calls and not cache._flights
        assert not Session(database, cache=cache).execute(PAPER_SQL).cache_hit  # leads, no hang

    def test_a_cancelled_search_is_not_shared_and_one_waiter_searches_again(
        self, planning_work, park_first_call
    ):
        """``search.memo`` raising ``CancelledError`` propagates (it is not a degradation)."""
        database, cache = _database(), PlanCache()
        gate = park_first_call(repro.session.session, "translate")
        with FAULTS.armed("search.memo", exception=CancelledError, times=1):
            leader, others = self.stampede(database, cache, gate)
            gate.release.set()
            (failed,), served = leader(), others()
        assert isinstance(failed, CancelledError)
        assert sorted(result.cache_hit for result in served) == [False, True, True]
        assert all(result.optimization.degraded is None for result in served)
        assert planning_work["searches"] == 1
        info = cache.info()
        assert (info.misses, info.hits, info.coalesced) == (2, 2, 2)
        assert info.misses == gate.calls and not cache._flights

    def test_two_statements_and_two_epochs_plan_side_by_side(self, park_first_call):
        database, cache = _database(), PlanCache()
        pinned = database.snapshot()
        gate = park_first_call(MemoSearch, "optimize")
        leader = in_threads(lambda: Session(database, cache=cache).execute(PAPER_SQL, snapshot=pinned))
        assert gate.entered.wait(timeout=30.0)
        database.insert("EMPLOYEE", [("Fresh", "Sales", 2, 4)])  # the live epoch moves on
        session = Session(database, cache=cache)
        other = session.execute(POINT_SQL, params=("Sales",))  # another statement
        newer = session.execute(PAPER_SQL)  # the parked statement, at the new epoch
        assert not other.cache_hit and not newer.cache_hit
        assert newer.epoch == pinned.statistics_epoch() + 1 and not gate.release.is_set()
        assert flight_waiters(cache) == 0
        gate.release.set()
        (older,) = leader()
        assert older.epoch == pinned.statistics_epoch() and not older.cache_hit
        assert cache.info().misses == 3 and cache.info().coalesced == 0


class TestStatementMemoThreadSafety:
    def test_sessions_racing_new_texts_leave_one_entry_each(self):
        """Threads sharing one cache race the same new texts: one memo entry
        and one plan per text, equal fingerprints, never above capacity."""
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        cache = PlanCache(capacity=4)
        texts = [f"SELECT EmpName FROM EMPLOYEE WHERE Dept = '{d}'" for d in "ABC"]
        threads = 6
        fingerprints: list = [[] for _ in range(threads)]
        errors: list = []
        barrier = threading.Barrier(threads)

        def race(worker: int) -> None:
            try:
                session = Session(database, cache=cache)
                barrier.wait(timeout=30.0)
                for round_ in range(40):
                    text = texts[(worker + round_) % len(texts)]
                    fingerprints[worker].append((text, session.execute(text).fingerprint))
                    info = cache.info()
                    assert info.texts <= info.capacity and info.size <= info.capacity
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=race, args=(index,)) for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)

        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        seen = {pair for per_worker in fingerprints for pair in per_worker}
        assert len(seen) == len(texts)  # one fingerprint per text, whoever parsed it
        info = cache.info()
        assert (info.texts, info.size) == (len(texts), len(texts))


class TestCatalogConcurrency:
    def test_concurrent_appends_lose_nothing_and_epochs_are_distinct(self):
        """N threads × M appends: all rows land, each append a distinct epoch."""
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee_relation())
        base_rows = catalog.table("EMPLOYEE").cardinality
        base_epoch = catalog.epoch
        threads, appends = 6, 20
        epochs: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def appender(worker: int) -> None:
            barrier.wait()
            for index in range(appends):
                serial = worker * appends + index
                inserted, epoch = catalog.insert(
                    "EMPLOYEE", [(f"W{serial}", "Sales", 1, 2 + serial % 5)]
                )
                assert inserted == 1
                with lock:
                    epochs.append(epoch)

        workers = [
            threading.Thread(target=appender, args=(index,)) for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        total = threads * appends
        assert catalog.table("EMPLOYEE").cardinality == base_rows + total
        # Atomic insert+epoch: the reported epochs are exactly the next
        # `total` integers, each one claimed by exactly one append.
        assert sorted(epochs) == list(range(base_epoch + 1, base_epoch + total + 1))
        assert catalog.epoch == base_epoch + total

    def test_snapshot_pins_contents_while_appends_proceed(self):
        """A snapshot taken mid-stream never changes, whatever lands after."""
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        first = database.snapshot()
        pinned_rows = first.table("EMPLOYEE").cardinality
        pinned_epoch = first.statistics_epoch()

        stop = threading.Event()

        def appender() -> None:
            serial = 0
            while not stop.is_set():
                database.insert("EMPLOYEE", [(f"S{serial}", "Sales", 1, 3)])
                serial += 1

        thread = threading.Thread(target=appender)
        thread.start()
        try:
            for _ in range(200):
                assert first.table("EMPLOYEE").cardinality == pinned_rows
                assert first.statistics_epoch() == pinned_epoch
                mid = database.snapshot()
                # A fresh snapshot is internally consistent: its statistics
                # match its own relation, even while appends race.
                assert mid.statistics()["EMPLOYEE"] == mid.table("EMPLOYEE").cardinality
        finally:
            stop.set()
            thread.join()
        assert database.table("EMPLOYEE").cardinality > pinned_rows

    def test_snapshot_tables_are_read_only(self):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee_relation())
        snapshot = catalog.snapshot()
        with pytest.raises(CatalogError):
            snapshot.table("EMPLOYEE").insert([("X", "Sales", 1, 2)])
        with pytest.raises(CatalogError):
            snapshot.create_table("OTHER", EMPLOYEE_SCHEMA)
        with pytest.raises(CatalogError):
            snapshot.drop_table("EMPLOYEE")
