"""Thread-safety of the shared plan cache and the catalog.

The serving layer (:mod:`repro.server`) shares one :class:`PlanCache` and
one :class:`~repro.dbms.catalog.Catalog` across every worker session, so
both must survive concurrent get/put/invalidation and concurrent appends
without losing updates or tearing reads.  These tests hammer exactly those
surfaces with plain threads — no server in the loop — so a failure points
at the data structure, not the scheduling above it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.query import QueryResultSpec
from repro.dbms.catalog import Catalog
from repro.core.exceptions import CatalogError
from repro.session import Session
from repro.session.cache import CachedPlan, PlanCache, PlanCacheKey
from repro.stratum import TemporalDatabase
from repro.workloads import EMPLOYEE_SCHEMA, employee_relation


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
        pinned_epoch = first.epoch

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
                assert first.epoch == pinned_epoch
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
