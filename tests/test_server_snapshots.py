"""Snapshot reads under concurrency: differential and stress coverage.

The serving layer pins every query to a catalog snapshot at admission.  The
tests here verify the strong form of that promise:

* **pinned reads** — a query admitted at epoch E returns byte-identically
  the result a serial execution produces at epoch E, even when appends land
  between its admission and its execution;
* **epoch replay** — because :meth:`Catalog.insert` reports the resulting
  epoch atomically, the concurrent history can be replayed serially: state
  at epoch E = base rows + exactly the append batches that reported an
  epoch ≤ E, in epoch order.  Every concurrent read is checked against a
  fresh database rebuilt that way;
* **stress** — many clients, mixed reads and appends from the shared
  ``concurrent-mix`` workload: no lost updates, no torn reads, correct
  cache invalidation across sessions.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import Server
from repro.session import Session
from repro.stratum import TemporalDatabase
from repro.workloads import (
    PAPER_SQL,
    POINT_SQL,
    concurrent_mix_operations,
    employee_relation,
    project_relation,
)

from .conftest import in_threads, wait_until


def make_database() -> TemporalDatabase:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


BLOCK_MARKER = "SELECT-BLOCK-MARKER"


@pytest.fixture
def blockable(monkeypatch):
    """Worker sessions park on an event when executing BLOCK_MARKER."""
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


class TestPinnedReads:
    def test_session_snapshot_isolates_from_later_appends(self):
        """The session-level primitive: explicit snapshot, serial setting."""
        database = make_database()
        session = Session(database)
        expected = session.execute(POINT_SQL, params=("Sales",)).relation

        snapshot = database.snapshot()
        database.insert("EMPLOYEE", [("Late", "Sales", 1, 9)])

        pinned = session.execute(POINT_SQL, params=("Sales",), snapshot=snapshot)
        assert list(pinned.relation.tuples) == list(expected.tuples)
        assert pinned.epoch == snapshot.statistics_epoch()

        live = session.execute(POINT_SQL, params=("Sales",))
        assert any(t["EmpName"] == "Late" for t in live.relation.tuples)

    def test_admitted_query_ignores_append_landing_before_execution(self, blockable):
        """Server-level pin: the append lands while the query is queued."""
        database = make_database()
        serial = Session(make_database()).execute(PAPER_SQL).relation

        server = Server(database, max_concurrency=1)
        server.start()
        try:
            blocker = in_threads(lambda: server.query(BLOCK_MARKER))
            wait_until(lambda: server.stats().active_workers == 1)
            pinned = in_threads(lambda: server.query(PAPER_SQL))  # admitted at the base epoch
            wait_until(lambda: server.stats().queue_depth == 1)
            # The append lands *after* admission but *before* execution.
            database.insert("EMPLOYEE", [("Interloper", "Sales", 1, 12)])
            blockable.set()
            blocker()
            (response,) = pinned()
            assert response.ok
            assert list(response.relation.tuples) == list(serial.tuples)
            # A query admitted now sees the interloper.
            live = server.query(PAPER_SQL)
            assert any(t["EmpName"] == "Interloper" for t in live.relation.tuples)
        finally:
            blockable.set()
            server.close()


def _replay_database(base_epoch: int, epoch: int, batches: dict) -> TemporalDatabase:
    """The serial state at ``epoch``: base rows + batches reported ≤ epoch."""
    database = make_database()
    for append_epoch in range(base_epoch + 1, epoch + 1):
        database.insert("EMPLOYEE", batches[append_epoch])
    return database


class TestConcurrentMixStress:
    CLIENTS = 6
    OPS = 10
    APPEND_EVERY = 3

    def test_mixed_load_is_serializable_by_admission_epoch(self):
        database = make_database()
        base_epoch = database.statistics_epoch()
        base_rows = database.table("EMPLOYEE").cardinality

        results: list = []
        errors: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.CLIENTS)

        server = Server(database, max_concurrency=4, queue_limit=None)
        server.start()
        try:

            def client(index: int) -> None:
                try:
                    ops = concurrent_mix_operations(
                        self.OPS, client=index, append_every=self.APPEND_EVERY
                    )
                    barrier.wait()
                    for kind, target, payload in ops:
                        if kind == "append":
                            response = server.append(target, payload)
                            record = (kind, target, payload, response)
                        else:
                            response = server.query(target, params=payload)
                            record = (kind, target, payload, response)
                        with lock:
                            results.append(record)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            server.close()

        assert not errors
        assert all(response.ok for (_, _, _, response) in results), [
            response.error for (_, _, _, response) in results if not response.ok
        ]

        appends = [record for record in results if record[0] == "append"]
        queries = [record for record in results if record[0] == "query"]
        assert appends and queries

        # -- no lost updates: every batch landed, each at a distinct epoch --
        batches = {response.epoch: rows for (_, _, rows, response) in appends}
        appended_rows = sum(len(rows) for (_, _, rows, _) in appends)
        assert len(batches) == len(appends), "two appends reported one epoch"
        assert sorted(batches) == list(
            range(base_epoch + 1, base_epoch + len(appends) + 1)
        )
        assert database.table("EMPLOYEE").cardinality == base_rows + appended_rows
        final_names = {t["EmpName"] for t in database.table("EMPLOYEE").tuples}
        for _, _, rows, _ in appends:
            for row in rows:
                assert row[0] in final_names

        # -- no torn reads: every query equals the serial result at its
        #    admission epoch, byte for byte (epoch replay) ------------------
        replayed: dict = {}
        for _, statement, params, response in queries:
            epoch = response.epoch
            assert base_epoch <= epoch <= base_epoch + len(appends)
            if epoch not in replayed:
                replayed[epoch] = Session(
                    _replay_database(base_epoch, epoch, batches)
                )
            serial = replayed[epoch].execute(statement, params=params)
            assert list(response.relation.tuples) == list(serial.relation.tuples), (
                f"read at epoch {epoch} diverged from serial replay for "
                f"{statement!r} {params!r}"
            )

        # -- cache invalidation across sessions: the storm is over, so the
        #    first fresh execution re-optimizes and every later one hits ----
        settle = server_stats_after_settle = None
        with Server(database, max_concurrency=2) as fresh:
            settle = fresh.query(PAPER_SQL)
            assert settle.ok and not settle.cache_hit
            again = fresh.query(PAPER_SQL)
            assert again.ok and again.cache_hit
            assert list(settle.relation.tuples) == list(again.relation.tuples)
            server_stats_after_settle = fresh.stats()
        assert server_stats_after_settle.plan_cache.misses == 1
        assert server_stats_after_settle.plan_cache.hits == 1
