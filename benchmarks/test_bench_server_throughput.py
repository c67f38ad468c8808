"""Perf-C — the concurrent serving layer under load.

Three acceptance experiments for :mod:`repro.server`:

* **serving by concurrency** — the shared ``concurrent-mix`` read workload
  driven by 1, 4 and 16 concurrent clients against a ``max_concurrency=4``
  worker pool.  Results must be correct (every response ``ok``), the pool
  bound must hold (peak active workers ≤ 4) and the shared plan cache must
  serve virtually every request;
* **shared plan cache across sessions** — a *second* session's first
  execution of a statement another session already optimized runs no
  search, because the process-wide cache serves it the finished plan;
* **admission control under overload** — 16 clients hammer a pool of 4
  with a bounded queue: the server must reject (backpressure) rather than
  grow the queue, and the counters must account for every admission
  attempt.

Throughput and latency percentiles are the performance ledger's
(``warm-serve``: ``throughput_ops_s``, ``latency_ms_p50``,
``latency_ms_p95``).
"""

from __future__ import annotations

import threading

from repro.server import Server, ServerOverloadedError
from repro.session import Session
from repro.session.cache import PlanCache
from repro.workloads import PAPER_SQL, concurrent_mix_operations

from .conftest import banner, make_scaled_database

SCALE = 12
OPS = 30

MAX_CONCURRENCY = 4
CLIENT_COUNTS = (1, 4, 16)


def _drive_clients(server: Server, clients: int, ops: int) -> None:
    """Run the read-only mix from ``clients`` threads; every response must be ``ok``."""
    errors: list = []
    barrier = threading.Barrier(clients)

    def client(index: int) -> None:
        operations = concurrent_mix_operations(ops, client=index)
        barrier.wait()
        for _, statement, params in operations:
            response = server.query(statement, params=params)
            if not response.ok:  # pragma: no cover - failure path
                errors.append(response.error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[:3]


def test_perf_server_throughput_by_concurrency():
    """Every request of 1, 4 and 16 concurrent clients served, within the pool bound."""
    print(banner(f"Perf-C — serving by concurrency, scale {SCALE}, {OPS} ops/client"))
    for clients in CLIENT_COUNTS:
        database = make_scaled_database(SCALE)
        with Server(database, max_concurrency=MAX_CONCURRENCY, queue_limit=None) as server:
            _drive_clients(server, clients, OPS)
            stats = server.stats()
        assert stats.completed == clients * OPS
        assert stats.failed == 0 and stats.rejected == 0 and stats.timed_out == 0
        assert 1 <= stats.peak_active_workers <= MAX_CONCURRENCY
        print(
            f"clients={clients:>2}  completed={stats.completed}  "
            f"peak_active={stats.peak_active_workers}  "
            f"cache_hit_rate={stats.plan_cache.hit_rate:.3f}"
        )
    # The mix repeats three statement shapes: after the cold optimizes the
    # shared cache serves virtually everything.
    assert stats.plan_cache.hit_rate > 0.9


def test_perf_shared_cache_second_session_runs_no_search(planning_work):
    """A second session's first execution of a cached statement runs no
    search — the shared cache's acceptance bar."""
    database = make_scaled_database(SCALE)
    shared = PlanCache(64)

    cold = Session(database, cache=shared).execute(PAPER_SQL)
    assert not cold.cache_hit and planning_work["searches"] == 1

    warm = Session(database, cache=shared).execute(PAPER_SQL)
    assert warm.cache_hit, "second session must hit the shared cache cold"
    assert planning_work["searches"] == 1, "the second session ran a search"
    assert list(warm.relation.tuples) == list(cold.relation.tuples)


def test_perf_admission_control_under_overload():
    """16 clients vs. 4 workers and a bounded queue: reject, don't collapse."""
    clients = 16
    queue_limit = 8
    database = make_scaled_database(SCALE)
    rejected_by_client = [0] * clients
    errors: list = []
    barrier = threading.Barrier(clients)

    with Server(
        database, max_concurrency=MAX_CONCURRENCY, queue_limit=queue_limit
    ) as server:
        # Warm the cache so overload measures serving, not first-time optimize.
        warm_ops = concurrent_mix_operations(3, client=0)
        for _, statement, params in warm_ops:
            assert server.query(statement, params=params).ok

        def client(index: int) -> None:
            operations = concurrent_mix_operations(OPS, client=index)
            barrier.wait()
            for _, statement, params in operations:
                try:
                    response = server.query(statement, params=params)
                except ServerOverloadedError:
                    rejected_by_client[index] += 1
                    continue
                if not response.ok:  # pragma: no cover - failure path
                    errors.append(response.error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()

    assert not errors, errors[:3]
    rejected = sum(rejected_by_client)
    attempts = clients * OPS + 3
    # Every admission attempt is accounted for, nothing hangs.
    assert stats.submitted == attempts
    assert stats.rejected == rejected
    assert stats.completed == attempts - rejected
    assert stats.queue_depth == 0 and stats.active_workers == 0
    # The policy holds: concurrency never exceeded the pool.
    assert stats.peak_active_workers <= MAX_CONCURRENCY
    print(banner("Perf-C — admission control under overload"))
    print(
        f"clients={clients} queue_limit={queue_limit}  submitted={stats.submitted}  "
        f"completed={stats.completed}  rejected={stats.rejected}"
    )

