"""Perf-C — the concurrent serving layer under load.

Three acceptance experiments for :mod:`repro.server`:

* **throughput by concurrency** — the shared ``concurrent-mix`` read
  workload driven by 1, 4 and 16 concurrent clients against a
  ``max_concurrency=4`` worker pool; records queries/sec and the p50/p95/
  p99 latency per client count.  Results must be correct (every response
  ``ok``) and the pool bound must hold (peak active workers ≤ 4);
* **shared plan cache across sessions** — a *second* session's first
  execution of a statement another session already optimized must plan
  ≥ 10× faster than the cold optimize, because the process-wide cache
  serves it the finished plan;
* **admission control under overload** — 16 clients hammer a pool of 4
  with a bounded queue: the server must reject (backpressure) rather than
  grow the queue, keep every accepted request's latency bounded, and the
  counters must account for every admission attempt.

``SERVER_BENCH_SCALE`` scales the stored relations (default 12; CI smoke
runs smaller), ``SERVER_BENCH_OPS`` the per-client operation count.  The
measurements land in the file ``SERVER_BENCH_JSON`` names, when set —
archived by CI like the other benchmark artifacts; a local run writes
nothing.
"""

from __future__ import annotations

import os
import threading
import time

from repro.server import Server, ServerOverloadedError
from repro.session import Session
from repro.session.cache import PlanCache
from repro.workloads import PAPER_SQL, concurrent_mix_operations

from .conftest import archive_results, banner, make_scaled_database

SCALE = int(os.environ.get("SERVER_BENCH_SCALE", "12"))
OPS = int(os.environ.get("SERVER_BENCH_OPS", "30"))

MAX_CONCURRENCY = 4
CLIENT_COUNTS = (1, 4, 16)

#: Shared between the tests of this module and flushed to JSON at the end.
RESULTS: dict = {"scale": SCALE, "ops_per_client": OPS, "max_concurrency": MAX_CONCURRENCY}


def _drive_clients(server: Server, clients: int, ops: int) -> float:
    """Run the read-only mix from ``clients`` threads; return wall seconds."""
    errors: list = []
    barrier = threading.Barrier(clients + 1)

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
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not errors, errors[:3]
    return wall


def test_perf_server_throughput_by_concurrency():
    """qps and latency percentiles at 1, 4 and 16 concurrent clients."""
    print(banner(f"Perf-C — server throughput, scale {SCALE}, {OPS} ops/client"))
    by_clients: dict = {}
    for clients in CLIENT_COUNTS:
        database = make_scaled_database(SCALE)
        with Server(database, max_concurrency=MAX_CONCURRENCY, queue_limit=None) as server:
            wall = _drive_clients(server, clients, OPS)
            stats = server.stats()
        assert stats.completed == clients * OPS
        assert stats.failed == 0 and stats.rejected == 0 and stats.timed_out == 0
        assert 1 <= stats.peak_active_workers <= MAX_CONCURRENCY
        latency = stats.latency
        qps = stats.completed / wall
        by_clients[str(clients)] = {
            "clients": clients,
            "completed": stats.completed,
            "wall_seconds": wall,
            "qps": qps,
            "p50_seconds": latency.p50,
            "p95_seconds": latency.p95,
            "p99_seconds": latency.p99,
            "mean_seconds": latency.mean,
            "peak_active_workers": stats.peak_active_workers,
            "plan_cache_hit_rate": stats.plan_cache.hit_rate,
        }
        print(
            f"clients={clients:>2}  qps={qps:8.1f}  p50={latency.p50 * 1e3:7.2f}ms  "
            f"p99={latency.p99 * 1e3:7.2f}ms  peak_active={stats.peak_active_workers}  "
            f"cache_hit_rate={stats.plan_cache.hit_rate:.3f}"
        )
    RESULTS["throughput"] = by_clients
    # The mix repeats three statement shapes: after the cold optimizes the
    # shared cache serves virtually everything.
    assert by_clients["16"]["plan_cache_hit_rate"] > 0.9


def test_perf_shared_cache_second_session_speedup():
    """A second session's first execution of a cached statement plans ≥10×
    faster than the cold optimize — the shared cache's acceptance bar."""
    database = make_scaled_database(SCALE)
    shared = PlanCache(64)

    first_session = Session(database, cache=shared)
    cold = first_session.execute(PAPER_SQL)
    assert not cold.cache_hit

    second_session = Session(database, cache=shared)
    warm = second_session.execute(PAPER_SQL)
    assert warm.cache_hit, "second session must hit the shared cache cold"

    speedup = cold.timings.plan_seconds / max(warm.timings.plan_seconds, 1e-9)
    RESULTS["shared_cache"] = {
        "cold_plan_seconds": cold.timings.plan_seconds,
        "second_session_plan_seconds": warm.timings.plan_seconds,
        "speedup": speedup,
    }
    print(banner("Perf-C — shared plan cache across sessions"))
    print(
        f"cold optimize={cold.timings.plan_seconds * 1e3:.2f}ms  "
        f"second-session lookup={warm.timings.plan_seconds * 1e3:.2f}ms  "
        f"speedup={speedup:,.0f}x"
    )
    assert list(warm.relation.tuples) == list(cold.relation.tuples)
    assert speedup >= 10.0, (
        f"shared-cache speedup {speedup:.1f}x below the required 10x "
        f"(cold {cold.timings.plan_seconds:.6f}s, warm {warm.timings.plan_seconds:.6f}s)"
    )


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
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
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
    # Bounded p99: an accepted request waits behind at most queue_limit
    # predecessors on MAX_CONCURRENCY workers, so its latency is bounded by
    # a small multiple of the mean service time — 50× mean is generous slack
    # for scheduling jitter while still catching unbounded queueing.
    latency = stats.latency
    assert latency.p99 <= max(50 * latency.mean, 0.25), (
        f"p99 {latency.p99:.3f}s not bounded (mean {latency.mean:.3f}s)"
    )
    RESULTS["overload"] = {
        "clients": clients,
        "queue_limit": queue_limit,
        "wall_seconds": wall,
        "submitted": stats.submitted,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "p50_seconds": latency.p50,
        "p99_seconds": latency.p99,
        "mean_seconds": latency.mean,
        "peak_active_workers": stats.peak_active_workers,
    }
    print(banner("Perf-C — admission control under overload"))
    print(
        f"clients={clients} queue_limit={queue_limit}  submitted={stats.submitted}  "
        f"completed={stats.completed}  rejected={stats.rejected}  "
        f"p99={latency.p99 * 1e3:.2f}ms"
    )


def test_write_benchmark_json():
    """Check the module's measurements; archive them when ``SERVER_BENCH_JSON`` names a file."""
    assert "throughput" in RESULTS and "shared_cache" in RESULTS
    archive_results("SERVER_BENCH_JSON", RESULTS, "Perf-C")
