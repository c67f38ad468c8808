"""Perf-F — what fault tolerance costs when nothing is failing.

The robustness layer threads a cancellation token and a resource guard
through every executor pull loop, and plants fault-injection points on the
hottest paths (parse, memo search, bind, both engines' tuple loops, catalog
append, the worker loop).  The design requirement mirrors observability's:
the **quiet** configuration — faults disarmed, cancellation enabled — pays
one branch per site (``FAULTS.active``, ``control.tick``) and nothing else.

* **cancellation-enabled serving** — the shared ``concurrent-mix`` workload
  driven through a :class:`~repro.server.server.Server` with
  ``cancellation=False`` (the exact pre-robustness serving path) and with
  the default ``cancellation=True``.  The enabled configuration must stay
  within ``FT_BENCH_TOLERANCE`` (default 5%) of the disabled wall clock —
  min-of-``FT_BENCH_REPEATS`` on both sides to shed scheduler noise;
* **guarded serving is bounded too** — generous per-request row/byte
  budgets (never tripped here) ride the same check sites, so they get the
  same budget: charging a quantum every check interval must not leave the
  cheap path.

``FT_BENCH_SCALE`` scales the stored relations, ``FT_BENCH_OPS`` the
per-client operation count.  The measurements land in the file
``FT_BENCH_JSON`` names (CI sets and archives it; unset, nothing is
written).  The wall-clock gate carries the ``timing_gate`` marker, which
``pytest.ini`` deselects by default: CI selects it, tier-1 does not.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.faults import FAULTS
from repro.options import ExecutionOptions
from repro.server import Server
from repro.workloads import concurrent_mix_operations

from .conftest import archive_results, banner, make_scaled_database

SCALE = int(os.environ.get("FT_BENCH_SCALE", "8"))
OPS = int(os.environ.get("FT_BENCH_OPS", "16"))
REPEATS = int(os.environ.get("FT_BENCH_REPEATS", "5"))
TOLERANCE = float(os.environ.get("FT_BENCH_TOLERANCE", "0.05"))

MAX_CONCURRENCY = 4
CLIENTS = 4

#: Wall-clock noise floor: differences below this many seconds are jitter,
#: not overhead, whatever the ratio says.
ABSOLUTE_SLACK_SECONDS = 0.010

RESULTS: dict = {
    "scale": SCALE,
    "ops_per_client": OPS,
    "repeats": REPEATS,
    "clients": CLIENTS,
    "max_concurrency": MAX_CONCURRENCY,
}


def _drive_mix(server: Server) -> float:
    """The concurrent-mix read workload from CLIENTS threads; wall seconds."""
    errors: list = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client(index: int) -> None:
        operations = concurrent_mix_operations(OPS, client=index)
        barrier.wait()
        for _, statement, params in operations:
            response = server.query(statement, params=params)
            if not response.ok:  # pragma: no cover - failure path
                errors.append(response.error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    assert not errors, errors[:3]
    return wall


def _measure(configs: list) -> list:
    """Min-of-REPEATS wall clock per configuration, rounds interleaved.

    Each round drives every configuration back to back, so machine-load
    drift across the run hits all configurations alike instead of biasing
    whichever block it lands on; min-of-rounds then sheds the noisy rounds.
    One server per configuration serves every round, so after the warmup
    the plan cache is warm and the measurement is the serving path —
    exactly where the cancellation checkpoints and fault gates sit.
    """
    servers = [
        (
            config,
            Server(
                make_scaled_database(SCALE),
                max_concurrency=MAX_CONCURRENCY,
                queue_limit=None,
                options=ExecutionOptions(**option_fields),
            ),
        )
        for config, option_fields in configs
    ]
    walls: dict = {config: [] for config, _ in servers}
    try:
        for _, server in servers:
            server.start()
            _drive_mix(server)  # warmup: fill the plan cache, settle the pool
        for _ in range(REPEATS):
            for config, server in servers:
                walls[config].append(_drive_mix(server))
        for config, server in servers:
            stats = server.stats()
            assert stats.failed == 0 and stats.rejected == 0
            assert stats.timed_out == 0 and stats.cancelled == 0
            assert stats.worker_crashes == 0
            assert stats.completed == CLIENTS * OPS * (REPEATS + 1), config
    finally:
        for _, server in servers:
            server.close()
    return [
        {
            "config": config,
            "wall_seconds_min": min(walls[config]),
            "wall_seconds_all": walls[config],
            "qps": CLIENTS * OPS * REPEATS / sum(walls[config]),
        }
        for config, _ in servers
    ]


@pytest.mark.timing_gate
def test_perf_quiet_fault_tolerance_is_free():
    """cancellation=False vs. the default: the quiet path costs ≤5%."""
    print(banner(f"Perf-F — fault-tolerance overhead, scale {SCALE}, {OPS} ops/client"))
    assert not FAULTS.active, "benchmark requires disarmed fault registry"
    baseline, cancellable, guarded = _measure(
        [
            ("baseline", {"cancellation": False}),
            ("cancellation", {}),
            (
                "guarded",
                {
                    "max_rows_per_request": 50_000_000,
                    "max_bytes_per_request": 50_000_000_000,
                },
            ),
        ]
    )

    base = baseline["wall_seconds_min"]
    for entry in (baseline, cancellable, guarded):
        entry["overhead"] = entry["wall_seconds_min"] / base - 1.0
        RESULTS[entry["config"]] = entry
        print(
            f"{entry['config']:>12}  wall={entry['wall_seconds_min'] * 1e3:8.2f}ms  "
            f"qps={entry['qps']:7.1f}  overhead={entry['overhead']:+7.1%}"
        )

    budget = base * (1.0 + TOLERANCE) + ABSOLUTE_SLACK_SECONDS
    assert cancellable["wall_seconds_min"] <= budget, (
        f"cancellation-enabled serving cost {cancellable['overhead']:+.1%} "
        f"(> {TOLERANCE:.0%} + {ABSOLUTE_SLACK_SECONDS * 1e3:.0f}ms slack) — "
        "deadline checkpoints must stay one branch per check interval"
    )
    assert guarded["wall_seconds_min"] <= budget, (
        f"guarded serving cost {guarded['overhead']:+.1%} "
        f"(> {TOLERANCE:.0%} + {ABSOLUTE_SLACK_SECONDS * 1e3:.0f}ms slack) — "
        "resource accounting must stay on the check-interval quantum"
    )


def test_perf_cancellation_still_works_at_benchmark_scale():
    """The measured configuration is the real thing: a deadline still bites."""
    database = make_scaled_database(SCALE)
    with Server(database, max_concurrency=MAX_CONCURRENCY) as server:
        with FAULTS.armed("dbms.scan", kind="latency", latency=5.0, times=4):
            started = time.perf_counter()
            response = server.query(
                "SELECT EmpName FROM EMPLOYEE ORDER BY EmpName", timeout=0.1
            )
            wall = time.perf_counter() - started
    assert response.status == "timed_out" and response.code == "TIMED_OUT"
    assert wall < 2.0, f"deadline took {wall:.2f}s to bite"
    RESULTS["deadline_bite_seconds"] = wall


def test_write_benchmark_json():
    """Flush the measurements (runs after the benchmarks within this module)."""
    archive_results("FT_BENCH_JSON", RESULTS, "Perf-F")
    assert "baseline" in RESULTS and "cancellation" in RESULTS
