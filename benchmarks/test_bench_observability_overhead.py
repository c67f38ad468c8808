"""Perf-O — what observability costs, and what *disabled* observability costs.

The tracing hooks sit on the hottest paths in the system (every span site in
the session, every stratum operator pull loop, every DBMS fragment), so the
design requirement is that the **disabled** configuration pays one branch per
site and nothing else.  Two experiments pin that:

* **disabled == absent** — the shared ``concurrent-mix`` workload driven
  through a :class:`~repro.server.server.Server` three ways: no tracer at
  all (the pre-observability serving path), a constructed-but-disabled
  ``Tracer(enabled=False)`` (the one-branch path), and a fully enabled
  tracer sampling every request.  The disabled configuration must stay
  within ``OBS_BENCH_TOLERANCE`` (default 5%) of the no-tracer wall clock —
  min-of-``OBS_BENCH_REPEATS`` on both sides to shed scheduler noise;
* **enabled is bounded** — full tracing (per-request spans, per-operator
  wall clocks on every stratum pull loop and DBMS fragment) may cost real
  time, but it must stay within ``OBS_BENCH_ENABLED_CAP`` (default 75%) of
  the baseline, or the sampling story ("trace 1-in-N in production") stops
  making sense.

``OBS_BENCH_SCALE`` scales the stored relations, ``OBS_BENCH_OPS`` the
per-client operation count.  The measurements land in the file
``OBS_BENCH_JSON`` names (CI sets and archives it; unset, nothing is
written).  The wall-clock gate carries the ``timing_gate`` marker, which
``pytest.ini`` deselects by default: CI selects it, tier-1 does not.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.obs import Tracer
from repro.options import ExecutionOptions
from repro.server import Server
from repro.workloads import concurrent_mix_operations

from .conftest import archive_results, banner, make_scaled_database

SCALE = int(os.environ.get("OBS_BENCH_SCALE", "8"))
OPS = int(os.environ.get("OBS_BENCH_OPS", "16"))
REPEATS = int(os.environ.get("OBS_BENCH_REPEATS", "3"))
TOLERANCE = float(os.environ.get("OBS_BENCH_TOLERANCE", "0.05"))
ENABLED_CAP = float(os.environ.get("OBS_BENCH_ENABLED_CAP", "0.75"))

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


def _measure(config: str, **option_fields) -> dict:
    """Min-of-REPEATS wall clock for one server configuration.

    One database and server serve all repeats, so after the first repeat the
    plan cache is warm and the measurement is the serving path — exactly
    where the observability hooks sit.
    """
    database = make_scaled_database(SCALE)
    walls: list = []
    with Server(
        database,
        max_concurrency=MAX_CONCURRENCY,
        queue_limit=None,
        options=ExecutionOptions(**option_fields),
    ) as server:
        for _ in range(REPEATS):
            walls.append(_drive_mix(server))
        stats = server.stats()
    assert stats.failed == 0 and stats.rejected == 0 and stats.timed_out == 0
    assert stats.completed == CLIENTS * OPS * REPEATS
    best = min(walls)
    return {
        "config": config,
        "wall_seconds_min": best,
        "wall_seconds_all": walls,
        "qps": stats.completed / sum(walls),
    }


@pytest.mark.timing_gate
def test_perf_disabled_observability_is_free():
    """tracer=None vs. Tracer(enabled=False): the one-branch path costs ≤5%."""
    print(banner(f"Perf-O — observability overhead, scale {SCALE}, {OPS} ops/client"))
    absent = _measure("absent")
    disabled = _measure("disabled", tracer=Tracer(enabled=False))
    enabled = _measure("enabled", tracer=Tracer())
    sampled = _measure("sampled-16", tracer=Tracer(sample_every=16))

    base = absent["wall_seconds_min"]
    for entry in (absent, disabled, enabled, sampled):
        entry["overhead"] = entry["wall_seconds_min"] / base - 1.0
        RESULTS[entry["config"]] = entry
        print(
            f"{entry['config']:>11}  wall={entry['wall_seconds_min'] * 1e3:8.2f}ms  "
            f"qps={entry['qps']:7.1f}  overhead={entry['overhead']:+7.1%}"
        )

    budget = base * (1.0 + TOLERANCE) + ABSOLUTE_SLACK_SECONDS
    assert disabled["wall_seconds_min"] <= budget, (
        f"disabled observability cost {disabled['overhead']:+.1%} "
        f"(> {TOLERANCE:.0%} + {ABSOLUTE_SLACK_SECONDS * 1e3:.0f}ms slack) — "
        "the no-op path must stay one branch per span site"
    )
    cap = base * (1.0 + ENABLED_CAP) + ABSOLUTE_SLACK_SECONDS
    assert enabled["wall_seconds_min"] <= cap, (
        f"full tracing cost {enabled['overhead']:+.1%} (> {ENABLED_CAP:.0%}) — "
        "per-operator timing has left the cheap path"
    )
    # A sampled tracer must not cost what a full tracer does on the
    # requests it skips.
    assert sampled["wall_seconds_min"] <= cap


def test_perf_traces_actually_recorded_under_load():
    """The enabled run keeps real traces: spans, operator children, ring cap."""
    tracer = Tracer(keep=8)
    database = make_scaled_database(SCALE)
    with Server(
        database,
        max_concurrency=MAX_CONCURRENCY,
        queue_limit=None,
        options=ExecutionOptions(tracer=tracer),
    ) as server:
        _drive_mix(server)
    recent = tracer.recent()
    assert len(recent) == 8  # ring holds the last N of CLIENTS * OPS requests
    for trace in recent:
        names = [span.name for span in trace.root.children]
        assert "parse" in names and "execute" in names
    RESULTS["trace_ring"] = {"kept": len(recent)}


def test_write_benchmark_json():
    """Flush the measurements (runs after the benchmarks within this module)."""
    archive_results("OBS_BENCH_JSON", RESULTS, "Perf-O")
    assert "absent" in RESULTS and "disabled" in RESULTS and "enabled" in RESULTS
