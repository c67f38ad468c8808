"""Chaos suite: ≥100 seeded fault scenarios against a live concurrent server.

One server survives the whole run.  Each scenario draws a fault (point,
kind, budget) from a seeded generator, arms it, drives a concurrent mix of
queries and appends from multiple client threads, disarms, and probes.
Four invariants hold across every scenario, whatever was injected:

* **never hangs** — every request is answered within a hard timeout;
* **never loses an update** — appends either land atomically (reporting a
  distinct epoch) or fail without a trace; the final table is exactly the
  base rows plus the successful batches, verified by serial epoch replay
  of sampled reads;
* **keeps serving** — a probe query succeeds after every scenario;
* **typed errors** — every non-ok response carries a stable error code,
  and every fault that actually fired surfaces as a failed response or a
  counted degradation.

``CHAOS_SEED`` selects the schedule (CI runs several); ``CHAOS_SCENARIOS``
scales the run length.  Given the same seed, the fault schedule replays
exactly.
"""

from __future__ import annotations

import os
import random
import threading
from functools import partial

from repro.core.equivalence import snapshot_set_equivalent
from repro.faults import FAULTS
from repro.server import Server
from repro.session import Session
from repro.stratum import TemporalDatabase
from repro.workloads import (
    concurrent_mix_operations,
    employee_relation,
    project_relation,
)

from .conftest import in_threads

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
SCENARIOS = int(os.environ.get("CHAOS_SCENARIOS", "100"))

CLIENTS = 2
OPS_PER_CLIENT = 6
APPEND_EVERY = 3
RESULT_TIMEOUT = 30.0  # "never hangs" is enforced by this, scenario by scenario
PROBE = "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?"

#: The fault menu one scenario draws from: (point, kind).  ``latency``
#: entries stall, the rest raise; ``catalog.append`` additionally exercises
#: the corrupt-and-detect path.
MENU = [
    ("tsql.parse", "error"),
    ("search.memo", "error"),
    # A stalled *leader*: the other client's identical statement waits on its
    # flight (or gives up on its own deadline) instead of searching too.
    ("search.memo", "latency"),
    ("session.bind", "error"),
    ("stratum.pull", "error"),
    ("stratum.pull", "latency"),
    ("dbms.scan", "error"),
    ("dbms.scan", "latency"),
    ("catalog.append", "error"),
    ("catalog.append", "corrupt"),
    ("server.worker", "error"),
]

#: Points whose error faults can be absorbed by graceful degradation
#: (memo falls back to the default plan; a failed pipelined region re-runs
#: through the reference evaluator, which may itself push scans down).
DEGRADABLE = {"search.memo", "stratum.pull", "dbms.scan"}


def make_database() -> TemporalDatabase:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


def _degraded_total(server: Server) -> float:
    counter = server.metrics.counter(
        "repro_degraded_total",
        "Requests that fell back to a degraded path, by stage.",
        labelnames=("stage",),
    )
    return sum(
        counter.labels(stage=stage).value()
        for stage in ("memo_search", "stratum_physical")
    )


def _drive_scenario(server: Server, scenario: int, timeout):
    """CLIENTS threads × OPS_PER_CLIENT mixed ops; returns answered records.

    Every other client makes its calls one after another; the others make
    all of theirs at once, one thread per call, so more requests arrive than
    there are slots and some wait in line for one.  Injected faults reach
    both.
    """
    records: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)
    calls = {"append": server.append, "query": server.query}

    def client(thread: int) -> None:
        # A unique client index per (scenario, thread) keeps every append
        # batch's row names globally unique — the lost-update bookkeeping
        # below depends on it.
        index = scenario * CLIENTS + thread + 1
        ops = concurrent_mix_operations(
            OPS_PER_CLIENT, client=index, append_every=APPEND_EVERY
        )
        barrier.wait()
        if thread % 2:
            responses = [
                calls[kind](target, payload, timeout=timeout) for kind, target, payload in ops
            ]
        else:
            responses = in_threads(
                *[
                    partial(calls[kind], target, payload, timeout=timeout)
                    for kind, target, payload in ops
                ],
                timeout=RESULT_TIMEOUT,
            )()
        with lock:
            records.extend(
                (kind, target, payload, response)
                for (kind, target, payload), response in zip(ops, responses)
            )

    threads = [threading.Thread(target=client, args=(t,)) for t in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=RESULT_TIMEOUT * 2)
        assert not thread.is_alive(), f"scenario {scenario}: client thread hung"
    return records


def _same_rows(left, right) -> bool:
    if sorted(tuple(t.values()) for t in left.tuples) == sorted(
        tuple(t.values()) for t in right.tuples
    ):
        return True
    try:
        return snapshot_set_equivalent(left, right)
    except Exception:
        return False


def test_chaos_schedule_survives_every_injected_fault():
    rng = random.Random(CHAOS_SEED)
    database = make_database()
    base_epoch = database.statistics_epoch()
    base_rows = database.table("EMPLOYEE").cardinality

    ok_batches: dict = {}  # epoch -> rows, successful appends only
    failed_batch_names: set = set()
    sampled_reads: list = []  # (statement, params, response) for epoch replay
    scenarios_run = 0

    server = Server(database, max_concurrency=4, queue_limit=None)
    with server:
        for scenario in range(SCENARIOS):
            point, kind = rng.choice(MENU)
            times = rng.choice([1, 2])
            timeout = None
            arm_kwargs = {"kind": kind, "times": times}
            if kind == "latency":
                if rng.random() < 0.5:
                    arm_kwargs["latency"] = 0.05  # a stall requests ride out
                else:
                    arm_kwargs["latency"] = 0.5  # a stall deadlines cut short
                    timeout = 0.1
            fired_before = FAULTS.fired(point)
            degraded_before = _degraded_total(server)

            with FAULTS.armed(point, **arm_kwargs):
                records = _drive_scenario(server, scenario, timeout)
                fired = FAULTS.fired(point) - fired_before
            scenarios_run += 1

            not_ok = 0
            for op_kind, target, payload, response in records:
                if response.ok:
                    if op_kind == "append":
                        assert response.epoch not in ok_batches, (
                            f"scenario {scenario}: two appends reported epoch "
                            f"{response.epoch}"
                        )
                        ok_batches[response.epoch] = payload
                    elif scenario % 9 == 0 and len(sampled_reads) < 24:
                        sampled_reads.append((target, payload, response))
                    continue
                not_ok += 1
                # -- typed errors: stable code + status, never a bare crash --
                assert response.status in ("error", "timed_out", "cancelled"), response
                assert isinstance(response.code, str) and response.code, (
                    f"scenario {scenario} ({point}/{kind}): untyped failure "
                    f"{response.status} {response.error!r}"
                )
                if op_kind == "append":
                    for row in payload:
                        failed_batch_names.add(row[0])

            # -- accounting: every firing surfaced somewhere ----------------
            degraded_delta = _degraded_total(server) - degraded_before
            if kind in ("error", "corrupt") and fired:
                if point in DEGRADABLE:
                    # One failed request can absorb up to ``times`` firings:
                    # firing #1 degrades a pipelined region, firing #2 kills
                    # the reference re-execution — the request fails and its
                    # degradation is never recorded.  Every firing must still
                    # be attributable to a failure or a counted degradation.
                    assert not_ok + degraded_delta >= 1, (
                        f"scenario {scenario}: {fired} × {point}/{kind} fired "
                        "with no failure and no degradation"
                    )
                    assert times * not_ok + degraded_delta >= fired, (
                        f"scenario {scenario}: {fired} × {point}/{kind} fired, "
                        f"only {not_ok} failures + {degraded_delta} degradations"
                    )
                else:
                    assert not_ok >= fired, (
                        f"scenario {scenario}: {fired} × {point}/{kind} fired "
                        f"but only {not_ok} requests failed"
                    )

            # -- keeps serving: a clean probe succeeds after every scenario --
            probe = server.query(PROBE, params=("Sales",))
            assert probe.ok, (
                f"scenario {scenario} ({point}/{kind}): probe failed with "
                f"{probe.code}: {probe.error}"
            )

        final_stats = server.stats()

    assert scenarios_run == SCENARIOS
    # -- the books balance: every admitted request was answered -------------
    assert (
        final_stats.completed
        + final_stats.failed
        + final_stats.timed_out
        + final_stats.cancelled
        == final_stats.submitted
    ), final_stats
    assert final_stats.rejected == 0 and final_stats.worker_crashes == 0

    # -- no lost updates ----------------------------------------------------
    appended = sum(len(rows) for rows in ok_batches.values())
    assert database.table("EMPLOYEE").cardinality == base_rows + appended
    assert sorted(ok_batches) == list(
        range(base_epoch + 1, base_epoch + len(ok_batches) + 1)
    ), "successful appends did not form a gap-free epoch sequence"
    final_names = {t["EmpName"] for t in database.table("EMPLOYEE").tuples}
    for rows in ok_batches.values():
        for row in rows:
            assert row[0] in final_names, f"update lost: {row[0]}"
    ok_names = {row[0] for rows in ok_batches.values() for row in rows}
    for name in failed_batch_names - ok_names:
        assert name not in final_names, f"failed append leaked rows: {name}"

    # -- epoch replay: sampled reads equal the serial state they pinned -----
    assert sampled_reads, "sampling never caught a successful read"
    replayed: dict = {}
    for statement, params, response in sampled_reads:
        epoch = response.epoch
        if epoch not in replayed:
            serial_db = make_database()
            for append_epoch in range(base_epoch + 1, epoch + 1):
                serial_db.insert("EMPLOYEE", ok_batches[append_epoch])
            replayed[epoch] = Session(serial_db)
        serial = replayed[epoch].execute(statement, params=params)
        assert _same_rows(response.relation, serial.relation), (
            f"read at epoch {epoch} diverged from serial replay for "
            f"{statement!r} {params!r}"
        )
