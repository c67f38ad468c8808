"""Perf-F — fault tolerance on the serving path.

The robustness layer threads a cancellation token and a resource guard
through every executor pull loop, and plants fault-injection points on the
hottest paths (parse, memo search, bind, both engines' tuple loops, catalog
append, the worker loop).  The design requirement mirrors observability's:
the **quiet** configuration — faults disarmed, cancellation enabled — pays
one branch per site (``FAULTS.active``, ``control.tick``) and nothing else.
What that costs in wall-clock time is for the performance ledger to measure,
which has no fault-overhead metric yet.

This file pins what needs no clock comparison: the serving configuration is
the real thing, a deadline still bites at serving scale.
"""

from __future__ import annotations

import time

from repro.faults import FAULTS
from repro.server import Server

from .conftest import make_scaled_database

SCALE = 8
MAX_CONCURRENCY = 4


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
