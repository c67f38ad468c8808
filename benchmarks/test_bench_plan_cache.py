"""Perf-S — the session plan cache on a repeated-query serving workload.

The acceptance experiment of the ``repro.session`` subsystem: a serving
workload that executes the same (parameterized) statements over and over
must spend dramatically less time on the optimize path once the plan cache
is warm.  The measurement isolates the planning stage
(``SessionResult.timings.plan_seconds``: cache lookup, plus — on a miss —
translation and the statement's memo search) from parsing and execution, and requires a ≥ 5×
mean speedup of warm over cold planning.  What the wall clock shows the
counts pin: the cold round runs every search there is, the warm rounds run
none — a hit is lookup + bind + execute.

A second experiment pins down correctness of invalidation: bumping the
statistics epoch (one ``insert``) provably discards the cached plans — the
next execution re-optimizes and sees the new rows.
"""

from __future__ import annotations

import statistics as pystats

from repro.search import MemoSearch
from repro.session import Session
from repro.workloads import CHAINED_SQL, POINT_SQL

from .conftest import PAPER_STATEMENT, banner, make_paper_database

#: The serving mix: the paper's motivating statement, a longer chained
#: variant, and a parameterized point query executed with rotating constants
#: (texts shared with the ``concurrent-mix`` workload in
#: :mod:`repro.workloads.queries`).
CHAINED_STATEMENT = CHAINED_SQL
PARAMETERIZED_STATEMENT = POINT_SQL
DEPARTMENTS = ("Sales", "Advertising", "Engineering", "Sales")

#: Acceptance threshold: warm (cached) planning must be at least this much
#: faster than cold planning on the mean.
REQUIRED_SPEEDUP = 5.0
ROUNDS = 8


def _run_mix(session: Session) -> list:
    timings = []
    timings.append(session.execute(PAPER_STATEMENT).timings.plan_seconds)
    timings.append(session.execute(CHAINED_STATEMENT).timings.plan_seconds)
    for dept in DEPARTMENTS:
        timings.append(
            session.execute(PARAMETERIZED_STATEMENT, params=(dept,)).timings.plan_seconds
        )
    return timings


def test_perf_plan_cache_repeated_workload_speedup(monkeypatch):
    """Warm optimize-path latency is ≥ 5× below cold on the repeated mix."""
    session = Session(make_paper_database())
    searches = []
    real_optimize = MemoSearch.optimize

    def optimize(self, plan, *args, **kwargs):
        searches.append(plan)
        return real_optimize(self, plan, *args, **kwargs)

    monkeypatch.setattr(MemoSearch, "optimize", optimize)

    cold = _run_mix(session)  # every statement optimizes once
    assert len(searches) == 3
    warm: list = []
    for _ in range(ROUNDS):
        warm.extend(_run_mix(session))
    assert len(searches) == 3, "a warm round ran a search"

    info = session.cache_info()
    # 3 distinct statement shapes; everything after the cold round hits.
    assert info.misses == 3
    assert info.hits == len(warm) + len(DEPARTMENTS) - 1

    cold_mean = pystats.mean(cold)
    warm_mean = pystats.mean(warm)
    speedup = cold_mean / warm_mean if warm_mean else float("inf")

    print(banner("Perf-S — plan cache: cold vs. warm optimize-path latency"))
    print(f"{'cold mean (s)':24} {cold_mean:>12.6f}")
    print(f"{'warm mean (s)':24} {warm_mean:>12.6f}")
    print(f"{'speedup':24} {speedup:>12.1f}x")
    print(f"{'cache':24} {info.hits:>6} hits {info.misses:>4} misses")

    assert speedup >= REQUIRED_SPEEDUP, (
        f"plan cache speedup {speedup:.1f}x below the required "
        f"{REQUIRED_SPEEDUP:.0f}x (cold {cold_mean:.6f}s, warm {warm_mean:.6f}s)"
    )


def test_perf_plan_cache_epoch_bump_invalidates():
    """A statistics-epoch bump discards cached plans (regression test)."""
    session = Session(make_paper_database())

    first = session.execute(PARAMETERIZED_STATEMENT, params=("Sales",))
    second = session.execute(PARAMETERIZED_STATEMENT, params=("Sales",))
    assert not first.cache_hit and second.cache_hit

    epoch_before = session.database.statistics_epoch()
    session.database.insert("EMPLOYEE", [("Cached", "Sales", 1, 4)])
    assert session.database.statistics_epoch() > epoch_before

    third = session.execute(PARAMETERIZED_STATEMENT, params=("Sales",))
    assert not third.cache_hit, "stale plan served after a statistics change"
    assert any(t["EmpName"] == "Cached" for t in third.relation.tuples)
    assert session.cache_info().invalidations >= 1
    # ... and re-planned by re-costing the memo the first execution explored:
    # 0 explorations after the bump.
    assert not first.optimization.search.statistics.exploration_reused
    assert third.optimization.search.statistics.exploration_reused
    assert third.phases["optimize"][2]["memo.exploration_reused"]
    assert session.cache_info().explorations_reused == 1

    # Steady state resumes at the new epoch.
    fourth = session.execute(PARAMETERIZED_STATEMENT, params=("Sales",))
    assert fourth.cache_hit


def test_perf_plan_cache_benchmark_lookup(benchmark):
    """pytest-benchmark timing of the warm path (lookup + bind + execute)."""
    session = Session(make_paper_database())
    session.execute(PAPER_STATEMENT)

    result = benchmark(session.execute, PAPER_STATEMENT)
    assert result.cache_hit
