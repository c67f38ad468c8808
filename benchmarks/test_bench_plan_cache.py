"""Perf-S — the session plan cache on a repeated-query serving workload.

The acceptance experiment of the ``repro.session`` subsystem: a serving
workload that executes the same (parameterized) statements over and over
must stop optimizing once the plan cache is warm.  The cold round runs every
search there is, the warm rounds run none — a hit is lookup + bind +
execute.  What that saves in wall-clock time the performance ledger
measures: ``cold-plan`` clears the cache before every statement,
``warm-serve`` hits it every time.

A second experiment pins down correctness of invalidation: bumping the
statistics epoch (one ``insert``) provably discards the cached plans — the
next execution re-optimizes and sees the new rows.
"""

from __future__ import annotations

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
ROUNDS = 8


def _run_mix(session: Session) -> int:
    """Execute the mix once; the number of statements executed."""
    session.execute(PAPER_STATEMENT)
    session.execute(CHAINED_STATEMENT)
    for dept in DEPARTMENTS:
        session.execute(PARAMETERIZED_STATEMENT, params=(dept,))
    return 2 + len(DEPARTMENTS)


def test_perf_plan_cache_warm_rounds_run_no_search(planning_work):
    """The cold round searches once per statement shape, the warm rounds never."""
    session = Session(make_paper_database())
    _run_mix(session)  # every statement shape optimizes once
    assert planning_work["searches"] == 3
    warm = sum(_run_mix(session) for _ in range(ROUNDS))
    assert planning_work["searches"] == 3, "a warm round ran a search"

    info = session.cache_info()
    # 3 distinct statement shapes; everything after the cold round hits.
    assert info.misses == 3
    assert info.hits == warm + len(DEPARTMENTS) - 1

    print(banner("Perf-S — plan cache: cold vs. warm rounds"))
    print(f"{'searches':24} {planning_work['searches']:>6} (all in the cold round)")
    print(f"{'cache':24} {info.hits:>6} hits {info.misses:>4} misses")


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


def test_perf_plan_cache_warm_lookup_hits():
    """The warm path (lookup + bind + execute) serves the cached plan."""
    session = Session(make_paper_database())
    session.execute(PAPER_STATEMENT)

    result = session.execute(PAPER_STATEMENT)
    assert result.cache_hit
