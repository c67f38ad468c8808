"""Perf-C — end-to-end latency: initial plan vs. optimized plan (extension benchmark).

Runs the motivating query class on a scaled EMPLOYEE/PROJECT workload in two
configurations: (a) the initial plan executed as-is, i.e. entirely inside the
conventional DBMS with the temporal operations emulated, and (b) the plan
chosen by the optimizer, with the temporal work in the stratum.  The paper's
qualitative claim — the layered architecture pays off because the stratum
processes the temporal operations efficiently — shows up as the gap between
the two measurements.
"""

import pytest

from repro.core.applicability import results_acceptable
from repro.search import MemoSearch, SearchOptions

from .conftest import PAPER_STATEMENT, banner, make_scaled_database

SCALE = 60  # 300 EMPLOYEE tuples, 480 PROJECT tuples


def run_unoptimized():
    database = make_scaled_database(SCALE, MemoSearch(rules=[]))
    return database.execute(PAPER_STATEMENT)


def run_optimized():
    database = make_scaled_database(SCALE, MemoSearch(options=SearchOptions(max_expressions=300)))
    return database.execute(PAPER_STATEMENT)


def test_perf_end_to_end_initial_plan(benchmark):
    outcome = benchmark(run_unoptimized)
    # The whole query ran in the DBMS: every temporal operation was emulated.
    assert outcome.report.dbms_emulated_operations
    assert outcome.relation.cardinality > 0


def test_perf_end_to_end_optimized_plan(benchmark):
    outcome = benchmark(run_optimized)
    # The optimizer moved the temporal work into the stratum.
    assert outcome.report.dbms_emulated_operations == []
    assert outcome.relation.cardinality > 0


def test_perf_end_to_end_results_agree(benchmark):
    def compare():
        unoptimized = run_unoptimized()
        optimized = run_optimized()
        return unoptimized, optimized

    unoptimized, optimized = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert results_acceptable(
        unoptimized.relation, optimized.relation, optimized.query_spec
    )
    print(banner("Perf-C — end-to-end: initial vs. optimized plan"))
    print(f"workload: EMPLOYEE={SCALE * 5} tuples, PROJECT={SCALE * 8} tuples")
    print(f"result cardinality: {optimized.relation.cardinality}")
    print(
        "estimated cost: "
        f"initial={optimized.optimization.initial_cost.total:,.1f} "
        f"chosen={optimized.optimization.chosen_cost.total:,.1f} "
        f"({optimized.optimization.improvement_factor:.2f}x)"
    )
    print(
        "emulated temporal operations in the DBMS: "
        f"initial plan={len(unoptimized.report.dbms_emulated_operations)}, "
        f"optimized plan={len(optimized.report.dbms_emulated_operations)}"
    )
