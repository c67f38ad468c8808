"""Perf-E — memo-based cost-guided search vs. exhaustive enumeration.

The acceptance experiment of the ``repro.search`` subsystem: on the chained
set-operation workload at a size where the exhaustive enumerator truncates
(``chained_query(6)`` at ``max_plans=1500``), the memo search must find a
plan of equal or lower estimated cost while considering strictly fewer
plans.  The smaller sizes record how the gap between the two strategies
grows with the query.
"""

from repro.core.cost import choose_best_plan
from repro.core.enumeration import enumerate_plans
from repro.search import MemoSearch
from repro.workloads import PAPER_SQL, chained_query

from .conftest import banner, make_paper_database

MAX_PLANS = 1500
STATISTICS = {"EMPLOYEE": 5, "PROJECT": 8}


def exhaustive_best(operations: int):
    plan, spec = chained_query(operations)
    enumeration = enumerate_plans(plan, spec, max_plans=MAX_PLANS)
    _, cost = choose_best_plan(enumeration.plans, STATISTICS)
    return enumeration, cost


def memo_best(operations: int):
    plan, spec = chained_query(operations)
    return MemoSearch().optimize(plan, spec, STATISTICS)


def test_memo_search_attempts_only_type_compatible_rules():
    """Count-based, no clock: the paper query stays under 1 000 rule applications.

    Before rules declared their root operator the search attempted 8 456
    (all 56 rules at every binding); with the rule index it attempts ~500.
    """
    plan, spec = make_paper_database().parse(PAPER_SQL)
    statistics = MemoSearch().optimize(plan, spec, STATISTICS).statistics
    assert statistics.applications_attempted <= 1000
    assert (statistics.groups, statistics.expressions, statistics.sweeps) == (26, 55, 4)


def test_perf_memo_search_three_set_operations(benchmark):
    result = benchmark(memo_best, 3)
    assert not result.statistics.truncated


def test_perf_memo_search_six_set_operations(benchmark):
    result = benchmark(memo_best, 6)
    assert not result.statistics.truncated


def test_perf_memo_matches_exhaustive_where_it_truncates(benchmark):
    """The acceptance criterion: chained_query(6), DEFAULT_RULES, max_plans=1500."""
    enumeration, exhaustive_cost = exhaustive_best(6)
    assert enumeration.statistics.truncated, "raise the size if enumeration stops truncating"

    result = benchmark.pedantic(memo_best, args=(6,), rounds=1, iterations=1)
    memo_statistics = result.statistics
    exhaustive_statistics = enumeration.statistics

    print(banner("Perf-E — memo search vs. truncated exhaustive enumeration (6 set ops)"))
    print(f"{'':24} {'exhaustive':>12} {'memo':>12}")
    print(f"{'best cost':24} {exhaustive_cost.total:>12.2f} {result.best_cost.total:>12.2f}")
    print(
        f"{'plans considered':24} {exhaustive_statistics.plans_considered:>12} "
        f"{memo_statistics.plans_considered:>12}"
    )
    print(
        f"{'plans generated':24} {exhaustive_statistics.plans_generated:>12} "
        f"{memo_statistics.expressions:>12}"
    )
    print(
        f"{'truncated':24} {str(exhaustive_statistics.truncated):>12} "
        f"{str(memo_statistics.truncated):>12}"
    )

    assert result.best_cost.total <= exhaustive_cost.total
    assert memo_statistics.plans_considered < exhaustive_statistics.plans_considered


def test_perf_memo_scaling_report(benchmark):
    def sweep():
        rows = []
        for operations in (2, 4, 6, 8):
            enumeration, exhaustive_cost = exhaustive_best(operations)
            result = memo_best(operations)
            rows.append(
                (
                    operations,
                    len(enumeration),
                    enumeration.statistics.truncated,
                    exhaustive_cost.total,
                    result.statistics.plans_considered,
                    result.best_cost.total,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(banner("Perf-E — plan-space growth: exhaustive vs. memo"))
    print(
        f"{'set ops':<8} {'exh plans':<10} {'truncated':<10} {'exh cost':<12} "
        f"{'memo considered':<16} {'memo cost':<12}"
    )
    for operations, plans, truncated, exhaustive_cost, considered, memo_cost in rows:
        print(
            f"{operations:<8} {plans:<10} {str(truncated):<10} {exhaustive_cost:<12.2f} "
            f"{considered:<16} {memo_cost:<12.2f}"
        )
    for _, plans, _, exhaustive_cost, considered, memo_cost in rows:
        assert memo_cost <= exhaustive_cost + 1e-9
    # The memo's footprint grows far slower than the exhaustive plan space.
    assert rows[-1][4] < rows[-1][1]
