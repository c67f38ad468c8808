"""Figure 2 — initial and optimized algebraic expressions for the motivating query.

Figure 2(a) is the straightforward mapping of the user query (everything
computed in the DBMS, a single transfer at the top); Figure 2(b) is an
optimized tree in which the transfer has been pushed down so the stratum
performs temporal duplicate elimination, coalescing and the temporal
difference.  This benchmark regenerates both: the initial plan from the front
end and the cost-chosen plan from the enumeration, asserts the structural
properties the paper highlights, and times the optimization step.
"""

from repro.core.operations import (
    Coalescing,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.stratum.partition import DBMS, STRATUM, partition_plan

from .conftest import PAPER_STATEMENT, banner, make_paper_database


def optimize_paper_query():
    database = make_paper_database()
    initial_plan, spec = database.parse(PAPER_STATEMENT)
    outcome = database.optimize_plan(initial_plan, spec)
    return initial_plan, outcome


def test_figure2a_initial_plan_shape(benchmark):
    database = make_paper_database()
    initial_plan, spec = benchmark(database.parse, PAPER_STATEMENT)
    # TS(sort(coalT(rdupT(rdupT(π(EMPLOYEE)) \T π(PROJECT)))))
    assert isinstance(initial_plan, TransferToStratum)
    assert isinstance(initial_plan.child, Sort)
    assert isinstance(initial_plan.child.child, Coalescing)
    outer_dedup = initial_plan.child.child.child
    assert isinstance(outer_dedup, TemporalDuplicateElimination)
    difference = outer_dedup.child
    assert isinstance(difference, TemporalDifference)
    assert isinstance(difference.left, TemporalDuplicateElimination)
    # Everything below the root transfer is initially assigned to the DBMS.
    partition = partition_plan(initial_plan)
    counts = partition.operator_counts()
    assert counts[DBMS] == initial_plan.size() - 1
    print(banner("Figure 2(a) — initial algebraic expression"))
    print(initial_plan.pretty())


def test_figure2b_optimized_plan_shape(benchmark):
    initial_plan, outcome = benchmark(optimize_paper_query)
    chosen = outcome.chosen_plan
    partition = partition_plan(chosen)
    counts = partition.operator_counts()
    # The optimized plan splits the work: the stratum now performs the
    # temporal operations itself instead of asking the DBMS to emulate them.
    assert counts[STRATUM] > 1
    assert counts[DBMS] >= 2  # at least the base-table projections
    for path, node in chosen.locations():
        if node.is_temporal_operator or isinstance(node, Coalescing):
            assert partition.engine_of(path) == STRATUM
    # The redundant outer rdupT of the initial plan has been eliminated.
    rdupt_count = sum(
        1 for _, node in chosen.locations() if isinstance(node, TemporalDuplicateElimination)
    )
    assert rdupt_count == 1
    # And the optimizer judges the rewritten plan cheaper.
    assert outcome.chosen_cost.total < outcome.initial_cost.total
    print(banner("Figure 2(b) — optimized algebraic expression (cost-chosen)"))
    # The same statement's EXPLAIN: each operator's engine, the chosen and
    # initial costs and the optimizer's counters.
    print(make_paper_database().explain(PAPER_STATEMENT))
