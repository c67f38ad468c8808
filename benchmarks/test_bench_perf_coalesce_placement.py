"""Perf-B — coalescing before vs. after the temporal difference (rule C10 payoff).

The running example performs coalescing *before* the temporal difference
"because the left argument to the temporal difference is expected to be
smaller than the result of the temporal difference" (Section 2.1).  Rule C10
is what licenses that move.  This benchmark measures both placements on an
adjacency-heavy workload, where coalescing shrinks the left argument
substantially, and reports the intermediate cardinalities driving the effect.
"""

from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor
from repro.workloads import WorkloadParameters, generate_employees, generate_projects

from .conftest import banner
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    Projection,
    TemporalDifference,
    TemporalDuplicateElimination,
)
from repro.core.operations.base import EvaluationContext

CONTEXT = EvaluationContext()

EMPLOYEES = generate_employees(
    WorkloadParameters(tuples=3000, entities=150, adjacency_ratio=0.55, overlap_ratio=0.1, seed=41)
)
PROJECTS = generate_projects(
    WorkloadParameters(tuples=3000, entities=150, adjacency_ratio=0.1, overlap_ratio=0.05, seed=42)
)


def in_stratum(plan):
    """``plan`` as the stratum runs it: one region of batch operators."""
    return StratumExecutor(ConventionalDBMS()).execute(plan)


LEFT = LiteralRelation(
    in_stratum(
        TemporalDuplicateElimination(Projection(["EmpName", "T1", "T2"], LiteralRelation(EMPLOYEES)))
    )
)
RIGHT = LiteralRelation(
    Projection(["EmpName", "T1", "T2"], LiteralRelation(PROJECTS)).evaluate(CONTEXT)
)


def coalesce_after_difference():
    """coalT(L \\T R) — the initial plan's shape."""
    return in_stratum(Coalescing(TemporalDifference(LEFT, RIGHT)))


def coalesce_before_difference():
    """coalT(L) \\T coalT(R) — the C10-rewritten shape."""
    return in_stratum(TemporalDifference(Coalescing(LEFT), Coalescing(RIGHT)))


def test_perf_coalesce_after_difference(benchmark):
    result = benchmark(coalesce_after_difference)
    assert result.cardinality > 0


def test_perf_coalesce_before_difference(benchmark):
    result = benchmark(coalesce_before_difference)
    assert result.cardinality > 0


def test_perf_coalesce_placement_cardinalities(benchmark):
    def measure():
        coalesced_left = in_stratum(Coalescing(LEFT))
        difference = in_stratum(TemporalDifference(LEFT, RIGHT))
        return coalesced_left, difference

    coalesced_left, difference = benchmark(measure)
    print(banner("Perf-B — coalescing before vs. after the temporal difference"))
    print(f"left argument (rdupT'd):                {LEFT.relation.cardinality:>6} tuples")
    print(f"left argument after coalescing:         {coalesced_left.cardinality:>6} tuples")
    print(f"difference result (uncoalesced input):  {difference.cardinality:>6} tuples")
    # The C10 rewrite pays off exactly when coalescing shrinks its input — the
    # adjacency-heavy workload guarantees it does.
    assert coalesced_left.cardinality < LEFT.relation.cardinality
    # Both placements produce snapshot-equivalent answers (checked at scale in
    # the unit tests; here we only confirm the multisets are comparable sizes).
    after = coalesce_after_difference()
    before = coalesce_before_difference()
    assert abs(after.cardinality - before.cardinality) <= after.cardinality
