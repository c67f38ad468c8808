"""Memo search vs. exhaustive enumeration: the oracle agreement tests.

For every workload query small enough to enumerate exhaustively, the memo
search must find exactly the minimum cost over the full enumerated plan
space — pruning and structure sharing may never lose the optimum.  The
chosen plans are additionally executed and checked against Definition 5.1.
"""

import pytest

from repro.core.applicability import results_acceptable
from repro.core.cost import choose_best_plan, estimate_cost
from repro.core.enumeration import enumerate_plans
from repro.core.operations import BaseRelation
from repro.core.operations.base import EvaluationContext
from repro.search import MemoSearch
from repro.stats import CardinalityEstimator
from repro.workloads import (
    employee_relation,
    fully_enumerable_queries,
    project_relation,
    skewed_paper_workload,
)

STATISTICS = {"EMPLOYEE": 5, "PROJECT": 8}

QUERIES = fully_enumerable_queries()

#: The registry queries whose exhaustive plan space fans out (≥ 100 plans) —
#: the only ones where structure sharing can show as fewer plans considered.
FANNED_OUT = (
    "paper", "paper-multiset", "paper-set", "double-elimination",
    "join-cascade", "chain-2", "chain-4",
)


def over(queries):
    return pytest.mark.parametrize("named", queries, ids=[query.name for query in queries])


#: A skewed instance for the histogram-backed agreement variant: selectivity
#: and overlap estimates differ sharply from the fixed constants here, so a
#: pruning bug that only bites under data-driven costs would surface.
_SKEWED_EMPLOYEES, _SKEWED_PROJECTS = skewed_paper_workload(12)
SKEWED_RELATIONS = {"EMPLOYEE": _SKEWED_EMPLOYEES, "PROJECT": _SKEWED_PROJECTS}
SKEWED_STATISTICS = {name: len(relation) for name, relation in SKEWED_RELATIONS.items()}
ESTIMATOR = CardinalityEstimator.from_relations(SKEWED_RELATIONS)


class TestAgreementWithExhaustiveEnumeration:
    @over(QUERIES)
    def test_best_cost_matches_exhaustive_minimum(self, named):
        plan, spec = named.build()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        assert not enumeration.statistics.truncated, "query is not fully enumerable"
        _, exhaustive_cost = choose_best_plan(enumeration.plans, STATISTICS)
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        assert result.best_cost.total == pytest.approx(exhaustive_cost.total, rel=1e-12)

    @over(QUERIES)
    def test_best_plan_is_in_the_exhaustive_closure(self, named):
        plan, spec = named.build()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        # O(1) membership thanks to the signature index of EnumerationResult.
        assert result.best_plan in enumeration

    @over(QUERIES)
    def test_chosen_plan_satisfies_definition_51(self, named):
        plan, spec = named.build()
        context = EvaluationContext(
            {"EMPLOYEE": employee_relation(), "PROJECT": project_relation()}
        )
        reference = plan.evaluate(context)
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        produced = result.best_plan.evaluate(context)
        assert results_acceptable(reference, produced, spec), result.best_plan.pretty()

    @over(QUERIES)
    def test_reported_cost_is_the_plans_estimated_cost(self, named):
        plan, spec = named.build()
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        recomputed = estimate_cost(result.best_plan, STATISTICS)
        assert result.best_cost.total == pytest.approx(recomputed.total)

    @over([query for query in QUERIES if query.name in FANNED_OUT])
    def test_memo_considers_fewer_plans_than_exhaustive_generates(self, named):
        plan, spec = named.build()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        assert len(enumeration) >= 100
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        assert result.statistics.plans_considered < len(enumeration)

    def test_only_the_fanned_out_queries_have_100_plans_to_share(self):
        """Keeps :data:`FANNED_OUT` honest: sharing cannot pay off below that."""
        assert set(FANNED_OUT) <= {query.name for query in QUERIES}
        for query in QUERIES:
            if query.name not in FANNED_OUT:
                assert len(enumerate_plans(*query.build(), max_plans=60000)) < 100, query.name


@pytest.mark.parametrize("named", QUERIES, ids=[query.name for query in QUERIES])
class TestAgreementWithHistogramEstimates:
    """The agreement oracle re-run under data-driven (histogram) costs.

    The memo search's pruning must stay exact when the per-operator
    cardinalities come from the :mod:`repro.stats` estimator instead of the
    fixed constants — the estimator's estimates are monotone in the input
    cardinalities precisely so the branch-and-bound lower bounds stay
    admissible; this suite is the regression net for that contract.
    """

    def test_best_cost_matches_exhaustive_minimum(self, named):
        plan, spec = named.build()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        assert not enumeration.statistics.truncated, "query is not fully enumerable"
        _, exhaustive_cost = choose_best_plan(
            enumeration.plans, SKEWED_STATISTICS, estimator=ESTIMATOR
        )
        result = MemoSearch().optimize(plan, spec, SKEWED_STATISTICS, estimator=ESTIMATOR)
        assert result.best_cost.total == pytest.approx(exhaustive_cost.total, rel=1e-12)

    def test_chosen_plan_satisfies_definition_51(self, named):
        plan, spec = named.build()
        context = EvaluationContext(SKEWED_RELATIONS)
        reference = plan.evaluate(context)
        result = MemoSearch().optimize(plan, spec, SKEWED_STATISTICS, estimator=ESTIMATOR)
        produced = result.best_plan.evaluate(context)
        assert results_acceptable(reference, produced, spec), result.best_plan.pretty()

    def test_every_table_is_profiled(self, named):
        plan, _ = named.build()
        for node in plan.nodes():
            if isinstance(node, BaseRelation):
                assert ESTIMATOR.base_cardinality(node.relation_name) is not None
