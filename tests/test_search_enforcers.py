"""Tests for the output-property enforcers of the memo search."""

from repro.core.operations import (
    BaseRelation,
    Coalescing,
    DuplicateElimination,
    Projection,
    Sort,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.query import QueryResultSpec
from repro.search import ensure_output_properties, missing_output_enforcers
from repro.workloads import EMPLOYEE_SCHEMA, paper_query

ORDER = OrderSpec.ascending("EmpName")


def bare_body():
    """A body plan carrying none of the output operators."""
    return TransferToStratum(
        Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
    )


class TestMissingEnforcers:
    def test_bare_plan_needs_everything(self):
        query = QueryResultSpec(distinct=True, order_by=ORDER, coalesced=True)
        missing = missing_output_enforcers(bare_body(), query)
        assert missing == ["duplicate-elimination", "coalescing", "sort"]

    def test_multiset_query_needs_nothing(self):
        assert missing_output_enforcers(bare_body(), QueryResultSpec.multiset()) == []

    def test_front_end_seed_plan_needs_nothing(self):
        plan, spec = paper_query()
        assert missing_output_enforcers(plan, spec) == []

    def test_snapshot_body_gets_conventional_duplicate_elimination(self):
        snapshot = TransferToStratum(
            Projection(["EmpName"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        )
        enforced = ensure_output_properties(snapshot, QueryResultSpec.set())
        assert isinstance(enforced, DuplicateElimination)


class TestEnsureOutputProperties:
    def test_wraps_in_canonical_order(self):
        query = QueryResultSpec(distinct=True, order_by=ORDER, coalesced=True)
        enforced = ensure_output_properties(bare_body(), query)
        # sort outermost, coalescing below it, duplicate elimination innermost.
        assert isinstance(enforced, Sort)
        assert isinstance(enforced.child, Coalescing)
        assert isinstance(enforced.child.child, TemporalDuplicateElimination)

    def test_idempotent_on_enforced_plans(self):
        query = QueryResultSpec(distinct=True, order_by=ORDER, coalesced=True)
        once = ensure_output_properties(bare_body(), query)
        assert ensure_output_properties(once, query) == once

    def test_search_accepts_bare_seed_plans(self):
        from repro.core.applicability import results_acceptable
        from repro.core.operations.base import EvaluationContext
        from repro.search import MemoSearch
        from repro.workloads import employee_relation, project_relation

        query = QueryResultSpec(distinct=True, order_by=ORDER, coalesced=True)
        result = MemoSearch().optimize(bare_body(), query, {"EMPLOYEE": 5})
        context = EvaluationContext(
            {"EMPLOYEE": employee_relation(), "PROJECT": project_relation()}
        )
        reference = ensure_output_properties(bare_body(), query).evaluate(context)
        produced = result.best_plan.evaluate(context)
        assert results_acceptable(reference, produced, query)
