"""Tests for the DBMS's cost-guided fragment optimizer."""

from repro.core.expressions import AttributeRef, Comparison, ComparisonOperator, Literal
from repro.core.operations import BaseRelation, Projection, Selection, Sort
from repro.core.order_spec import OrderSpec
from repro.dbms.optimizer import CostGuidedConventionalOptimizer
from repro.workloads import EMPLOYEE_SCHEMA


def predicate(value="Sales"):
    return Comparison(ComparisonOperator.EQ, AttributeRef("Dept"), Literal(value))


class TestCostGuidedConventionalOptimizer:
    def test_pushes_selection_below_projection(self):
        optimizer = CostGuidedConventionalOptimizer()
        plan = Selection(
            predicate(),
            Projection(["EmpName", "Dept", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
        )
        optimized = optimizer.optimize(plan)
        assert isinstance(optimized, Projection)
        assert isinstance(optimized.child, Selection)

    def test_preserves_the_delivered_order(self):
        optimizer = CostGuidedConventionalOptimizer()
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Selection(predicate(), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
        )
        optimized = optimizer.optimize(plan)
        # The fragment's result is ordered; the sort must survive (S2 is the
        # stratum's call, not the DBMS's).
        assert any(isinstance(node, Sort) for node in optimized.nodes())
