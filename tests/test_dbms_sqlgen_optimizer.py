"""Tests for SQL generation and the DBMS's own optimizer."""

import pytest

from repro.core.exceptions import SQLGenerationError
from repro.core.expressions import Comparison, ComparisonOperator, attribute, count, equals
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    Union,
    UnionAll,
)
from repro.core.order_spec import OrderSpec
from repro.dbms.optimizer import CostGuidedConventionalOptimizer
from repro.dbms.sqlgen import to_sql
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation


def employee_scan():
    return BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)


def project_scan():
    return BaseRelation("PROJECT", PROJECT_SCHEMA)


class TestSQLGeneration:
    def test_scan(self):
        assert to_sql(employee_scan()) == "SELECT * FROM EMPLOYEE"

    def test_selection(self):
        sql = to_sql(Selection(equals("Dept", "Sales"), employee_scan()))
        assert "WHERE (Dept = 'Sales')" in sql

    def test_projection(self):
        sql = to_sql(Projection(["EmpName", "Dept"], employee_scan()))
        assert sql.startswith("SELECT EmpName, Dept FROM")

    def test_sort(self):
        sql = to_sql(Sort(OrderSpec.of("EmpName", "T1 DESC"), employee_scan()))
        assert sql.endswith("ORDER BY EmpName ASC, T1 DESC")

    def test_duplicate_elimination_on_snapshot_input(self):
        sql = to_sql(DuplicateElimination(Projection(["EmpName", "Dept"], employee_scan())))
        assert "SELECT DISTINCT *" in sql

    def test_duplicate_elimination_on_temporal_input_renames_time(self):
        sql = to_sql(DuplicateElimination(employee_scan()))
        assert '"1.T1"' in sql and '"1.T2"' in sql

    def test_aggregation(self):
        sql = to_sql(Aggregation(["Dept"], [count(alias="n")], employee_scan()))
        assert "GROUP BY Dept" in sql
        assert "COUNT(*) AS n" in sql

    def test_join(self):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        sql = to_sql(Join(predicate, employee_scan(), project_scan()))
        assert "JOIN" in sql and "ON" in sql

    def test_product_difference_union(self):
        assert "CROSS JOIN" in to_sql(CartesianProduct(employee_scan(), project_scan()))
        assert "EXCEPT ALL" in to_sql(
            Difference(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        )
        assert "UNION ALL" in to_sql(
            UnionAll(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        )

    def test_pretty_output_breaks_lines(self):
        sql = to_sql(Selection(equals("Dept", "Sales"), employee_scan()), pretty=True)
        assert "\n" in sql

    def test_temporal_operations_cannot_be_rendered(self):
        with pytest.raises(SQLGenerationError):
            to_sql(TemporalDuplicateElimination(employee_scan()))
        with pytest.raises(SQLGenerationError):
            to_sql(Coalescing(employee_scan()))

    def test_multiset_union_cannot_be_rendered(self):
        plan = Union(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        with pytest.raises(SQLGenerationError):
            to_sql(plan)

    def test_literal_relations_cannot_be_rendered(self):
        with pytest.raises(SQLGenerationError):
            to_sql(LiteralRelation(employee_relation()))


class TestCostGuidedOptimizerRewrites:
    """The rewrites the DBMS's own (cost-guided) search must find on a fragment."""

    def test_merges_projection_cascades(self):
        plan = Projection(["EmpName"], Projection(["EmpName", "Dept"], employee_scan()))
        optimized = CostGuidedConventionalOptimizer().optimize(plan)
        assert isinstance(optimized, Projection)
        assert isinstance(optimized.child, BaseRelation)

    def test_removes_redundant_duplicate_elimination(self):
        plan = DuplicateElimination(
            DuplicateElimination(Projection(["EmpName", "Dept"], employee_scan()))
        )
        optimized = CostGuidedConventionalOptimizer().optimize(plan)
        labels = [type(node).__name__ for _, node in optimized.locations()]
        assert labels.count("DuplicateElimination") == 1

    def test_collapses_redundant_sorts(self):
        plan = Sort(
            OrderSpec.ascending("EmpName", "T1"),
            Sort(OrderSpec.ascending("EmpName"), employee_scan()),
        )
        optimized = CostGuidedConventionalOptimizer().optimize(plan)
        labels = [type(node).__name__ for _, node in optimized.locations()]
        assert labels.count("Sort") == 1

    def test_its_result_is_a_fixpoint(self):
        plan = Selection(
            equals("Dept", "Sales"),
            Projection(["EmpName", "Dept"], Projection(["EmpName", "Dept", "T1", "T2"], employee_scan())),
        )
        optimizer = CostGuidedConventionalOptimizer()
        once = optimizer.optimize(plan)
        assert once != plan
        assert optimizer.optimize(once) == once

    def test_leaves_temporal_operations_untouched(self):
        plan = Coalescing(TemporalDuplicateElimination(employee_scan()))
        assert CostGuidedConventionalOptimizer().optimize(plan) == plan

    def test_custom_rule_set(self):
        optimizer = CostGuidedConventionalOptimizer(rules=[])
        plan = Selection(equals("Dept", "Sales"), Projection(["EmpName", "Dept"], employee_scan()))
        assert optimizer.search(plan).statistics.applications_attempted == 0
        assert optimizer.optimize(plan) == plan
