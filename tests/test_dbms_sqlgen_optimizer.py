"""Tests for SQL generation and for the rewrites a DBMS fragment gets.

The DBMS has no search of its own: the statement's search explores below
every ``TS`` with the DBMS's multiset-safe rules, so the rewrites a DBMS
would make to a fragment are checked there, on ``TS(fragment)``.
"""

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
    TransferToStratum,
    Union,
    UnionAll,
)
from repro.core.order_spec import OrderSpec
from repro.core.query import QueryResultSpec
from repro.dbms.sqlgen import to_sql
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation

from .test_stratum_layer import fragment_specification


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


def chosen_for_fragment(database, fragment):
    """The statement search's plan for ``TS(fragment)``, rooted where a
    fragment search roots."""
    spec = fragment_specification(fragment)
    return database.optimize_plan(TransferToStratum(fragment), spec).chosen_plan


def labels(plan):
    return [type(node).__name__ for _, node in plan.locations()]


class TestTheStatementSearchRewritesAFragment:
    """The rewrites a fragment shipped to the DBMS gets, made where they now
    happen: in the statement search, below the ``TS``."""

    def test_merges_projection_cascades(self, temporal_db):
        plan = Projection(["EmpName"], Projection(["EmpName", "Dept"], employee_scan()))
        chosen = chosen_for_fragment(temporal_db, plan)
        assert chosen == TransferToStratum(Projection(["EmpName"], employee_scan()))

    def test_removes_redundant_duplicate_elimination(self, temporal_db):
        plan = DuplicateElimination(
            DuplicateElimination(Projection(["EmpName", "Dept"], employee_scan()))
        )
        assert labels(chosen_for_fragment(temporal_db, plan)).count("DuplicateElimination") == 1

    def test_collapses_redundant_sorts(self, temporal_db):
        plan = Sort(
            OrderSpec.ascending("EmpName", "T1"),
            Sort(OrderSpec.ascending("EmpName"), employee_scan()),
        )
        assert labels(chosen_for_fragment(temporal_db, plan)).count("Sort") == 1

    def test_pushes_selection_below_projection(self, temporal_db):
        plan = Selection(
            equals("Dept", "Sales"),
            Projection(["EmpName", "Dept", "T1", "T2"], employee_scan()),
        )
        chosen = chosen_for_fragment(temporal_db, plan)
        assert isinstance(chosen.child, Projection)
        assert isinstance(chosen.child.child, Selection)

    def test_preserves_the_delivered_order(self, temporal_db):
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Selection(equals("Dept", "Sales"), employee_scan()),
        )
        # The fragment's result is ordered; the sort must survive.
        assert "Sort" in labels(chosen_for_fragment(temporal_db, plan))

    def test_its_result_is_a_fixpoint(self, temporal_db):
        plan = Selection(
            equals("Dept", "Sales"),
            Projection(["EmpName", "Dept"], Projection(["EmpName", "Dept", "T1", "T2"], employee_scan())),
        )
        once = chosen_for_fragment(temporal_db, plan)
        assert once != TransferToStratum(plan)
        assert temporal_db.optimize_plan(once, QueryResultSpec.multiset()).chosen_plan == once

    def test_leaves_temporal_operations_untouched(self, temporal_db):
        """No rule rewrites them; the stratum takes them over as they are."""
        plan = Coalescing(TemporalDuplicateElimination(employee_scan()))
        assert chosen_for_fragment(temporal_db, plan) == Coalescing(
            TemporalDuplicateElimination(TransferToStratum(employee_scan()))
        )
