"""Tests for the rewrites a DBMS fragment gets.

The DBMS has no search of its own: the statement's search explores below
every ``TS`` with the DBMS's multiset-safe rules, so the rewrites a DBMS
would make to a fragment are checked there, on ``TS(fragment)``.
"""

from repro.core.expressions import equals
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    DuplicateElimination,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.query import QueryResultSpec
from repro.workloads import EMPLOYEE_SCHEMA

from .test_stratum_layer import fragment_specification


def employee_scan():
    return BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)


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
