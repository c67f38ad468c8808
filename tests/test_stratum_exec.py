"""Tests for the stratum's efficient temporal operators and executor."""

import pytest
from hypothesis import given

from repro.core.equivalence import list_equivalent, multiset_equivalent
from repro.core.exceptions import EngineError
from repro.core.expressions import equals
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor, partition_plan
from repro.stratum.partition import DBMS, STRATUM
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA

from .strategies import narrow_temporal_relations

CONTEXT = EvaluationContext()


def in_stratum(operation, *relations):
    """A temporal operation as the stratum runs it: one undegraded operator region."""
    executor = StratumExecutor(ConventionalDBMS())
    result = executor.execute(operation(*map(LiteralRelation, relations)))
    assert executor.report.degraded_operations == []
    return result


class TestFastImplementationsMatchReference:
    """The stratum operators are list-compatible with the reference semantics."""

    @given(narrow_temporal_relations(max_size=8))
    def test_rdupt(self, relation):
        reference = TemporalDuplicateElimination(LiteralRelation(relation)).evaluate(CONTEXT)
        assert list_equivalent(in_stratum(TemporalDuplicateElimination, relation), reference)

    @given(narrow_temporal_relations(max_size=8))
    def test_coalesce(self, relation):
        reference = Coalescing(LiteralRelation(relation)).evaluate(CONTEXT)
        assert list_equivalent(in_stratum(Coalescing, relation), reference)

    @given(narrow_temporal_relations(max_size=6), narrow_temporal_relations(max_size=6))
    def test_temporal_difference(self, left, right):
        reference = TemporalDifference(LiteralRelation(left), LiteralRelation(right)).evaluate(
            CONTEXT
        )
        assert list_equivalent(in_stratum(TemporalDifference, left, right), reference)

    @given(narrow_temporal_relations(max_size=6), narrow_temporal_relations(max_size=6))
    def test_temporal_union(self, left, right):
        reference = TemporalUnion(LiteralRelation(left), LiteralRelation(right)).evaluate(CONTEXT)
        assert list_equivalent(in_stratum(TemporalUnion, left, right), reference)

    def test_figure3(self, r1, r3):
        assert list_equivalent(in_stratum(TemporalDuplicateElimination, r1), r3)


class TestPlanPartitioning:
    def plan(self):
        return Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(
                TransferToStratum(
                    Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
                )
            ),
        )

    def test_engine_assignment(self):
        partition = partition_plan(self.plan())
        assert partition.engine_of(()) == STRATUM
        assert partition.engine_of((0,)) == STRATUM
        assert partition.engine_of((0, 0)) == STRATUM  # the TS node itself
        assert partition.engine_of((0, 0, 0)) == DBMS
        assert partition.engine_of((0, 0, 0, 0)) == DBMS

    def test_fragments_and_counts(self):
        partition = partition_plan(self.plan())
        assert partition.dbms_fragments == [(0, 0, 0)]
        assert partition.transfer_count == 1
        counts = partition.operator_counts()
        assert counts[DBMS] == 2
        assert counts[STRATUM] == 3

    def test_td_switches_back_to_stratum(self):
        plan = TransferToStratum(
            Selection(
                equals("EmpName", "Anna"),
                TransferToDBMS(Coalescing(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))),
            )
        )
        partition = partition_plan(plan)
        assert partition.engine_of((0,)) == DBMS  # the selection
        assert partition.engine_of((0, 0, 0)) == STRATUM  # the coalescing below TD

    def test_both_engines_run_part_of_the_plan(self):
        plan = self.plan()
        assignment = partition_plan(plan).assignment
        assert set(assignment.values()) == {STRATUM, DBMS}
        assert len(assignment) == plan.size()


class TestStratumExecutor:
    def make_executor(self, employee, project):
        dbms = ConventionalDBMS()
        dbms.create_table("EMPLOYEE", employee.schema, employee)
        dbms.create_table("PROJECT", project.schema, project)
        return StratumExecutor(dbms)

    def paper_plan(self):
        employee = Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        project = Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))
        difference = TemporalDifference(TemporalDuplicateElimination(employee), project)
        return Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(TemporalDuplicateElimination(difference)),
        )

    def test_pure_stratum_execution_matches_reference(self, employee, project, expected_result):
        executor = self.make_executor(employee, project)
        result = executor.execute(self.paper_plan())
        assert list_equivalent(result, expected_result)
        assert executor.report.dbms_calls == 0
        assert executor.report.implicit_transfers == 2

    def test_fully_pushed_down_execution(self, employee, project, expected_result):
        executor = self.make_executor(employee, project)
        plan = TransferToStratum(self.paper_plan())
        result = executor.execute(plan)
        assert multiset_equivalent(result, expected_result)
        assert executor.report.dbms_calls == 1
        assert executor.report.dbms_emulated_operations  # temporal work was emulated

    def test_mixed_execution_with_dbms_fragments(self, employee, project, expected_result):
        executor = self.make_executor(employee, project)
        employee_fragment = TransferToStratum(
            Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        )
        project_fragment = TransferToStratum(
            Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))
        )
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(
                TemporalDuplicateElimination(
                    TemporalDifference(
                        TemporalDuplicateElimination(employee_fragment), project_fragment
                    )
                )
            ),
        )
        result = executor.execute(plan)
        assert list_equivalent(result, expected_result)
        assert executor.report.dbms_calls == 2
        assert executor.report.dbms_emulated_operations == []
        assert executor.report.stratum_operations == 5

    def test_td_islands_are_materialised(self, employee, project):
        executor = self.make_executor(employee, project)
        # The DBMS fragment sorts data that the stratum coalesced first.
        plan = TransferToStratum(
            Sort(
                OrderSpec.ascending("EmpName"),
                TransferToDBMS(Coalescing(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))),
            )
        )
        result = executor.execute(plan)
        # Coalescing merges Anna's two adjacent Sales periods: 5 tuples -> 4.
        assert result.cardinality == 4
        assert executor.report.dbms_calls == 1

    def test_unbalanced_transfers_are_rejected(self, employee, project):
        executor = self.make_executor(employee, project)
        plan = TransferToStratum(TransferToStratum(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)))
        with pytest.raises(EngineError):
            executor.execute(plan)
