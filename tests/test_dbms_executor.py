"""Tests for the DBMS's lowering and the engine facade."""

import pytest

from repro.core.equivalence import multiset_equivalent
from repro.core.exceptions import CatalogError
from repro.core.expressions import And, Comparison, ComparisonOperator, attribute, count, equals
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    Union,
    UnionAll,
)
from repro.core.lowering import DBMS_ENGINE, Lowering
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.core.physical import FilterOp, HashJoinOp
from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA


def employee_scan():
    return BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)


def project_scan():
    return BaseRelation("PROJECT", PROJECT_SCHEMA)


@pytest.fixture
def reference_context(employee, project):
    return EvaluationContext({"EMPLOYEE": employee, "PROJECT": project})


def check_matches_reference(dbms, plan, reference_context):
    """The DBMS promises multiset semantics: compare against reference evaluation."""
    produced = dbms.execute(plan).relation
    expected = plan.evaluate(reference_context)
    assert multiset_equivalent(produced, expected), plan.pretty()
    return produced


class TestNativeExecution:
    def test_scan(self, dbms, reference_context):
        check_matches_reference(dbms, employee_scan(), reference_context)

    def test_missing_table(self, dbms):
        with pytest.raises(CatalogError):
            dbms.execute(BaseRelation("NOPE", EMPLOYEE_SCHEMA))

    def test_selection_projection_sort(self, dbms, reference_context):
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Projection(["EmpName", "Dept"], Selection(equals("Dept", "Sales"), employee_scan())),
        )
        result = check_matches_reference(dbms, plan, reference_context)
        assert [tup["EmpName"] for tup in result] == ["Anna", "Anna", "John"]

    def test_duplicate_elimination(self, dbms, reference_context):
        plan = DuplicateElimination(Projection(["Dept"], employee_scan()))
        result = check_matches_reference(dbms, plan, reference_context)
        assert result.cardinality == 2

    def test_aggregation(self, dbms, reference_context):
        plan = Aggregation(["EmpName"], [count(alias="n")], employee_scan())
        result = check_matches_reference(dbms, plan, reference_context)
        assert {tup["EmpName"]: tup["n"] for tup in result} == {"John": 2, "Anna": 3}

    def test_cartesian_product_and_difference_and_unions(self, dbms, reference_context):
        product = CartesianProduct(employee_scan(), project_scan())
        check_matches_reference(dbms, product, reference_context)
        diff = Difference(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        check_matches_reference(dbms, diff, reference_context)
        union_all = UnionAll(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        check_matches_reference(dbms, union_all, reference_context)
        union = Union(Projection(["EmpName"], employee_scan()), Projection(["EmpName"], project_scan()))
        check_matches_reference(dbms, union, reference_context)

    def test_join_idiom_uses_hash_join(self, dbms, reference_context):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        plan = Join(predicate, employee_scan(), project_scan())
        explanation = dbms.explain(plan)
        assert "HashJoin" in explanation
        check_matches_reference(dbms, plan, reference_context)

    def test_selection_over_product_becomes_hash_join(self, dbms, reference_context):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        plan = Selection(predicate, CartesianProduct(employee_scan(), project_scan()))
        explanation = dbms.explain(plan)
        assert "HashJoin" in explanation
        check_matches_reference(dbms, plan, reference_context)

    def test_sort_result_is_ordered(self, dbms):
        plan = Sort(OrderSpec.of("T1 DESC"), employee_scan())
        result = dbms.execute(plan).relation
        values = [tup["T1"] for tup in result]
        assert values == sorted(values, reverse=True)


class TestEmulatedTemporalOperations:
    def test_temporal_operations_are_emulated_and_counted(self, dbms, reference_context):
        plan = Coalescing(
            TemporalDuplicateElimination(Projection(["EmpName", "T1", "T2"], employee_scan()))
        )
        outcome = dbms.execute(plan)
        assert len(outcome.report.dbms_emulated_operations) == 2
        expected = plan.evaluate(reference_context)
        assert multiset_equivalent(outcome.relation, expected)

    def test_full_paper_query_fragment_is_executable_by_emulation(self, dbms, reference_context):
        left = TemporalDuplicateElimination(Projection(["EmpName", "T1", "T2"], employee_scan()))
        right = Projection(["EmpName", "T1", "T2"], project_scan())
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(TemporalDuplicateElimination(TemporalDifference(left, right))),
        )
        outcome = dbms.execute(plan)
        assert len(outcome.report.dbms_emulated_operations) >= 4
        expected = plan.evaluate(reference_context)
        assert multiset_equivalent(outcome.relation, expected)


class TestJoinAlgorithmChoice:
    """The lowering follows ``physical_choice``: a σ over a product fuses into
    a hash join on equi keys, and otherwise filters the product's nested loop."""

    @staticmethod
    def _root(dbms, predicate):
        plan = Selection(predicate, CartesianProduct(employee_scan(), project_scan()))
        return Lowering(dbms.catalog).lower(plan, DBMS_ENGINE)

    def test_single_equality(self, dbms):
        root = self._root(dbms, Comparison(ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")))
        assert isinstance(root, HashJoinOp)
        assert root.describe() == "HashJoin[hash: 1.EmpName=2.EmpName]"

    def test_reversed_sides(self, dbms):
        root = self._root(dbms, Comparison(ComparisonOperator.EQ, attribute("2.EmpName"), attribute("1.EmpName")))
        assert root.describe() == "HashJoin[hash: 1.EmpName=2.EmpName]"

    def test_conjunction_with_residual(self, dbms):
        predicate = And(
            Comparison(ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")),
            equals("Dept", "Sales"),
        )
        root = self._root(dbms, predicate)
        assert isinstance(root, HashJoinOp)
        assert root.describe().endswith("residual: Dept = 'Sales']")

    def test_no_equality_filters_the_products_nested_loop(self, dbms):
        predicate = equals("Dept", "Sales")
        root = self._root(dbms, predicate)
        assert isinstance(root, FilterOp)
        (product,) = root.children()
        assert product.describe() == "NestedLoopJoin[nested-loop]"
        assert (root.paths, product.paths) == (((),), ((0,),))


class TestEngineFacade:
    def test_load_and_statistics(self, employee, project):
        engine = ConventionalDBMS()
        engine.load_relation("EMPLOYEE", employee)
        engine.load_relation("PROJECT", project)
        assert engine.statistics() == {"EMPLOYEE": 5, "PROJECT": 8}

    def test_the_plan_runs_as_given(self, dbms, reference_context):
        """The engine has no search: the selection stays above the
        projection, in the explanation and in the rows each node produced."""
        plan = Selection(equals("Dept", "Sales"), Projection(["EmpName", "Dept"], employee_scan()))
        explanation = dbms.explain(plan).splitlines()
        assert [line.strip().split("(")[0] for line in explanation] == ["Filter", "Project", "Source"]
        outcome = dbms.execute(plan)
        assert outcome.report.node_rows == {(): 3, (0,): 5, (0, 0): 5}
        assert multiset_equivalent(outcome.relation, plan.evaluate(reference_context))

    def test_the_replay_shims_change_nothing(self, dbms):
        """``optimize`` and ``execute``'s second positional parameter exist
        only for the frozen ledger replay: neither alters what runs."""
        plan = Selection(equals("Dept", "Sales"), Projection(["EmpName", "Dept"], employee_scan()))
        assert dbms.optimize(plan) is plan
        replayed = dbms.execute(dbms.optimize(plan), False)
        assert list(replayed.relation.tuples) == list(dbms.execute(plan).relation.tuples)
        assert replayed.report.node_rows == dbms.execute(plan).report.node_rows

    def test_explain_renders_physical_plan(self, dbms):
        plan = Sort(OrderSpec.ascending("EmpName"), employee_scan())
        explanation = dbms.explain(plan)
        assert "Sort" in explanation and "Source(EMPLOYEE" in explanation

    def test_a_pinned_engine_only_reads_its_catalog(self, dbms):
        """A snapshot's engine runs a plan as given over the rows pinned when
        it was taken, whatever lands in the live catalog after — and so does
        the stratum over it."""
        snapshot = dbms.snapshot()
        assert type(snapshot) is ConventionalDBMS
        plan = Sort(OrderSpec.ascending("EmpName"), employee_scan())
        pinned = list(dbms.execute(plan).relation.tuples)
        dbms.catalog.insert("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        assert snapshot.statistics() == {"EMPLOYEE": 5, "PROJECT": 8} != dbms.statistics()
        produced = snapshot.execute(plan)
        assert list(produced.relation.tuples) == pinned
        assert produced.report.node_rows == {(): 5, (0,): 5}
        assert list(StratumExecutor(snapshot).execute(plan).tuples) == pinned
        with pytest.raises(CatalogError):
            snapshot.load_relation("NEW", dbms.catalog.table("PROJECT").relation)
