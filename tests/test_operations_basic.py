"""Unit tests for leaves, selection, projection, sorting and transfers."""

import pytest

from repro.core.exceptions import ArityError, EvaluationError, TemporalSchemaError
from repro.core.expressions import (
    Arithmetic,
    ArithmeticOperator,
    ProjectionItem,
    attribute,
    equals,
    greater_than,
    literal,
)
from repro.core.operations import (
    BaseRelation,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TransferToDBMS,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.workloads import EMPLOYEE_SCHEMA, employee_relation


@pytest.fixture
def context(employee):
    return EvaluationContext({"EMPLOYEE": employee})


@pytest.fixture
def scan():
    return BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)


class TestLeaves:
    def test_base_relation_lookup(self, scan, context, employee):
        assert scan.evaluate(context).as_list() == employee.as_list()

    def test_base_relation_missing_binding(self, scan):
        with pytest.raises(EvaluationError):
            scan.evaluate(EvaluationContext())

    def test_base_relation_schema_mismatch(self, scan):
        from repro.workloads import project_relation

        with pytest.raises(EvaluationError):
            scan.evaluate(EvaluationContext({"EMPLOYEE": project_relation()}))

    def test_literal_relation(self, employee):
        literal_node = LiteralRelation(employee)
        assert literal_node.evaluate(EvaluationContext()) == employee
        assert literal_node.cardinality_bounds([]) == (5, 5)

    def test_leaves_take_no_children(self, scan, employee):
        with pytest.raises(EvaluationError):
            scan.with_children([LiteralRelation(employee)])

    def test_arity_enforced(self, scan):
        with pytest.raises(ArityError):
            TransferToStratum()
        with pytest.raises(ArityError):
            TransferToStratum(scan, scan)


class TestSelection:
    def test_filters_tuples(self, scan, context):
        selection = Selection(equals("Dept", "Sales"), scan)
        result = selection.evaluate(context)
        assert [tup["EmpName"] for tup in result] == ["John", "Anna", "Anna"]

    def test_preserves_order_of_survivors(self, scan, context):
        selection = Selection(greater_than("T1", 1), scan)
        result = selection.evaluate(context)
        assert [tup["T1"] for tup in result] == [6, 2, 2, 6]

    def test_schema_unchanged(self, scan):
        selection = Selection(equals("Dept", "Sales"), scan)
        assert selection.output_schema() == EMPLOYEE_SCHEMA

    def test_label(self, scan):
        assert "Dept" in Selection(equals("Dept", "Sales"), scan).label()


class TestProjection:
    def test_projects_columns(self, scan, context):
        projection = Projection(["EmpName", "T1", "T2"], scan)
        result = projection.evaluate(context)
        assert result.schema.attributes == ("EmpName", "T1", "T2")
        assert result.cardinality == 5

    def test_computed_column(self, scan, context):
        duration = ProjectionItem(
            Arithmetic(ArithmeticOperator.SUB, attribute("T2"), attribute("T1")),
            alias="Duration",
        )
        projection = Projection(["EmpName", duration], scan)
        result = projection.evaluate(context)
        assert result[0]["Duration"] == 7

    def test_keeping_only_one_time_attribute_is_rejected(self, scan):
        with pytest.raises(TemporalSchemaError):
            Projection(["EmpName", "T1"], scan).output_schema()

    def test_dropping_time_yields_snapshot_schema(self, scan, context):
        projection = Projection(["EmpName", "Dept"], scan)
        assert not projection.output_schema().is_temporal
        assert projection.evaluate(context).cardinality == 5

    def test_duplicate_generation(self, scan, context):
        projection = Projection(["Dept"], scan)
        result = projection.evaluate(context)
        assert result.has_duplicates()

    def test_order_derivation_prefix(self, scan):
        projection = Projection(["EmpName", "T1", "T2"], scan)
        incoming = OrderSpec.ascending("EmpName", "Dept", "T1")
        assert projection.result_order([incoming]) == OrderSpec.ascending("EmpName")


class TestSort:
    def test_sorts_by_specification(self, scan, context):
        sort = Sort(OrderSpec.ascending("EmpName", "T1"), scan)
        result = sort.evaluate(context)
        assert [tup["EmpName"] for tup in result] == ["Anna", "Anna", "Anna", "John", "John"]
        assert result.order == OrderSpec.ascending("EmpName", "T1")

    def test_sort_is_stable(self, scan, context):
        sort = Sort(OrderSpec.ascending("EmpName"), scan)
        result = sort.evaluate(context)
        # Anna's three tuples keep their original relative order.
        anna = [tup["Dept"] for tup in result if tup["EmpName"] == "Anna"]
        assert anna == ["Sales", "Advertising", "Sales"]

    def test_result_order_prefix_special_case(self, scan):
        sort = Sort(OrderSpec.ascending("EmpName"), scan)
        existing = OrderSpec.ascending("EmpName", "T1")
        # Table 1: when A is a prefix of Order(r), the sort keeps Order(r).
        assert sort.result_order([existing]) == existing


class TestTransfers:
    def test_transfers_are_identities(self, scan, context, employee):
        plan = TransferToStratum(TransferToDBMS(scan))
        assert plan.evaluate(context).as_list() == employee.as_list()

    def test_transfer_schema(self, scan):
        assert TransferToStratum(scan).output_schema() == EMPLOYEE_SCHEMA


class TestTreeNavigation:
    def test_locations_and_subtree_at(self, scan):
        plan = Sort(OrderSpec.ascending("EmpName"), Selection(equals("Dept", "Sales"), scan))
        paths = [path for path, _ in plan.locations()]
        assert paths == [(), (0,), (0, 0)]
        assert plan.subtree_at((0, 0)) is scan

    def test_replace_at(self, scan, context):
        plan = Sort(OrderSpec.ascending("EmpName"), Selection(equals("Dept", "Sales"), scan))
        replaced = plan.replace_at((0,), scan)
        assert replaced == Sort(OrderSpec.ascending("EmpName"), scan)
        # The original plan is unchanged (plans are immutable values).
        assert plan.subtree_at((0,)) != scan

    def test_structural_equality_and_hash(self, scan):
        a = Selection(equals("Dept", "Sales"), scan)
        b = Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        c = Selection(equals("Dept", "Ads"), scan)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_copies_never_inherit_a_cached_signature(self, scan):
        """The signature is computed once per instance; every copy is a new one."""
        plan = Sort(OrderSpec.ascending("EmpName"), Selection(equals("Dept", "Sales"), scan))
        cached = plan.signature()
        assert plan.signature() is cached
        other = Selection(equals("Dept", "Ads"), scan)
        rebuilt = plan.with_children([other])
        replaced = plan.replace_at((0,), other)
        expected = Sort(OrderSpec.ascending("EmpName"), other)
        for copy in (rebuilt, replaced):
            assert copy.signature() == expected.signature() != cached
            assert copy == expected and hash(copy) == hash(expected)
        # A same-shaped copy is equal by value, through its own signature.
        same = plan.with_children(plan.children)
        assert same is not plan and same.signature() == cached
        assert plan.signature() is cached

    def test_size_and_contains_operator(self, scan):
        plan = Sort(OrderSpec.ascending("EmpName"), Selection(equals("Dept", "Sales"), scan))
        assert plan.size() == 3
        assert plan.contains_operator(Selection)
        assert not plan.contains_operator(Projection)

    def test_pretty_renders_tree(self, scan):
        plan = Sort(OrderSpec.ascending("EmpName"), Selection(equals("Dept", "Sales"), scan))
        rendered = plan.pretty()
        assert "sort" in rendered and "EMPLOYEE" in rendered
        assert rendered.count("\n") == 2
