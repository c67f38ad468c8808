"""Unit tests for scalar expressions, predicates, projection items and aggregates."""

import pytest

from repro.core.columnar import ColumnBatch
from repro.core.exceptions import AttributeNotFound, EvaluationError
from repro.core.expressions import (
    AggregateFunction,
    AggregateKind,
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Expression,
    Literal,
    Not,
    Or,
    ProjectionItem,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    attribute,
    between,
    count,
    equals,
    greater_than,
    less_than,
    filter_kernel,
    literal,
    not_equals,
    projection_items,
    projection_kernel,
)
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.core.tuples import Tuple

SCHEMA = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)])


def row(name="John", amount=5):
    return Tuple(SCHEMA, {"Name": name, "Amount": amount})


class TestBasicExpressions:
    def test_attribute_ref(self):
        assert AttributeRef("Name").evaluate(row()) == "John"
        assert AttributeRef("Name").attributes() == {"Name"}

    def test_missing_attribute(self):
        with pytest.raises(AttributeNotFound):
            AttributeRef("Salary").evaluate(row())

    def test_literal(self):
        assert Literal(42).evaluate(row()) == 42
        assert Literal(42).attributes() == frozenset()

    def test_comparisons(self):
        assert equals("Name", "John").evaluate(row())
        assert not_equals("Name", "Anna").evaluate(row())
        assert less_than("Amount", 10).evaluate(row())
        assert greater_than("Amount", 1).evaluate(row())
        assert Comparison(ComparisonOperator.LE, attribute("Amount"), literal(5)).evaluate(row())
        assert Comparison(ComparisonOperator.GE, attribute("Amount"), literal(5)).evaluate(row())

    def test_comparison_type_error_is_wrapped(self):
        predicate = less_than("Name", 5)
        with pytest.raises(EvaluationError):
            predicate.evaluate(row())

    def test_boolean_connectives(self):
        predicate = And(equals("Name", "John"), greater_than("Amount", 1))
        assert predicate.evaluate(row())
        assert not And(equals("Name", "John"), greater_than("Amount", 10)).evaluate(row())
        assert Or(equals("Name", "Anna"), equals("Name", "John")).evaluate(row())
        assert Not(equals("Name", "Anna")).evaluate(row())

    def test_between(self):
        assert between("Amount", 1, 5).evaluate(row())
        assert not between("Amount", 6, 9).evaluate(row())

    def test_attributes_of_composite(self):
        predicate = And(equals("Name", "John"), greater_than("Amount", 1))
        assert predicate.attributes() == {"Name", "Amount"}

    def test_arithmetic(self):
        doubled = Arithmetic(ArithmeticOperator.MUL, attribute("Amount"), literal(2))
        assert doubled.evaluate(row()) == 10
        added = Arithmetic(ArithmeticOperator.ADD, attribute("Amount"), literal(1))
        assert added.evaluate(row()) == 6
        divided = Arithmetic(ArithmeticOperator.DIV, attribute("Amount"), literal(2))
        assert divided.evaluate(row()) == 2.5

    def test_division_by_zero(self):
        division = Arithmetic(ArithmeticOperator.DIV, attribute("Amount"), literal(0))
        with pytest.raises(EvaluationError):
            division.evaluate(row())


class TestProjectionItems:
    def test_plain_attribute(self):
        item = ProjectionItem(attribute("Name"))
        assert item.output_name == "Name"
        assert item.is_plain_attribute()

    def test_alias(self):
        item = ProjectionItem(attribute("Name"), alias="Who")
        assert item.output_name == "Who"
        assert not item.is_plain_attribute()

    def test_computed_item_requires_alias(self):
        item = ProjectionItem(Arithmetic(ArithmeticOperator.ADD, attribute("Amount"), literal(1)))
        with pytest.raises(AttributeNotFound):
            _ = item.output_name

    def test_projection_items_helper(self):
        items = projection_items("Name", ProjectionItem(attribute("Amount"), alias="Total"))
        assert [item.output_name for item in items] == ["Name", "Total"]

    def test_projection_items_helper_rejects_garbage(self):
        with pytest.raises(TypeError):
            projection_items(42)


class TestAggregates:
    def rows(self):
        return [row("a", 1), row("b", 2), row("c", 3)]

    def test_count_star(self):
        assert count().compute(self.rows()) == 3
        assert count().output_name == "count"

    def test_sum(self):
        assert agg_sum("Amount").compute(self.rows()) == 6
        assert agg_sum("Amount").output_name == "sum_Amount"

    def test_min_max_avg(self):
        assert agg_min("Amount").compute(self.rows()) == 1
        assert agg_max("Amount").compute(self.rows()) == 3
        assert agg_avg("Amount").compute(self.rows()) == 2

    def test_empty_group(self):
        assert count().compute([]) == 0
        assert agg_sum("Amount").compute([]) is None

    def test_alias(self):
        assert agg_sum("Amount", alias="total").output_name == "total"

    def test_non_count_requires_argument(self):
        with pytest.raises(AttributeNotFound):
            AggregateFunction(AggregateKind.SUM)


def rows_of(tuples):
    """The value rows of ``tuples`` as a batch over ``SCHEMA`` holds them."""
    return ColumnBatch.from_tuples(SCHEMA, tuples).rows()


def project(expression, tuples):
    """``expression``'s values through a one-item projection kernel."""
    return [value for (value,) in projection_kernel([expression], SCHEMA)(rows_of(tuples))]


def select(predicate, tuples):
    """The rows a filter kernel keeps."""
    return list(filter_kernel(predicate, SCHEMA)(rows_of(tuples)))


def typed(values):
    return [(type(value), value) for value in values]


class TestRowKernels:
    """Generated row kernels agree with tree-walking ``evaluate``."""

    CASES = [
        equals("Name", "John"),
        not_equals("Name", "Anna"),
        less_than("Amount", 10),
        greater_than("Amount", 3),
        between("Amount", 2, 9),
        And(equals("Name", "John"), greater_than("Amount", 1)),
        Or(equals("Name", "Anna"), equals("Amount", 5)),
        Not(equals("Name", "Anna")),
        Arithmetic(ArithmeticOperator.ADD, attribute("Amount"), literal(2)),
        Arithmetic(ArithmeticOperator.MUL, attribute("Amount"), attribute("Amount")),
        Arithmetic(ArithmeticOperator.DIV, attribute("Amount"), literal(4)),
        And(),
        Or(),
        And(attribute("Amount")),
        literal(True),
        attribute("Amount"),
    ]

    def test_kernel_matches_evaluate(self):
        tuples = [row(), row("Anna", 2), row("Mia", 10)]
        for expression in self.CASES:
            expected = [expression.evaluate(tup) for tup in tuples]
            assert typed(project(expression, tuples)) == typed(expected)
            assert select(expression, tuples) == [t.values() for t, v in zip(tuples, expected) if v]
            assert project(expression, []) == [] and select(expression, []) == []

    def test_kernel_comparison_wraps_type_errors(self):
        predicate = less_than("Name", 3)
        with pytest.raises(EvaluationError) as reference:
            predicate.evaluate(row())
        for run in (select, project):
            with pytest.raises(EvaluationError) as raised:
                run(predicate, [row("Anna", 1), row()])
            assert str(raised.value) == str(reference.value)
            assert isinstance(raised.value.__cause__, TypeError)

    def test_kernel_division_by_zero_raises(self):
        expression = Arithmetic(ArithmeticOperator.DIV, attribute("Amount"), literal(0))
        with pytest.raises(EvaluationError, match="division by zero"):
            project(expression, [row()])

    def test_kernel_short_circuits_like_evaluate(self):
        # The second operand would raise on evaluation; ``and``/``or`` in the
        # generated source must skip exactly the rows all()/any() skip.
        exploding = Comparison(ComparisonOperator.LT, attribute("Missing"), literal(1))
        assert project(And(equals("Name", "Anna"), exploding), [row()]) == [False]
        assert project(Or(equals("Name", "John"), exploding), [row()]) == [True]
        assert select(And(equals("Name", "Anna"), exploding), [row()]) == []
        with pytest.raises(AttributeNotFound):
            select(And(equals("Name", "John"), exploding), [row()])
        # A missing attribute raises only on a row that reaches it.
        assert select(exploding, []) == []

    def test_permuted_tuples_are_normalised_at_the_batch_boundary(self):
        # Kernels are purely positional; ``ColumnBatch.from_tuples`` is where a
        # tuple whose schema lists the attributes in another order is aligned.
        permuted = RelationSchema.snapshot([("Amount", INTEGER), ("Name", STRING)])
        tuples = [row(), Tuple(permuted, {"Amount": 5, "Name": "John"})]
        assert project(equals("Name", "John"), tuples) == [True, True]
        assert len(select(equals("Amount", 5), tuples)) == 2

    def test_base_class_fallback_evaluates_row_by_row(self):
        class Doubled(Expression):
            def evaluate(self, tup):
                return 2 * tup["Amount"]

        assert project(Doubled(), [row(), row("Anna", 2)]) == [10, 4]
        assert project(Arithmetic(ArithmeticOperator.ADD, Doubled(), literal(1)), [row()]) == [11]

    def test_projection_item_kernel(self):
        item = ProjectionItem(
            Arithmetic(ArithmeticOperator.ADD, attribute("Amount"), literal(1)), "Bigger"
        )
        kernel = projection_kernel([item.expression, attribute("Name")], SCHEMA)
        assert kernel(rows_of([row()])) == [(6, "John")]

    def test_attribute_lists_pick_positions(self):
        rows = rows_of([row(), row("Anna", 2)])
        assert projection_kernel([attribute("Name"), attribute("Amount")], SCHEMA)(rows) is rows
        assert projection_kernel([attribute("Amount"), attribute("Name")], SCHEMA)(rows) == [
            (5, "John"), (2, "Anna"),
        ]
        assert projection_kernel([attribute("Amount")], SCHEMA)(rows) == [(5,), (2,)]
        assert projection_kernel([attribute("Name")], SCHEMA)(rows) == [("John",), ("Anna",)]
        assert projection_kernel([], SCHEMA)(rows) == [(), ()]
