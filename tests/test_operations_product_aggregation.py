"""Tests for the Cartesian products, joins and (temporal) aggregation."""

import pytest
from hypothesis import given

from repro import ExecutionOptions, Session, TemporalDatabase
from repro.core.exceptions import ParseError, TemporalSchemaError
from repro.core.expressions import (
    AggregateFunction,
    AggregateKind,
    agg_sum,
    count,
    equals,
    attribute,
    Comparison,
    ComparisonOperator,
)
from repro.core.operations import (
    Aggregation,
    CartesianProduct,
    Join,
    LiteralRelation,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalJoin,
)
from repro.core.operations.base import EvaluationContext
from repro.core.period import Period
from repro.core.relation import Relation
from repro.core.schema import FLOAT, INTEGER, RelationSchema, STRING, TIME
from repro.obs.metrics import MetricsRegistry
from repro.workloads import employee_relation, project_relation

from .strategies import narrow_temporal_relations

CONTEXT = EvaluationContext()


def run(op):
    return op.evaluate(CONTEXT)


SALARY_SCHEMA = RelationSchema.temporal([("EmpName", STRING), ("Salary", INTEGER)], name="SALARY")


def salaries():
    return Relation.from_rows(
        SALARY_SCHEMA,
        [("John", 10, 1, 6), ("John", 12, 6, 11), ("Anna", 20, 2, 6), ("Anna", 25, 6, 12)],
    )


class TestCartesianProduct:
    def test_pairs_every_tuple(self, employee, project):
        result = run(CartesianProduct(LiteralRelation(employee), LiteralRelation(project)))
        assert result.cardinality == len(employee) * len(project)

    def test_clashing_attributes_are_prefixed(self, employee, project):
        result = run(CartesianProduct(LiteralRelation(employee), LiteralRelation(project)))
        assert "1.EmpName" in result.schema.attributes
        assert "2.EmpName" in result.schema.attributes

    def test_temporal_arguments_yield_snapshot_result(self, employee, project):
        product = CartesianProduct(LiteralRelation(employee), LiteralRelation(project))
        assert not product.output_schema().is_temporal

    def test_snapshot_arguments_keep_names(self):
        left = RelationSchema.snapshot([("A", STRING)])
        right = RelationSchema.snapshot([("B", STRING)])
        product = CartesianProduct(
            LiteralRelation(Relation.from_rows(left, [("x",)])),
            LiteralRelation(Relation.from_rows(right, [("y",)])),
        )
        result = run(product)
        assert result.schema.attributes == ("A", "B")
        assert result[0]["A"] == "x" and result[0]["B"] == "y"


class TestTemporalCartesianProduct:
    def test_joins_only_overlapping_periods(self):
        result = run(
            TemporalCartesianProduct(
                LiteralRelation(employee_relation()), LiteralRelation(salaries())
            )
        )
        for tup in result:
            assert Period(tup["1.T1"], tup["1.T2"]).overlaps(Period(tup["2.T1"], tup["2.T2"]))

    def test_result_period_is_the_intersection(self):
        result = run(
            TemporalCartesianProduct(
                LiteralRelation(employee_relation()), LiteralRelation(salaries())
            )
        )
        for tup in result:
            expected = Period(tup["1.T1"], tup["1.T2"]).intersect(
                Period(tup["2.T1"], tup["2.T2"])
            )
            assert tup.period == expected

    def test_retains_argument_timestamps(self):
        product = TemporalCartesianProduct(
            LiteralRelation(employee_relation()), LiteralRelation(salaries())
        )
        schema = product.output_schema()
        for attribute_name in ("1.T1", "1.T2", "2.T1", "2.T2", "T1", "T2"):
            assert schema.has_attribute(attribute_name)
        assert schema.is_temporal

    def test_disjoint_periods_produce_nothing(self):
        left = Relation.from_rows(SALARY_SCHEMA, [("John", 1, 1, 3)])
        right = Relation.from_rows(
            RelationSchema.temporal([("Dept", STRING)], name="D"), [("Sales", 5, 9)]
        )
        result = run(TemporalCartesianProduct(LiteralRelation(left), LiteralRelation(right)))
        assert result.is_empty()


class TestJoins:
    def test_join_is_selection_over_product(self, employee, project):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        join = Join(predicate, LiteralRelation(employee), LiteralRelation(project))
        expanded = join.expand()
        assert run(join).as_multiset() == run(expanded).as_multiset()

    def test_temporal_join_matches_expansion(self, employee, project):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        join = TemporalJoin(predicate, LiteralRelation(employee), LiteralRelation(project))
        assert run(join).as_multiset() == run(join.expand()).as_multiset()

    def test_temporal_join_produces_overlap_periods(self, employee, project):
        predicate = Comparison(
            ComparisonOperator.EQ, attribute("1.EmpName"), attribute("2.EmpName")
        )
        join = TemporalJoin(predicate, LiteralRelation(employee), LiteralRelation(project))
        result = run(join)
        assert result.cardinality > 0
        for tup in result:
            assert tup["1.EmpName"] == tup["2.EmpName"]


class TestAggregation:
    def test_group_and_count(self, employee):
        aggregation = Aggregation(["EmpName"], [count(alias="n")], LiteralRelation(employee))
        result = run(aggregation)
        values = {tup["EmpName"]: tup["n"] for tup in result}
        assert values == {"John": 2, "Anna": 3}

    def test_groups_emitted_in_first_occurrence_order(self, employee):
        aggregation = Aggregation(["EmpName"], [count()], LiteralRelation(employee))
        result = run(aggregation)
        assert [tup["EmpName"] for tup in result] == ["John", "Anna"]

    def test_global_aggregate(self, employee):
        aggregation = Aggregation([], [count(alias="n")], LiteralRelation(employee))
        result = run(aggregation)
        assert result.cardinality == 1
        assert result[0]["n"] == 5

    def test_grouping_on_time_attribute_renames_output(self, employee):
        aggregation = Aggregation(["T1"], [count(alias="n")], LiteralRelation(employee))
        schema = aggregation.output_schema()
        assert "1.T1" in schema.attributes
        assert not schema.is_temporal

    def test_eliminates_duplicates(self, employee):
        aggregation = Aggregation(["Dept"], [count()], LiteralRelation(employee))
        assert not run(aggregation).has_duplicates()


class TestTemporalAggregation:
    def test_requires_temporal_argument(self):
        snapshot = Relation.from_rows(RelationSchema.snapshot([("A", STRING)]), [("x",)])
        aggregation = TemporalAggregation([], [count()], LiteralRelation(snapshot))
        with pytest.raises(TemporalSchemaError):
            aggregation.output_schema()

    def test_rejects_time_attributes_in_grouping(self, employee):
        with pytest.raises(TemporalSchemaError):
            TemporalAggregation(["T1"], [count()], LiteralRelation(employee))

    def test_counts_vary_over_time(self, employee):
        aggregation = TemporalAggregation([], [count(alias="n")], LiteralRelation(employee))
        result = run(aggregation)
        # At month 3, John (Sales) and Anna (Sales + Advertising) are employed: 3 rows.
        by_point = {}
        for tup in result:
            for point in tup.period.points():
                by_point[point] = tup["n"]
        assert by_point[3] == 3
        assert by_point[11] == 1  # only Anna (Sales, [6,12)) remains in month 11

    def test_snapshot_reducibility(self, employee):
        """γT is snapshot reducible to γ: counts per snapshot agree."""
        aggregation = TemporalAggregation(
            ["Dept"], [count(alias="n")], LiteralRelation(employee)
        )
        result = run(aggregation)
        for time in employee.active_time_points():
            snapshot = employee.snapshot(time)
            expected = {}
            for tup in snapshot:
                expected[tup["Dept"]] = expected.get(tup["Dept"], 0) + 1
            actual = {
                tup["Dept"]: tup["n"] for tup in result if tup.period.contains_point(time)
            }
            assert actual == expected

    def test_sum_aggregate(self):
        aggregation = TemporalAggregation(
            [], [agg_sum("Salary", alias="total")], LiteralRelation(salaries())
        )
        result = run(aggregation)
        by_point = {}
        for tup in result:
            for point in tup.period.points():
                by_point[point] = tup["total"]
        assert by_point[3] == 30  # John 10 + Anna 20
        assert by_point[7] == 37  # John 12 + Anna 25

    @given(narrow_temporal_relations(max_size=6))
    def test_cardinality_bound(self, relation):
        aggregation = TemporalAggregation([], [count()], LiteralRelation(relation))
        result = run(aggregation)
        if relation.is_empty():
            assert result.is_empty()
        else:
            assert result.cardinality <= 2 * relation.cardinality - 1


class TestAggregateDomains:
    """``COUNT`` is an integer, ``MIN``/``MAX`` keep their argument's domain,
    ``SUM``/``AVG`` are numbers over numeric arguments only."""

    @pytest.mark.parametrize("operation", [Aggregation, TemporalAggregation])
    def test_output_domains(self, operation, employee):
        functions = [
            AggregateFunction(kind, argument)
            for kind, argument in [
                (AggregateKind.COUNT, "EmpName"),
                (AggregateKind.MIN, "EmpName"),
                (AggregateKind.MAX, "T1"),
                (AggregateKind.SUM, "T1"),
                (AggregateKind.AVG, "T2"),
            ]
        ]
        schema = operation(["Dept"], functions, LiteralRelation(employee)).output_schema()
        assert [schema.domain_of(function.output_name) for function in functions] == [
            INTEGER, STRING, TIME, FLOAT, FLOAT,
        ]

    @staticmethod
    def database():
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.register("PROJECT", project_relation())
        return database

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT Dept, MIN(EmpName) FROM EMPLOYEE GROUP BY Dept",
            "SELECT Dept, MAX(EmpName) AS M FROM EMPLOYEE GROUP BY Dept",
            "SELECT MIN(EmpName) FROM EMPLOYEE",
        ],
    )
    def test_min_max_of_a_string_match_the_reference(self, statement):
        database = self.database()
        result = database.execute(statement)
        reference = database.evaluate_reference(database.parse(statement)[0])
        schema = result.relation.schema
        aggregate = schema.attributes[-3]  # the last attribute before T1, T2
        assert schema.domain_of(aggregate) == STRING
        assert sorted(result.relation.rows) == sorted(reference.rows)

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT Dept, SUM(EmpName) FROM EMPLOYEE GROUP BY Dept",
            "SELECT AVG(Dept) FROM EMPLOYEE",
        ],
    )
    def test_sum_avg_of_a_string_is_a_parse_error(self, statement):
        metrics = MetricsRegistry()
        session = Session(self.database(), options=ExecutionOptions(metrics=metrics))
        with pytest.raises(ParseError, match="numeric"):
            session.execute(statement)
        assert "repro_degraded_total{" not in metrics.exposition()
