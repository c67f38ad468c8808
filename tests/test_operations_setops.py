"""Tests for union ALL, multiset union, temporal union, and the differences."""

import pytest
from hypothesis import given

from repro.core.exceptions import SchemaError
from repro.core.expressions import count
from repro.core.operations import (
    Coalescing,
    Difference,
    LiteralRelation,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    Union,
    UnionAll,
)
from repro.core.operations.base import EvaluationContext
from repro.core.relation import Relation
from repro.core.schema import RelationSchema, STRING
from repro.core.tuples import Tuple

from .strategies import (
    NARROW_TEMPORAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    narrow_temporal_relations,
    snapshot_relations,
)

CONTEXT = EvaluationContext()


def run(op):
    return op.evaluate(CONTEXT)


def srel(*rows):
    return Relation.from_rows(SNAPSHOT_SCHEMA, rows)


def trel(*rows):
    return Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows)


class TestUnionAll:
    def test_concatenates(self):
        result = run(UnionAll(LiteralRelation(srel(("a", 1))), LiteralRelation(srel(("b", 2)))))
        assert [tup["Name"] for tup in result] == ["a", "b"]

    def test_generates_duplicates(self):
        result = run(UnionAll(LiteralRelation(srel(("a", 1))), LiteralRelation(srel(("a", 1)))))
        assert result.has_duplicates()

    def test_requires_union_compatibility(self):
        incompatible = RelationSchema.snapshot([("Other", STRING)])
        other = Relation.from_rows(incompatible, [("x",)])
        with pytest.raises(SchemaError):
            run(UnionAll(LiteralRelation(srel(("a", 1))), LiteralRelation(other)))

    @given(snapshot_relations(), snapshot_relations())
    def test_cardinality_is_the_sum(self, left, right):
        result = run(UnionAll(LiteralRelation(left), LiteralRelation(right)))
        assert result.cardinality == left.cardinality + right.cardinality


class TestMultisetUnion:
    def test_takes_maximum_of_counts(self):
        left = srel(("a", 1), ("a", 1), ("b", 2))
        right = srel(("a", 1), ("c", 3))
        result = run(Union(LiteralRelation(left), LiteralRelation(right)))
        counts = result.as_multiset()
        values = {tuple(tup.values()): count for tup, count in counts.items()}
        assert values == {("a", 1): 2, ("b", 2): 1, ("c", 3): 1}

    def test_retains_duplicate_freedom(self):
        left = srel(("a", 1), ("b", 2))
        right = srel(("b", 2), ("c", 3))
        result = run(Union(LiteralRelation(left), LiteralRelation(right)))
        assert not result.has_duplicates()

    @given(snapshot_relations(), snapshot_relations())
    def test_count_is_max_of_argument_counts(self, left, right):
        result = run(Union(LiteralRelation(left), LiteralRelation(right)))
        result_counts = result.as_multiset()
        left_counts, right_counts = left.as_multiset(), right.as_multiset()
        for tup in set(left_counts) | set(right_counts):
            assert result_counts[tup] == max(left_counts[tup], right_counts[tup])

    @given(snapshot_relations(), snapshot_relations())
    def test_table1_cardinality_bounds(self, left, right):
        result = run(Union(LiteralRelation(left), LiteralRelation(right)))
        assert result.cardinality >= max(left.cardinality, right.cardinality)
        assert result.cardinality <= left.cardinality + right.cardinality


class TestTemporalUnion:
    def test_left_tuples_survive_unchanged(self):
        left = trel(("a", 1, 5))
        right = trel(("a", 3, 8))
        result = run(TemporalUnion(LiteralRelation(left), LiteralRelation(right)))
        periods = [(tup["Name"], tup["T1"], tup["T2"]) for tup in result]
        assert periods == [("a", 1, 5), ("a", 5, 8)]

    def test_disjoint_values_concatenate(self):
        left = trel(("a", 1, 3))
        right = trel(("b", 1, 3))
        result = run(TemporalUnion(LiteralRelation(left), LiteralRelation(right)))
        assert result.cardinality == 2

    def test_covered_right_tuple_contributes_nothing(self):
        left = trel(("a", 1, 10))
        right = trel(("a", 3, 5))
        result = run(TemporalUnion(LiteralRelation(left), LiteralRelation(right)))
        assert result.cardinality == 1

    @given(narrow_temporal_relations(max_size=5), narrow_temporal_relations(max_size=5))
    def test_snapshot_presence_is_the_union_of_presences(self, left, right):
        """At every point, a value is present iff it is present in either argument."""
        result = run(TemporalUnion(LiteralRelation(left), LiteralRelation(right)))
        points = set()
        for relation in (left, right):
            for tup in relation:
                points.update(tup.period.points())
        for time in points:
            expected = left.snapshot(time).as_set() | right.snapshot(time).as_set()
            assert result.snapshot(time).as_set() == expected


class TestDifference:
    def test_multiset_semantics(self):
        left = srel(("a", 1), ("a", 1), ("b", 2))
        right = srel(("a", 1))
        result = run(Difference(LiteralRelation(left), LiteralRelation(right)))
        assert [tuple(tup.values()) for tup in result] == [("a", 1), ("b", 2)]

    def test_preserves_left_order(self):
        left = srel(("c", 3), ("a", 1), ("b", 2))
        right = srel(("a", 1))
        result = run(Difference(LiteralRelation(left), LiteralRelation(right)))
        assert [tup["Name"] for tup in result] == ["c", "b"]

    def test_right_surplus_is_ignored(self):
        left = srel(("a", 1))
        right = srel(("a", 1), ("a", 1), ("z", 9))
        result = run(Difference(LiteralRelation(left), LiteralRelation(right)))
        assert result.is_empty()

    @given(snapshot_relations(), snapshot_relations())
    def test_count_arithmetic(self, left, right):
        result = run(Difference(LiteralRelation(left), LiteralRelation(right)))
        result_counts = result.as_multiset()
        left_counts, right_counts = left.as_multiset(), right.as_multiset()
        for tup in set(left_counts):
            assert result_counts[tup] == max(0, left_counts[tup] - right_counts[tup])
        assert max(0, left.cardinality - right.cardinality) <= result.cardinality <= left.cardinality


class TestTemporalDifference:
    def test_figure1_result(self, employee, project, expected_result):
        """The motivating query, built by hand from the algebra."""
        from repro.core.operations import Coalescing, Projection, Sort
        from repro.core.order_spec import OrderSpec

        left = TemporalDuplicateElimination(
            Projection(["EmpName", "T1", "T2"], LiteralRelation(employee))
        )
        right = Projection(["EmpName", "T1", "T2"], LiteralRelation(project))
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(
                TemporalDuplicateElimination(TemporalDifference(left, right))
            ),
        )
        result = run(plan)
        assert result.as_list() == expected_result.as_list()

    def test_subtracts_periods_of_value_equivalent_tuples(self):
        left = trel(("a", 1, 10))
        right = trel(("a", 3, 5), ("a", 7, 8))
        result = run(TemporalDifference(LiteralRelation(left), LiteralRelation(right)))
        assert [(tup["T1"], tup["T2"]) for tup in result] == [(1, 3), (5, 7), (8, 10)]

    def test_other_values_do_not_interfere(self):
        left = trel(("a", 1, 5))
        right = trel(("b", 1, 5))
        result = run(TemporalDifference(LiteralRelation(left), LiteralRelation(right)))
        assert result.cardinality == 1

    def test_complete_coverage_removes_tuple(self):
        left = trel(("a", 2, 4))
        right = trel(("a", 1, 5))
        result = run(TemporalDifference(LiteralRelation(left), LiteralRelation(right)))
        assert result.is_empty()

    @given(narrow_temporal_relations(max_size=5), narrow_temporal_relations(max_size=5))
    def test_snapshot_reducibility_for_duplicate_free_left(self, left, right):
        """With a snapshot-duplicate-free left argument, snapshots subtract pointwise."""
        deduplicated = run(TemporalDuplicateElimination(LiteralRelation(left)))
        result = run(
            TemporalDifference(LiteralRelation(deduplicated), LiteralRelation(right))
        )
        points = set()
        for tup in deduplicated:
            points.update(tup.period.points())
        for time in points:
            expected = deduplicated.snapshot(time).as_set() - right.snapshot(time).as_set()
            assert result.snapshot(time).as_set() == expected


VALUE_SCHEMA = RelationSchema.temporal([("A", STRING), ("B", STRING)], name="L")
#: The same attributes in another order: union-compatible with ``VALUE_SCHEMA``.
PERMUTED_VALUE_SCHEMA = RelationSchema.from_pairs(
    [(name, VALUE_SCHEMA.domain_of(name)) for name in ("B", "A", "T1", "T2")], name="P"
)


class TestValueEquivalenceIsByName:
    """Union compatibility ignores attribute order, so value equivalence must.

    A right argument over ``(B, A, T1, T2)`` holds the same values as a left
    one over ``(A, B, T1, T2)``; ``\\T`` and ``∪T`` — the reference definitions
    and the stratum's operators alike — must see them as equal,
    and the unchanged-order case must give exactly the rows it always gave.
    """

    def relations(self, permuted):
        left = Relation.from_rows(VALUE_SCHEMA, [("x", "y", 1, 5), ("y", "x", 2, 9)])
        rows = [("x", "y", 3, 5), ("y", "x", 1, 4)]  # as (A, B, T1, T2)
        if not permuted:
            return left, Relation.from_rows(VALUE_SCHEMA, rows)
        return left, Relation.from_rows(
            PERMUTED_VALUE_SCHEMA, [(b, a, t1, t2) for a, b, t1, t2 in rows]
        )

    def both_paths(self, operation, *arguments):
        """The reference definition's result and the stratum executor's."""
        from repro.dbms import ConventionalDBMS
        from repro.stratum import StratumExecutor

        plan = operation(*map(LiteralRelation, arguments))
        executor = StratumExecutor(ConventionalDBMS())
        results = [run(plan), executor.execute(plan)]
        assert executor.report.degraded_operations == []
        return results

    @pytest.mark.parametrize("permuted", [False, True])
    def test_temporal_difference(self, permuted):
        left, right = self.relations(permuted)
        for result in self.both_paths(TemporalDifference, left, right):
            assert result.schema.attributes == ("A", "B", "T1", "T2")
            assert [tup.values() for tup in result] == [("x", "y", 1, 3), ("y", "x", 4, 9)]

    @pytest.mark.parametrize("permuted", [False, True])
    def test_temporal_union(self, permuted):
        left, right = self.relations(permuted)
        for result in self.both_paths(TemporalUnion, left, right):
            assert result.schema.attributes == ("A", "B", "T1", "T2")
            assert [tup.values() for tup in result] == [
                ("x", "y", 1, 5), ("y", "x", 2, 9), ("y", "x", 1, 2),
            ]

    def test_equal_values_under_swapped_names_cancel(self):
        left = Relation.from_rows(VALUE_SCHEMA, [("x", "y", 1, 5)])
        right = Relation.from_rows(PERMUTED_VALUE_SCHEMA, [("y", "x", 1, 5)])  # B=y, A=x
        for result in self.both_paths(TemporalDifference, left, right):
            assert result.is_empty()

    def test_one_relation_may_mix_attribute_orders(self):
        """A relation admits tuples over any schema with its attribute set, so
        every temporal operation must class its tuples by name — ``coalT``
        used to key them by position and left ``[1,3)``/``[3,5)`` unmerged."""

        def tup(schema, a, b, t1, t2):
            return Tuple(schema, {"A": a, "B": b, "T1": t1, "T2": t2})

        ours, theirs = VALUE_SCHEMA, PERMUTED_VALUE_SCHEMA
        mixed = Relation(
            ours,
            [
                tup(ours, "x", "y", 1, 3), tup(theirs, "x", "y", 3, 5), tup(ours, "y", "x", 1, 4),
                tup(theirs, "x", "y", 2, 6), tup(theirs, "y", "x", 4, 6),
            ],
        )
        other = Relation(theirs, [tup(theirs, "x", "y", 2, 4), tup(theirs, "y", "x", 0, 2)])

        def by_name(result):
            return [tuple(tup[a] for a in ("A", "B", "T1", "T2")) for tup in result]

        expected = {
            (Coalescing, mixed): [("x", "y", 1, 5), ("y", "x", 1, 6), ("x", "y", 2, 6)],
            (TemporalDuplicateElimination, mixed): [
                ("x", "y", 1, 3), ("x", "y", 3, 5), ("y", "x", 1, 4), ("x", "y", 5, 6), ("y", "x", 4, 6),
            ],
            (TemporalDifference, mixed, other): [
                ("x", "y", 1, 2), ("x", "y", 4, 5), ("y", "x", 2, 4), ("x", "y", 4, 6), ("y", "x", 4, 6),
            ],
            (TemporalDifference, other, mixed): [("y", "x", 0, 1)],
            (TemporalUnion, mixed, other): by_name(mixed) + [("y", "x", 0, 1)],
            (TemporalUnion, other, mixed): by_name(other) + [
                ("x", "y", 1, 2), ("x", "y", 4, 5), ("y", "x", 2, 4), ("x", "y", 4, 6), ("y", "x", 4, 6),
            ],
        }
        for (operation, *arguments), rows in expected.items():
            reference, executed = self.both_paths(operation, *arguments)
            assert by_name(reference) == rows, operation.symbol
            assert list(executed.tuples) == list(reference.tuples), operation.symbol

        def aggregation(argument):
            return TemporalAggregation(["A", "B"], [count(alias="n")], argument)

        reference, executed = self.both_paths(aggregation, mixed)
        assert [tup.values() for tup in reference][:3] == [
            ("x", "y", 1, 1, 2), ("x", "y", 2, 2, 3), ("x", "y", 2, 3, 4),
        ]
        assert list(executed.tuples) == list(reference.tuples)

    def test_tuples_over_other_attributes_are_never_value_equivalent(self):
        (left,) = Relation.from_rows(VALUE_SCHEMA, [("x", "y", 1, 5)]).tuples
        (permuted,) = Relation.from_rows(PERMUTED_VALUE_SCHEMA, [("y", "x", 7, 8)]).tuples
        (narrow,) = trel(("x", 1, 5)).tuples
        assert left.value_equivalent(permuted) and permuted.value_equivalent(left)
        assert not left.value_equivalent(narrow)
