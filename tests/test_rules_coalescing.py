"""Unit tests for the coalescing rules C1–C10 (Figure 4)."""

from repro.core.equivalence import (
    list_equivalent,
    multiset_equivalent,
    set_equivalent,
    snapshot_multiset_equivalent,
)
from repro.core.expressions import equals, greater_than
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    Projection,
    Selection,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    UnionAll,
)
from repro.core.expressions import count
from repro.core.operations.base import EvaluationContext
from repro.core.relation import Relation
from repro.core.rules import rules_by_name
from repro.core.schema import RelationSchema, STRING
from repro.workloads import figure3_r1, figure3_r3

from .strategies import NARROW_TEMPORAL_SCHEMA

CONTEXT = EvaluationContext()
RULES = rules_by_name()


def run(op):
    return op.evaluate(CONTEXT)


def trel(*rows):
    return Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows)


def dedup(node):
    return TemporalDuplicateElimination(node)


class TestC1:
    def test_removes_redundant_coalescing(self):
        coalesced = LiteralRelation(trel(("a", 1, 5), ("b", 2, 4)))
        plan = Coalescing(coalesced)
        application = RULES["C1"].apply(plan)
        assert application is not None
        assert list_equivalent(run(plan), run(application.replacement))

    def test_requires_coalesced_argument(self):
        plan = Coalescing(LiteralRelation(trel(("a", 1, 3), ("a", 3, 5))))
        assert RULES["C1"].apply(plan) is None

    def test_matches_above_another_coalescing(self, r1):
        plan = Coalescing(Coalescing(LiteralRelation(r1)))
        application = RULES["C1"].apply(plan)
        assert application is not None
        assert list_equivalent(run(plan), run(application.replacement))


class TestC2:
    def test_drop_coalescing_preserves_snapshots(self, r1):
        plan = Coalescing(LiteralRelation(r1))
        application = RULES["C2"].apply(plan)
        assert application is not None
        assert snapshot_multiset_equivalent(run(plan), run(application.replacement))

    def test_not_necessarily_multiset_equivalent(self):
        relation = trel(("a", 1, 3), ("a", 3, 5))
        plan = Coalescing(LiteralRelation(relation))
        application = RULES["C2"].apply(plan)
        assert not multiset_equivalent(run(plan), run(application.replacement))


class TestC3:
    def test_pushes_selection_below_coalescing(self, r1):
        plan = Selection(equals("EmpName", "Anna"), Coalescing(LiteralRelation(r1)))
        application = RULES["C3"].apply(plan)
        assert application is not None
        rewritten = application.replacement
        assert isinstance(rewritten, Coalescing)
        assert isinstance(rewritten.child, Selection)
        assert list_equivalent(run(plan), run(rewritten))

    def test_blocked_for_temporal_predicates(self, r1):
        plan = Selection(greater_than("T1", 3), Coalescing(LiteralRelation(r1)))
        assert RULES["C3"].apply(plan) is None


class TestC4:
    def test_drops_coalescing_below_nontemporal_projection(self, r1):
        plan = Projection(["EmpName"], Coalescing(LiteralRelation(r1)))
        application = RULES["C4"].apply(plan)
        assert application is not None
        assert set_equivalent(run(plan), run(application.replacement))

    def test_blocked_when_projection_keeps_time(self, r1):
        plan = Projection(["EmpName", "T1", "T2"], Coalescing(LiteralRelation(r1)))
        assert RULES["C4"].apply(plan) is None


class TestC5AndC6:
    def test_c5_merges_coalescings_over_union_all(self):
        left = trel(("a", 1, 3), ("a", 3, 5))
        right = trel(("b", 2, 4), ("b", 4, 6))
        plan = Coalescing(
            UnionAll(Coalescing(LiteralRelation(left)), Coalescing(LiteralRelation(right)))
        )
        application = RULES["C5"].apply(plan)
        assert application is not None
        # Registered as ≡SM (see the rule's docstring); on this particular
        # instance the results even coincide as lists.
        assert snapshot_multiset_equivalent(run(plan), run(application.replacement))
        assert list_equivalent(run(plan), run(application.replacement))

    def test_c6_merges_coalescings_over_temporal_union(self):
        left = trel(("a", 1, 3), ("a", 3, 5))
        right = trel(("a", 2, 4), ("b", 4, 6))
        plan = Coalescing(
            TemporalUnion(Coalescing(LiteralRelation(left)), Coalescing(LiteralRelation(right)))
        )
        application = RULES["C6"].apply(plan)
        assert application is not None
        assert list_equivalent(run(plan), run(application.replacement))

    def test_c6_requires_arguments_without_snapshot_duplicates(self):
        # With (a, 1, 4) and (a, 4, 7) overlapping (a, 5, 6), which adjacent
        # pair coalT merges depends on the arrangement: the two sides differ
        # as lists, so the rule must not fire.
        left = trel(("a", 1, 5))
        right = trel(("a", 1, 4), ("a", 5, 6), ("a", 4, 7))
        for r1, r2 in ((left, right), (right, left)):
            plan = Coalescing(
                TemporalUnion(Coalescing(LiteralRelation(r1)), Coalescing(LiteralRelation(r2)))
            )
            assert RULES["C6"].apply(plan) is None

    def test_c5_requires_inner_coalescings(self):
        plan = Coalescing(
            UnionAll(LiteralRelation(trel(("a", 1, 3))), LiteralRelation(trel(("b", 1, 3))))
        )
        assert RULES["C5"].apply(plan) is None


class TestC7:
    def test_merges_coalescing_below_temporal_aggregation(self):
        relation = trel(("a", 1, 3), ("a", 3, 5), ("b", 2, 6))
        plan = Coalescing(
            TemporalAggregation(["Name"], [count(alias="n")], Coalescing(LiteralRelation(relation)))
        )
        application = RULES["C7"].apply(plan)
        assert application is not None
        assert list_equivalent(run(plan), run(application.replacement))


class TestC8:
    def test_merges_coalescing_below_time_preserving_projection(self, r3):
        plan = Coalescing(
            Projection(["EmpName", "T1", "T2"], Coalescing(LiteralRelation(r3)))
        )
        application = RULES["C8"].apply(plan)
        assert application is not None
        assert list_equivalent(run(plan), run(application.replacement))

    def test_requires_snapshot_duplicate_freedom(self, r1):
        plan = Coalescing(
            Projection(["EmpName", "T1", "T2"], Coalescing(LiteralRelation(r1)))
        )
        assert RULES["C8"].apply(plan) is None


class TestC9:
    def make_plan(self, left, right):
        product = TemporalCartesianProduct(left, right)
        keep = [
            attribute
            for attribute in product.output_schema().attributes
            if attribute not in ("1.T1", "1.T2", "2.T1", "2.T2")
        ]
        return Coalescing(Projection(keep, product))

    def test_pushes_coalescing_into_product_arguments(self):
        dept_schema = RelationSchema.temporal([("Dept", STRING)], name="D")
        left = LiteralRelation(trel(("a", 1, 3), ("a", 3, 6)))
        right = LiteralRelation(Relation.from_rows(dept_schema, [("Sales", 2, 5)]))
        plan = self.make_plan(left, right)
        application = RULES["C9"].apply(plan)
        assert application is not None
        rewritten = application.replacement
        assert isinstance(rewritten, Projection)
        assert list_equivalent(run(plan), run(rewritten))

    def test_requires_snapshot_duplicate_free_arguments(self, r1):
        dept_schema = RelationSchema.temporal([("Dept", STRING)], name="D")
        right = LiteralRelation(Relation.from_rows(dept_schema, [("Sales", 2, 5)]))
        plan = self.make_plan(LiteralRelation(r1), right)
        assert RULES["C9"].apply(plan) is None


class TestC10:
    def test_pushes_coalescing_below_temporal_difference(self, r3, r1):
        plan = Coalescing(TemporalDifference(LiteralRelation(r3), LiteralRelation(r1)))
        application = RULES["C10"].apply(plan)
        assert application is not None
        rewritten = application.replacement
        assert isinstance(rewritten, TemporalDifference)
        assert multiset_equivalent(run(plan), run(rewritten))

    def test_requires_snapshot_duplicate_free_left_argument(self, r1, r3):
        plan = Coalescing(TemporalDifference(LiteralRelation(r1), LiteralRelation(r3)))
        assert RULES["C10"].apply(plan) is None

    def test_paper_example_application(self, employee, project):
        """The Section 6 walk-through applies C10 to push coalescing below \\T."""
        left = dedup(Projection(["EmpName", "T1", "T2"], LiteralRelation(employee)))
        right = Projection(["EmpName", "T1", "T2"], LiteralRelation(project))
        plan = Coalescing(TemporalDifference(left, right))
        application = RULES["C10"].apply(plan)
        assert application is not None
        assert multiset_equivalent(run(plan), run(application.replacement))
