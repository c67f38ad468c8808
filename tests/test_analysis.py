"""Tests for the static plan analyses (guarantees, derived order and bounds)."""

from hypothesis import given, settings, strategies as st

from repro.core.analysis import (
    derive_order,
    guarantees_coalesced,
    guarantees_no_duplicates,
    guarantees_no_snapshot_duplicates,
    static_guarantees,
)
from repro.core.expressions import (
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Parameter,
    count,
    equals,
)
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    Coalescing,
    Difference,
    DuplicateElimination,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToStratum,
    UnionAll,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.session import bind_parameters
from repro.workloads import EMPLOYEE_SCHEMA, employee_relation, figure3_r1, figure3_r3

from .strategies import conventional_plans, narrow_temporal_relations, temporal_shaped_plans

CONTEXT = EvaluationContext()


class TestDuplicateFreedomGuarantee:
    def test_base_relations_are_unknown(self):
        assert not guarantees_no_duplicates(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))

    def test_literal_relations_are_inspected(self, r1, r3):
        assert not guarantees_no_duplicates(LiteralRelation(r1))
        assert guarantees_no_duplicates(LiteralRelation(r3))

    def test_eliminating_operations_guarantee(self, r1):
        assert guarantees_no_duplicates(DuplicateElimination(LiteralRelation(r1)))
        assert guarantees_no_duplicates(TemporalDuplicateElimination(LiteralRelation(r1)))
        assert guarantees_no_duplicates(Aggregation(["EmpName"], [count()], LiteralRelation(r1)))

    def test_retaining_operations_propagate(self, r3):
        plan = Selection(equals("EmpName", "Anna"), LiteralRelation(r3))
        assert guarantees_no_duplicates(plan)
        assert guarantees_no_duplicates(Sort(OrderSpec.ascending("EmpName"), plan))

    def test_generating_operations_lose_the_guarantee(self, r3):
        assert not guarantees_no_duplicates(Projection(["EmpName"], LiteralRelation(r3)))
        assert not guarantees_no_duplicates(
            UnionAll(LiteralRelation(r3), LiteralRelation(r3))
        )

    def test_difference_needs_only_the_left_guarantee(self, r1, r3):
        assert guarantees_no_duplicates(Difference(LiteralRelation(r3), LiteralRelation(r1)))
        assert not guarantees_no_duplicates(Difference(LiteralRelation(r1), LiteralRelation(r3)))

    @given(narrow_temporal_relations(max_size=6))
    def test_guarantee_is_sound(self, relation):
        plans = [
            DuplicateElimination(LiteralRelation(relation)),
            TemporalDuplicateElimination(LiteralRelation(relation)),
            Selection(equals("Name", "John"), TemporalDuplicateElimination(LiteralRelation(relation))),
        ]
        for plan in plans:
            if guarantees_no_duplicates(plan):
                assert not plan.evaluate(CONTEXT).has_duplicates()


class TestSnapshotDuplicateFreedomGuarantee:
    def test_rdupt_establishes_it(self, r1):
        assert guarantees_no_snapshot_duplicates(TemporalDuplicateElimination(LiteralRelation(r1)))

    def test_projection_destroys_it(self, employee):
        plan = Projection(
            ["EmpName", "T1", "T2"], TemporalDuplicateElimination(LiteralRelation(employee))
        )
        assert not guarantees_no_snapshot_duplicates(plan)

    def test_temporal_difference_left_propagates(self, r1, r3):
        plan = TemporalDifference(
            TemporalDuplicateElimination(LiteralRelation(r1)), LiteralRelation(r1)
        )
        assert guarantees_no_snapshot_duplicates(plan)

    def test_coalescing_retains_it(self, r3):
        assert guarantees_no_snapshot_duplicates(Coalescing(LiteralRelation(r3)))

    def test_temporal_union_needs_both(self, r1, r3):
        assert guarantees_no_snapshot_duplicates(
            TemporalUnion(LiteralRelation(r3), LiteralRelation(r3))
        )
        assert not guarantees_no_snapshot_duplicates(
            TemporalUnion(LiteralRelation(r3), LiteralRelation(r1))
        )

    @given(narrow_temporal_relations(max_size=6))
    def test_guarantee_is_sound(self, relation):
        plans = [
            TemporalDuplicateElimination(LiteralRelation(relation)),
            Coalescing(TemporalDuplicateElimination(LiteralRelation(relation))),
            Selection(equals("Name", "John"), TemporalDuplicateElimination(LiteralRelation(relation))),
        ]
        for plan in plans:
            if guarantees_no_snapshot_duplicates(plan):
                assert not plan.evaluate(CONTEXT).has_snapshot_duplicates()


class TestCoalescedGuarantee:
    def test_coalescing_establishes_it(self, r1):
        assert guarantees_coalesced(Coalescing(LiteralRelation(r1)))

    def test_selection_retains_it(self, r1):
        plan = Selection(equals("EmpName", "Anna"), Coalescing(LiteralRelation(r1)))
        assert guarantees_coalesced(plan)

    def test_literal_relations_are_inspected(self, expected_result, r1):
        assert guarantees_coalesced(LiteralRelation(expected_result))
        assert not guarantees_coalesced(LiteralRelation(r1))

    def test_temporal_difference_destroys_it(self, r3):
        plan = TemporalDifference(Coalescing(LiteralRelation(r3)), LiteralRelation(r3))
        assert not guarantees_coalesced(plan)

    @given(narrow_temporal_relations(max_size=6))
    def test_guarantee_is_sound(self, relation):
        plans = [
            Coalescing(LiteralRelation(relation)),
            Sort(OrderSpec.ascending("Name"), Coalescing(LiteralRelation(relation))),
            TransferToStratum(Coalescing(LiteralRelation(relation))),
        ]
        for plan in plans:
            if guarantees_coalesced(plan):
                result = plan.evaluate(CONTEXT)
                assert result.is_coalesced()


class TestDerivedOrder:
    def test_sort_overrides(self, employee):
        plan = Sort(OrderSpec.ascending("Dept"), LiteralRelation(employee))
        assert derive_order(plan) == OrderSpec.ascending("Dept")

    def test_temporal_operations_drop_time_keys(self, employee):
        sorted_scan = Sort(OrderSpec.ascending("EmpName", "T1"), LiteralRelation(employee))
        plan = TemporalDuplicateElimination(sorted_scan)
        assert derive_order(plan) == OrderSpec.ascending("EmpName")


def cold_copy(node):
    """A structurally equal tree built through the constructors alone, so no
    cached answer can have travelled with it (``with_children`` is under test)."""
    return type(node)(*node.params(), *(cold_copy(child) for child in node.children))


def caches(node):
    return (node._hash, node._order, node._guarantees)


def analysed(node):
    return (
        derive_order(node),
        static_guarantees(node),
        guarantees_no_duplicates(node),
        guarantees_no_snapshot_duplicates(node),
        guarantees_coalesced(node),
        hash(node),
    )


def assert_memoised_answers_are_fresh(tree):
    """At every node, what the node remembers equals what a cold copy computes."""
    twin = cold_copy(tree)
    assert twin == tree and tree.signature() == twin.signature()
    assert all(caches(cold) == (None, None, None) for _, cold in twin.locations())
    for (_, node), (_, cold) in zip(tree.locations(), twin.locations()):
        remembered = analysed(node)
        assert remembered == analysed(cold) == analysed(node)
        assert caches(node) == caches(cold) and None not in caches(node)


class TestAnalysesAreMemoisedOnTheNode:
    """One answer per immutable node — and a copy never inherits a stale one."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(conventional_plans(), temporal_shaped_plans()), st.data())
    def test_copies_start_empty_and_shared_subtrees_keep_their_answers(self, plan, data):
        assert_memoised_answers_are_fresh(plan)  # also fills every node of ``plan``

        # Rebuilt node by node with ``with_children``: all new, all empty.
        def rebuild(node):
            return node.with_children([rebuild(child) for child in node.children])

        rebuilt = rebuild(plan)
        assert all(caches(node) == (None, None, None) for _, node in rebuilt.locations())
        assert_memoised_answers_are_fresh(rebuilt)
        assert analysed(rebuilt) == analysed(plan)

        # ``replace_at`` with a subtree whose order and guarantees differ: the
        # spine is new and empty, everything off it is the same analysed node.
        path, old = data.draw(st.sampled_from(list(plan.locations())))
        schema = old.output_schema()
        wrapped = Sort(OrderSpec.of(f"{schema.attributes[0]} DESC"), old)
        wrapped = Coalescing(wrapped) if schema.is_temporal else DuplicateElimination(wrapped)
        replaced = plan.replace_at(path, wrapped)
        for depth in range(len(path)):
            assert caches(replaced.subtree_at(path[:depth])) == (None, None, None)
        for location, node in plan.locations():
            off_spine = location[: len(path)] != path and path[: len(location)] != location
            if off_spine or location == path:
                kept = replaced.subtree_at(path + (0, 0)) if location == path else (
                    replaced.subtree_at(location)
                )
                assert kept is node and caches(kept) != (None, None, None)
        assert_memoised_answers_are_fresh(replaced)

        # ``bind_parameters``: the node holding the marker is rebuilt, its
        # parameter-free child is shared.
        attribute = AttributeRef(plan.output_schema().attributes[0])
        marked = Selection(Comparison(ComparisonOperator.NE, attribute, Parameter(0)), plan)
        assert_memoised_answers_are_fresh(marked)
        bound = bind_parameters(marked, ("Anna",))
        assert bound is not marked and bound.children[0] is plan
        assert caches(bound) == (None, None, None)
        assert_memoised_answers_are_fresh(bound)
        assert hash(bound) != hash(marked) and analysed(bound)[:5] == analysed(marked)[:5]
