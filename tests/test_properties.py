"""Tests for the Table 2 operation properties and their propagation (Section 5.3)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.expressions import equals
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
    UnionAll,
)
from repro.core.order_spec import OrderSpec
from repro.core.properties import (
    OperationProperties,
    _child_properties,
    annotate,
    annotated_pretty,
    child_properties,
)
from repro.core.query import QueryResultSpec
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation, project_relation
from repro.core.operations import BaseRelation

from .strategies import conventional_plans, join_shaped_plans, temporal_shaped_plans


def paper_initial_plan():
    """The Figure 2(a) plan (without the outermost transfer, added where needed)."""
    employee = Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
    project = Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))
    difference = TemporalDifference(TemporalDuplicateElimination(employee), project)
    return TransferToStratum(
        Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(TemporalDuplicateElimination(difference)),
        )
    )


LIST_QUERY = QueryResultSpec.list(OrderSpec.ascending("EmpName"), distinct=True)


class TestRootProperties:
    def test_list_query_root(self):
        plan = paper_initial_plan()
        properties = annotate(plan, LIST_QUERY)
        root = properties[()]
        assert root == OperationProperties(True, True, True)

    def test_multiset_query_root(self):
        plan = paper_initial_plan()
        root = annotate(plan, QueryResultSpec.multiset())[()]
        assert root.order_required is False
        assert root.duplicates_relevant is True
        assert root.period_preserving is True

    def test_set_query_root(self):
        plan = paper_initial_plan()
        root = annotate(plan, QueryResultSpec.set())[()]
        assert root.order_required is False
        assert root.duplicates_relevant is False


class TestFigure2Regions:
    """The shaded regions of Figure 2(a), expressed through the properties."""

    def setup_method(self):
        self.plan = paper_initial_plan()
        self.properties = annotate(self.plan, LIST_QUERY)
        # Path map (below the TS at the root):
        #   (0,)          sort
        #   (0, 0)        coalT
        #   (0, 0, 0)     rdupT (outer)
        #   (0, 0, 0, 0)  \T
        #   (0, 0, 0, 0, 0)        rdupT (inner, left argument)
        #   (0, 0, 0, 0, 0, 0)     π(EMPLOYEE)
        #   (0, 0, 0, 0, 1)        π(PROJECT)

    def test_order_not_required_below_sort(self):
        """Everything below the sort lies in the lightly shaded region."""
        for path, properties in self.properties.items():
            if len(path) >= 2:  # strictly below the sort
                assert properties.order_required is False, path

    def test_order_required_at_and_above_sort(self):
        assert self.properties[()].order_required is True
        assert self.properties[(0,)].order_required is True

    def test_duplicates_irrelevant_below_outer_rdupt(self):
        """The darker region: below the outer rdupT duplicates do not matter."""
        assert self.properties[(0, 0, 0, 0)].duplicates_relevant is False  # \T
        assert self.properties[(0, 0, 0, 0, 1)].duplicates_relevant is False  # right π

    def test_inner_rdupt_subtree_duplicates(self):
        """Below the inner rdupT (left argument of \\T), duplicates are again irrelevant."""
        assert self.properties[(0, 0, 0, 0, 0, 0)].duplicates_relevant is False

    def test_duplicates_relevant_above_the_difference(self):
        assert self.properties[(0,)].duplicates_relevant is True
        assert self.properties[(0, 0)].duplicates_relevant is True

    def test_periods_need_not_be_preserved_below_coalescing(self):
        """Below coalT (whose argument is snapshot-duplicate free) periods are free."""
        for path, properties in self.properties.items():
            if len(path) >= 3:  # strictly below the coalescing
                assert properties.period_preserving is False, path

    def test_periods_preserved_at_the_top(self):
        assert self.properties[()].period_preserving is True
        assert self.properties[(0,)].period_preserving is True
        assert self.properties[(0, 0)].period_preserving is True


class TestPropagationDetails:
    def test_sort_clears_order_requirement(self, employee):
        plan = Sort(OrderSpec.ascending("EmpName"), LiteralRelation(employee))
        properties = annotate(plan, LIST_QUERY)
        assert properties[()].order_required is True
        assert properties[(0,)].order_required is False

    def test_right_branch_of_temporal_difference_is_unordered(self, employee, project):
        plan = TemporalDifference(
            TemporalDuplicateElimination(LiteralRelation(employee)), LiteralRelation(project)
        )
        properties = annotate(plan, QueryResultSpec.list(OrderSpec.ascending("EmpName")))
        assert properties[(1,)].order_required is False
        assert properties[(0,)].order_required is True

    def test_union_all_children_are_unordered(self, employee):
        plan = UnionAll(LiteralRelation(employee), LiteralRelation(employee))
        properties = annotate(plan, QueryResultSpec.list(OrderSpec.ascending("EmpName")))
        assert properties[(0,)].order_required is False
        assert properties[(1,)].order_required is False

    def test_duplicates_stay_relevant_below_aggregation_like_operations(self, employee):
        """A duplicate irrelevance above must not leak through the difference's left branch."""
        plan = TemporalDuplicateElimination(
            TemporalDifference(LiteralRelation(employee), LiteralRelation(employee))
        )
        properties = annotate(plan, QueryResultSpec.multiset())
        # Left argument of the difference: duplicates still matter because the
        # difference itself is sensitive to them.
        assert properties[(0, 0)].duplicates_relevant is True

    def test_coalescing_with_possibly_duplicated_argument_preserves_periods(self, r1):
        plan = Coalescing(LiteralRelation(r1))
        properties = annotate(plan, QueryResultSpec.multiset())
        # R1 has duplicates in snapshots, so coalescing's result does depend
        # on how the argument's periods are packaged: the child must still
        # preserve periods.
        assert properties[(0,)].period_preserving is True

    def test_selection_with_temporal_predicate_blocks_period_irrelevance(self, employee):
        inner = Selection(equals("T1", 1), TemporalDuplicateElimination(LiteralRelation(employee)))
        plan = Coalescing(TemporalDuplicateElimination(inner))
        properties = annotate(plan, QueryResultSpec.multiset())
        # Below coalT periods are not preserved for its immediate child ...
        assert properties[(0,)].period_preserving is False
        # ... but the temporal selection needs its own argument's periods.
        assert properties[(0, 0, 0)].period_preserving is True

    def test_annotated_pretty_shows_flags(self):
        rendered = annotated_pretty(paper_initial_plan(), LIST_QUERY)
        assert "[T T T]" in rendered
        assert "[- - -]" in rendered


#: The eight property contexts a parent can be in.
ALL_CONTEXTS = [OperationProperties(*flags) for flags in itertools.product((False, True), repeat=3)]

GENERATED_PLANS = st.one_of(conventional_plans(), temporal_shaped_plans(), join_shaped_plans())


class TestThePropertyStepTable:
    """``child_properties`` answers from a table keyed by (operator type, child
    index, context, one consulted input); ``_child_properties`` — what
    :func:`annotate` runs — is its reference."""

    @settings(max_examples=80, deadline=None)
    @given(GENERATED_PLANS)
    def test_every_step_of_every_node_equals_the_reference(self, plan):
        for _, node in TransferToStratum(plan).locations():
            for index in range(len(node.children)):
                for context in ALL_CONTEXTS:
                    assert child_properties(node, index, context) == _child_properties(
                        node, index, context
                    ), (node, index, context)

    @settings(max_examples=40, deadline=None)
    @given(GENERATED_PLANS)
    def test_a_stand_in_first_child_is_the_reference_over_the_rebuilt_node(self, plan):
        """The memo's context upgrade asks about a witness in the first child's place."""
        for _, node in plan.locations():
            if not node.children:
                continue
            first, rest = node.children[0], node.children[1:]
            # One stand-in with duplicate-free snapshots, one without.
            for stand_in in (TemporalDuplicateElimination(first), UnionAll(first, first)):
                rebuilt = node.with_children((stand_in,) + rest)
                for index in range(len(node.children)):
                    for context in ALL_CONTEXTS:
                        assert child_properties(node, index, context, stand_in) == (
                            _child_properties(rebuilt, index, context)
                        ), (node, stand_in, index, context)
