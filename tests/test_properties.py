"""Tests for the Table 2 operation properties and their propagation (Section 5.3)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.analysis import guarantees_no_snapshot_duplicates
from repro.core.expressions import (
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    count,
    equals,
)
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    BinaryOperation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    UnaryOperation,
    Union,
    UnionAll,
)
from repro.core.order_spec import OrderSpec
from repro.core.properties import (
    OperationProperties,
    annotate,
    annotated_pretty,
    child_properties,
)
from repro.core.query import QueryResultSpec
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA

from .strategies import (
    NARROW_TEMPORAL_SCHEMA,
    conventional_plans,
    join_shaped_plans,
    temporal_shaped_plans,
)


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


def render_step(properties):
    """``OrderRequired DuplicatesRelevant PeriodPreserving`` as three of ``T``/``-``."""
    return "".join("T" if flag else "-" for flag in properties.as_tuple())


RELATION = BaseRelation("N", NARROW_TEMPORAL_SCHEMA)
#: A child with duplicate-free snapshots (``RELATION`` claims nothing).
FREE = TemporalDuplicateElimination(RELATION)
ON_NAME = equals("Name", "John")
ON_TIME = Comparison(ComparisonOperator.LT, AttributeRef("T1"), Literal(3))

#: One parent per (operation type, the input its step consults): the first
#: child's snapshot-duplicate freedom below ``coalT`` and ``\T``, the
#: parent's own period transparency for σ, ⋈T and π, nothing (``None``)
#: for every other type.
STEP_NODES = {
    ("Selection", True): Selection(ON_NAME, RELATION),
    ("Selection", False): Selection(ON_TIME, RELATION),
    ("Projection", True): Projection(["Name", "T1", "T2"], RELATION),
    ("Projection", False): Projection(["Name"], RELATION),
    ("UnionAll", None): UnionAll(RELATION, RELATION),
    ("CartesianProduct", None): CartesianProduct(RELATION, RELATION),
    ("Difference", None): Difference(RELATION, RELATION),
    ("Aggregation", None): Aggregation(["Name"], [count()], RELATION),
    ("DuplicateElimination", None): DuplicateElimination(RELATION),
    ("TemporalCartesianProduct", None): TemporalCartesianProduct(RELATION, RELATION),
    ("TemporalDifference", True): TemporalDifference(FREE, RELATION),
    ("TemporalDifference", False): TemporalDifference(RELATION, RELATION),
    ("TemporalAggregation", None): TemporalAggregation(["Name"], [count()], RELATION),
    ("TemporalDuplicateElimination", None): FREE,
    ("Union", None): Union(RELATION, RELATION),
    ("TemporalUnion", None): TemporalUnion(RELATION, RELATION),
    ("Sort", None): Sort(OrderSpec.ascending("Name"), RELATION),
    ("Coalescing", True): Coalescing(FREE),
    ("Coalescing", False): Coalescing(RELATION),
    ("TransferToStratum", None): TransferToStratum(RELATION),
    ("TransferToDBMS", None): TransferToDBMS(RELATION),
    ("Join", None): Join(ON_NAME, RELATION, RELATION),
    ("TemporalJoin", True): TemporalJoin(ON_NAME, RELATION, RELATION),
    ("TemporalJoin", False): TemporalJoin(ON_TIME, RELATION, RELATION),
}

#: The whole of Table 2's propagation step, pinned: (operation type, child
#: index, consulted input) → the child's properties in each of the eight
#: parent contexts of ``ALL_CONTEXTS``, in that order.
TABLE_2 = {
    ("Selection", 0, True): "--- --T -T- -TT T-- T-T TT- TTT",
    ("Selection", 0, False): "--T --T -TT -TT T-T T-T TTT TTT",
    ("Projection", 0, True): "--- --T -T- -TT T-- T-T TT- TTT",
    ("Projection", 0, False): "--T --T -TT -TT T-T T-T TTT TTT",
    ("UnionAll", 0, None): "--- --T -T- -TT --- --T -T- -TT",
    ("UnionAll", 1, None): "--- --T -T- -TT --- --T -T- -TT",
    ("CartesianProduct", 0, None): "--T --T -TT -TT T-T T-T TTT TTT",
    ("CartesianProduct", 1, None): "--T --T -TT -TT --T --T -TT -TT",
    ("Difference", 0, None): "-TT -TT -TT -TT TTT TTT TTT TTT",
    ("Difference", 1, None): "-TT -TT -TT -TT -TT -TT -TT -TT",
    ("Aggregation", 0, None): "-TT -TT -TT -TT TTT TTT TTT TTT",
    ("DuplicateElimination", 0, None): "--T --T --T --T T-T T-T T-T T-T",
    ("TemporalCartesianProduct", 0, None): "--- --T -T- -TT T-- T-T TT- TTT",
    ("TemporalCartesianProduct", 1, None): "--- --T -T- -TT --- --T -T- -TT",
    ("TemporalDifference", 0, True): "-T- -TT -T- -TT TT- TTT TT- TTT",
    ("TemporalDifference", 1, True): "--- --- --- --- --- --- --- ---",
    ("TemporalDifference", 0, False): "-T- -TT -T- -TT TT- TTT TT- TTT",
    ("TemporalDifference", 1, False): "-T- -T- -T- -T- -T- -T- -T- -T-",
    ("TemporalAggregation", 0, None): "-T- -TT -T- -TT TT- TTT TT- TTT",
    ("TemporalDuplicateElimination", 0, None): "--- --T --- --T T-- T-T T-- T-T",
    ("Union", 0, None): "--T --T -TT -TT --T --T -TT -TT",
    ("Union", 1, None): "--T --T -TT -TT --T --T -TT -TT",
    ("TemporalUnion", 0, None): "--- --T -T- -TT --- --T -T- -TT",
    ("TemporalUnion", 1, None): "--- --T -T- -TT --- --T -T- -TT",
    ("Sort", 0, None): "--- --T -T- -TT --- --T -T- -TT",
    ("Coalescing", 0, True): "--- --- -T- -T- T-- T-- TT- TT-",
    ("Coalescing", 0, False): "--- --T -T- -TT T-- T-T TT- TTT",
    ("TransferToStratum", 0, None): "--- --T -T- -TT T-- T-T TT- TTT",
    ("TransferToDBMS", 0, None): "--- --T -T- -TT T-- T-T TT- TTT",
    ("Join", 0, None): "--T --T -TT -TT T-T T-T TTT TTT",
    ("Join", 1, None): "--T --T -TT -TT --T --T -TT -TT",
    ("TemporalJoin", 0, True): "--- --T -T- -TT T-- T-T TT- TTT",
    ("TemporalJoin", 1, True): "--- --T -T- -TT --- --T -T- -TT",
    ("TemporalJoin", 0, False): "--T --T -TT -TT T-T T-T TTT TTT",
    ("TemporalJoin", 1, False): "--T --T -TT -TT --T --T -TT -TT",
}


def concrete_operation_types():
    """Every concrete :class:`Operation` subclass with children."""
    found, pending = [], list(Operation.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in (UnaryOperation, BinaryOperation) and cls.arity:
            found.append(cls)
    return found


class TestTheWholeOfTable2:
    """Every step ``child_properties`` can take, against its pinned answer."""

    def test_every_step_answers_as_pinned(self):
        for (name, index, consulted), pinned in TABLE_2.items():
            node = STEP_NODES[name, consulted]
            answers = " ".join(
                render_step(child_properties(node, index, context)) for context in ALL_CONTEXTS
            )
            assert answers == pinned, (name, index, consulted)

    def test_the_pins_cover_every_type_child_and_consulted_input(self):
        expected = {
            (cls.__name__, index, consulted)
            for (name, consulted) in STEP_NODES
            for cls in concrete_operation_types()
            if cls.__name__ == name
            for index in range(cls.arity)
        }
        assert set(TABLE_2) == expected
        assert {name for name, _ in STEP_NODES} == {
            cls.__name__ for cls in concrete_operation_types()
        }

    def test_the_consulted_inputs_are_the_ones_named(self):
        assert guarantees_no_snapshot_duplicates(FREE)
        assert not guarantees_no_snapshot_duplicates(RELATION)

    @settings(max_examples=40, deadline=None)
    @given(GENERATED_PLANS)
    def test_a_stand_in_first_child_is_the_step_of_the_rebuilt_node(self, plan):
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
                            child_properties(rebuilt, index, context)
                        ), (node, stand_in, index, context)
