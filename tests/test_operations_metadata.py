"""Tests for the Table 1 metadata: result order, cardinality bounds, behaviours.

These tests check that the *declared* metadata of every operation matches its
*observed* behaviour: the derived order specification really describes the
result's tuple sequence, the cardinality bounds really bound the result, and
the duplicate/coalescing behaviour classes hold on concrete inputs.  They
also check that every table keyed by operation type has an entry for every
concrete operation type, and that the static guarantees agree with the
declared behaviours.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.analysis import (
    GUARANTEES,
    derive_cardinality_bounds,
    derive_order,
    static_guarantees,
)
from repro.core.cost import _OPERATORS, operator_cardinality, operator_work
from repro.core.expressions import count, equals
from repro.core.operations import (
    ALL_OPERATION_TYPES,
    IDIOM_TYPES,
    Aggregation,
    BaseRelation,
    BinaryOperation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
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
from repro.core.operations.base import (
    CoalescingBehavior,
    DuplicateBehavior,
    EvaluationContext,
    Operation,
)
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE
from repro.core.order_spec import OrderSpec
from repro.core.properties import STEPS
from repro.core.relation import Relation
from repro.stats.estimator import CardinalityEstimator
from repro.workloads import EMPLOYEE_NAME_SCHEMA

from .strategies import NARROW_TEMPORAL_SCHEMA, narrow_temporal_relations

CONTEXT = EvaluationContext()


def run(op):
    return op.evaluate(CONTEXT)


def sorted_literal(relation, *attributes):
    return LiteralRelation(relation.sorted_by(OrderSpec.ascending(*attributes)))


def build_unary_operations(child):
    """One instance of every unary operation over ``child`` (narrow temporal schema)."""
    return [
        Selection(equals("Name", "John"), child),
        Projection(["Name", "T1", "T2"], child),
        DuplicateElimination(child),
        TemporalDuplicateElimination(child),
        Coalescing(child),
        Sort(OrderSpec.ascending("Name"), child),
        Aggregation(["Name"], [count()], child),
        TemporalAggregation(["Name"], [count()], child),
        TransferToStratum(child),
        TransferToDBMS(child),
    ]


def build_binary_operations(left, right):
    """One instance of every binary operation over two narrow temporal children."""
    return [
        UnionAll(left, right),
        Union(left, right),
        TemporalUnion(left, right),
        Difference(left, right),
        TemporalDifference(left, right),
        CartesianProduct(left, right),
        TemporalCartesianProduct(left, right),
    ]


class TestTable1Catalogue:
    def test_every_operation_declares_its_paper_metadata(self):
        for operation_type in ALL_OPERATION_TYPES:
            assert operation_type.paper_order, operation_type
            assert operation_type.paper_cardinality, operation_type
            assert isinstance(operation_type.duplicate_behavior, DuplicateBehavior)
            assert isinstance(operation_type.coalescing_behavior, CoalescingBehavior)

    def test_order_sensitive_operations_match_section6(self):
        order_sensitive = {
            op.__name__
            for op in ALL_OPERATION_TYPES
            if op.order_sensitive
        }
        assert order_sensitive == {
            "TemporalDuplicateElimination",
            "Coalescing",
            "TemporalDifference",
            "TemporalUnion",
            "TemporalAggregation",
        }

    def test_eliminating_operations(self):
        eliminating = {
            op.__name__
            for op in ALL_OPERATION_TYPES
            if op.duplicate_behavior is DuplicateBehavior.ELIMINATES
        }
        assert eliminating == {
            "DuplicateElimination",
            "TemporalDuplicateElimination",
            "Aggregation",
            "TemporalAggregation",
        }

    def test_only_coalescing_enforces_coalescing(self):
        enforcing = [
            op
            for op in ALL_OPERATION_TYPES
            if op.coalescing_behavior is CoalescingBehavior.ENFORCES
        ]
        assert enforcing == [Coalescing]


class TestDerivedOrderDescribesResult:
    @given(narrow_temporal_relations(max_size=6))
    def test_unary_operations(self, relation):
        child = sorted_literal(relation, "Name", "T1")
        for operation in build_unary_operations(child):
            derived = derive_order(operation)
            result = run(operation)
            if derived.is_unordered():
                continue
            resorted = result.sorted_by(derived)
            assert list(resorted.tuples) == list(result.tuples), operation.label()

    @given(narrow_temporal_relations(max_size=5), narrow_temporal_relations(max_size=5))
    def test_binary_operations(self, left_relation, right_relation):
        left = sorted_literal(left_relation, "Name", "T1")
        right = sorted_literal(right_relation, "Name", "T1")
        for operation in build_binary_operations(left, right):
            derived = derive_order(operation)
            result = run(operation)
            if derived.is_unordered():
                continue
            resorted = result.sorted_by(derived)
            assert list(resorted.tuples) == list(result.tuples), operation.label()


class TestCardinalityBounds:
    @given(narrow_temporal_relations(max_size=6))
    def test_unary_operations(self, relation):
        child = LiteralRelation(relation)
        for operation in build_unary_operations(child):
            low, high = derive_cardinality_bounds(operation)
            cardinality = run(operation).cardinality
            assert low <= cardinality <= high, operation.label()

    @given(narrow_temporal_relations(max_size=5), narrow_temporal_relations(max_size=5))
    def test_binary_operations(self, left_relation, right_relation):
        left = LiteralRelation(left_relation)
        right = LiteralRelation(right_relation)
        for operation in build_binary_operations(left, right):
            low, high = derive_cardinality_bounds(operation)
            cardinality = run(operation).cardinality
            assert low <= cardinality <= high, operation.label()


class TestDuplicateBehaviour:
    @given(narrow_temporal_relations(max_size=6))
    def test_retaining_unary_operations_preserve_duplicate_freedom(self, relation):
        deduplicated = run(DuplicateElimination(LiteralRelation(relation)))
        # Re-attach the temporal schema by rebuilding rows (rdup demoted T1/T2).
        if relation.has_duplicates():
            return
        # Like the binary-operation test below, assume snapshot-duplicate-free
        # arguments: the operational coalescing can merge value-equivalent
        # overlapping periods into tuples identical to existing ones.
        if relation.has_snapshot_duplicates():
            return
        child = LiteralRelation(relation)
        for operation in build_unary_operations(child):
            if operation.duplicate_behavior is not DuplicateBehavior.RETAINS:
                continue
            assert not run(operation).has_duplicates(), operation.label()

    @given(narrow_temporal_relations(max_size=5), narrow_temporal_relations(max_size=5))
    def test_retaining_binary_operations_preserve_duplicate_freedom(
        self, left_relation, right_relation
    ):
        # The temporal operations retain duplicate freedom under the paper's
        # usage assumption of snapshot-duplicate-free arguments (overlapping
        # value-equivalent periods can otherwise be cut into equal fragments).
        if left_relation.has_duplicates() or right_relation.has_duplicates():
            return
        if left_relation.has_snapshot_duplicates() or right_relation.has_snapshot_duplicates():
            return
        left = LiteralRelation(left_relation)
        right = LiteralRelation(right_relation)
        for operation in build_binary_operations(left, right):
            if operation.duplicate_behavior is not DuplicateBehavior.RETAINS:
                continue
            assert not run(operation).has_duplicates(), operation.label()

    @given(narrow_temporal_relations(max_size=6))
    def test_eliminating_operations_remove_duplicates(self, relation):
        child = LiteralRelation(relation)
        for operation in build_unary_operations(child):
            if operation.duplicate_behavior is not DuplicateBehavior.ELIMINATES:
                continue
            assert not run(operation).has_duplicates(), operation.label()


class TestCoalescingBehaviour:
    @given(narrow_temporal_relations(max_size=6))
    def test_retaining_operations_preserve_coalescing(self, relation):
        coalesced = run(Coalescing(LiteralRelation(relation)))
        child = LiteralRelation(coalesced)
        for operation in build_unary_operations(child):
            if operation.coalescing_behavior is not CoalescingBehavior.RETAINS:
                continue
            result = run(operation)
            if not result.schema.is_temporal:
                continue
            assert result.is_coalesced(), operation.label()

    @given(narrow_temporal_relations(max_size=6))
    def test_enforcing_operation_coalesces(self, relation):
        result = run(Coalescing(LiteralRelation(relation)))
        assert result.is_coalesced()


# ---------------------------------------------------------------------------
# Every per-type table has an entry for every concrete operation type
# ---------------------------------------------------------------------------

LEAF_TYPES = {BaseRelation, LiteralRelation}

#: Each table keyed by exact operation type, and whether it reads leaves.
TABLES = {
    "repro.core.analysis.GUARANTEES": (GUARANTEES, True),
    "repro.core.properties.STEPS": (STEPS, False),
    "repro.core.cost._OPERATORS": (_OPERATORS, True),
}


def concrete_operation_types():
    """Every :class:`Operation` subclass but the two arity bases."""
    found, pending = set(), list(Operation.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in (UnaryOperation, BinaryOperation):
            found.add(cls)
    return found


class TestEveryTableIsComplete:
    def test_the_concrete_types_are_table_1s_the_idioms_and_the_leaves(self):
        assert concrete_operation_types() == (
            set(ALL_OPERATION_TYPES) | set(IDIOM_TYPES) | LEAF_TYPES
        )

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_the_table_has_an_entry_for_every_type(self, name):
        table, reads_leaves = TABLES[name]
        expected = concrete_operation_types() - (set() if reads_leaves else LEAF_TYPES)
        missing = sorted(cls.__name__ for cls in expected - set(table))
        assert not missing, f"{name} has no entry for {', '.join(missing)}"
        assert set(table) == expected, name

    def test_the_property_step_names_one_step_per_child(self):
        for cls, steps in STEPS.items():
            assert len(steps) == cls.arity, cls.__name__


#: A child with all three guarantees, one with none, and one without
#: duplicates whose snapshots repeat a tuple.
FREE = LiteralRelation(Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 1, 3)]))
UNKNOWN = BaseRelation("N", NARROW_TEMPORAL_SCHEMA)
SNAPSHOT_DUPLICATES = LiteralRelation(
    Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 1, 3), ("John", 2, 4)])
)
#: (type, guarantee position) whose *retains* answer reads the left child only.
READS_THE_LEFT_CHILD = {(Difference, 0), (TemporalDifference, 1)}
#: (type, guarantee position) whose *retains* answer reads every child and
#: also needs the left child's snapshot-duplicate freedom: coalT and \T can
#: return a row twice from value-equivalent tuples whose periods overlap.
NEEDS_THE_LEFT_SNAPSHOTS = {(Coalescing, 0), (TemporalDifference, 0)}
#: (type, guarantee position) deliberately never claimed: snapshot-relation
#: results that retain duplicates claim no snapshot-duplicate freedom.
CLAIMS_NOTHING = {(CartesianProduct, 1), (Difference, 1), (Union, 1), (Join, 1)}


def instance(cls, children):
    """One node of ``cls`` over ``children`` (narrow temporal schema)."""
    params = {
        Selection: (equals("Name", "John"),),
        Projection: (["Name", "T1", "T2"],),
        Aggregation: (["Name"], [count()]),
        TemporalAggregation: (["Name"], [count()]),
        Sort: (OrderSpec.ascending("Name"),),
        Join: (equals("1.Name", "John"),),
        TemporalJoin: (equals("1.Name", "John"),),
    }
    return cls(*params.get(cls, ()), *children)


def declared_guarantee(cls, position, child_guarantees):
    """What ``cls``'s Table 1 declaration says guarantee ``position`` is,
    given each child's three guarantees."""
    child_answers = [guarantees[position] for guarantees in child_guarantees]
    if position == 2:
        behavior = cls.coalescing_behavior
        if behavior is CoalescingBehavior.ENFORCES:
            return True
        return behavior is CoalescingBehavior.RETAINS and all(child_answers)
    if cls.duplicate_behavior is not DuplicateBehavior.RETAINS:
        return cls.duplicate_behavior is DuplicateBehavior.ELIMINATES
    if (cls, position) in CLAIMS_NOTHING:
        return False
    if (cls, position) in READS_THE_LEFT_CHILD:
        return child_answers[0]
    if (cls, position) in NEEDS_THE_LEFT_SNAPSHOTS:
        return all(child_answers) and child_guarantees[0][1]
    return all(child_answers)


class TestTheGuaranteesAgreeWithTheDeclarations:
    @pytest.mark.parametrize(
        "cls",
        sorted(concrete_operation_types() - LEAF_TYPES, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_every_operation_over_every_mix_of_children(self, cls):
        for children in itertools.product((FREE, UNKNOWN, SNAPSHOT_DUPLICATES), repeat=cls.arity):
            node = instance(cls, children)
            for position, answer in enumerate(static_guarantees(node)):
                child_guarantees = [static_guarantees(child) for child in children]
                assert answer == declared_guarantee(cls, position, child_guarantees), (
                    cls.__name__,
                    position,
                    children,
                )

    def test_the_leaves_are_named_entries(self):
        assert static_guarantees(UNKNOWN) == (False, False, False)
        assert static_guarantees(FREE) == (True, True, True)


# ---------------------------------------------------------------------------
# Every entry of the one table of estimates is monotone in its inputs
# ---------------------------------------------------------------------------

CARDINALITIES = st.integers(min_value=0, max_value=10**6).map(float)


@st.composite
def estimators(draw):
    """No estimator, or one profiled over a drawn relation of the narrow
    schema (whose ``Name`` the instances' predicates and grouping name)."""
    if draw(st.booleans()):
        return None
    return CardinalityEstimator.from_relations({"N": draw(narrow_temporal_relations())})


class TestEveryEntryIsMonotone:
    """The memo's branch-and-bound lower bounds rest on this: an entry's
    output and work never fall when an input cardinality grows.  The one
    exception is ``Difference``'s output, which shrinks as its right input
    grows; ``_Extractor.bounds_for`` bounds it by zero instead."""

    @pytest.mark.parametrize(
        "cls",
        sorted(set(_OPERATORS) - LEAF_TYPES, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    @given(data=st.data())
    def test_growing_an_input_lowers_neither_output_nor_work(self, cls, data):
        node = instance(cls, [UNKNOWN] * cls.arity)
        estimator = data.draw(estimators())
        inputs = data.draw(st.lists(CARDINALITIES, min_size=cls.arity, max_size=cls.arity))
        grown = list(inputs)
        grown[data.draw(st.integers(0, cls.arity - 1))] += data.draw(CARDINALITIES)
        before = operator_cardinality(node, inputs, estimator=estimator)
        after = operator_cardinality(node, grown, estimator=estimator)
        if cls is not Difference:
            assert after >= before
        for engine in (STRATUM_ENGINE, DBMS_ENGINE):
            assert operator_work(node, grown, after, engine) >= operator_work(
                node, inputs, before, engine
            )
