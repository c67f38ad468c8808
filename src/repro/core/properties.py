"""Operation properties (Table 2) and their propagation over a plan.

Section 5.3 attaches three Boolean properties to every operation of a query
plan; Figure 5 consults them to decide where rules of each equivalence type
may fire:

``OrderRequired``
    the operation's result must preserve some order.  It fails to hold below
    a ``sort`` (the sort re-establishes whatever order is needed), below
    operations whose results are unordered anyway, in the right argument of
    operations whose result order derives from the left argument only, and
    everywhere when the query's result is not a list.

``DuplicatesRelevant``
    the operation may not arbitrarily add or remove regular duplicates.  It
    fails to hold below a (temporal) duplicate elimination, in the right
    argument of a temporal difference whose left argument is free of
    snapshot duplicates, and at the top when the query's result is a set.

``PeriodPreserving``
    the operation may not replace its result with a snapshot-equivalent one.
    It fails to hold below a coalescing whose argument is free of snapshot
    duplicates (coalescing then returns one unique relation for every
    snapshot-equivalent input) and in the right argument of a temporal
    difference; it always holds at the root, because a query must faithfully
    preserve the periods of base relations (Definition 5.1).

The computation here is a *top-down propagation* from the root: a property
is cleared for a child when its parent guarantees the property is irrelevant,
and a cleared property keeps propagating downward only through operations
that are transparent for it.  The formal definitions live in the paper's
technical report; this propagation is their conservative, sound counterpart —
it may leave a property set where the report would clear it, which can only
suppress optimizations, never produce an incorrect plan.

When a transformation rule is applied, the properties of the rewritten region
must be adjusted; re-running the propagation over the new plan is the
simplest correct way to do so and is what :func:`annotate` provides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple as PyTuple

from .analysis import guarantees_no_snapshot_duplicates
from .operations import (
    Aggregation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
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
    Union,
    UnionAll,
)
from .operations.base import PlanPath, ROOT_PATH
from .period import T1, T2
from .query import QueryResultSpec, ResultKind


@dataclass(frozen=True)
class OperationProperties:
    """The three Table 2 properties of one operation in one plan."""

    order_required: bool
    duplicates_relevant: bool
    period_preserving: bool

    def as_tuple(self) -> PyTuple[bool, bool, bool]:
        """``(OrderRequired, DuplicatesRelevant, PeriodPreserving)``."""
        return (self.order_required, self.duplicates_relevant, self.period_preserving)

    def __str__(self) -> str:
        flags = ["T" if flag else "-" for flag in self.as_tuple()]
        return "[" + " ".join(flags) + "]"


#: Mapping from plan locations to their properties.
PropertyMap = Dict[PlanPath, OperationProperties]


def annotate(plan: Operation, query: QueryResultSpec) -> PropertyMap:
    """Annotate every node of ``plan`` with its Table 2 properties.

    The root's properties come from the query's result kind; each child's
    are one :func:`child_properties` step from its parent's.
    """
    annotations: PropertyMap = {}
    _annotate_node(plan, ROOT_PATH, root_properties(query), annotations)
    return annotations


def _annotate_node(
    node: Operation,
    path: PlanPath,
    properties: OperationProperties,
    annotations: PropertyMap,
) -> None:
    annotations[path] = properties
    for index, child in enumerate(node.children):
        _annotate_node(
            child, path + (index,), child_properties(node, index, properties), annotations
        )


def root_properties(query: QueryResultSpec) -> OperationProperties:
    """The Table 2 properties holding at a plan root for this query."""
    return OperationProperties(
        order_required=query.kind is ResultKind.LIST,
        duplicates_relevant=query.kind is not ResultKind.SET,
        period_preserving=True,
    )


def child_properties(
    parent: Operation,
    child_index: int,
    parent_properties: OperationProperties,
    first_child: Optional[Operation] = None,
) -> OperationProperties:
    """One top-down propagation step: the properties of ``parent``'s child.

    The step is a pure function of the parent's operator type, the child
    index, the parent's properties and at most one consulted input, so it is
    read from :data:`STEPS`, answered in full when the module loads.

    ``first_child`` stands in for ``parent.children[0]``, the only child a
    step reads: the memo's context upgrade asks about a witness member there.
    """
    consults, answers = _ANSWERS[type(parent)][child_index]
    return answers[parent_properties, consults and consults(parent, first_child)]


# ---------------------------------------------------------------------------
# The step, per operator type and child index
# ---------------------------------------------------------------------------
#
# A rule gives the child's flag when the consulted input fails (or nothing is
# consulted) and when it holds: False clears it, True restores it, None
# passes the parent's flag down.

Rule = PyTuple[Optional[bool], Optional[bool]]
CLEARED = (False, False)
PASSED = (None, None)
RESTORED = (True, True)
#: \T's right argument: duplicates are irrelevant once its left argument
#: has duplicate-free snapshots (a value is present at a time point or not).
CLEARED_IF_CONSULTED = (True, False)
#: Coalescing returns one relation for every snapshot-equivalent argument
#: once that argument has duplicate-free snapshots.
CLEARED_IF_CONSULTED_ELSE_PASSED = (None, False)
#: σ, ⋈T, π: transparent for periods when they leave the periods alone.
PASSED_IF_CONSULTED = (True, None)


def _first_child_free(parent: Operation, first_child: Optional[Operation]) -> bool:
    """Whether the first child (or its stand-in) has duplicate-free snapshots."""
    return guarantees_no_snapshot_duplicates(first_child or parent.children[0])


def _predicate_leaves_periods_alone(parent: Operation, first_child: Optional[Operation]) -> bool:
    """σ/⋈T: the predicate avoids the time attributes.  Once per node."""
    flag = parent._period_transparent
    if flag is None:
        flag = parent._period_transparent = not (parent.predicate.attributes() & {T1, T2})
    return flag


def _items_leave_periods_alone(parent: Operation, first_child: Optional[Operation]) -> bool:
    """π: copies both time attributes unchanged and computes nothing from
    them.  Once per node."""
    flag = parent._period_transparent
    if flag is None:
        preserved = set(parent.preserved_attributes())
        flag = parent._period_transparent = T1 in preserved and T2 in preserved and not any(
            item.attributes() & {T1, T2} for item in parent.items if not item.is_plain_attribute()
        )
    return flag


class Step(NamedTuple):
    """Table 2's step to one child: a rule per property and the one input the
    rules consult (``None``: they consult nothing)."""

    order: Rule
    duplicates: Rule
    period: Rule
    consults: Optional[Callable[[Operation, Optional[Operation]], bool]] = None


#: σ, and ⋈T's left side (the temporal join is σ over ×T).
_FILTER = Step(PASSED, PASSED, PASSED_IF_CONSULTED, _predicate_leaves_periods_alone)
#: The argument's order kept, its snapshots mapped pointwise.
_TRANSPARENT = Step(PASSED, PASSED, PASSED)
#: A sort, an unordered temporal result, the right argument of ×T.
_CLEARS_ORDER = Step(CLEARED, PASSED, PASSED)

#: Operator type → the step to each child, by index (the module docstring
#: gives the reasons).
STEPS: Dict[type, PyTuple[Step, ...]] = {
    Selection: (_FILTER,),
    Projection: (Step(PASSED, PASSED, PASSED_IF_CONSULTED, _items_leave_periods_alone),),
    UnionAll: (_CLEARS_ORDER, _CLEARS_ORDER),
    CartesianProduct: (Step(PASSED, PASSED, RESTORED), Step(CLEARED, PASSED, RESTORED)),
    Difference: (Step(PASSED, RESTORED, RESTORED), Step(CLEARED, RESTORED, RESTORED)),
    Aggregation: (Step(PASSED, RESTORED, RESTORED),),
    DuplicateElimination: (Step(PASSED, CLEARED, RESTORED),),
    TemporalCartesianProduct: (_TRANSPARENT, _CLEARS_ORDER),
    TemporalDifference: (
        Step(PASSED, RESTORED, PASSED),
        Step(CLEARED, CLEARED_IF_CONSULTED, CLEARED, _first_child_free),
    ),
    TemporalAggregation: (Step(PASSED, RESTORED, PASSED),),
    TemporalDuplicateElimination: (Step(PASSED, CLEARED, PASSED),),
    Union: (Step(CLEARED, PASSED, RESTORED), Step(CLEARED, PASSED, RESTORED)),
    TemporalUnion: (_CLEARS_ORDER, _CLEARS_ORDER),
    Sort: (_CLEARS_ORDER,),
    Coalescing: (Step(PASSED, PASSED, CLEARED_IF_CONSULTED_ELSE_PASSED, _first_child_free),),
    TransferToStratum: (_TRANSPARENT,),
    TransferToDBMS: (_TRANSPARENT,),
    # The join idioms step as σ over their product does.
    Join: (Step(PASSED, PASSED, RESTORED), Step(CLEARED, PASSED, RESTORED)),
    TemporalJoin: (_FILTER, _FILTER._replace(order=CLEARED)),
}


def _flag(rule: Rule, inherited: bool, consulted: Optional[bool]) -> bool:
    flag = rule[bool(consulted)]
    return inherited if flag is None else flag


def _answers(step: Step) -> Dict[PyTuple[OperationProperties, Optional[bool]], OperationProperties]:
    """``step``'s answer for every parent context and consulted input."""
    consulted_values = (None,) if step.consults is None else (False, True)
    return {
        (context, consulted): OperationProperties(
            _flag(step.order, context.order_required, consulted),
            _flag(step.duplicates, context.duplicates_relevant, consulted),
            _flag(step.period, context.period_preserving, consulted),
        )
        for context in _CONTEXTS
        for consulted in consulted_values
    }


_CONTEXTS = [OperationProperties(*flags) for flags in itertools.product((False, True), repeat=3)]
#: :data:`STEPS` answered in full: type → per child, (consulted-input reader,
#: (context, consulted input) → the child's properties).
_ANSWERS = {
    operation: tuple((step.consults, _answers(step)) for step in steps)
    for operation, steps in STEPS.items()
}


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------


def annotated_pretty(plan: Operation, query: QueryResultSpec) -> str:
    """Render a plan with its property annotations, Figure 6 style.

    Each line shows the operator label followed by
    ``[OrderRequired DuplicatesRelevant PeriodPreserving]`` flags.
    """
    annotations = annotate(plan, query)
    return plan.pretty(lambda path, node: f"{node.label()}  {annotations[path]}")
