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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple as PyTuple

from .analysis import guarantees_no_snapshot_duplicates
from .operations import (
    Coalescing,
    DuplicateElimination,
    Join,
    Operation,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Selection,
    Projection,
    CartesianProduct,
    Difference,
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

    The root's properties come from the query's result kind; children are
    derived from their parent's node type and properties as described in the
    module docstring.
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
        child_properties = _child_properties(node, index, properties)
        _annotate_node(child, path + (index,), child_properties, annotations)


# ---------------------------------------------------------------------------
# Per-property propagation
# ---------------------------------------------------------------------------


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
    """One top-down propagation step, read from a table (the memo search's entry).

    A step depends on the parent's operator type, the child index, the
    parent's properties and at most one more input: whether the first child
    has duplicate-free snapshots (coalescing, temporal difference), or
    whether the parent's own predicate or items leave the periods alone
    (σ, ⋈T, π — a flag kept on the node).  Keyed by those, the table
    answers what :func:`_child_properties`, the reference :func:`annotate`
    uses, computes; the first node of each key fills it in.

    ``first_child`` stands in for ``parent.children[0]``, the only child a
    step reads: the memo's context upgrade asks about a witness member there.
    """
    key = (type(parent), child_index, parent_properties, _consulted(parent, first_child))
    step = _STEPS.get(key)
    if step is None:
        if first_child is not None:
            parent = parent.with_children((first_child,) + parent.children[1:])
        step = _STEPS[key] = _child_properties(parent, child_index, parent_properties)
    return step


def _consulted(parent: Operation, first_child: Optional[Operation]) -> Optional[bool]:
    """The one input beyond (type, index, properties) a step below ``parent`` reads."""
    if isinstance(parent, (Coalescing, TemporalDifference)):
        return guarantees_no_snapshot_duplicates(
            parent.children[0] if first_child is None else first_child
        )
    if isinstance(parent, (Selection, TemporalJoin, Projection)):
        return _leaves_periods_alone(parent)
    return None


def _leaves_periods_alone(parent: Operation) -> bool:
    """σ/⋈T: the predicate avoids the time attributes; π: it copies both
    unchanged and computes nothing from them.  Once per node."""
    flag = parent._period_transparent
    if flag is None:
        if isinstance(parent, Projection):
            preserved = set(parent.preserved_attributes())
            flag = T1 in preserved and T2 in preserved and not any(
                item.attributes() & {T1, T2}
                for item in parent.items
                if not item.is_plain_attribute()
            )
        else:
            flag = not (parent.predicate.attributes() & {T1, T2})
        parent._period_transparent = flag
    return flag


#: (operator type, child index, parent properties, consulted input) → the
#: step.  A memo of a pure function over a finite key space — a few hundred
#: entries at most — so it is shared by every search in the process.
_STEPS: Dict[PyTuple, OperationProperties] = {}


def _child_properties(
    parent: Operation, child_index: int, parent_properties: OperationProperties
) -> OperationProperties:
    return OperationProperties(
        order_required=_child_order_required(parent, child_index, parent_properties),
        duplicates_relevant=_child_duplicates_relevant(parent, child_index, parent_properties),
        period_preserving=_child_period_preserving(parent, child_index, parent_properties),
    )


def _child_order_required(
    parent: Operation, child_index: int, parent_properties: OperationProperties
) -> bool:
    # A sort re-establishes order: nothing below it needs to preserve order.
    if isinstance(parent, Sort):
        return False
    # Operations with unordered results cannot pass an order requirement on.
    if isinstance(parent, (UnionAll, Union, TemporalUnion)):
        return False
    # Binary operations whose result order derives from the left argument
    # only: the right argument's order is immaterial.  The join idioms
    # inherit this from the product of their expansion.
    if (
        isinstance(
            parent,
            (
                CartesianProduct,
                TemporalCartesianProduct,
                Join,
                TemporalJoin,
                Difference,
                TemporalDifference,
            ),
        )
        and child_index == 1
    ):
        return False
    # Otherwise the requirement (or its absence) flows through unchanged:
    # every remaining operation's result order derives from its argument's.
    return parent_properties.order_required


def _child_duplicates_relevant(
    parent: Operation, child_index: int, parent_properties: OperationProperties
) -> bool:
    # Below a duplicate elimination, duplicates in the argument are
    # immaterial — they will be removed anyway.
    if isinstance(parent, (DuplicateElimination, TemporalDuplicateElimination)):
        return False
    # Right branch of a temporal difference: if the left argument provably
    # has duplicate-free snapshots, duplicates on the right cannot influence
    # the result (a value is either present at a time point or it is not).
    if isinstance(parent, TemporalDifference) and child_index == 1:
        if guarantees_no_snapshot_duplicates(parent.left):
            return False
    # Operations through which an existing irrelevance propagates: their
    # result's duplicate structure is determined tuple-by-tuple from the
    # argument, so if duplicates do not matter above, they do not matter
    # below either.  Aggregation and difference are deliberately excluded —
    # duplicate counts change their results.  The join idioms are
    # transparent because both operations of their expansion (selection
    # over a product) are.
    transparent = (
        Selection,
        Projection,
        Sort,
        Coalescing,
        TransferToDBMS,
        TransferToStratum,
        CartesianProduct,
        TemporalCartesianProduct,
        Join,
        TemporalJoin,
        UnionAll,
        Union,
        TemporalUnion,
    )
    if not parent_properties.duplicates_relevant and isinstance(parent, transparent):
        return False
    return True


def _child_period_preserving(
    parent: Operation, child_index: int, parent_properties: OperationProperties
) -> bool:
    # Below a coalescing whose argument provably has duplicate-free
    # snapshots, time periods need not be preserved: coalescing returns the
    # same relation for every snapshot-equivalent argument.
    if isinstance(parent, Coalescing) and guarantees_no_snapshot_duplicates(parent.child):
        return False
    # The right argument of a temporal difference only matters through its
    # snapshots (which values are present when), not through how those
    # points are packaged into periods.
    if isinstance(parent, TemporalDifference) and child_index == 1:
        return False
    # Propagate an existing irrelevance through operations whose snapshots
    # are determined pointwise by the argument's snapshots.
    if not parent_properties.period_preserving:
        if isinstance(
            parent,
            (
                TemporalDuplicateElimination,
                TemporalDifference,
                TemporalCartesianProduct,
                TemporalUnion,
                TemporalAggregation,
                Coalescing,
                UnionAll,
                Sort,
                TransferToDBMS,
                TransferToStratum,
            ),
        ):
            return False
        if isinstance(parent, Selection) and not (
            parent.predicate.attributes() & {T1, T2}
        ):
            return False
        # The temporal join is σ over ×T: transparent when, like the
        # selection above, its predicate avoids the fresh time attributes.
        if isinstance(parent, TemporalJoin) and not (
            parent.predicate.attributes() & {T1, T2}
        ):
            return False
        if isinstance(parent, Projection):
            preserved = set(parent.preserved_attributes())
            computed_use_time = any(
                item.attributes() & {T1, T2}
                for item in parent.items
                if not item.is_plain_attribute()
            )
            if T1 in preserved and T2 in preserved and not computed_use_time:
                return False
    return True


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------


def annotated_pretty(plan: Operation, query: QueryResultSpec) -> str:
    """Render a plan with its property annotations, Figure 6 style.

    Each line shows the operator label followed by
    ``[OrderRequired DuplicatesRelevant PeriodPreserving]`` flags.
    """
    annotations = annotate(plan, query)
    lines = []

    def render(node: Operation, path: PlanPath, prefix: str, connector: str, child_prefix: str) -> None:
        lines.append(f"{prefix}{connector}{node.label()}  {annotations[path]}")
        for index, child in enumerate(node.children):
            is_last = index == len(node.children) - 1
            render(
                child,
                path + (index,),
                child_prefix,
                "└─ " if is_last else "├─ ",
                child_prefix + ("   " if is_last else "│  "),
            )

    render(plan, ROOT_PATH, "", "", "")
    return "\n".join(lines)
