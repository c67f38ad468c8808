"""Static analysis of operator trees: guarantees and derived metadata.

Several transformation rules carry semantic preconditions about the relation
produced by a subtree — "``r`` does not have duplicates" (D1), "``r`` does
not have duplicates in snapshots" (D2, C8–C10), "``r`` is coalesced" (C1).
During plan enumeration these cannot be checked by evaluating the subtree;
instead the optimizer uses a conservative static analysis driven by the
Table 1 metadata of the operations: an *eliminates* (*enforces*) operation
establishes the guarantee, a *retains* operation passes it through from its
argument(s), and a *generates* / *destroys* operation loses it.
:data:`GUARANTEES` holds each operator type's three answers, derived from
its declared ``duplicate_behavior`` and ``coalescing_behavior`` plus the
children a *retains* answer is read from; the leaves and a few deliberately
conservative answers are named entries.  The analysis is sound (it never
claims a guarantee that might not hold) but incomplete, mirroring how a real
optimizer would reason.

The module also derives, for a whole subtree, the ``Order(r)`` specification
and the cardinality bounds of Table 1, which the sorting rules and the cost
model use.

The three guarantees and ``Order(r)`` are **memoised on the immutable node**
(:func:`static_guarantees`, :func:`derive_order`): a subtree is analysed the
first time anyone asks and every later caller — rule preconditions, the
property propagation, the memo's binding features, the cost model — reads
the stored answer.  A copy (``with_children``, ``replace_at``, parameter
binding) is a new node and is analysed afresh; the subtrees it shares with
the original keep theirs.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple as PyTuple

from .operations import (
    Aggregation,
    BaseRelation,
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
    Union,
    UnionAll,
)
from .operations.base import CoalescingBehavior, DuplicateBehavior
from .order_spec import OrderSpec


# ---------------------------------------------------------------------------
# The three guarantees, once per node
# ---------------------------------------------------------------------------


def static_guarantees(op: Operation) -> PyTuple[bool, bool, bool]:
    """``(no duplicates, no snapshot duplicates, coalesced)`` of the subtree's result."""
    guarantees = op._guarantees
    if guarantees is None:
        no_duplicates, no_snapshot_duplicates, coalesced = GUARANTEES[type(op)]
        guarantees = op._guarantees = (no_duplicates(op), no_snapshot_duplicates(op), coalesced(op))
    return guarantees


def guarantees_no_duplicates(op: Operation) -> bool:
    """True if the subtree's result provably contains no regular duplicates."""
    return static_guarantees(op)[0]


def guarantees_no_snapshot_duplicates(op: Operation) -> bool:
    """True if the subtree's result provably has duplicate-free snapshots.

    Defined for subtrees producing temporal relations; for snapshot-relation
    subtrees this degenerates to regular duplicate freedom.
    """
    return static_guarantees(op)[1]


def guarantees_coalesced(op: Operation) -> bool:
    """True if the subtree's result is provably coalesced."""
    return static_guarantees(op)[2]


Guarantee = Callable[[Operation], bool]


def _holds(op: Operation) -> bool:
    return True


def _lost(op: Operation) -> bool:
    return False


def _every_child(position: int) -> Guarantee:
    """A *retains* answer read from every child: guarantee ``position`` of
    :func:`static_guarantees` holds when it holds for all of them."""
    return lambda op: all(static_guarantees(child)[position] for child in op.children)


def _left_child(position: int) -> Guarantee:
    """A *retains* answer read from the left child only: the result's tuples
    (``\\``) or snapshots (``\\T``) are drawn from it."""
    return lambda op: static_guarantees(op.children[0])[position]


def _snapshots_of_the_left_child_too(position: int) -> Guarantee:
    """A *retains* answer read from every child that also needs the left
    child's duplicate-free snapshots: ``coalT`` and ``\\T`` can return the
    same row once for each of two value-equivalent argument tuples whose
    periods overlap."""
    every = _every_child(position)
    return lambda op: every(op) and static_guarantees(op.children[0])[1]


def _claims_nothing(position: int) -> Guarantee:
    """Deliberately conservative: ×, \\, ∪ and ⋈ retain duplicates, and no
    snapshot-duplicate freedom is claimed for their snapshot results."""
    return _lost


#: ``coalescing_behavior`` → the coalesced guarantee.
_COALESCED = {
    CoalescingBehavior.ENFORCES: _holds,
    CoalescingBehavior.RETAINS: _every_child(2),
    CoalescingBehavior.DESTROYS: _lost,
    CoalescingBehavior.NOT_APPLICABLE: _lost,
}


def _declared(
    operation: type,
    duplicates_from: Callable[[int], Guarantee] = _every_child,
    snapshot_duplicates_from: Callable[[int], Guarantee] = _every_child,
) -> PyTuple[Guarantee, Guarantee, Guarantee]:
    """``operation``'s guarantees as its Table 1 declaration gives them.

    An *eliminates* operation establishes both duplicate guarantees (``rdup``
    and ``γ`` return snapshot relations, where the two coincide), a
    *generates* one loses both, and a *retains* one reads them as
    ``duplicates_from`` and ``snapshot_duplicates_from`` say.
    """
    by_duplicates = {
        DuplicateBehavior.ELIMINATES: (_holds, _holds),
        DuplicateBehavior.GENERATES: (_lost, _lost),
        DuplicateBehavior.RETAINS: (duplicates_from(0), snapshot_duplicates_from(1)),
    }
    return (*by_duplicates[operation.duplicate_behavior], _COALESCED[operation.coalescing_behavior])


#: Operator type → ``(no duplicates, no snapshot duplicates, coalesced)``,
#: each a function of the node.
GUARANTEES: Dict[type, PyTuple[Guarantee, Guarantee, Guarantee]] = {
    # Base relations carry no constraint metadata in the logical plan;
    # assume nothing.
    BaseRelation: (_lost, _lost, _lost),
    LiteralRelation: (
        lambda op: not op.relation.has_duplicates(),
        lambda op: not op.relation.has_snapshot_duplicates(),
        lambda op: op.relation.is_temporal and op.relation.is_coalesced(),
    ),
    Selection: _declared(Selection),
    Projection: _declared(Projection),
    UnionAll: _declared(UnionAll),
    CartesianProduct: _declared(CartesianProduct, snapshot_duplicates_from=_claims_nothing),
    Difference: _declared(Difference, _left_child, _claims_nothing),
    Aggregation: _declared(Aggregation),
    DuplicateElimination: _declared(DuplicateElimination),
    TemporalCartesianProduct: _declared(TemporalCartesianProduct),
    TemporalDifference: _declared(
        TemporalDifference, _snapshots_of_the_left_child_too, _left_child
    ),
    TemporalAggregation: _declared(TemporalAggregation),
    TemporalDuplicateElimination: _declared(TemporalDuplicateElimination),
    Union: _declared(Union, snapshot_duplicates_from=_claims_nothing),
    TemporalUnion: _declared(TemporalUnion),
    Sort: _declared(Sort),
    Coalescing: _declared(Coalescing, _snapshots_of_the_left_child_too),
    TransferToStratum: _declared(TransferToStratum),
    TransferToDBMS: _declared(TransferToDBMS),
    Join: _declared(Join, snapshot_duplicates_from=_claims_nothing),
    TemporalJoin: _declared(TemporalJoin),
}


# ---------------------------------------------------------------------------
# Order and cardinality derivation
# ---------------------------------------------------------------------------


def derive_order(op: Operation) -> OrderSpec:
    """``Order(r)`` for the subtree's result, derived per Table 1."""
    order = op._order
    if order is None:
        order = op._order = op.result_order([derive_order(child) for child in op.children])
    return order


def derive_cardinality_bounds(op: Operation) -> PyTuple[int, int]:
    """Bounds on the subtree's result cardinality, derived per Table 1."""
    child_bounds = [derive_cardinality_bounds(child) for child in op.children]
    return op.cardinality_bounds(child_bounds)


def produces_temporal_result(op: Operation) -> bool:
    """True if the subtree's result is a temporal relation."""
    return op.output_schema().is_temporal
