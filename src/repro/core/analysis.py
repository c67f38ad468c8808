"""Static analysis of operator trees: guarantees and derived metadata.

Several transformation rules carry semantic preconditions about the relation
produced by a subtree — "``r`` does not have duplicates" (D1), "``r`` does
not have duplicates in snapshots" (D2, C8–C10), "``r`` is coalesced" (C1).
During plan enumeration these cannot be checked by evaluating the subtree;
instead the optimizer uses a conservative static analysis driven by the
Table 1 metadata of the operations: an *eliminates* operation establishes the
guarantee, a *retains* operation passes it through from its argument(s), and
a *generates* / *destroys* operation loses it.  The analysis is sound (it
never claims a guarantee that might not hold) but incomplete, mirroring how a
real optimizer would reason.

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

from typing import Tuple as PyTuple

from .operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
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
from .operations.base import DuplicateBehavior
from .order_spec import OrderSpec


# ---------------------------------------------------------------------------
# The three guarantees, once per node
# ---------------------------------------------------------------------------


def static_guarantees(op: Operation) -> PyTuple[bool, bool, bool]:
    """``(no duplicates, no snapshot duplicates, coalesced)`` of the subtree's result."""
    guarantees = op._guarantees
    if guarantees is None:
        guarantees = op._guarantees = (
            _no_duplicates(op),
            _no_snapshot_duplicates(op),
            _coalesced(op),
        )
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


def _no_duplicates(op: Operation) -> bool:
    if isinstance(op, LiteralRelation):
        return not op.relation.has_duplicates()
    if isinstance(op, BaseRelation):
        # Base relations carry no constraint metadata in the logical plan;
        # assume nothing.
        return False
    if op.duplicate_behavior is DuplicateBehavior.ELIMINATES:
        return True
    if op.duplicate_behavior is DuplicateBehavior.GENERATES:
        return False
    # RETAINS: the result is duplicate free whenever all arguments are.  For
    # difference it would suffice that the left argument is, but requiring
    # all arguments keeps the analysis uniformly sound.
    if isinstance(op, Difference):
        return guarantees_no_duplicates(op.left)
    return all(guarantees_no_duplicates(child) for child in op.children)


def _no_snapshot_duplicates(op: Operation) -> bool:
    if isinstance(op, LiteralRelation):
        relation = op.relation
        return not relation.has_snapshot_duplicates()
    if isinstance(op, BaseRelation):
        return False
    if isinstance(op, (TemporalDuplicateElimination, TemporalAggregation)):
        return True
    if isinstance(op, (Selection, Sort, TransferToDBMS, TransferToStratum, Coalescing)):
        return guarantees_no_snapshot_duplicates(op.child)
    if isinstance(op, TemporalDifference):
        # The result's snapshots are subsets of the left argument's snapshots.
        return guarantees_no_snapshot_duplicates(op.left)
    if isinstance(op, (TemporalCartesianProduct, TemporalUnion, TemporalJoin)):
        # The temporal join is σ over ×T; a selection passes the guarantee
        # through, the product requires it of both arguments.
        return all(guarantees_no_snapshot_duplicates(child) for child in op.children)
    if isinstance(op, (DuplicateElimination, Aggregation)):
        # Snapshot-relation results: regular duplicate freedom is what matters.
        return True
    if isinstance(op, Projection):
        return False
    if isinstance(op, (UnionAll, Union, CartesianProduct, Difference)):
        return False
    return False


def _coalesced(op: Operation) -> bool:
    if isinstance(op, LiteralRelation):
        relation = op.relation
        return relation.is_temporal and relation.is_coalesced()
    if isinstance(op, BaseRelation):
        return False
    if isinstance(op, Coalescing):
        return True
    if isinstance(op, (Selection, Sort, TransferToDBMS, TransferToStratum)):
        return guarantees_coalesced(op.child)
    return False


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
