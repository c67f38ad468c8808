"""Transfer transformation rules for the stratum architecture (Section 4.5).

A plan fragment below a ``TS`` (transfer-to-stratum) operation executes in
the conventional DBMS; everything above executes in the stratum.  When an
operation is implemented by both engines there is a choice of where to run
it, expressed by rules that move an operation across the transfer boundary.
Because the DBMS makes no promise about the order of the result it returns,
such rules preserve only ≡M — with ``sort`` as the single exception: a sort
that is the last DBMS-side operation delivers its result in the requested
order, so moving a sort across the boundary is ≡L.

The set of operations the conventional engine supports natively —
``CONVENTIONAL_OPERATIONS`` — is what the "move into the DBMS" rules check.
The stratum implements every operation, so moving work out of the DBMS needs
no capability check.
"""

from __future__ import annotations

from typing import Optional, Tuple as PyTuple

from ..equivalence import EquivalenceType
from ..operations import (
    Aggregation,
    CartesianProduct,
    Difference,
    DuplicateElimination,
    Join,
    Operation,
    Projection,
    Selection,
    Sort,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)
from .base import RuleApplication, TransformationRule, application

#: Operations the conventional DBMS substrate executes natively (renders as SQL).
CONVENTIONAL_OPERATIONS: PyTuple[type, ...] = (
    Selection,
    Projection,
    Sort,
    DuplicateElimination,
    Aggregation,
    CartesianProduct,
    Join,
    Difference,
    UnionAll,
    Union,
)


def _transfer_equivalence(operation: Operation) -> EquivalenceType:
    """≡L for sort (the DBMS honours a final ORDER BY), ≡M for everything else."""
    if isinstance(operation, Sort):
        return EquivalenceType.LIST
    return EquivalenceType.MULTISET


class EliminateTransferRoundTripToDBMS(TransformationRule):
    """``TS(TD(r)) ≡M r`` — shipping to the DBMS and straight back is a no-op."""

    name = "T-roundtrip-SD"
    equivalence = EquivalenceType.MULTISET
    promise = 2.0
    description = "eliminate a TS(TD(r)) round trip"
    root = TransferToStratum
    child = TransferToDBMS

    def rewrite(self, node: TransferToStratum) -> Optional[RuleApplication]:
        return application(node.child.child, (0,), (0, 0))


class EliminateTransferRoundTripToStratum(TransformationRule):
    """``TD(TS(r)) ≡M r`` — shipping to the stratum and straight back is a no-op."""

    name = "T-roundtrip-DS"
    equivalence = EquivalenceType.MULTISET
    promise = 2.0
    description = "eliminate a TD(TS(r)) round trip"
    root = TransferToDBMS
    child = TransferToStratum

    def rewrite(self, node: TransferToDBMS) -> Optional[RuleApplication]:
        return application(node.child.child, (0,), (0, 0))


class MoveOperationToStratum(TransformationRule):
    """``TS(op(r1[, r2])) ≡M op(TS(r1)[, TS(r2)])`` — pull an operation out of the DBMS.

    This is the rule used by the running example to push the transfer
    operation down so that the stratum performs temporal duplicate
    elimination, coalescing and the temporal difference itself.  Any
    operation may move to the stratum (the stratum implements the full
    algebra); the rewrite is ≡L when the moved operation is a ``sort``.
    """

    name = "T-to-stratum"
    equivalence = EquivalenceType.MULTISET
    description = "move the operation directly below a TS into the stratum"
    root = TransferToStratum

    def rewrite(self, node: TransferToStratum) -> Optional[RuleApplication]:
        moved = node.child
        if isinstance(moved, (TransferToStratum, TransferToDBMS)) or moved.arity == 0:
            return None
        new_children = [TransferToStratum(child) for child in moved.children]
        rewritten = moved.with_children(new_children)
        involved = [(0,)] + [(0, index) for index in range(len(moved.children))]
        # The application is ≡L when the moved operation is a sort, ≡M otherwise.
        return application(rewritten, *involved, equivalence=_transfer_equivalence(moved))


class MoveOperationToDBMS(TransformationRule):
    """``op(TS(r1)[, TS(r2)]) ≡M TS(op(r1[, r2]))`` — push an operation into the DBMS.

    Applicable only to operations the conventional engine supports natively
    (``CONVENTIONAL_OPERATIONS``); this is how the example pushes the final
    ``sort`` down into the DBMS, which "sorts faster than the stratum".
    """

    name = "T-to-dbms"
    equivalence = EquivalenceType.MULTISET
    description = "move an operation whose inputs all come from the DBMS into the DBMS"
    root = CONVENTIONAL_OPERATIONS

    def rewrite(self, node: Operation) -> Optional[RuleApplication]:
        if node.arity == 0 or not node.children:
            return None
        if not all(isinstance(child, TransferToStratum) for child in node.children):
            return None
        inner_children = [child.child for child in node.children]
        rewritten = TransferToStratum(node.with_children(inner_children))
        involved = [()] + [(index,) for index in range(len(node.children))]
        # The application is ≡L when the moved operation is a sort, ≡M otherwise.
        return application(rewritten, *involved, equivalence=_transfer_equivalence(node))


TRANSFER_RULES = (
    EliminateTransferRoundTripToDBMS(),
    EliminateTransferRoundTripToStratum(),
    MoveOperationToStratum(),
    MoveOperationToDBMS(),
)
"""All transfer rules (Section 4.5)."""
