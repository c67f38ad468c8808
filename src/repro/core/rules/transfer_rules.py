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

from typing import Optional, Sequence, Tuple as PyTuple

from ..equivalence import EquivalenceType as E
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
from .base import Bindings, Rule, TransformationRule

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


class _MoveAcrossTransfer(TransformationRule):
    """Moves the operation bound to ``op`` across a ``TS``: its arity varies,
    so the match is code, not a pattern; ``involved`` covers both arities
    (a path the binding lacks is skipped)."""

    equivalence = E.MULTISET

    def equivalence_for(self, bindings: Bindings) -> E:
        """≡L for sort (the DBMS honours a final ORDER BY), ≡M for everything else."""
        return E.LIST if isinstance(bindings["op"], Sort) else E.MULTISET


class MoveOperationToStratum(_MoveAcrossTransfer):
    """``TS(op(r1[, r2])) ≡M op(TS(r1)[, TS(r2)])`` — pull an operation out of the DBMS.

    This is the rule used by the running example to push the transfer
    operation down so that the stratum performs temporal duplicate
    elimination, coalescing and the temporal difference itself.  Any
    operation may move to the stratum (the stratum implements the full
    algebra).
    """

    name = "T-to-stratum"
    description = "move the operation directly below a TS into the stratum"
    root = TransferToStratum
    involved = ((), (0,), (0, 0), (0, 1))

    def bind(self, node: Operation, children: Sequence[Operation]) -> Optional[Bindings]:
        if not isinstance(node, self.root):
            return None
        moved = children[0]
        if isinstance(moved, (TransferToStratum, TransferToDBMS)) or not moved.arity:
            return None
        return {"TS": node, "op": moved}

    def build(self, bindings: Bindings) -> Operation:
        moved = bindings["op"]
        return moved.with_children([TransferToStratum(child) for child in moved.children])


class MoveOperationToDBMS(_MoveAcrossTransfer):
    """``op(TS(r1)[, TS(r2)]) ≡M TS(op(r1[, r2]))`` — push an operation into the DBMS.

    Applicable only to operations the conventional engine supports natively
    (``CONVENTIONAL_OPERATIONS``); this is how the example pushes the final
    ``sort`` down into the DBMS, which "sorts faster than the stratum".
    """

    name = "T-to-dbms"
    description = "move an operation whose inputs all come from the DBMS into the DBMS"
    root = CONVENTIONAL_OPERATIONS
    involved = ((), (0,), (1,), (0, 0), (1, 0))

    def bind(self, node: Operation, children: Sequence[Operation]) -> Optional[Bindings]:
        if not isinstance(node, self.root):
            return None
        bindings = {"op": node}
        for number, transfer in enumerate(children, 1):
            if not isinstance(transfer, TransferToStratum):
                return None
            bindings[f"r{number}"] = transfer.children[0]
        return bindings

    def build(self, bindings: Bindings) -> Operation:
        moved = bindings["op"]
        inputs = [bindings[f"r{number}"] for number in range(1, moved.arity + 1)]
        return TransferToStratum(moved.with_children(inputs))


TRANSFER_RULES = (
    Rule(
        "T-roundtrip-SD", E.MULTISET, "TS(TD(r))", lambda b: b["r"],
        description="eliminate a TS(TD(r)) round trip", promise=2.0,
    ),
    Rule(
        "T-roundtrip-DS", E.MULTISET, "TD(TS(r))", lambda b: b["r"],
        description="eliminate a TD(TS(r)) round trip", promise=2.0,
    ),
    MoveOperationToStratum(),
    MoveOperationToDBMS(),
)
"""All transfer rules (Section 4.5)."""
