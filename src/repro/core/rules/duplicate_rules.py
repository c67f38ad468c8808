"""Duplicate-elimination transformation rules D1–D6 (Figure 4).

D1  rdup(r)  ≡L r                        if r has no duplicates
D2  rdupT(r) ≡L r                        if r has no duplicates in snapshots
D3  rdup(r)  ≡S r
D4  rdupT(r) ≡SS r
D5  rdup(r1 ∪ r2)   ≡L rdup(r1) ∪ rdup(r2)
D6  rdupT(r1 ∪T r2) ≡L rdupT(r1) ∪T rdupT(r2)

The semantic preconditions of D1/D2 are discharged with the conservative
static analysis of :mod:`repro.core.analysis`.  D1 and D3 additionally
require the argument to be a snapshot relation: applied to a temporal
argument, ``rdup`` demotes the reserved time attributes (Figure 3), so its
result schema differs from the argument's and the equivalence as stated
cannot hold.

Two idempotence rules (``rdup(rdup(r)) ≡L rdup(r)`` and its temporal
counterpart) are included as well; they follow from D1/D2 but are cheap to
match directly and keep the enumeration's plan space small.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import guarantees_no_duplicates, guarantees_no_snapshot_duplicates
from ..equivalence import EquivalenceType
from ..operations import (
    DuplicateElimination,
    TemporalDuplicateElimination,
    TemporalUnion,
    Union,
)
from .base import RuleApplication, TransformationRule, application


class RemoveRedundantDuplicateElimination(TransformationRule):
    """D1: ``rdup(r) ≡L r`` when ``r`` provably has no duplicates."""

    name = "D1"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "rdup(r) = r when r has no duplicates"
    root = DuplicateElimination

    def rewrite(self, node: DuplicateElimination) -> Optional[RuleApplication]:
        child = node.child
        if child.output_schema().is_temporal:
            return None
        if not guarantees_no_duplicates(child):
            return None
        return application(child, (0,))


class RemoveRedundantTemporalDuplicateElimination(TransformationRule):
    """D2: ``rdupT(r) ≡L r`` when ``r`` provably has duplicate-free snapshots."""

    name = "D2"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "rdupT(r) = r when r has no duplicates in snapshots"
    root = TemporalDuplicateElimination

    def rewrite(self, node: TemporalDuplicateElimination) -> Optional[RuleApplication]:
        child = node.child
        if not guarantees_no_snapshot_duplicates(child):
            return None
        return application(child, (0,))


class DropDuplicateEliminationAsSet(TransformationRule):
    """D3: ``rdup(r) ≡S r`` — duplicate elimination is a no-op on sets."""

    name = "D3"
    equivalence = EquivalenceType.SET
    promise = 2.0
    description = "rdup(r) = r as sets"
    root = DuplicateElimination

    def rewrite(self, node: DuplicateElimination) -> Optional[RuleApplication]:
        if node.child.output_schema().is_temporal:
            return None
        return application(node.child, (0,))


class DropTemporalDuplicateEliminationAsSnapshotSet(TransformationRule):
    """D4: ``rdupT(r) ≡SS r`` — snapshots agree as sets."""

    name = "D4"
    equivalence = EquivalenceType.SNAPSHOT_SET
    promise = 2.0
    description = "rdupT(r) = r as snapshot sets"
    root = TemporalDuplicateElimination

    def rewrite(self, node: TemporalDuplicateElimination) -> Optional[RuleApplication]:
        return application(node.child, (0,))


class PushDuplicateEliminationBelowUnion(TransformationRule):
    """D5: ``rdup(r1 ∪ r2) ≡L rdup(r1) ∪ rdup(r2)``.

    Valid because the multiset union (unlike SQL's UNION ALL) does not
    generate new duplicates when its arguments are duplicate free.
    """

    name = "D5"
    equivalence = EquivalenceType.LIST
    description = "push rdup below multiset union"
    root = DuplicateElimination
    child = Union

    def rewrite(self, node: DuplicateElimination) -> Optional[RuleApplication]:
        union = node.child
        rewritten = Union(
            DuplicateElimination(union.left), DuplicateElimination(union.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushTemporalDuplicateEliminationBelowTemporalUnion(TransformationRule):
    """D6: ``rdupT(r1 ∪T r2) ≡L rdupT(r1) ∪T rdupT(r2)``."""

    name = "D6"
    equivalence = EquivalenceType.LIST
    description = "push rdupT below temporal union"
    root = TemporalDuplicateElimination
    child = TemporalUnion

    def rewrite(self, node: TemporalDuplicateElimination) -> Optional[RuleApplication]:
        union = node.child
        rewritten = TemporalUnion(
            TemporalDuplicateElimination(union.left),
            TemporalDuplicateElimination(union.right),
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class CollapseDuplicateElimination(TransformationRule):
    """``rdup(rdup(r)) ≡L rdup(r)`` — duplicate elimination is idempotent."""

    name = "D-idem"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "rdup is idempotent"
    root = DuplicateElimination
    child = DuplicateElimination

    def rewrite(self, node: DuplicateElimination) -> Optional[RuleApplication]:
        return application(node.child, (0,), (0, 0))


class CollapseTemporalDuplicateElimination(TransformationRule):
    """``rdupT(rdupT(r)) ≡L rdupT(r)`` — temporal duplicate elimination is idempotent."""

    name = "DT-idem"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "rdupT is idempotent"
    root = TemporalDuplicateElimination
    child = TemporalDuplicateElimination

    def rewrite(self, node: TemporalDuplicateElimination) -> Optional[RuleApplication]:
        return application(node.child, (0,), (0, 0))


DUPLICATE_RULES = (
    RemoveRedundantDuplicateElimination(),
    RemoveRedundantTemporalDuplicateElimination(),
    DropDuplicateEliminationAsSet(),
    DropTemporalDuplicateEliminationAsSnapshotSet(),
    PushDuplicateEliminationBelowUnion(),
    PushTemporalDuplicateEliminationBelowTemporalUnion(),
    CollapseDuplicateElimination(),
    CollapseTemporalDuplicateElimination(),
)
"""All duplicate-elimination rules, in Figure 4 order."""
