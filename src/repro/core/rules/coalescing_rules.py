"""Coalescing transformation rules C1–C10 (Figure 4).

C1   coalT(r) ≡L r                                        if r is coalesced
C2   coalT(r) ≡SM r
C3   coalT(σP(r)) ≡L σP(coalT(r))                         if T1,T2 ∉ attr(P)
C4   π_{f1..fn}(coalT(r)) ≡S π_{f1..fn}(r)                if T1,T2 ∉ attr(f1..fn)
C5   coalT(coalT(r1) ⊔ coalT(r2)) ≡L coalT(r1 ⊔ r2)
C6   coalT(coalT(r1) ∪T coalT(r2)) ≡L coalT(r1 ∪T r2)       if r1, r2 have no snapshot duplicates
C7   coalT(γT(coalT(r))) ≡L coalT(γT(r))
C8   coalT(π_{f,T1,T2}(coalT(r))) ≡L coalT(π_{f,T1,T2}(r)) if r has no snapshot duplicates
C9   coalT(πA(r1 ×T r2)) ≡L πA(coalT(r1) ×T coalT(r2))     if r1, r2 have no snapshot duplicates,
                                                           A = Ω(r1 ×T r2) \\ {1.T1,1.T2,2.T1,2.T2}
C10  coalT(r1 \\T r2) ≡M coalT(r1) \\T coalT(r2)            if r1 has no snapshot duplicates

Each equivalence is realised as a directed rewrite.  For C3 the implemented
direction pushes the selection *below* the coalescing
(``σP(coalT(r)) → coalT(σP(r))``), matching the "selections as early as
possible" heuristic the paper proposes for the enumeration algorithm; the
other direction is the same equivalence read right-to-left and can be added
to a rule set explicitly when needed.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import guarantees_coalesced, guarantees_no_snapshot_duplicates
from ..equivalence import EquivalenceType
from ..operations import (
    Coalescing,
    Projection,
    Selection,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalUnion,
    UnionAll,
)
from ..period import T1, T2
from .base import RuleApplication, TransformationRule, application

_TIME_ATTRIBUTES = frozenset({T1, T2})


class RemoveRedundantCoalescing(TransformationRule):
    """C1: ``coalT(r) ≡L r`` when ``r`` is provably coalesced."""

    name = "C1"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "coalT(r) = r when r is coalesced"
    root = Coalescing

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        if not guarantees_coalesced(node.child):
            return None
        return application(node.child, (0,))


class DropCoalescingAsSnapshotMultiset(TransformationRule):
    """C2: ``coalT(r) ≡SM r`` — coalescing never changes any snapshot."""

    name = "C2"
    equivalence = EquivalenceType.SNAPSHOT_MULTISET
    promise = 2.0
    description = "coalT(r) = r as snapshot multisets"
    root = Coalescing

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        return application(node.child, (0,))


class PushSelectionBelowCoalescing(TransformationRule):
    """C3: ``σP(coalT(r)) ≡L coalT(σP(r))`` when ``P`` avoids the time attributes."""

    name = "C3"
    equivalence = EquivalenceType.LIST
    description = "selection and coalescing commute when the predicate is non-temporal"
    root = Selection
    child = Coalescing

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        coalescing = node.child
        if node.predicate.attributes() & _TIME_ATTRIBUTES:
            return None
        rewritten = Coalescing(Selection(node.predicate, coalescing.child))
        return application(rewritten, (0,), (0, 0))


class DropCoalescingBelowNonTemporalProjection(TransformationRule):
    """C4: ``π_f(coalT(r)) ≡S π_f(r)`` when the projection avoids the time attributes."""

    name = "C4"
    equivalence = EquivalenceType.SET
    promise = 1.5
    description = "coalescing below a non-temporal projection is unnecessary for sets"
    root = Projection
    child = Coalescing

    def rewrite(self, node: Projection) -> Optional[RuleApplication]:
        coalescing = node.child
        if node.attributes_used() & _TIME_ATTRIBUTES:
            return None
        rewritten = Projection(node.items, coalescing.child)
        return application(rewritten, (0,), (0, 0))


class MergeCoalescingOverUnionAll(TransformationRule):
    """C5: ``coalT(coalT(r1) ⊔ coalT(r2)) ≡ coalT(r1 ⊔ r2)``.

    The paper states C5 as ≡L.  Under this library's operational coalescing
    (earliest-pair-first merging of adjacent periods), the two sides can
    differ as lists — and even as multisets — when the concatenation contains
    duplicates in snapshots, because coalescing is then sensitive to how the
    argument's periods are packaged.  The rule is therefore registered with
    the strongest equivalence that provably holds for this implementation,
    ≡SM (``docs/architecture.md``, "Where coalT departs from the paper").
    """

    name = "C5"
    equivalence = EquivalenceType.SNAPSHOT_MULTISET
    description = "inner coalescings below union ALL are redundant (snapshot multisets)"
    root = Coalescing
    child = UnionAll

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        union = node.child
        if not isinstance(union.left, Coalescing) or not isinstance(union.right, Coalescing):
            return None
        rewritten = Coalescing(UnionAll(union.left.child, union.right.child))
        return application(rewritten, (0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0))


class MergeCoalescingOverTemporalUnion(TransformationRule):
    """C6: ``coalT(coalT(r1) ∪T coalT(r2)) ≡L coalT(r1 ∪T r2)``.

    Requires both arguments to have duplicate-free snapshots, a premise the
    paper does not state.  Then every ``coalT`` on either side sees disjoint
    periods within each value class, so it merges exactly the chains of
    adjacent periods, and both sides emit each maximal interval of a class's
    union on the earliest row that contributes to it.  Without the premise
    which adjacent pairs ``coalT`` merges depends on the arrangement, and the
    two sides are only snapshot-equivalent (``docs/architecture.md``, "Where
    coalT departs from the paper").
    """

    name = "C6"
    equivalence = EquivalenceType.LIST
    description = "inner coalescings below temporal union are redundant"
    root = Coalescing
    child = TemporalUnion

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        union = node.child
        if not isinstance(union.left, Coalescing) or not isinstance(union.right, Coalescing):
            return None
        if not guarantees_no_snapshot_duplicates(union.left.child):
            return None
        if not guarantees_no_snapshot_duplicates(union.right.child):
            return None
        rewritten = Coalescing(TemporalUnion(union.left.child, union.right.child))
        return application(rewritten, (0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0))


class MergeCoalescingOverTemporalAggregation(TransformationRule):
    """C7: ``coalT(γT(coalT(r))) ≡L coalT(γT(r))``."""

    name = "C7"
    equivalence = EquivalenceType.LIST
    description = "coalescing the argument of a temporal aggregation is redundant"
    root = Coalescing
    child = TemporalAggregation

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        aggregation = node.child
        inner = aggregation.child
        if not isinstance(inner, Coalescing):
            return None
        rewritten = Coalescing(
            TemporalAggregation(aggregation.grouping, aggregation.functions, inner.child)
        )
        return application(rewritten, (0,), (0, 0), (0, 0, 0))


class MergeCoalescingOverProjection(TransformationRule):
    """C8: ``coalT(π_{f,T1,T2}(coalT(r))) ≡L coalT(π_{f,T1,T2}(r))``.

    Requires the inner relation to have duplicate-free snapshots and the
    projection to pass the time attributes through unchanged.
    """

    name = "C8"
    equivalence = EquivalenceType.LIST
    description = "coalescing the argument of a time-preserving projection is redundant"
    root = Coalescing
    child = Projection

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        projection = node.child
        inner = projection.child
        if not isinstance(inner, Coalescing):
            return None
        preserved = set(projection.preserved_attributes())
        if T1 not in preserved or T2 not in preserved:
            return None
        if not guarantees_no_snapshot_duplicates(inner.child):
            return None
        rewritten = Coalescing(Projection(projection.items, inner.child))
        return application(rewritten, (0,), (0, 0), (0, 0, 0))


class PushCoalescingBelowTemporalProduct(TransformationRule):
    """C9: ``coalT(πA(r1 ×T r2)) ≡ πA(coalT(r1) ×T coalT(r2))``.

    ``A`` must be exactly the product's attributes minus the retained
    argument timestamps, and both arguments must have duplicate-free
    snapshots.  The paper states C9 as ≡L; with this library's operational
    coalescing the two sides can emit the same tuples in a different order
    (the left side's coalescing repositions merged tuples), so the rule is
    registered as ≡M — the strongest level that provably holds here (see
    ``docs/architecture.md``, "Where coalT departs from the paper").
    """

    name = "C9"
    equivalence = EquivalenceType.MULTISET
    description = "coalesce the arguments of a temporal product instead of its projection"
    root = Coalescing
    child = Projection

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        projection = node.child
        product = projection.child
        if not isinstance(product, TemporalCartesianProduct):
            return None
        if not all(item.is_plain_attribute() for item in projection.items):
            return None
        lineage = {"1." + T1, "1." + T2, "2." + T1, "2." + T2}
        expected = [
            attribute
            for attribute in product.output_schema().attributes
            if attribute not in lineage
        ]
        if list(projection.output_attribute_names()) != expected:
            return None
        if not guarantees_no_snapshot_duplicates(product.left):
            return None
        if not guarantees_no_snapshot_duplicates(product.right):
            return None
        rewritten = Projection(
            projection.items,
            TemporalCartesianProduct(Coalescing(product.left), Coalescing(product.right)),
        )
        return application(rewritten, (0,), (0, 0), (0, 0, 0), (0, 0, 1))


class PushCoalescingBelowTemporalDifference(TransformationRule):
    """C10: ``coalT(r1 \\T r2) ≡M coalT(r1) \\T coalT(r2)``.

    Requires the left argument to have duplicate-free snapshots.  Only ≡M —
    the temporal difference is sensitive to how value-equivalent periods are
    distributed in its left argument, so the result lists may differ.
    """

    name = "C10"
    equivalence = EquivalenceType.MULTISET
    description = "push coalescing below temporal difference"
    root = Coalescing
    child = TemporalDifference

    def rewrite(self, node: Coalescing) -> Optional[RuleApplication]:
        difference = node.child
        if not guarantees_no_snapshot_duplicates(difference.left):
            return None
        rewritten = TemporalDifference(
            Coalescing(difference.left), Coalescing(difference.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


COALESCING_RULES = (
    RemoveRedundantCoalescing(),
    DropCoalescingAsSnapshotMultiset(),
    PushSelectionBelowCoalescing(),
    DropCoalescingBelowNonTemporalProjection(),
    MergeCoalescingOverUnionAll(),
    MergeCoalescingOverTemporalUnion(),
    MergeCoalescingOverTemporalAggregation(),
    MergeCoalescingOverProjection(),
    PushCoalescingBelowTemporalProduct(),
    PushCoalescingBelowTemporalDifference(),
)
"""All coalescing rules, in Figure 4 order."""
