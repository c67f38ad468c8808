"""Sorting transformation rules S1–S3 (Figure 4) and sort push-down rules.

S1  sortA(r) ≡L r                      if IsPrefixOf(A, Order(r))
S2  sortA(r) ≡M r
S3  sortA(sortB(r)) ≡L sortA(r)        if IsPrefixOf(B, A)

Section 4.4 additionally observes that sorting the result of an operation can
instead be performed on the operation's (first) argument whenever the
operation does not destroy the ordering.  Because the paper's list-based
algebra allows sorting anywhere in a plan — the motivation for departing from
multiset algebras — these push-down rules are what let the optimizer move an
outermost ``ORDER BY`` deep into the plan (and, combined with the transfer
rules, into the DBMS, which "sorts faster than the stratum").  The push-down
rules below are ≡L and carry preconditions ensuring the pushed sort's keys
survive the operation unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import derive_order
from ..equivalence import EquivalenceType
from ..operations import (
    Coalescing,
    Difference,
    DuplicateElimination,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
)
from ..period import T1, T2
from .base import RuleApplication, TransformationRule, application

_TIME_ATTRIBUTES = frozenset({T1, T2})


class RemoveSatisfiedSort(TransformationRule):
    """S1: ``sortA(r) ≡L r`` when ``A`` is a prefix of ``Order(r)``."""

    name = "S1"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "drop a sort whose order the argument already satisfies"
    root = Sort

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        existing = derive_order(node.child)
        if not node.sort_order.is_prefix_of(existing):
            return None
        return application(node.child, (0,))


class DropSortAsMultiset(TransformationRule):
    """S2: ``sortA(r) ≡M r`` — sorting never changes the multiset."""

    name = "S2"
    equivalence = EquivalenceType.MULTISET
    promise = 2.0
    description = "drop a sort when only the multiset matters"
    root = Sort

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        return application(node.child, (0,))


class CollapseSorts(TransformationRule):
    """S3: ``sortA(sortB(r)) ≡L sortA(r)`` when ``B`` is a prefix of ``A``.

    (When ``A`` is a prefix of ``B`` the outer sort is removed by S1 instead.)
    """

    name = "S3"
    equivalence = EquivalenceType.LIST
    promise = 2.0
    description = "collapse consecutive sorts"
    root = Sort
    child = Sort

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        inner = node.child
        if not inner.sort_order.is_prefix_of(node.sort_order):
            return None
        return application(Sort(node.sort_order, inner.child), (0,), (0, 0))


class PushSortBelowSelection(TransformationRule):
    """``sortA(σP(r)) ≡L σP(sortA(r))`` — selection preserves order."""

    name = "S-push-σ"
    equivalence = EquivalenceType.LIST
    description = "push sort below selection"
    root = Sort
    child = Selection

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        selection = node.child
        rewritten = Selection(selection.predicate, Sort(node.sort_order, selection.child))
        return application(rewritten, (0,), (0, 0))


class PushSortBelowProjection(TransformationRule):
    """``sortA(πL(r)) ≡L πL(sortA(r))`` when π passes ``A``'s attributes through."""

    name = "S-push-π"
    equivalence = EquivalenceType.LIST
    description = "push sort below projection"
    root = Sort
    child = Projection

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        projection = node.child
        preserved = set(projection.preserved_attributes())
        if not set(node.sort_order.attributes) <= preserved:
            return None
        rewritten = Projection(projection.items, Sort(node.sort_order, projection.child))
        return application(rewritten, (0,), (0, 0))


class PushSortBelowDuplicateElimination(TransformationRule):
    """``sortA(rdup(r)) ≡L rdup(sortA(r))`` — occurrences removed are identical tuples."""

    name = "S-push-rdup"
    equivalence = EquivalenceType.LIST
    description = "push sort below duplicate elimination"
    root = Sort
    child = DuplicateElimination

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        rdup = node.child
        if rdup.child.output_schema().is_temporal:
            # rdup renames the time attributes, so the pushed sort would see
            # different attribute names; keep the rule simple and skip.
            return None
        rewritten = DuplicateElimination(Sort(node.sort_order, rdup.child))
        return application(rewritten, (0,), (0, 0))


class PushSortBelowCoalescing(TransformationRule):
    """``sortA(coalT(r)) ≡L coalT(sortA(r))`` when ``A`` avoids the time attributes."""

    name = "S-push-coal"
    equivalence = EquivalenceType.LIST
    description = "push sort below coalescing"
    root = Sort
    child = Coalescing

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        coalescing = node.child
        if set(node.sort_order.attributes) & _TIME_ATTRIBUTES:
            return None
        rewritten = Coalescing(Sort(node.sort_order, coalescing.child))
        return application(rewritten, (0,), (0, 0))


class PushSortBelowDifference(TransformationRule):
    """``sortA(r1 \\ r2) ≡L sortA(r1) \\ r2`` — difference preserves the left order."""

    name = "S-push-diff"
    equivalence = EquivalenceType.LIST
    description = "push sort into the left argument of a difference"
    root = Sort
    child = Difference

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        difference = node.child
        if difference.left.output_schema().is_temporal:
            # The difference demotes the time attributes of a temporal
            # argument; the pushed sort would see different names.
            return None
        rewritten = Difference(Sort(node.sort_order, difference.left), difference.right)
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSortBelowTemporalDifference(TransformationRule):
    """``sortA(r1 \\T r2) ≡L sortA(r1) \\T r2`` when ``A`` avoids the time attributes."""

    name = "S-push-diffT"
    equivalence = EquivalenceType.LIST
    description = "push sort into the left argument of a temporal difference"
    root = Sort
    child = TemporalDifference

    def rewrite(self, node: Sort) -> Optional[RuleApplication]:
        difference = node.child
        if set(node.sort_order.attributes) & _TIME_ATTRIBUTES:
            return None
        rewritten = TemporalDifference(
            Sort(node.sort_order, difference.left), difference.right
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


SORTING_RULES = (
    RemoveSatisfiedSort(),
    DropSortAsMultiset(),
    CollapseSorts(),
    PushSortBelowSelection(),
    PushSortBelowProjection(),
    PushSortBelowDuplicateElimination(),
    PushSortBelowCoalescing(),
    PushSortBelowDifference(),
    PushSortBelowTemporalDifference(),
)
"""All sorting rules: S1–S3 plus the Section 4.4 push-down rules."""
