"""Conventional transformation rules lifted to lists and temporal operations.

Section 4.1: most of the classical multiset rules (selection push-down,
cascades, commutativity, ...) remain valid for list-based relations and have
counterparts for the temporal operations; commutativity rules, however, only
preserve ≡M because swapping the arguments changes the order of the result,
and rules touching the unions may be weaker still.  The concrete catalogue
below covers:

* selection: cascade commutation, push-down below projection, sort,
  duplicate eliminations, coalescing (rule C3 lives with the coalescing
  rules), products, differences, union ALL and the unions, and grouping-
  attribute push-down below (temporal) aggregation;
* projection: cascade merging and push-down below union ALL;
* commutativity of the products and unions;
* associativity of union ALL.

Every rule documents the pre-conditions under which it fires; each
pre-condition follows the corresponding requirement of the paper (e.g. a
predicate pushed through a temporal operation must not mention ``T1``/``T2``
because those operations rewrite the period attributes).
"""

from __future__ import annotations

from typing import Optional

from ..equivalence import EquivalenceType
from ..operations import (
    Aggregation,
    CartesianProduct,
    Difference,
    DuplicateElimination,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    Union,
    UnionAll,
)
from ..period import T1, T2
from .base import RuleApplication, TransformationRule, application

_TIME_ATTRIBUTES = frozenset({T1, T2})


# ---------------------------------------------------------------------------
# Selection rules
# ---------------------------------------------------------------------------


class CommuteSelections(TransformationRule):
    """``σP1(σP2(r)) ≡L σP2(σP1(r))`` — selections commute."""

    name = "σ-commute"
    equivalence = EquivalenceType.LIST
    description = "adjacent selections commute"
    root = Selection
    child = Selection

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        inner = node.child
        rewritten = Selection(inner.predicate, Selection(node.predicate, inner.child))
        return application(rewritten, (0,), (0, 0))


class PushSelectionBelowProjection(TransformationRule):
    """``σP(πL(r)) ≡L πL(σP(r))`` when ``π`` passes ``P``'s attributes through."""

    name = "σ-below-π"
    equivalence = EquivalenceType.LIST
    description = "push selection below projection"
    root = Selection
    child = Projection

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        projection = node.child
        preserved = set(projection.preserved_attributes())
        if not node.predicate.attributes() <= preserved:
            return None
        rewritten = Projection(projection.items, Selection(node.predicate, projection.child))
        return application(rewritten, (0,), (0, 0))


class PushSelectionBelowSort(TransformationRule):
    """``σP(sortA(r)) ≡L sortA(σP(r))`` — filtering preserves a sorted order."""

    name = "σ-below-sort"
    equivalence = EquivalenceType.LIST
    description = "push selection below sort"
    root = Selection
    child = Sort

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        sort = node.child
        rewritten = Sort(sort.sort_order, Selection(node.predicate, sort.child))
        return application(rewritten, (0,), (0, 0))


class PushSelectionBelowDuplicateElimination(TransformationRule):
    """``σP(rdup(r)) ≡L rdup(σP(r))``."""

    name = "σ-below-rdup"
    equivalence = EquivalenceType.LIST
    description = "push selection below duplicate elimination"
    root = Selection
    child = DuplicateElimination

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        rdup = node.child
        if rdup.child.output_schema().is_temporal:
            # The elimination renames T1/T2, so the predicate's attribute
            # names would not resolve below it.
            return None
        rewritten = DuplicateElimination(Selection(node.predicate, rdup.child))
        return application(rewritten, (0,), (0, 0))


class PushSelectionBelowTemporalDuplicateElimination(TransformationRule):
    """``σP(rdupT(r)) ≡L rdupT(σP(r))`` when ``P`` avoids the time attributes."""

    name = "σ-below-rdupT"
    equivalence = EquivalenceType.LIST
    description = "push selection below temporal duplicate elimination"
    root = Selection
    child = TemporalDuplicateElimination

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        rdup = node.child
        if node.predicate.attributes() & _TIME_ATTRIBUTES:
            return None
        rewritten = TemporalDuplicateElimination(Selection(node.predicate, rdup.child))
        return application(rewritten, (0,), (0, 0))


class PushSelectionIntoProductLeft(TransformationRule):
    """``σP(r1 × r2) ≡L σP(r1) × r2`` when ``P`` reads only (unrenamed) left attributes."""

    name = "σ-into-×-left"
    equivalence = EquivalenceType.LIST
    description = "push selection into the left argument of a product"
    root = Selection
    child = CartesianProduct

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        return _push_into_product(node, side=0)


class PushSelectionIntoProductRight(TransformationRule):
    """``σP(r1 × r2) ≡L r1 × σP(r2)`` when ``P`` reads only (unrenamed) right attributes."""

    name = "σ-into-×-right"
    equivalence = EquivalenceType.LIST
    description = "push selection into the right argument of a product"
    root = Selection
    child = CartesianProduct

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        return _push_into_product(node, side=1)


class PushSelectionIntoTemporalProductLeft(TransformationRule):
    """``σP(r1 ×T r2) ≡L σP(r1) ×T r2`` when ``P`` reads only unrenamed left attributes.

    The product's fresh ``T1``/``T2`` (the period intersection) are computed
    by the product itself, so a predicate mentioning them cannot be pushed.
    """

    name = "σ-into-×T-left"
    equivalence = EquivalenceType.LIST
    description = "push selection into the left argument of a temporal product"
    root = Selection
    child = TemporalCartesianProduct

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        return _push_into_product(node, side=0)


class PushSelectionIntoTemporalProductRight(TransformationRule):
    """``σP(r1 ×T r2) ≡L r1 ×T σP(r2)`` when ``P`` reads only unrenamed right attributes."""

    name = "σ-into-×T-right"
    equivalence = EquivalenceType.LIST
    description = "push selection into the right argument of a temporal product"
    root = Selection
    child = TemporalCartesianProduct

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        return _push_into_product(node, side=1)


def _push_into_product(node: Selection, side: int) -> Optional[RuleApplication]:
    product = node.child
    argument = product.children[side]
    argument_schema = argument.output_schema()
    used = node.predicate.attributes()
    if isinstance(product, TemporalCartesianProduct) and used & _TIME_ATTRIBUTES:
        return None
    # The attributes must exist, with the same names, both in the argument
    # and in the product's output (i.e. they were not renamed to 1.X / 2.X).
    output_names = set(product.output_schema().attributes)
    if not used:
        return None
    if not all(
        argument_schema.has_attribute(name) and name in output_names for name in used
    ):
        return None
    new_children = list(product.children)
    new_children[side] = Selection(node.predicate, argument)
    rewritten = product.with_children(new_children)
    return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionBelowUnionAll(TransformationRule):
    """``σP(r1 ⊔ r2) ≡L σP(r1) ⊔ σP(r2)``."""

    name = "σ-below-⊔"
    equivalence = EquivalenceType.LIST
    description = "push selection below union ALL"
    root = Selection
    child = UnionAll

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        union = node.child
        rewritten = UnionAll(
            Selection(node.predicate, union.left), Selection(node.predicate, union.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionBelowUnion(TransformationRule):
    """``σP(r1 ∪ r2) ≡M σP(r1) ∪ σP(r2)``."""

    name = "σ-below-∪"
    equivalence = EquivalenceType.MULTISET
    description = "push selection below multiset union"
    root = Selection
    child = Union

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        union = node.child
        if union.left.output_schema().is_temporal:
            # Union demotes the time attributes; the predicate's names would
            # not resolve below it.
            return None
        rewritten = Union(
            Selection(node.predicate, union.left), Selection(node.predicate, union.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionBelowTemporalUnion(TransformationRule):
    """``σP(r1 ∪T r2) ≡M σP(r1) ∪T σP(r2)`` when ``P`` avoids the time attributes."""

    name = "σ-below-∪T"
    equivalence = EquivalenceType.MULTISET
    description = "push selection below temporal union"
    root = Selection
    child = TemporalUnion

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        union = node.child
        if node.predicate.attributes() & _TIME_ATTRIBUTES:
            return None
        rewritten = TemporalUnion(
            Selection(node.predicate, union.left), Selection(node.predicate, union.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionIntoDifferenceLeft(TransformationRule):
    """``σP(r1 \\ r2) ≡L σP(r1) \\ r2``."""

    name = "σ-into-\\-left"
    equivalence = EquivalenceType.LIST
    description = "push selection into the left argument of a difference"
    root = Selection
    child = Difference

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        difference = node.child
        if difference.left.output_schema().is_temporal:
            return None
        rewritten = Difference(Selection(node.predicate, difference.left), difference.right)
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionIntoTemporalDifferenceLeft(TransformationRule):
    """``σP(r1 \\T r2) ≡L σP(r1) \\T r2`` when ``P`` avoids the time attributes."""

    name = "σ-into-\\T-left"
    equivalence = EquivalenceType.LIST
    description = "push selection into the left argument of a temporal difference"
    root = Selection
    child = TemporalDifference

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        difference = node.child
        if node.predicate.attributes() & _TIME_ATTRIBUTES:
            return None
        rewritten = TemporalDifference(
            Selection(node.predicate, difference.left), difference.right
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


class PushSelectionBelowAggregation(TransformationRule):
    """``σP(γ_{G;F}(r)) ≡L γ_{G;F}(σP(r))`` when ``P`` reads grouping attributes only."""

    name = "σ-below-γ"
    equivalence = EquivalenceType.LIST
    description = "push a grouping-attribute selection below aggregation"
    root = Selection
    child = Aggregation

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        aggregation = node.child
        if not node.predicate.attributes() <= set(aggregation.grouping):
            return None
        if set(aggregation.grouping) & _TIME_ATTRIBUTES:
            # Grouping on T1/T2 renames the output attributes; skip.
            return None
        rewritten = Aggregation(
            aggregation.grouping,
            aggregation.functions,
            Selection(node.predicate, aggregation.child),
        )
        return application(rewritten, (0,), (0, 0))


class PushSelectionBelowTemporalAggregation(TransformationRule):
    """``σP(γT_{G;F}(r)) ≡SM γT_{G;F}(σP(r))`` when ``P`` reads grouping attributes only.

    Only ≡SM: removing other groups' tuples changes how the surviving
    groups' result periods are fragmented, but not any snapshot.
    """

    name = "σ-below-γT"
    equivalence = EquivalenceType.SNAPSHOT_MULTISET
    description = "push a grouping-attribute selection below temporal aggregation"
    root = Selection
    child = TemporalAggregation

    def rewrite(self, node: Selection) -> Optional[RuleApplication]:
        aggregation = node.child
        if not node.predicate.attributes() <= set(aggregation.grouping):
            return None
        rewritten = TemporalAggregation(
            aggregation.grouping,
            aggregation.functions,
            Selection(node.predicate, aggregation.child),
        )
        return application(rewritten, (0,), (0, 0))


# ---------------------------------------------------------------------------
# Projection rules
# ---------------------------------------------------------------------------


class MergeProjections(TransformationRule):
    """``πL1(πL2(r)) ≡L πL1(r)`` when ``L2`` passes everything ``L1`` needs through."""

    name = "π-cascade"
    equivalence = EquivalenceType.LIST
    description = "merge consecutive projections"
    root = Projection
    child = Projection

    def rewrite(self, node: Projection) -> Optional[RuleApplication]:
        inner = node.child
        if not all(item.is_plain_attribute() for item in inner.items):
            return None
        if not node.attributes_used() <= set(inner.output_attribute_names()):
            return None
        rewritten = Projection(node.items, inner.child)
        return application(rewritten, (0,), (0, 0))


class PushProjectionBelowUnionAll(TransformationRule):
    """``πL(r1 ⊔ r2) ≡L πL(r1) ⊔ πL(r2)``."""

    name = "π-below-⊔"
    equivalence = EquivalenceType.LIST
    description = "push projection below union ALL"
    root = Projection
    child = UnionAll

    def rewrite(self, node: Projection) -> Optional[RuleApplication]:
        union = node.child
        rewritten = UnionAll(
            Projection(node.items, union.left), Projection(node.items, union.right)
        )
        return application(rewritten, (0,), (0, 0), (0, 1))


# ---------------------------------------------------------------------------
# Commutativity and associativity
# ---------------------------------------------------------------------------


class CommuteCartesianProduct(TransformationRule):
    """``r1 × r2 ≡M r2 × r1`` when no attribute names clash and neither argument is temporal.

    With clashing names (or temporal arguments) the product renames
    attributes with the ``1.`` / ``2.`` prefixes, so swapping the arguments
    would change the result schema.
    """

    name = "×-commute"
    equivalence = EquivalenceType.MULTISET
    description = "Cartesian product commutes (as multisets)"
    root = CartesianProduct

    def rewrite(self, node: CartesianProduct) -> Optional[RuleApplication]:
        left_schema = node.left.output_schema()
        right_schema = node.right.output_schema()
        if left_schema.is_temporal or right_schema.is_temporal:
            return None
        if set(left_schema.attributes) & set(right_schema.attributes):
            return None
        rewritten = CartesianProduct(node.right, node.left)
        return application(rewritten, (0,), (1,))


class CommuteUnionAll(TransformationRule):
    """``r1 ⊔ r2 ≡M r2 ⊔ r1``."""

    name = "⊔-commute"
    equivalence = EquivalenceType.MULTISET
    description = "union ALL commutes (as multisets)"
    root = UnionAll

    def rewrite(self, node: UnionAll) -> Optional[RuleApplication]:
        return application(UnionAll(node.right, node.left), (0,), (1,))


class CommuteUnion(TransformationRule):
    """``r1 ∪ r2 ≡M r2 ∪ r1``."""

    name = "∪-commute"
    equivalence = EquivalenceType.MULTISET
    description = "multiset union commutes"
    root = Union

    def rewrite(self, node: Union) -> Optional[RuleApplication]:
        return application(Union(node.right, node.left), (0,), (1,))


class CommuteTemporalUnion(TransformationRule):
    """``r1 ∪T r2 ≡SS r2 ∪T r1``.

    Only snapshot-set equivalence: the temporal union keeps its left
    argument's tuples (duplicates included) verbatim and contributes only the
    uncovered fragments of the right argument, so swapping the arguments can
    change both period packaging and snapshot duplicate counts.  This is one
    of the union rules the paper notes have "equivalence types weaker than
    ≡M" (Section 4.1).
    """

    name = "∪T-commute"
    equivalence = EquivalenceType.SNAPSHOT_SET
    description = "temporal union commutes as snapshot sets"
    root = TemporalUnion

    def rewrite(self, node: TemporalUnion) -> Optional[RuleApplication]:
        return application(TemporalUnion(node.right, node.left), (0,), (1,))


class AssociateUnionAll(TransformationRule):
    """``(r1 ⊔ r2) ⊔ r3 ≡L r1 ⊔ (r2 ⊔ r3)`` — concatenation is associative."""

    name = "⊔-assoc"
    equivalence = EquivalenceType.LIST
    description = "union ALL is associative"
    root = UnionAll
    child = UnionAll

    def rewrite(self, node: UnionAll) -> Optional[RuleApplication]:
        inner = node.left
        rewritten = UnionAll(inner.left, UnionAll(inner.right, node.right))
        return application(rewritten, (0,), (1,), (0, 0), (0, 1))


CONVENTIONAL_RULES = (
    CommuteSelections(),
    PushSelectionBelowProjection(),
    PushSelectionBelowSort(),
    PushSelectionBelowDuplicateElimination(),
    PushSelectionBelowTemporalDuplicateElimination(),
    PushSelectionIntoProductLeft(),
    PushSelectionIntoProductRight(),
    PushSelectionIntoTemporalProductLeft(),
    PushSelectionIntoTemporalProductRight(),
    PushSelectionBelowUnionAll(),
    PushSelectionBelowUnion(),
    PushSelectionBelowTemporalUnion(),
    PushSelectionIntoDifferenceLeft(),
    PushSelectionIntoTemporalDifferenceLeft(),
    PushSelectionBelowAggregation(),
    PushSelectionBelowTemporalAggregation(),
    MergeProjections(),
    PushProjectionBelowUnionAll(),
    CommuteCartesianProduct(),
    CommuteUnionAll(),
    CommuteUnion(),
    CommuteTemporalUnion(),
    AssociateUnionAll(),
)
"""The conventional rule catalogue (Section 4.1)."""
