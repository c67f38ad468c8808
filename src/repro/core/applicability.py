"""Applicability of transformation rules (Section 5, Definition 5.1).

Two views of applicability are provided:

* the *a priori*, operational check used during plan enumeration
  (:func:`rule_application_allowed`): given the equivalence type of a rule
  and the Table 2 properties of the operations involved at a location, decide
  whether the rule may fire there.  This is the condition block of Figure 5.

* the *a posteriori* check of Definition 5.1 itself
  (:func:`results_acceptable`): given the results produced by the original
  and the transformed plan, verify that they are ≡S, ≡M or ≡L,A equivalent
  depending on the query's outermost ``DISTINCT`` / ``ORDER BY``.  The test
  suite uses it to validate that the a priori procedure only ever admits
  correct rewrites.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .equivalence import (
    EquivalenceType,
    list_equivalent_on,
    multiset_equivalent,
    set_equivalent,
)
from .operations import Operation
from .operations.base import PlanPath
from .properties import OperationProperties, PropertyMap, annotate
from .query import QueryResultSpec, ResultKind
from .relation import Relation
from .rules.base import RuleApplication, TransformationRule


def rule_application_allowed(
    equivalence: EquivalenceType,
    involved: Iterable[OperationProperties],
) -> bool:
    """The Figure 5 condition: may a rule of this equivalence type fire here?

    ``involved`` holds the Table 2 properties of the operations that the
    rule's left-hand side mentions (including the roots of its subtree
    variables).
    """
    involved = list(involved)
    if equivalence is EquivalenceType.LIST:
        return True
    if equivalence is EquivalenceType.MULTISET:
        return all(not properties.order_required for properties in involved)
    if equivalence is EquivalenceType.SET:
        return all(
            not properties.duplicates_relevant and not properties.order_required
            for properties in involved
        )
    if equivalence is EquivalenceType.SNAPSHOT_LIST:
        return all(not properties.period_preserving for properties in involved)
    if equivalence is EquivalenceType.SNAPSHOT_MULTISET:
        return all(
            not properties.order_required and not properties.period_preserving
            for properties in involved
        )
    # SNAPSHOT_SET
    return all(
        not properties.duplicates_relevant
        and not properties.order_required
        and not properties.period_preserving
        for properties in involved
    )


def involved_properties(
    properties: PropertyMap,
    location: PlanPath,
    application: RuleApplication,
) -> Sequence[OperationProperties]:
    """Look up the properties of the operations involved in an application.

    ``application.involved`` holds paths relative to ``location``; paths the
    plan lacks are skipped.  A declared rule's paths always exist, but the
    transfer rules declare the union over both arities they match, so a
    unary binding lacks the binary one's paths.
    """
    found = []
    for relative in application.involved:
        absolute = location + relative
        if absolute in properties:
            found.append(properties[absolute])
    return found


def is_rule_applicable(
    plan: Operation,
    location: PlanPath,
    rule: TransformationRule,
    query: QueryResultSpec,
    properties: Optional[PropertyMap] = None,
) -> Optional[RuleApplication]:
    """Full a priori applicability check for one rule at one location.

    Returns the :class:`RuleApplication` when the rule matches syntactically,
    its local preconditions hold, and the Figure 5 property conditions admit
    its equivalence type at that location; ``None`` otherwise.
    """
    node = plan.subtree_at(location)
    application = rule.apply(node)
    if application is None:
        return None
    if properties is None:
        properties = annotate(plan, query)
    if not rule_application_allowed(
        application.equivalence, involved_properties(properties, location, application)
    ):
        return None
    return application


# ---------------------------------------------------------------------------
# Definition 5.1 — the a posteriori correctness criterion
# ---------------------------------------------------------------------------


def results_acceptable(
    original: Relation, transformed: Relation, query: QueryResultSpec
) -> bool:
    """Definition 5.1: is the transformed plan's result acceptable?

    * ``DISTINCT`` without ``ORDER BY``  -> the results must be ≡S,
    * neither clause                     -> the results must be ≡M,
    * ``ORDER BY A``                     -> the results must be ≡L,A.
    """
    kind = query.kind
    if kind is ResultKind.SET:
        return set_equivalent(original, transformed)
    if kind is ResultKind.MULTISET:
        return multiset_equivalent(original, transformed)
    return list_equivalent_on(original, transformed, query.order_by)
