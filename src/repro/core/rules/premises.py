"""The side conditions of the rule catalogue, shared across rules.

Each premise is declared over the names a rule's pattern binds —
``no_snapshot_duplicates("r1")`` — and reads either the static analysis of
:mod:`repro.core.analysis` on a bound subtree or a bound operator's own
parameters (never a bound root's derived properties: in the memo search the
root is a group expression's shell).
"""

from __future__ import annotations

from typing import Callable, FrozenSet

from ..analysis import (
    derive_order,
    guarantees_coalesced,
    guarantees_no_duplicates,
    guarantees_no_snapshot_duplicates,
)
from ..operations import (
    Aggregation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
)
from ..period import T1, T2
from .base import Premise

_TIME_ATTRIBUTES = frozenset({T1, T2})


def premise(test: Callable[..., bool]) -> Callable[..., Premise]:
    """Declare a premise: ``test`` over the nodes bound to the given names."""

    def over(*names: str) -> Premise:
        return Premise(
            f"{test.__name__}({', '.join(names)})",
            lambda bindings: test(*[bindings[name] for name in names]),
        )

    return over


_PARAMETER_ATTRIBUTES = {
    Selection: lambda node: node.predicate.attributes(),
    Projection: Projection.attributes_used,
    Sort: lambda node: frozenset(node.sort_order.attributes),
    Aggregation: lambda node: frozenset(node.grouping),
    TemporalAggregation: lambda node: frozenset(node.grouping),
}


def _reads(node: Operation) -> FrozenSet[str]:
    """The attributes an operator's parameters name: σ's predicate, π's
    items, a sort's keys, γ's grouping."""
    return _PARAMETER_ATTRIBUTES[type(node)](node)


@premise
def no_duplicates(r: Operation) -> bool:
    return guarantees_no_duplicates(r)


@premise
def no_snapshot_duplicates(r: Operation) -> bool:
    return guarantees_no_snapshot_duplicates(r)


@premise
def coalesced(r: Operation) -> bool:
    return guarantees_coalesced(r)


@premise
def snapshot(r: Operation) -> bool:
    """``r`` is not temporal: over a temporal argument ``rdup``, ``∪`` and
    ``\\`` demote ``T1``/``T2`` (Figure 3), so names above would not resolve below."""
    return not r.output_schema().is_temporal


@premise
def avoids_time(node: Operation) -> bool:
    """The operator's parameters name neither ``T1`` nor ``T2``."""
    return not _reads(node) & _TIME_ATTRIBUTES


@premise
def keeps_time(projection: Projection) -> bool:
    preserved = projection.preserved_attributes()
    return T1 in preserved and T2 in preserved


@premise
def plain(projection: Projection) -> bool:
    """Every item copies an attribute: nothing computed, nothing renamed."""
    return all(item.is_plain_attribute() for item in projection.items)


@premise
def passes_through(projection: Projection, node: Operation) -> bool:
    """``node`` reads only attributes ``projection`` copies unchanged."""
    return _reads(node) <= set(projection.preserved_attributes())


@premise
def reads_grouping(node: Operation, aggregation: Operation) -> bool:
    """``node`` reads only the aggregation's grouping attributes."""
    return _reads(node) <= set(aggregation.grouping)


@premise
def ordered_by(r: Operation, sort: Sort) -> bool:
    """The sort's key is a prefix of ``Order(r)`` (S1)."""
    return sort.sort_order.is_prefix_of(derive_order(r))


@premise
def key_prefix(inner: Sort, outer: Sort) -> bool:
    """The inner sort's key is a prefix of the outer one's (S3)."""
    return inner.sort_order.is_prefix_of(outer.sort_order)


@premise
def disjoint(r1: Operation, r2: Operation) -> bool:
    """No attribute name in common, so a product renames nothing."""
    return not set(r1.output_schema().attributes) & set(r2.output_schema().attributes)


@premise
def selects_from(selection: Selection, argument: Operation, product: Operation) -> bool:
    """The predicate reads some attributes, each one the argument's and kept
    under its own name by the product (not renamed to ``1.X``/``2.X``)."""
    used = _reads(selection)
    output = set(product.output_schema().attributes)
    schema = argument.output_schema()
    return bool(used) and all(schema.has_attribute(name) and name in output for name in used)


@premise
def drops_lineage(projection: Projection, product: Operation) -> bool:
    """The projection keeps exactly the product's attributes minus the
    argument timestamps ``1.T1, 1.T2, 2.T1, 2.T2`` (C9's ``A``)."""
    lineage = {"1." + T1, "1." + T2, "2." + T1, "2." + T2}
    expected = [name for name in product.output_schema().attributes if name not in lineage]
    return list(projection.output_attribute_names()) == expected
