"""Projection (π): compute output columns from each input tuple.

Table 1: ``π_{f1,...,fn}(r)`` keeps the argument cardinality, *generates*
regular duplicates (distinct input tuples may agree on the projected
columns), *destroys* coalescing (dropping a column can make previously
distinct value parts equal, leaving adjacent value-equivalent periods), and
its result order is ``Prefix(Order(r), ProjPairs)`` — the longest prefix of
the argument order whose attributes survive the projection unchanged.

A projection over a temporal relation stays temporal exactly when it keeps
both ``T1`` and ``T2`` unchanged; keeping only one of them is rejected
because the reserved attributes are meaningful only as a pair.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple as PyTuple

from ..exceptions import TemporalSchemaError
from ..expressions import AttributeRef, ProjectionItem, projection_items
from ..order_spec import OrderSpec
from ..period import T1, T2
from ..relation import Relation
from ..schema import FLOAT, RelationSchema
from ..tuples import Tuple
from .base import (
    CoalescingBehavior,
    DuplicateBehavior,
    EvaluationContext,
    UnaryOperation,
)


class Projection(UnaryOperation):
    """``π_{f1,...,fn}(r)`` — project (and possibly compute) output columns."""

    symbol = "π"
    duplicate_behavior = DuplicateBehavior.GENERATES
    coalescing_behavior = CoalescingBehavior.DESTROYS
    paper_order = "Prefix(Order(r), ProjPairs)"
    paper_cardinality = "= n(r)"

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Any], child) -> None:
        super().__init__(child)
        self.items: PyTuple[ProjectionItem, ...] = projection_items(*items)

    def params(self) -> PyTuple[Any, ...]:
        return (self.items,)

    # -- schema ------------------------------------------------------------------

    def attributes_used(self) -> frozenset:
        """Input attributes read by any projection item (the paper's ``attr``)."""
        used: frozenset = frozenset()
        for item in self.items:
            used |= item.attributes()
        return used

    def output_attribute_names(self) -> PyTuple[str, ...]:
        """The output attribute names, in projection order."""
        return tuple(item.output_name for item in self.items)

    def preserved_attributes(self) -> PyTuple[str, ...]:
        """Input attributes copied through unchanged (same name, no computation)."""
        return tuple(item.output_name for item in self.items if item.is_plain_attribute())

    def output_schema(self) -> RelationSchema:
        child_schema = self.child.output_schema()
        names = self.output_attribute_names()
        has_t1 = T1 in names
        has_t2 = T2 in names
        if has_t1 != has_t2:
            raise TemporalSchemaError(
                "a projection must keep both T1 and T2 or neither"
            )
        pairs = []
        for item in self.items:
            expression = item.expression
            if isinstance(expression, AttributeRef):  # copied, perhaps renamed
                domain = child_schema.domain_of(expression.name)
            else:
                # Computed columns default to the float domain; richer type
                # inference is not needed by the paper's rules.
                domain = FLOAT
            pairs.append((item.output_name, domain))
        return RelationSchema.from_pairs(pairs, name=child_schema.name)

    # -- Table 1 metadata -----------------------------------------------------------

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        return child_orders[0].prefix_on_attributes(self.preserved_attributes())

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        return child_cards[0]

    # -- evaluation --------------------------------------------------------------------

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        argument = child_results[0]
        schema = self.output_schema()
        projected: List[Tuple] = []
        for tup in argument:
            values = {item.output_name: item.expression.evaluate(tup) for item in self.items}
            projected.append(Tuple(schema, values))
        return Relation(schema, projected)

    def label(self) -> str:
        return "π[" + ", ".join(str(item) for item in self.items) + "]"
