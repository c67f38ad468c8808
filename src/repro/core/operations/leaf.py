"""Leaf nodes of query plans: references to base relations and literals."""

from __future__ import annotations

from typing import Any, Sequence, Tuple as PyTuple

from ..exceptions import EvaluationError
from ..order_spec import OrderSpec
from ..relation import Relation
from ..schema import RelationSchema
from .base import (
    CoalescingBehavior,
    DuplicateBehavior,
    EvaluationContext,
    Operation,
)


class BaseRelation(Operation):
    """A reference to a stored base relation, looked up by name at evaluation.

    The node carries the relation's schema so that plan analysis (schema
    derivation, rule preconditions) does not need access to the data.  A
    stored relation is a multiset with no known order (Table 1's "stored
    order").
    """

    symbol = "rel"
    arity = 0
    duplicate_behavior = DuplicateBehavior.RETAINS
    coalescing_behavior = CoalescingBehavior.RETAINS
    paper_order = "stored order"
    paper_cardinality = "n(r)"

    __slots__ = ("relation_name", "schema")

    def __init__(self, relation_name: str, schema: RelationSchema) -> None:
        super().__init__()
        self.relation_name = relation_name
        self.schema = schema

    def params(self) -> PyTuple[Any, ...]:
        return (self.relation_name, self.schema)

    def with_children(self, children: Sequence[Operation]) -> "BaseRelation":
        if children:
            raise EvaluationError("BaseRelation is a leaf and takes no children")
        return BaseRelation(self.relation_name, self.schema)

    def output_schema(self) -> RelationSchema:
        return self.schema

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        return OrderSpec.unordered()

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        # Unknown without the catalog; the cost model refines this using
        # catalog statistics.  Plan analysis treats the bounds as open.
        return (0, 10**9)

    def evaluate(self, context: EvaluationContext) -> Relation:
        relation = context.lookup(self.relation_name)
        if relation.schema != self.schema:
            raise EvaluationError(
                f"bound relation {self.relation_name!r} has schema {relation.schema}, "
                f"plan expects {self.schema}"
            )
        return relation.with_order(OrderSpec.unordered())

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        return self.evaluate(context)

    def label(self) -> str:
        return self.relation_name


class LiteralRelation(Operation):
    """A plan leaf holding an in-memory relation directly.

    Useful in tests and in the stratum, where an already-computed intermediate
    result is spliced back into a residual plan.
    """

    symbol = "lit"
    arity = 0
    duplicate_behavior = DuplicateBehavior.RETAINS
    coalescing_behavior = CoalescingBehavior.RETAINS
    paper_order = "as stored"
    paper_cardinality = "n(r)"

    __slots__ = ("relation",)

    def __init__(self, relation: Relation) -> None:
        super().__init__()
        self.relation = relation

    def params(self) -> PyTuple[Any, ...]:
        return (self.relation,)

    def with_children(self, children: Sequence[Operation]) -> "LiteralRelation":
        if children:
            raise EvaluationError("LiteralRelation is a leaf and takes no children")
        return LiteralRelation(self.relation)

    def output_schema(self) -> RelationSchema:
        return self.relation.schema

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        return self.relation.order

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        return (len(self.relation), len(self.relation))

    def evaluate(self, context: EvaluationContext) -> Relation:
        return self.relation

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        return self.relation

    def label(self) -> str:
        name = self.relation.schema.name or "literal"
        return f"lit:{name}[{len(self.relation)}]"
