"""Aggregation (γ) and temporal aggregation (γT).

``γ_{G1,...,Gn; F1,...,Fm}(r)`` groups the argument by the grouping
attributes ``G`` and computes the aggregate functions ``F`` per group.  Its
result order is ``Prefix(Order(r), GroupPairs)`` — groups are emitted in
order of their first occurrence in the argument, so a suitably sorted
argument yields a sorted result — it eliminates regular duplicates (one row
per group), and its result is a snapshot relation.

``γT`` is snapshot reducible to ``γ``: conceptually the aggregation is
evaluated in every snapshot.  The implementation uses the standard
constant-interval technique: the period endpoints of the argument partition
the time line into at most ``2·n(r) − 1`` intervals inside which the set of
valid tuples (and hence every aggregate) is constant; one result row per
group and interval is emitted.  Adjacent rows with equal aggregate values are
*not* merged — γT destroys coalescing; composing with ``coalT`` produces the
maximal-period form.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple as PyTuple

from ..exceptions import AttributeNotFound, TemporalSchemaError
from ..expressions import AggregateFunction, AggregateKind
from ..order_spec import OrderSpec
from ..period import Period, T1, T2
from ..relation import Relation
from ..schema import FLOAT, INTEGER, RelationSchema, TIME
from ..tuples import Tuple
from .base import (
    CoalescingBehavior,
    DuplicateBehavior,
    EvaluationContext,
    UnaryOperation,
)


def _aggregate_domain(function: AggregateFunction, child_schema: RelationSchema):
    """``COUNT`` counts, ``MIN``/``MAX`` pick an argument value, ``SUM``/``AVG`` are numbers."""
    if function.kind is AggregateKind.COUNT:
        return INTEGER
    if function.kind in (AggregateKind.MIN, AggregateKind.MAX):
        return child_schema.domain_of(function.argument)
    return FLOAT


class Aggregation(UnaryOperation):
    """``γ_{G;F}(r)`` — group by ``G`` and compute the aggregates ``F``."""

    symbol = "γ"
    duplicate_behavior = DuplicateBehavior.ELIMINATES
    coalescing_behavior = CoalescingBehavior.NOT_APPLICABLE
    paper_order = "Prefix(Order(r), GroupPairs)"
    paper_cardinality = "<= n(r)"

    __slots__ = ("grouping", "functions")

    def __init__(
        self,
        grouping: Sequence[str],
        functions: Sequence[AggregateFunction],
        child,
    ) -> None:
        super().__init__(child)
        self.grouping: PyTuple[str, ...] = tuple(grouping)
        self.functions: PyTuple[AggregateFunction, ...] = tuple(functions)

    def params(self) -> PyTuple[Any, ...]:
        return (self.grouping, self.functions)

    def output_schema(self) -> RelationSchema:
        child_schema = self.child.output_schema()
        pairs = []
        for attribute in self.grouping:
            if not child_schema.has_attribute(attribute):
                raise AttributeNotFound(
                    f"grouping attribute {attribute!r} not in schema {child_schema}"
                )
            name = attribute
            if attribute in (T1, T2):
                # The result of regular aggregation is a snapshot relation.
                name = "1." + attribute
            pairs.append((name, child_schema.domain_of(attribute)))
        for function in self.functions:
            pairs.append((function.output_name, _aggregate_domain(function, child_schema)))
        return RelationSchema.from_pairs(pairs)

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        prefix = child_orders[0].prefix_on_attributes(self.grouping)
        return prefix.rename_attributes({T1: "1." + T1, T2: "1." + T2})

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        low, high = child_cards[0]
        return (0 if low == 0 else 1, high)

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        argument = child_results[0]
        schema = self.output_schema()
        groups: Dict[PyTuple[Any, ...], List[Tuple]] = {}
        group_order: List[PyTuple[Any, ...]] = []
        for tup in argument:
            key = tuple(tup[attribute] for attribute in self.grouping)
            if key not in groups:
                groups[key] = []
                group_order.append(key)
            groups[key].append(tup)
        result: List[Tuple] = []
        for key in group_order:
            values: Dict[str, Any] = {}
            for attribute, value in zip(self.grouping, key):
                name = "1." + attribute if attribute in (T1, T2) else attribute
                values[name] = value
            for function in self.functions:
                values[function.output_name] = function.compute(groups[key])
            result.append(Tuple(schema, values))
        return Relation(schema, result)

    def label(self) -> str:
        grouping = ", ".join(self.grouping) or "()"
        functions = ", ".join(str(function) for function in self.functions)
        return f"γ[{grouping}; {functions}]"


class TemporalAggregation(UnaryOperation):
    """``γT_{G;F}(r)`` — aggregation evaluated conceptually at every time point."""

    symbol = "γT"
    duplicate_behavior = DuplicateBehavior.ELIMINATES
    coalescing_behavior = CoalescingBehavior.DESTROYS
    order_sensitive = True
    is_temporal_operator = True
    paper_order = "Prefix(Order(r), GroupPairs)"
    paper_cardinality = "<= 2*n(r) - 1"

    __slots__ = ("grouping", "functions")

    def __init__(
        self,
        grouping: Sequence[str],
        functions: Sequence[AggregateFunction],
        child,
    ) -> None:
        super().__init__(child)
        self.grouping: PyTuple[str, ...] = tuple(grouping)
        self.functions: PyTuple[AggregateFunction, ...] = tuple(functions)
        if T1 in self.grouping or T2 in self.grouping:
            raise TemporalSchemaError(
                "temporal aggregation groups implicitly by time; "
                "T1/T2 may not appear among the grouping attributes"
            )

    def params(self) -> PyTuple[Any, ...]:
        return (self.grouping, self.functions)

    def output_schema(self) -> RelationSchema:
        child_schema = self.child.output_schema()
        if not child_schema.is_temporal:
            raise TemporalSchemaError("temporal aggregation requires a temporal argument")
        pairs = []
        for attribute in self.grouping:
            if not child_schema.has_attribute(attribute):
                raise AttributeNotFound(
                    f"grouping attribute {attribute!r} not in schema {child_schema}"
                )
            pairs.append((attribute, child_schema.domain_of(attribute)))
        for function in self.functions:
            pairs.append((function.output_name, _aggregate_domain(function, child_schema)))
        pairs += [(T1, TIME), (T2, TIME)]
        return RelationSchema.from_pairs(pairs)

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        return child_orders[0].prefix_on_attributes(self.grouping)

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        low, high = child_cards[0]
        # At most 2n-1 constant intervals, each contributing at most one row
        # per group; the number of groups is bounded by the cardinality.
        return (0, max(0, 2 * high - 1) * max(1, high))

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        argument = child_results[0]
        schema = self.output_schema()
        if argument.is_empty():
            return Relation.empty(schema)
        endpoints = sorted(
            {tup.period.start for tup in argument} | {tup.period.end for tup in argument}
        )
        group_order: List[PyTuple[Any, ...]] = []
        seen_groups = set()
        for tup in argument:
            key = tuple(tup[attribute] for attribute in self.grouping)
            if key not in seen_groups:
                seen_groups.add(key)
                group_order.append(key)
        # Group tuples once, then sweep the constant intervals per group.
        # Emitting group-major (all intervals of the first group, then the
        # second, ...) keeps the result ordered by the grouping attributes
        # whenever the argument was, which is what Table 1's
        # Prefix(Order(r), GroupPairs) promises.
        grouped: Dict[PyTuple[Any, ...], List[Tuple]] = {}
        for tup in argument:
            key = tuple(tup[attribute] for attribute in self.grouping)
            grouped.setdefault(key, []).append(tup)
        result: List[Tuple] = []
        for key in group_order:
            members = grouped[key]
            for start, end in zip(endpoints, endpoints[1:]):
                interval = Period(start, end)
                valid = [tup for tup in members if tup.period.contains(interval)]
                if not valid:
                    continue
                values: Dict[str, Any] = dict(zip(self.grouping, key))
                for function in self.functions:
                    values[function.output_name] = function.compute(valid)
                values[T1] = interval.start
                values[T2] = interval.end
                result.append(Tuple(schema, values))
        return Relation(schema, result)

    def label(self) -> str:
        grouping = ", ".join(self.grouping) or "()"
        functions = ", ".join(str(function) for function in self.functions)
        return f"γT[{grouping}; {functions}]"
