"""Coalescing (coalT): merge value-equivalent tuples with adjacent periods.

Following the paper's minimality requirement (Section 2.2, 2.4), coalescing
merges only *adjacent* periods: tuples that are duplicates in snapshots
(overlapping periods) are left for temporal duplicate elimination to handle.
The effect of the more common coalescing definition (merging adjacent *or*
overlapping periods, as in Böhlen et al.) is obtained by composing
``coalT(rdupT(r))``.

Table 1: coalescing retains regular duplicates, enforces coalescing on its
result, keeps at most ``n(r)`` tuples, and its result order is
``Order(r) \\ TimePairs`` (merging rewrites the period attributes, so any
sort keys on ``T1``/``T2`` are no longer guaranteed).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple as PyTuple

from ..order_spec import OrderSpec
from ..period import T1, T2
from ..relation import Relation
from ..schema import RelationSchema
from ..tuples import Tuple
from .base import (
    CoalescingBehavior,
    DuplicateBehavior,
    EvaluationContext,
    UnaryOperation,
)


class Coalescing(UnaryOperation):
    """``coalT(r)`` — merge value-equivalent tuples with adjacent periods."""

    symbol = "coalT"
    duplicate_behavior = DuplicateBehavior.RETAINS
    coalescing_behavior = CoalescingBehavior.ENFORCES
    order_sensitive = True
    is_temporal_operator = True
    paper_order = "Order(r) \\ TimePairs"
    paper_cardinality = "<= n(r)"

    __slots__ = ()

    def output_schema(self) -> RelationSchema:
        return self.child.output_schema()

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        return child_orders[0].without_attributes((T1, T2))

    def cardinality_bounds(self, child_cards: Sequence[PyTuple[int, int]]) -> PyTuple[int, int]:
        low, high = child_cards[0]
        return (0 if low == 0 else 1, high)

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        argument = child_results[0]
        return Relation(argument.schema, coalesce_tuples(list(argument.tuples)))

    def label(self) -> str:
        return "coalT"


def coalesce_tuples(tuples: List[Tuple]) -> List[Tuple]:
    """Merge value-equivalent tuples with adjacent periods, preserving order.

    The merge runs to a fixpoint within each value-equivalence class (a merge
    can create a new adjacency), and each merged tuple takes the list
    position of its earliest participant, so the argument order is retained
    as far as possible.

    Tuples of different value-equivalence classes never interact, so the
    fixpoint partitions: each class is processed on its own (a merge restarts
    the pair scan only within the affected class, not over the whole list)
    and the classes reassemble by position.  A historical formulation rescanned
    the *entire* list after every merge — O(n²) per pass regardless of class
    sizes; the output here is byte-identical to it, because the global scan's
    pair order restricted to one class is exactly the in-class pair order,
    and a merge in one class never changes another class's entries.
    """
    groups: Dict[PyTuple, List[List]] = {}
    first = tuples[0].schema if tuples else None
    for position, tup in enumerate(tuples):
        # Value equivalence is by attribute name, and a relation admits tuples
        # listing its attributes in another order: such a tuple's key follows
        # the first tuple's order, like everyone else's.
        schema = tup.schema
        if schema is first or schema.attributes == first.attributes:
            key = tup.value_part()
        else:
            key = tuple(tup[a] for a in first.nontemporal_attributes)
        # Entries: (original position of the earliest participant, tuple, its
        # period: ``Tuple.period`` builds one per access, the pair scan must not).
        groups.setdefault(key, []).append([position, tup, tup.period])
    merged: List[List] = []
    for entries in groups.values():
        changed = True
        while changed:
            changed = False
            for i in range(len(entries)):
                if changed:
                    break
                for j in range(i + 1, len(entries)):
                    first, second = entries[i][2], entries[j][2]
                    if not first.is_adjacent_to(second):
                        continue
                    merged_period = first.merge(second)
                    entries[i] = [
                        min(entries[i][0], entries[j][0]),
                        entries[i][1].with_period(merged_period),
                        merged_period,
                    ]
                    del entries[j]
                    changed = True
                    break
        merged.extend(entries)
    merged.sort(key=lambda entry: entry[0])
    return [entry[1] for entry in merged]
