"""The plan generators of :mod:`tests.strategies` emit only valid plans.

A generator that can build a plan whose ``output_schema()`` raises is a
low-rate flake in every suite that draws from it, so the shapes are walked
here exhaustively and deterministically instead of waiting for hypothesis
to find one.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.operations import LiteralRelation, Operation, Projection
from repro.core.period import T1, T2
from repro.core.relation import Relation

from .strategies import (
    PERMUTED_SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA,
    TEMPORAL_SCHEMA,
    aggregation,
    numeric_attributes,
    unary_step_kinds,
)


def _steps_over(plan: Operation):
    """Every π and γ ``_unary_stack`` can put on ``plan`` (up to attribute order).

    σ, sort and rdup keep the schema, so they add no shape of their own.
    """
    schema = plan.output_schema()
    attributes = schema.attributes
    for size in range(1, len(attributes) + 1):
        for chosen in combinations(attributes, size):
            if (T1 in chosen) == (T2 in chosen):  # a schema carries both or neither
                yield Projection(list(chosen), plan)
    if "aggregate" in unary_step_kinds(plan):
        for size in range(3):
            for grouping in combinations(attributes, size):
                for argument in [None] + numeric_attributes(schema):
                    yield aggregation(plan, list(grouping), argument)


def test_every_unary_stack_shape_has_a_valid_schema():
    """π and γ stacked three deep — γ ∘ π ∘ γ included — never collide on a name."""
    frontier = [
        LiteralRelation(Relation.from_rows(schema, []))
        for schema in (SNAPSHOT_SCHEMA, TEMPORAL_SCHEMA, PERMUTED_SNAPSHOT_SCHEMA)
    ]
    walked = 0
    for _ in range(3):  # ``_unary_stack``'s max_depth
        reached = {}
        for plan in frontier:
            for stacked in _steps_over(plan):
                # Validity depends on the attribute *set* only: one
                # representative per set keeps the walk small.
                reached.setdefault(frozenset(stacked.output_schema().attributes), stacked)
                walked += 1
        frontier = list(reached.values())
    assert walked > 1000
    assert any({"total", "top"} <= set(plan.output_schema().attributes) for plan in frontier)
