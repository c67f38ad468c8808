"""Stratum-side implementations of the temporal operations not yet ported.

``rdupT`` and ``γT`` run as batch operators (``TemporalDistinctOp`` and
``TemporalAggregateOp`` of :mod:`repro.core.physical`) inside the stratum's
pipelined regions.  ``coalT``, ``\\T`` and ``∪T`` still materialise their
arguments and run here: only value-equivalent tuples interact in them, so
hashing by the value part first reduces the reference definitions' repeated
scans of the whole tuple list to the (small) equivalence classes.  This
module goes when they become operators over the same period-cover helpers.

Every function is **list-compatible** with its reference counterpart: it
produces the *identical* sequence of tuples, only faster.  This matters
because several temporal operations are order-sensitive (Section 6); a
faster implementation that merely produced a multiset-equivalent result
could change the result of an enclosing order-sensitive operation.  The test
suite cross-checks the outputs tuple-for-tuple on randomized inputs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple as PyTuple

from ..core.period import Period, subtract_periods
from ..core.relation import Relation
from ..core.tuples import Tuple


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def coalesce_fast(relation: Relation) -> Relation:
    """``coalT`` with hash partitioning by value part.

    The reference :func:`repro.core.operations.coalesce.coalesce_tuples`
    nowadays partitions by value part itself (the per-class fixpoint used to
    live only here), so the stratum simply delegates; the function is kept
    as the stratum's named entry point.
    """
    from ..core.operations.coalesce import coalesce_tuples

    return Relation(relation.schema, coalesce_tuples(list(relation.tuples)))


# ---------------------------------------------------------------------------
# Temporal difference and union
# ---------------------------------------------------------------------------


def temporal_difference_fast(left: Relation, right: Relation) -> Relation:
    """``\\T`` with the right argument hashed by value part.

    Union compatibility is by name, so the right argument may list its
    attributes in another order: its keys follow the left schema's order,
    which is decided once per call, not per tuple.
    """
    schema = left.schema
    right_periods: Dict[PyTuple, List[Period]] = {}
    names = schema.nontemporal_attributes
    same_order = right.schema.attributes == schema.attributes
    for tup in right:
        key = tup.value_part() if same_order else tuple(tup[name] for name in names)
        right_periods.setdefault(key, []).append(tup.period)
    result: List[Tuple] = []
    for tup in left:
        aligned = tup.project(schema)
        subtrahends = right_periods.get(aligned.value_part(), ())
        if not subtrahends:
            result.append(aligned)
            continue
        for fragment in subtract_periods(aligned.period, subtrahends):
            result.append(aligned.with_period(fragment))
    return Relation(schema, result)


def temporal_union_fast(left: Relation, right: Relation) -> Relation:
    """``∪T`` with the left argument hashed by value part."""
    schema = left.schema
    left_periods: Dict[PyTuple, List[Period]] = {}
    result: List[Tuple] = []
    for tup in left:
        aligned = tup.project(schema)
        result.append(aligned)
        left_periods.setdefault(aligned.value_part(), []).append(aligned.period)
    for tup in right:
        aligned = tup.project(schema)
        covering = left_periods.get(aligned.value_part(), ())
        if not covering:
            result.append(aligned)
            continue
        for fragment in subtract_periods(aligned.period, covering):
            result.append(aligned.with_period(fragment))
    return Relation(schema, result)
