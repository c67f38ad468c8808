"""Named benchmark/oracle queries over the paper's example schema.

Each entry pairs an initial algebra plan (the shape the temporal SQL front
end would produce: everything computed in the DBMS, transferred to the
stratum, output operators on top) with its Definition 5.1 result
specification.  The registry serves two consumers:

* the memo-vs-exhaustive *agreement tests* in
  ``tests/test_search_agreement.py``: every query marked
  ``fully_enumerable`` is small enough for :func:`repro.core.enumeration.enumerate_plans`
  to close without truncating, so the memo search's best cost can be checked
  against the exhaustive minimum exactly;
* the performance benchmarks, which scale :func:`chained_query` past the
  point where the exhaustive enumerator truncates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple as PyTuple

from ..core.expressions import And, AttributeRef, Comparison, ComparisonOperator, Literal
from ..core.operations import (
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToStratum,
    UnionAll,
)
from ..core.order_spec import OrderSpec
from ..core.query import QueryResultSpec
from .examples import EMPLOYEE_SCHEMA, PROJECT_SCHEMA

#: An initial plan paired with its result specification.
PlanAndSpec = PyTuple[Operation, QueryResultSpec]


def _employee_names() -> Operation:
    return Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))


def _project_names() -> Operation:
    return Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))


def _output_stage(body: Operation, order: OrderSpec) -> Operation:
    return TransferToStratum(Sort(order, Coalescing(TemporalDuplicateElimination(body))))


def paper_query() -> PlanAndSpec:
    """The motivating query of Figure 1/2: employees in a department but on no project."""
    difference = TemporalDifference(TemporalDuplicateElimination(_employee_names()), _project_names())
    order = OrderSpec.ascending("EmpName")
    return _output_stage(difference, order), QueryResultSpec.list(order, distinct=True)


def paper_query_multiset() -> PlanAndSpec:
    """The motivating query's plan under a bare (multiset) result specification."""
    plan, _ = paper_query()
    return plan, QueryResultSpec.multiset()


def paper_query_set() -> PlanAndSpec:
    """The motivating query's plan under a DISTINCT-only (set) specification."""
    plan, _ = paper_query()
    return plan, QueryResultSpec.set()


def chained_query(operations: int) -> PlanAndSpec:
    """``operations`` temporal set operations chained below the output stage.

    The plan-space growth workload of the enumeration benchmarks: the
    exhaustive enumerator truncates on it from roughly six chained
    operations at its default budgets, while the memo search still closes.
    """
    current: Operation = TemporalDuplicateElimination(_employee_names())
    for index in range(operations):
        other = _project_names()
        if index % 2 == 0:
            current = TemporalDifference(current, other)
        else:
            current = TemporalUnion(current, other)
    order = OrderSpec.ascending("EmpName")
    return _output_stage(current, order), QueryResultSpec.list(order, distinct=True)


def double_elimination_query() -> PlanAndSpec:
    """Duplicate eliminations on both difference arguments.

    The right-hand ``rdupT`` is removable (D4) only because the left argument
    provably has duplicate-free snapshots — the context-sensitive corner of
    the Figure 5 conditions.
    """
    difference = TemporalDifference(
        TemporalDuplicateElimination(_employee_names()),
        TemporalDuplicateElimination(_project_names()),
    )
    order = OrderSpec.ascending("EmpName")
    return _output_stage(difference, order), QueryResultSpec.list(order, distinct=True)


def selection_query() -> PlanAndSpec:
    """A selection over a sorted projection (push-down territory)."""
    predicate = Comparison(ComparisonOperator.EQ, AttributeRef("Dept"), Literal("Sales"))
    body = Selection(
        predicate,
        Projection(["EmpName", "Dept", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
    )
    order = OrderSpec.ascending("EmpName")
    plan = TransferToStratum(Sort(order, body))
    return plan, QueryResultSpec.list(order)


def snapshot_except_query() -> PlanAndSpec:
    """A conventional (snapshot) EXCEPT with rdup and sort on top.

    Exercises the conventional difference, whose cardinality estimate is
    *not* monotone in its right input — the case the extraction's
    per-cardinality frontiers exist for.
    """
    left = Projection(["EmpName"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
    right = Projection(["EmpName"], BaseRelation("PROJECT", PROJECT_SCHEMA))
    body = DuplicateElimination(Difference(left, right))
    order = OrderSpec.ascending("EmpName")
    return TransferToStratum(Sort(order, body)), QueryResultSpec.list(order, distinct=True)


def union_all_query() -> PlanAndSpec:
    """A conventional UNION ALL with an outer duplicate elimination."""
    body = DuplicateElimination(UnionAll(_employee_names(), _project_names()))
    return TransferToStratum(body), QueryResultSpec.set()


def temporal_union_query() -> PlanAndSpec:
    """A temporal union, coalesced, under a multiset specification."""
    body = Coalescing(TemporalUnion(_employee_names(), _project_names()))
    return TransferToStratum(body), QueryResultSpec(coalesced=True)


def _employee_project_match() -> Comparison:
    """The equi predicate joining EMPLOYEE and PROJECT on the person."""
    return Comparison(
        ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
    )


def equijoin_query() -> PlanAndSpec:
    """A conventional equi-join in its expanded σ-over-product form.

    The shape the σ(×) → ⋈ rewrite exists for: the optimizer must discover
    the :class:`~repro.core.operations.join.Join` idiom to price the hash
    join the physical layers actually run.
    """
    body = Selection(
        _employee_project_match(),
        CartesianProduct(
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("PROJECT", PROJECT_SCHEMA),
        ),
    )
    return TransferToStratum(body), QueryResultSpec.multiset()


def temporal_join_query() -> PlanAndSpec:
    """A temporal equi-join with a one-sided residual, σ-over-×T form.

    Exercises the σ(×T) → ⋈T rewrite and the per-engine join pricing: the
    DBMS would have to emulate the temporal join at product cost, so the
    fused form only pays off on the stratum side.
    """
    predicate = And(
        _employee_project_match(),
        Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Legal")),
    )
    body = Selection(
        predicate,
        TemporalCartesianProduct(
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("PROJECT", PROJECT_SCHEMA),
        ),
    )
    return TransferToStratum(body), QueryResultSpec.multiset()


def join_cascade_query() -> PlanAndSpec:
    """A selection cascade over a temporal product, projected and sorted.

    The interplay query: the one-sided ``Dept`` conjunct can push into the
    product's left argument, the equi conjunct can fuse into a ⋈T, and the
    sort can move across the transfer — the optimizer has to combine all
    three rule families to reach the cheapest plan.
    """
    cascade = Selection(
        Comparison(ComparisonOperator.EQ, AttributeRef("Dept"), Literal("Sales")),
        Selection(
            _employee_project_match(),
            TemporalCartesianProduct(
                BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
                BaseRelation("PROJECT", PROJECT_SCHEMA),
            ),
        ),
    )
    order = OrderSpec.ascending("1.EmpName")
    body = Sort(order, Projection(["1.EmpName", "Dept", "Prj", "T1", "T2"], cascade))
    return TransferToStratum(body), QueryResultSpec.list(order)


@dataclass(frozen=True)
class NamedQuery:
    """A registry entry: a query constructor plus oracle metadata."""

    name: str
    build: Callable[[], PlanAndSpec]
    #: True when the exhaustive enumerator closes the plan space without
    #: truncating at its default budgets, making it usable as an oracle.
    fully_enumerable: bool = True


WORKLOAD_QUERIES: PyTuple[NamedQuery, ...] = (
    NamedQuery("paper", paper_query),
    NamedQuery("paper-multiset", paper_query_multiset),
    NamedQuery("paper-set", paper_query_set),
    NamedQuery("double-elimination", double_elimination_query),
    NamedQuery("selection", selection_query),
    NamedQuery("snapshot-except", snapshot_except_query),
    NamedQuery("union-all", union_all_query),
    NamedQuery("temporal-union", temporal_union_query),
    NamedQuery("equijoin", equijoin_query),
    NamedQuery("temporal-join", temporal_join_query),
    NamedQuery("join-cascade", join_cascade_query),
    NamedQuery("chain-2", lambda: chained_query(2)),
    NamedQuery("chain-3", lambda: chained_query(3)),
    NamedQuery("chain-4", lambda: chained_query(4)),
    NamedQuery("chain-6", lambda: chained_query(6), fully_enumerable=False),
)


def fully_enumerable_queries() -> List[NamedQuery]:
    """The registry entries small enough to enumerate exhaustively."""
    return [query for query in WORKLOAD_QUERIES if query.fully_enumerable]


# -- the concurrent-mix serving workload -------------------------------------------
#
# The serving layer (:mod:`repro.server`) and its load benchmark need a
# *statement-level* workload: SQL text the front end parses, not prebuilt
# algebra.  The mix below pairs repeated parameterized reads with interleaved
# EMPLOYEE appends; each read names the registry entry whose memo-vs-
# exhaustive agreement run covers its plan shape, so the statements the
# server hammers concurrently are the same ones the oracle suite has
# certified serially.

#: The motivating query of Figure 1/2 in the front end's dialect
#: (plan shape: the ``paper`` registry entry).
PAPER_SQL = (
    "SELECT DISTINCT EmpName FROM EMPLOYEE "
    "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
    "ORDER BY EmpName COALESCE"
)

#: The two-operation chain (plan shape: the ``chain-2`` registry entry).
CHAINED_SQL = (
    "SELECT DISTINCT EmpName FROM EMPLOYEE "
    "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
    "UNION TEMPORAL SELECT EmpName FROM PROJECT "
    "ORDER BY EmpName COALESCE"
)

#: The parameterized point read (plan shape: the ``selection`` registry
#: entry; the rotating constant binds the ``?``, so every rotation shares
#: one fingerprint).
POINT_SQL = "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?"

#: Constants rotated through the point read's ``?``.
MIX_DEPARTMENTS: PyTuple[str, ...] = ("Sales", "Advertising", "Engineering", "Support")


@dataclass(frozen=True)
class MixStatement:
    """One read of the serving mix: SQL text, parameter sets, oracle link."""

    name: str
    statement: str
    #: Parameter tuples rotated across executions (``((),)`` when unbound).
    params: PyTuple[PyTuple[object, ...], ...] = ((),)
    #: The :data:`WORKLOAD_QUERIES` entry certifying this plan shape.
    oracle: str = ""


#: The reads of the ``concurrent-mix`` workload.
CONCURRENT_MIX_READS: PyTuple[MixStatement, ...] = (
    MixStatement("paper", PAPER_SQL, oracle="paper"),
    MixStatement("chained", CHAINED_SQL, oracle="chain-2"),
    MixStatement(
        "point",
        POINT_SQL,
        params=tuple((dept,) for dept in MIX_DEPARTMENTS),
        oracle="selection",
    ),
)


def concurrent_mix_append_batch(index: int, rows: int = 2) -> List[PyTuple[object, ...]]:
    """Deterministic batch ``index`` of EMPLOYEE rows for the mix's appends.

    Rows are ``(EmpName, Dept, T1, T2)`` in schema order; names are unique
    across batches so lost-update checks can count them, and periods are
    valid closed-open months.
    """
    batch: List[PyTuple[object, ...]] = []
    for row in range(rows):
        serial = index * rows + row
        start = 1 + (serial % 10)
        batch.append(
            (
                f"Mix{serial:04d}",
                MIX_DEPARTMENTS[serial % len(MIX_DEPARTMENTS)],
                start,
                start + 1 + (serial % 5),
            )
        )
    return batch


def concurrent_mix_operations(
    operations: int, client: int = 0, append_every: int = 0
) -> List[PyTuple[str, str, PyTuple[object, ...]]]:
    """Client ``client``'s deterministic slice of the mix, ``operations`` long.

    Returns ``("query", statement, params)`` triples, with every
    ``append_every``-th operation replaced by ``("append", "EMPLOYEE",
    params)`` where ``params`` is the flattened batch rows (``append_every=0``
    keeps the slice read-only).  Different clients start at different offsets
    so concurrent clients overlap on every statement — the contention the
    shared plan cache and the snapshot reads exist for.
    """
    ops: List[PyTuple[str, str, PyTuple[object, ...]]] = []
    appends = 0
    for step in range(operations):
        serial = client * 7919 + step  # distinct, overlapping per-client streams
        if append_every and step and step % append_every == 0:
            batch = concurrent_mix_append_batch(client * 1000 + appends)
            appends += 1
            ops.append(("append", "EMPLOYEE", tuple(batch)))
            continue
        read = CONCURRENT_MIX_READS[serial % len(CONCURRENT_MIX_READS)]
        params = read.params[(serial // len(CONCURRENT_MIX_READS)) % len(read.params)]
        ops.append(("query", read.statement, params))
    return ops
