"""The physical operator set both engines execute on.

One library of batch operators runs every conventional operation, whichever
layer the optimizer assigned it to, and the paper's five temporal ones.  The
paper separates the stratum from the conventional DBMS by *capability* — the
DBMS lacks the temporal operations and pays an emulation penalty for them —
not by implementation, so each engine is a planner that builds a **declared
subset** of these operators and names the fault point their drains tick:
:mod:`repro.stratum.physical` (all three join algorithms and the temporal
operators — ``rdupT``, ``γT``, ``\\T``, ``∪T``, ``coalT`` —, ``stratum.pull``) and
:mod:`repro.dbms.executor` (the multiset operators, never the interval join
or a temporal operator, ``dbms.scan``).

Execution moves **value rows**: operators exchange
:class:`~repro.core.columnar.ColumnBatch` chunks of ``batch_size`` rows; join,
sort, hash and sweep on those rows; run predicates, projections and join
residuals as row kernels — one generated function per expression shape
(:func:`~repro.core.expressions.filter_kernel`,
:func:`~repro.core.expressions.projection_kernel`); and build no
:class:`~repro.core.tuples.Tuple` at all: a tree takes the rows of its source
relations and drains into a relation of rows.
:meth:`BatchOperator.batches` is the single place that counts rows, reads the
clock and ticks execution control.

Every operator yields the same tuple sequence at every batch size; the ones
the stratum builds are moreover **list-compatible** with the reference
semantics — the *identical* sequence, only faster — because several temporal
operations are order-sensitive (Section 6), so a merely multiset-equivalent
result could change the answer of an enclosing operator.  Join algorithm
choice comes from :mod:`repro.core.joinsplit`, which the cost annotations
consume too, so EXPLAIN reports exactly what runs here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..options import DEFAULT_BATCH_SIZE
from .columnar import ColumnBatch
from .expressions import (
    AggregateFunction,
    Expression,
    ProjectionItem,
    filter_kernel,
    projection_kernel,
)
from .joinsplit import JoinSplit
from .operations.base import PlanPath
from .order_spec import OrderSpec
from .period import T1, T2
from .relation import Relation
from .schema import RelationSchema

_UNORDERED = OrderSpec.unordered()


# ---------------------------------------------------------------------------
# The operator base: protocol and accounting
# ---------------------------------------------------------------------------


class BatchOperator:
    """A batch-producing physical operator.

    :meth:`batches` is the pull protocol: operators exchange
    :class:`~repro.core.columnar.ColumnBatch` chunks over their
    ``output_schema``, and concatenating an operator's batches row-wise gives
    the same tuple sequence at every ``batch_size``.

    ``order`` is the known order of the output (Table 1's ``Order(r)``) and
    ``paths`` names the logical plan nodes the operator realises (a fused
    selection-over-product realises two); ``paths[0]`` is the node whose
    output the operator produces.  The stratum's lowering fills both in; the
    DBMS, a multiset engine whose fragments are opaque to the plan-path
    accounting, leaves them empty except for the order a sort establishes.
    ``rows_out`` — filled once the operator has been drained — is the actual
    output cardinality EXPLAIN ANALYZE and the operator spans report.

    The planner that built the operator configures it (:meth:`instrument`):
    chunk size, the fault point its drain ticks (``stratum.pull`` or
    ``dbms.scan`` — the only per-engine difference on an operator) and the
    engine's clock and execution control.  With a clock (a monotonic
    callable; observability on) the drain records ``started_at``/
    ``elapsed_seconds`` — *inclusive* wall-clock from first pull to
    exhaustion, children included.  With a control
    (:class:`~repro.faults.control.ExecutionControl`) it ticks the fault
    point once at drain start and once per ``control.interval`` rows — once
    per interval *boundary crossed* by a batch, so the check count, and with
    it the resource-guard row accounting, is identical for every batch size —
    which is where cancellation, deadlines, resource budgets and fault
    injection interpose.  The plain path costs two extra branches per drain.
    """

    def __init__(
        self,
        output_schema: RelationSchema,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        self.output_schema = output_schema
        self.order = order
        self.paths = paths
        self.rows_out: Optional[int] = None
        self.batch_size: int = DEFAULT_BATCH_SIZE
        self.fault_point: Optional[str] = None
        self._clock: Optional[Callable[[], float]] = None
        self._control = None
        self.started_at: Optional[float] = None
        self.elapsed_seconds: Optional[float] = None

    def instrument(
        self,
        fault_point: str,
        batch_size: int,
        clock: Optional[Callable[[], float]] = None,
        control=None,
    ) -> None:
        """Configure the drain: fault point, chunk size, clock and control."""
        self.fault_point = fault_point
        self.batch_size = batch_size
        self._clock = clock
        self._control = control

    def batches(self) -> Iterator[ColumnBatch]:
        """The operator's output as a stream of row batches.

        This wrapper owns the per-drain accounting of both engines: row
        counting for EXPLAIN ANALYZE, inclusive wall-clock under
        observability, and control ticks under cancellation/resource guards.
        Every call starts a fresh drain of the operator (and its children).
        """
        clock = self._clock
        control = self._control
        if clock is not None:
            self.started_at = clock()
        count = 0
        if control is None:
            for batch in self._batches():
                count += batch.length
                yield batch
        else:
            point = self.fault_point
            control.tick(point)
            interval = control.interval
            for batch in self._batches():
                before = count
                count += batch.length
                for _ in range(count // interval - before // interval):
                    control.tick(point)
                yield batch
        self.rows_out = count
        if clock is not None:
            self.elapsed_seconds = clock() - self.started_at

    def _batches(self) -> Iterator[ColumnBatch]:
        """The operator's batch implementation, without accounting: unless
        overridden, the value rows of :meth:`_rows` in chunks of ``batch_size``
        (one input row may leave several output rows, or none)."""
        yield from _chunked(self.output_schema, self._rows(), self.batch_size)

    def _rows(self) -> Iterable[PyTuple]:
        """The output as value rows, for operators that produce it row-wise."""
        raise NotImplementedError

    def children(self) -> Sequence["BatchOperator"]:
        return ()

    def operators(self) -> Iterator["BatchOperator"]:
        """This operator and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.operators()

    def to_relation(self) -> Relation:
        """Drain the operator into a relation carrying the known order."""
        rows: List[PyTuple] = []
        for batch in self.batches():
            rows.extend(batch.rows())
        # Every batch is over ``output_schema`` and its values came out of
        # validated tuples: nothing left for a validating constructor.
        return Relation.of_rows(self.output_schema, rows, order=self.order)

    def describe(self) -> str:
        """One-line description: the operator's span name and EXPLAIN line."""
        return type(self).__name__.removesuffix("Op")

    def explain(self, indent: int = 0) -> str:
        """Indented rendering of the operator tree."""
        lines = [" " * indent + self.describe()]
        lines.extend(child.explain(indent + 2) for child in self.children())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Operators of both engines
# ---------------------------------------------------------------------------


class SourceOp(BatchOperator):
    """A materialised input: a stored table, a literal, a boundary subtree's
    result or an emulated temporal operation's."""

    def __init__(self, relation: Relation, name: Optional[str] = None) -> None:
        super().__init__(relation.schema, relation.order)
        self._relation = relation
        self._name = name

    def _batches(self) -> Iterator[ColumnBatch]:
        # Slices of the relation's rows, which are in schema attribute order
        # whatever order their tuples listed the attributes in, so every
        # kernel upstream is purely positional.
        size = self.batch_size
        schema = self.output_schema
        rows = self._relation.rows
        for offset in range(0, len(rows), size):
            yield ColumnBatch(schema, rows[offset : offset + size])

    def to_relation(self) -> Relation:
        """The source relation itself: the drain only does the accounting.

        A source at the root of an operator tree — a bare table scan shipped
        across ``TS`` — computes nothing, so not even the row list is copied.
        """
        for _ in self.batches():
            pass
        return self._relation

    def describe(self) -> str:
        name = "" if self._name is None else f"{self._name}, "
        return f"Source({name}rows={len(self._relation)})"


class _UnaryOp(BatchOperator):
    """An operator over one input, emitting the input's schema unless told otherwise."""

    def __init__(
        self,
        child: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
        output_schema: Optional[RelationSchema] = None,
    ) -> None:
        super().__init__(output_schema or child.output_schema, order, paths)
        self._child = child

    def children(self) -> Sequence[BatchOperator]:
        return (self._child,)


class FilterOp(_UnaryOp):
    """Streaming selection with a row-kernel predicate."""

    def __init__(self, predicate: Expression, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(child, *args, **kwargs)
        self._predicate = predicate

    def _batches(self) -> Iterator[ColumnBatch]:
        keep = filter_kernel(self._predicate, self._child.output_schema)
        schema = self.output_schema
        for batch in self._child.batches():
            rows = keep(batch.rows())
            if rows:
                yield ColumnBatch(schema, rows)

    def describe(self) -> str:
        return f"Filter({self._predicate})"


class ProjectOp(_UnaryOp):
    """Streaming projection with one row kernel for all items."""

    def __init__(
        self,
        items: Sequence[ProjectionItem],
        output_schema: RelationSchema,
        child: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        super().__init__(child, order, paths, output_schema)
        self._items = tuple(items)

    def _batches(self) -> Iterator[ColumnBatch]:
        project = projection_kernel(
            [item.expression for item in self._items], self._child.output_schema
        )
        schema = self.output_schema
        for batch in self._child.batches():
            yield ColumnBatch(schema, project(batch.rows()))

    def describe(self) -> str:
        return "Project(" + ", ".join(str(item) for item in self._items) + ")"


class SortOp(_UnaryOp):
    """Blocking stable sort (identical to the reference ``sort_A``)."""

    def __init__(self, sort_order: OrderSpec, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(child, *args, **kwargs)
        self._sort_order = sort_order

    def _batches(self) -> Iterator[ColumnBatch]:
        schema = self.output_schema
        rows: List[PyTuple] = []
        for batch in self._child.batches():
            rows.extend(batch.rows())
        if not rows:
            return
        # Stable sort over value rows — input order is the tie-breaker, the
        # same sequence the reference sorted(child, comparison_key) yields.
        self._sort_order.sort_rows(rows, schema.attributes)
        yield from _chunked(schema, rows, self.batch_size)

    def describe(self) -> str:
        return f"Sort({self._sort_order})"


def _chunked(
    schema: RelationSchema, rows: Iterable[PyTuple], size: int
) -> Iterator[ColumnBatch]:
    """Value rows, materialised or generated, as batches of at most ``size`` rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, size)):
        yield ColumnBatch(schema, chunk)


class _JoinOp(BatchOperator):
    """Common machinery of the join operators.

    The output sequence contract, shared by all three algorithms: left-major
    order — for each left tuple in input order, its matches in right *input*
    order — which is exactly the sequence "filter the materialised product"
    produces.
    """

    def __init__(
        self,
        split: JoinSplit,
        output_schema: RelationSchema,
        left: BatchOperator,
        right: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        super().__init__(output_schema, order, paths)
        self._split = split
        self._left = left
        self._right = right
        self._temporal = split.temporal
        if split.temporal:
            left_schema = left.output_schema
            right_schema = right.output_schema
            self._left_time = (left_schema.index_of(T1), left_schema.index_of(T2))
            self._right_time = (right_schema.index_of(T1), right_schema.index_of(T2))

    def children(self) -> Sequence[BatchOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"{super().describe()}[{self._split.describe()}]"

    def _batches(self) -> Iterator[ColumnBatch]:
        """Chunk the joined value rows and apply the residual per chunk."""
        schema = self.output_schema
        residual = self._split.residual
        keep = None if residual is None else filter_kernel(residual, schema)
        for batch in _chunked(schema, self._join_rows(), self.batch_size):
            if keep is None:
                yield batch
            elif rows := keep(batch.rows()):
                yield ColumnBatch(schema, rows)

    def _join_rows(self) -> "Iterator[PyTuple]":
        """Joined value rows (pre-residual), in the reference sequence."""
        raise NotImplementedError


class HashJoinOp(_JoinOp):
    """Hash equi-join: build on the right input, probe with the left.

    For a temporal join the period-overlap test runs per bucket entry and
    the fresh ``T1``/``T2`` carry the intersection.  Buckets keep right
    input order, so the output sequence matches the reference product.
    """

    def _join_rows(self) -> Iterator[PyTuple]:
        # Keys and periods are read from the rows: a single-attribute key
        # (the common case) is the bare value, several give one tuple per row.
        split = self._split
        right_key = itemgetter(*split.equi_right_indexes)
        left_key = itemgetter(*split.equi_left_indexes)
        table: Dict[object, List[PyTuple]] = {}
        get_bucket = table.get
        for batch in self._right.batches():
            for row in batch.rows():
                key = right_key(row)
                bucket = get_bucket(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
        if self._temporal:
            lt1, lt2 = self._left_time
            rt1, rt2 = self._right_time
            for batch in self._left.batches():
                for row in batch.rows():
                    bucket = get_bucket(left_key(row))
                    if bucket is None:
                        continue
                    l1, l2 = row[lt1], row[lt2]
                    for right_row in bucket:
                        r1, r2 = right_row[rt1], right_row[rt2]
                        start = l1 if l1 > r1 else r1
                        end = l2 if l2 < r2 else r2
                        if start < end:
                            yield row + right_row + (start, end)
        else:
            for batch in self._left.batches():
                for row in batch.rows():
                    for right_row in get_bucket(left_key(row), ()):
                        yield row + right_row


class IntervalJoinOp(_JoinOp):
    """Sort-merge interval-overlap join.

    The right input is materialised sorted by interval start (stably, so
    input order survives as the tie-breaker); each left tuple probes the
    prefix with ``right.start < left.end`` by binary search and keeps the
    candidates with ``right.end > left.start``, re-ordered by right input
    position to preserve the reference sequence.
    """

    def _join_rows(self) -> Iterator[PyTuple]:
        split = self._split
        if split.temporal:
            ls, le = self._left_time
            rs, re = self._right_time
        else:
            ls, le, rs, re = split.overlap_indexes
        entries: List[PyTuple] = []  # (start, position, end, row)
        for batch in self._right.batches():
            for row in batch.rows():
                entries.append((row[rs], len(entries), row[re], row))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        starts = [entry[0] for entry in entries]
        temporal = self._temporal
        for batch in self._left.batches():
            for row in batch.rows():
                l1, l2 = row[ls], row[le]
                limit = bisect_left(starts, l2)
                matches = [
                    (entry_position, start, end, right_row)
                    for start, entry_position, end, right_row in entries[:limit]
                    if end > l1
                ]
                matches.sort()
                if temporal:
                    for entry_position, r1, r2, right_row in matches:
                        start = l1 if l1 > r1 else r1
                        end = l2 if l2 < r2 else r2
                        yield row + right_row + (start, end)
                else:
                    for entry_position, r1, r2, right_row in matches:
                        yield row + right_row


class NestedLoopJoinOp(_JoinOp):
    """Streaming nested loop — the fallback when the predicate offers no
    keys.  Still an improvement over the reference: the product is never
    materialised and the predicate is compiled.

    A temporal split never selects this operator
    (:attr:`JoinSplit.algorithm` returns ``"interval"`` for any keyless
    temporal join), so the loop needs no period handling.
    """

    def __init__(self, split: JoinSplit, *args, **kwargs) -> None:
        if split.temporal:
            raise ValueError(
                "temporal joins lower to the interval or hash operator, never a nested loop"
            )
        super().__init__(split, *args, **kwargs)

    def _join_rows(self) -> Iterator[PyTuple]:
        right_rows: List[PyTuple] = []
        for batch in self._right.batches():
            right_rows.extend(batch.rows())
        for batch in self._left.batches():
            for row in batch.rows():
                for right_row in right_rows:
                    yield row + right_row


# ---------------------------------------------------------------------------
# The multiset operators only the DBMS plans today
# ---------------------------------------------------------------------------
#
# They work on value rows positionally: the planner has already brought every
# input into the output's attribute order (a renaming :class:`ProjectOp`).


class DistinctOp(_UnaryOp):
    """Hash duplicate elimination: the first occurrence of each row survives."""

    def _batches(self) -> Iterator[ColumnBatch]:
        schema = self.output_schema
        seen: set = set()
        add = seen.add
        for batch in self._child.batches():
            kept = []
            for row in batch.rows():
                if row not in seen:
                    add(row)
                    kept.append(row)
            if kept:
                yield ColumnBatch(schema, kept)


class AggregateOp(_UnaryOp):
    """Hash aggregation: one output row per group, in first-occurrence order."""

    def __init__(
        self,
        grouping: Sequence[str],
        functions: Sequence[AggregateFunction],
        output_schema: RelationSchema,
        child: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        super().__init__(child, order, paths, output_schema)
        self._grouping = tuple(grouping)
        self._functions = tuple(functions)

    def _grouped(self) -> PyTuple[Dict[PyTuple, List[PyTuple]], List[PyTuple]]:
        """The child's rows by grouping key, groups in first-occurrence order,
        and each function paired with its argument's position (``None``: ``*``)."""
        child_schema = self._child.output_schema
        key_indexes = [child_schema.index_of(a) for a in self._grouping]
        arguments = [
            (function, None if function.argument is None else child_schema.index_of(function.argument))
            for function in self._functions
        ]
        groups: Dict[PyTuple, List[PyTuple]] = {}
        for batch in self._child.batches():
            for row in batch.rows():
                key = tuple(row[i] for i in key_indexes)
                groups.setdefault(key, []).append(row)
        return groups, arguments

    def _rows(self) -> Iterator[PyTuple]:
        groups, arguments = self._grouped()
        for key, members in groups.items():
            yield key + tuple(
                function.reduce(members if index is None else [row[index] for row in members])
                for function, index in arguments
            )

    def describe(self) -> str:
        functions = ", ".join(str(function) for function in self._functions)
        return f"{super().describe()}(by={list(self._grouping)}; {functions})"


class _SetOp(BatchOperator):
    """Two inputs already in the output's attribute order."""

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        super().__init__(left.output_schema, order, paths)
        self._left = left
        self._right = right

    def children(self) -> Sequence[BatchOperator]:
        return (self._left, self._right)

    def _right_batches(self) -> Iterator[ColumnBatch]:
        """The right input's batches, their rows relabelled with the output schema."""
        schema = self.output_schema
        for batch in self._right.batches():
            if batch.schema is not schema:
                batch = ColumnBatch(schema, batch.rows())
            yield batch


class UnionAllOp(_SetOp):
    """Concatenation: the left input's batches, then the right's."""

    def _batches(self) -> Iterator[ColumnBatch]:
        yield from self._left.batches()
        yield from self._right_batches()


class DifferenceOp(_SetOp):
    """Multiset difference (EXCEPT ALL): each right row cancels one equal
    left row, the earliest; survivors keep the left order."""

    def _batches(self) -> Iterator[ColumnBatch]:
        budget: Counter = Counter()
        for batch in self._right.batches():
            budget.update(batch.rows())
        schema = self.output_schema
        for batch in self._left.batches():
            kept = []
            for row in batch.rows():
                if budget[row] > 0:
                    budget[row] -= 1
                else:
                    kept.append(row)
            if kept:
                yield ColumnBatch(schema, kept)


class UnionOp(_SetOp):
    """Multiset union: every row occurs the maximum of its two input counts.

    All left rows, then — in right order — the first occurrences of each
    right row that exceed its left count.
    """

    def _batches(self) -> Iterator[ColumnBatch]:
        left_counts: Counter = Counter()
        for batch in self._left.batches():
            left_counts.update(batch.rows())
            yield batch
        right_batches = list(self._right_batches())
        surplus: Counter = Counter()
        for batch in right_batches:
            surplus.update(batch.rows())
        surplus.subtract(left_counts)
        schema = self.output_schema
        for batch in right_batches:
            kept = []
            for row in batch.rows():
                if surplus[row] > 0:
                    surplus[row] -= 1
                    kept.append(row)
            if kept:
                yield ColumnBatch(schema, kept)


# ---------------------------------------------------------------------------
# The temporal operators only the stratum plans
# ---------------------------------------------------------------------------
#
# They read ``T1``/``T2`` as two integer columns found by name and build no
# ``Period``.  A *cover* is a set of time points held as disjoint, non-adjacent
# intervals sorted by start, in two parallel lists ``(starts, ends)``.


def _cover_gaps(starts: List[int], ends: List[int], t1: int, t2: int) -> List[PyTuple[int, int]]:
    """The parts of ``[t1, t2)`` outside the cover, ascending."""
    pieces = []
    for index in range(bisect_right(ends, t1), bisect_left(starts, t2)):
        if t1 < starts[index]:
            pieces.append((t1, starts[index]))
        t1 = ends[index]
    if t1 < t2:
        pieces.append((t1, t2))
    return pieces


def _cover_add(starts: List[int], ends: List[int], t1: int, t2: int) -> None:
    """Add ``[t1, t2)`` to the cover, absorbing every interval it meets."""
    low, high = bisect_left(ends, t1), bisect_right(starts, t2)
    if low < high:
        t1, t2 = min(t1, starts[low]), max(t2, ends[high - 1])
    starts[low:high] = [t1]
    ends[low:high] = [t2]


def _period_layout(schema: RelationSchema):
    """Where rows over a temporal ``schema`` keep ``T1`` and ``T2``, and the
    function taking a row to its value-class key (its non-temporal values)."""
    value_indexes = schema.value_indexes()
    value_of = itemgetter(*value_indexes) if value_indexes else lambda row: ()
    return schema.index_of(T1), schema.index_of(T2), value_of


def _with_period(row: PyTuple, first: int, last: int, period: PyTuple[int, int]) -> PyTuple:
    """``row`` with its own values and another period."""
    fragment = list(row)
    fragment[first], fragment[last] = period
    return tuple(fragment)


def _uncovered(row: PyTuple, cover, first: int, last: int) -> List[PyTuple]:
    """``row`` cut down to the parts of its period outside ``cover``: ascending
    fragments carrying the row's own values, the row itself if it loses nothing."""
    t1, t2 = row[first], row[last]
    pieces = _cover_gaps(*cover, t1, t2)
    if pieces == [(t1, t2)]:
        return [row]
    return [_with_period(row, first, last, piece) for piece in pieces]


class TemporalDistinctOp(_UnaryOp):
    """Streaming ``rdupT``: each row keeps the part of its period that no
    earlier value-equivalent row covered.

    This is the reference sequence: the work-list head is emitted unchanged
    and every later value-equivalent tuple loses the head's period in place,
    so a tuple reaching the head has lost exactly the union of the earlier
    value-equivalent periods and its fragments sit, ascending, in its slot.
    """

    def _rows(self) -> Iterator[PyTuple]:
        first, last, value_of = _period_layout(self.output_schema)
        covers: Dict[object, PyTuple[List[int], List[int]]] = {}
        for batch in self._child.batches():
            for row in batch.rows():
                key = value_of(row)
                cover = covers.get(key)
                if cover is None:  # the first of its value class loses nothing
                    covers[key] = ([row[first]], [row[last]])
                    yield row
                    continue
                yield from _uncovered(row, cover, first, last)
                _cover_add(*cover, row[first], row[last])


class _TemporalSetOp(_SetOp):
    """``\\T`` and ``∪T``: one side's periods become a cover per value class,
    the other side's rows keep what lies outside their class's cover.

    Classes are keyed by name in the left (= output) schema's attribute order,
    as value equivalence and union compatibility are; a right input listing
    its attributes in another order is aligned once per drain.
    """

    def _aligned_right_rows(self) -> Iterator[PyTuple]:
        """The right input's rows with their values in the output's attribute order."""
        attributes = self.output_schema.attributes
        right = self._right.output_schema
        if right.attributes == attributes:
            for batch in self._right.batches():
                yield from batch.rows()
        else:
            align = itemgetter(*map(right.index_of, attributes))
            for batch in self._right.batches():
                yield from map(align, batch.rows())


def _cover_rows(covers: Dict, rows: Iterable[PyTuple], first: int, last: int, value_of) -> None:
    """Add the period of every row to its value class's cover."""
    for row in rows:
        key = value_of(row)
        cover = covers.get(key)
        if cover is None:
            covers[key] = ([row[first]], [row[last]])
        else:
            _cover_add(*cover, row[first], row[last])


def _rows_outside(
    covers: Dict, rows: Iterable[PyTuple], first: int, last: int, value_of
) -> Iterator[PyTuple]:
    """Each row's fragments outside its value class's cover, in its slot; a
    row of a class without a cover (``None`` is a key like any) passes."""
    get_cover = covers.get
    for row in rows:
        cover = get_cover(value_of(row))
        if cover is None:
            yield row
        else:
            yield from _uncovered(row, cover, first, last)


class TemporalDifferenceOp(_TemporalSetOp):
    """``\\T``: blocking on the right input, streaming over the left — each
    left row loses the union of the value-equivalent right periods."""

    def _rows(self) -> Iterator[PyTuple]:
        layout = _period_layout(self.output_schema)
        covers: Dict = {}
        _cover_rows(covers, self._aligned_right_rows(), *layout)
        for batch in self._left.batches():
            yield from _rows_outside(covers, batch.rows(), *layout)


class TemporalUnionOp(_TemporalSetOp):
    """``∪T``: the left batches pass through unchanged, then each right row
    keeps what no value-equivalent *left* row covered (earlier right rows
    never subtract), its own values in the left schema's attribute order."""

    def _batches(self) -> Iterator[ColumnBatch]:
        layout = _period_layout(self.output_schema)
        covers: Dict = {}
        for batch in self._left.batches():
            _cover_rows(covers, batch.rows(), *layout)
            yield batch
        rows = _rows_outside(covers, self._aligned_right_rows(), *layout)
        yield from _chunked(self.output_schema, rows, self.batch_size)


class CoalesceOp(_UnaryOp):
    """Blocking ``coalT``: saturation in input order within each value class.

    The members of a class are visited in input order, absorbed ones skipped;
    the visited member repeatedly absorbs the *earliest later* unabsorbed
    member whose period is adjacent to its current period, and the output is
    the absorbers in input order, each with its own values and final period.
    That is the reference's merge-the-first-adjacent-pair-and-restart: a merged
    period's endpoints are endpoints of its participants, so an entry adjacent
    to neither participant is not adjacent to the merge — a saturated prefix
    stays saturated and the restart resumes at the same member.
    """

    def _rows(self) -> Iterator[PyTuple]:
        first, last, value_of = _period_layout(self.output_schema)
        rows: List[Optional[PyTuple]] = []  # an absorbed row becomes ``None``
        for batch in self._child.batches():
            rows.extend(batch.rows())
        classes: Dict[object, List[int]] = {}
        for position, row in enumerate(rows):
            classes.setdefault(value_of(row), []).append(position)
        for members in classes.values():
            if len(members) == 1:
                continue
            # Later positions by period start and by period end, latest first,
            # so that ``pop()`` hands out the earliest.
            starting: Dict[int, List[int]] = {}
            ending: Dict[int, List[int]] = {}
            for position in reversed(members):
                starting.setdefault(rows[position][first], []).append(position)
                ending.setdefault(rows[position][last], []).append(position)
            for position in members:
                row = rows[position]
                if row is None:
                    continue
                start, end = period = row[first], row[last]
                while True:
                    after = _earliest_later(starting.get(end), position, rows)
                    before = _earliest_later(ending.get(start), position, rows)
                    if after is not None and (before is None or after < before):
                        starting[end].pop()
                        end = rows[after][last]
                        rows[after] = None
                    elif before is not None:
                        ending[start].pop()
                        start = rows[before][first]
                        rows[before] = None
                    else:
                        break
                if (start, end) != period:
                    rows[position] = _with_period(row, first, last, (start, end))
        return (row for row in rows if row is not None)


def _earliest_later(positions: Optional[List[int]], absorber: int, rows: List) -> Optional[int]:
    """The earliest position after ``absorber`` whose row is not absorbed yet.

    ``positions`` is latest-first; the dead ones at its end — at or before the
    absorber, which only moves forward, or absorbed — are dropped for good, so
    every position is popped at most once from each of the two indexes.
    """
    while positions:
        position = positions[-1]
        if position > absorber and rows[position] is not None:
            return position
        positions.pop()
    return None


class TemporalAggregateOp(AggregateOp):
    """Blocking ``γT``: per group, one sweep over the argument's sorted period
    endpoints inside the group's span, one row per non-empty constant interval.

    The active members are kept in input order, so every aggregate reduces
    the value sequence the reference's ``compute(valid)`` sees (``AVG``'s
    float summation order included); it is recomputed only when they change.
    """

    def _rows(self) -> Iterator[PyTuple]:
        groups, arguments = self._grouped()
        child_schema = self._child.output_schema
        first, last = child_schema.index_of(T1), child_schema.index_of(T2)
        endpoints = sorted(
            {row[i] for members in groups.values() for row in members for i in (first, last)}
        )
        for key, members in groups.items():
            opening: Dict[int, List[int]] = {}
            closing: Dict[int, List[int]] = {}
            for position, row in enumerate(members):
                opening.setdefault(row[first], []).append(position)
                closing.setdefault(row[last], []).append(position)
            active: List[int] = []  # member positions, ascending = input order
            aggregates: PyTuple = ()
            for index in range(
                bisect_left(endpoints, min(opening)), bisect_left(endpoints, max(closing))
            ):
                point = endpoints[index]
                if point in opening or point in closing:
                    for position in closing.get(point, ()):
                        del active[bisect_left(active, position)]
                    for position in opening.get(point, ()):
                        insort(active, position)
                    aggregates = tuple(
                        function.reduce(
                            active if at is None else [members[position][at] for position in active]
                        )
                        for function, at in arguments
                    )
                if active:
                    yield key + aggregates + (point, endpoints[index + 1])
