"""The physical operator set both engines execute on.

One library of batch operators runs every conventional operation, whichever
layer the optimizer assigned it to, and the paper's five temporal ones.  The
paper separates the stratum from the conventional DBMS by *capability* — the
DBMS lacks the temporal operations and pays an emulation penalty for them —
not by implementation, so one lowering (:mod:`repro.core.lowering`) builds a
request's whole plan into one tree of these operators, and each engine is a
descriptor of what it may build and which fault point its drains tick: the
stratum all of them (``stratum.pull``), the DBMS everything but the interval
join and the five temporal operators — ``rdupT``, ``γT``, ``\\T``, ``∪T``,
``coalT`` — whose nodes it runs through :class:`EmulateOp` (``dbms.scan``).
``TS``/``TD`` are :class:`TransferOp` pass-throughs inside that tree.

Execution moves **value rows**: operators exchange
:class:`~repro.core.columnar.ColumnBatch` chunks of ``batch_size`` rows; join,
sort, hash and sweep on those rows; run predicates, projections and join
residuals as row kernels — one generated function per expression shape
(:func:`~repro.core.expressions.filter_kernel`,
:func:`~repro.core.expressions.projection_kernel`, and
:func:`~repro.core.expressions.join_kernel` for a hash join's whole probe
with the projection above it); run ``rdupT``, ``\\T`` and ``∪T`` as one
cover pass per input batch (:func:`_cover_pass`) and ``coalT`` as one
sort-and-sweep, an ``rdupT`` directly below either run inside it; and build no
:class:`~repro.core.tuples.Tuple` at all: a tree takes the rows of its source
relations and drains into a relation of rows.
:meth:`BatchOperator.batches` is the single place that counts rows, reads the
clock and ticks execution control.

Every operator yields the same tuple sequence at every batch size, and that
sequence is **list-compatible** with the reference semantics — the
*identical* sequence, only faster — because several temporal operations are
order-sensitive (Section 6), so a merely multiset-equivalent result could
change the answer of an enclosing operator.  Join algorithm choice comes from
:mod:`repro.core.joinsplit`, which the cost annotations consume too, so
EXPLAIN reports exactly what runs here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import accumulate, islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..options import DEFAULT_BATCH_SIZE
from .columnar import ColumnBatch
from .expressions import (
    AggregateFunction,
    AttributeRef,
    Expression,
    PairSlots,
    ProjectionItem,
    filter_kernel,
    join_kernel,
    projection_kernel,
)
from .joinsplit import JoinSplit, flatten_conjuncts
from .operations.base import EvaluationContext, Operation, PlanPath
from .order_spec import OrderSpec
from .period import T1, T2
from .relation import Relation, hash_buckets
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
    output the operator produces, and so is each of the first
    ``output_nodes`` (two for a projection folded into the join below it,
    whose output has the join's row count).  The lowering fills both in, in
    either engine — the DBMS, a multiset engine, knows no order but the one
    a sort establishes.  ``rows_out`` — filled once the operator has been
    drained — is the actual output cardinality EXPLAIN ANALYZE and the
    operator spans report.

    The lowering that built the operator configures it (:meth:`instrument`):
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
    and that once per output node, so folding two nodes into one operator
    charges what the two operators did.  This is where cancellation,
    deadlines, resource budgets and fault injection interpose.  The plain
    path costs two extra branches per drain.
    """

    #: How many logical nodes produce exactly this operator's output rows.
    output_nodes = 1

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
            nodes = self.output_nodes
            for _ in range(nodes):
                control.tick(point)
            interval = control.interval
            for batch in self._batches():
                before = count
                count += batch.length
                for _ in range(nodes * (count // interval - before // interval)):
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

    def stored(self) -> Optional[Relation]:
        """The relation this operator hands on unchanged, if it is one: a
        source's, seen through any transfers above it."""
        return None

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        """Whether this operator's drains can yield its output already
        stably sorted by ``order`` — the sequence a sort of it would yield —
        and, if so, arrange that they do.

        A sort asks its input before it drains (the interesting orders of
        Selinger et al., SIGMOD 1979, decided from what the operators are
        rather than by the optimizer).  A source answers with its relation's
        kept copy (:meth:`Relation.sorted_rows`, which declines for rows
        without a total order and for a filtered first request); a
        transfer, a selection, a projection whose sort keys are copied
        attributes and a join whose sort keys are all left attributes ask
        their (left) input.  Every ``order`` asked for names attributes of
        :attr:`output_schema`.  ``filtered`` says that a σ or a join between
        the sort and this operator may keep some of its rows from the sort.
        """
        return False

    def to_relation(self) -> Relation:
        """Drain the operator into a relation carrying the known order.

        An operator that hands on a stored relation — a bare table scan
        shipped across ``TS`` — computes nothing, so the drain only does the
        accounting and not even the row list is copied.
        """
        stored = self.stored()
        if stored is not None:
            for _ in self.batches():
                pass
            return stored if stored.order == self.order else stored.with_order(self.order)
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
    """A materialised input: a stored table or a literal."""

    def __init__(
        self, relation: Relation, name: Optional[str] = None, paths: PyTuple[PlanPath, ...] = ()
    ) -> None:
        super().__init__(relation.schema, relation.order, paths)
        self.relation = relation
        self._name = name
        self._served: Optional[PyTuple[PyTuple, ...]] = None

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        # A filtered sort builds the copy on its second request per epoch.
        self._served = self.relation.sorted_rows(order, eager=not filtered)
        return self._served is not None

    def _batches(self) -> Iterator[ColumnBatch]:
        # Slices of the relation's rows, which are in schema attribute order
        # whatever order their tuples listed the attributes in, so every
        # kernel upstream is purely positional.
        size = self.batch_size
        schema = self.output_schema
        rows = self.relation.rows if self._served is None else self._served
        for offset in range(0, len(rows), size):
            yield ColumnBatch(schema, rows[offset : offset + size])

    def stored(self) -> Relation:
        return self.relation

    def describe(self) -> str:
        name = "" if self._name is None else f"{self._name}, "
        return f"Source({name}rows={len(self.relation)})"


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

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        # A selection keeps a subsequence: selecting from the sorted input
        # gives the sorted selection.
        return self._child.serve_order(order, True)

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

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        below = _copied_order(order, self.output_schema, self._items, self._child.output_schema)
        return below is not None and self._child.serve_order(below, filtered)

    def describe(self) -> str:
        return "Project(" + ", ".join(str(item) for item in self._items) + ")"


class SortOp(_UnaryOp):
    """Blocking stable sort (identical to the reference ``sort_A``).

    Before it drains, it asks its input to serve the sort order
    (:meth:`BatchOperator.serve_order`); when the input can, the sort
    streams the input's batches and sorts nothing (``kept_order``), and
    otherwise it sorts the rows that reach it.
    """

    def __init__(self, sort_order: OrderSpec, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(child, *args, **kwargs)
        self._sort_order = sort_order
        #: Whether the last drain streamed an input that served the order.
        self.kept_order = False

    def _batches(self) -> Iterator[ColumnBatch]:
        schema = self.output_schema
        order = self._sort_order
        # A key the schema lacks is left to the sort, which raises for it.
        self.kept_order = all(map(schema.has_attribute, order.attributes)) and self._child.serve_order(order)
        if self.kept_order:
            yield from self._child.batches()
            return
        rows: List[PyTuple] = []
        for batch in self._child.batches():
            rows.extend(batch.rows())
        if not rows:
            return
        # Stable sort over value rows — input order is the tie-breaker, the
        # same sequence the reference sorted(child, comparison_key) yields.
        order.sort_rows(rows, schema.attributes)
        yield from _chunked(schema, rows, self.batch_size)

    def describe(self) -> str:
        suffix = "[kept order]" if self.kept_order else ""
        return f"Sort({self._sort_order}){suffix}"


class TransferOp(_UnaryOp):
    """``TS``/``TD``: the child's batches, handed to the receiving engine as
    they arrive — the boundary between the engines materialises nothing.

    It belongs to the receiving engine (its drain ticks that engine's fault
    point) and charges the resource guard's byte budget for every row it
    hands over: what the receiving engine takes in is what a request
    materialises across the boundary.
    """

    def __init__(self, symbol: str, child: BatchOperator, *args, **kwargs) -> None:
        super().__init__(child, *args, **kwargs)
        self._symbol = symbol

    def _batches(self) -> Iterator[ColumnBatch]:
        guard = None if self._control is None else self._control.guard
        if guard is None or guard.max_bytes is None:
            yield from self._child.batches()
            return
        row_bytes = guard.TUPLE_OVERHEAD_BYTES + guard.ATTRIBUTE_BYTES * len(self.output_schema.attributes)
        for batch in self._child.batches():
            guard.charge_bytes(batch.length * row_bytes)
            yield batch

    def stored(self) -> Optional[Relation]:
        return self._child.stored()

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        return self._child.serve_order(order, filtered)

    def describe(self) -> str:
        return self._symbol


def _chunked(
    schema: RelationSchema, rows: Iterable[PyTuple], size: int
) -> Iterator[ColumnBatch]:
    """Value rows, materialised or generated, as batches of at most ``size`` rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, size)):
        yield ColumnBatch(schema, chunk)


def _copied_order(
    order: OrderSpec,
    output_schema: RelationSchema,
    items: Sequence[ProjectionItem],
    input_schema: RelationSchema,
) -> Optional[OrderSpec]:
    """``order`` over a projection's output, as the same order over its
    input, or ``None`` when an item a key names is not a copied input
    attribute.  Output rows keep their input rows' sequence and each key's
    values, so a stable sort commutes with such a projection."""
    copied = {
        name: item.expression.name
        for name, item in zip(output_schema.attributes, items)
        if isinstance(item.expression, AttributeRef)
        and input_schema.has_attribute(item.expression.name)
    }
    if not all(attribute in copied for attribute in order.attributes):
        return None
    return order.rename_attributes(copied)


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
        #: The schema of the joined rows: the output's, unless a projection
        #: is folded in (:meth:`HashJoinOp.fold_projection`).
        self._joined_schema = output_schema
        self._temporal = split.temporal
        if split.temporal:
            left_schema = left.output_schema
            right_schema = right.output_schema
            self._left_time = (left_schema.index_of(T1), left_schema.index_of(T2))
            self._right_time = (right_schema.index_of(T1), right_schema.index_of(T2))

    def children(self) -> Sequence[BatchOperator]:
        return (self._left, self._right)

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        """Pass ``order`` to the left (probe) input when every key is a left
        attribute, as a filtered request (a left row may match nothing).  The output is left-major — each left row's matches in a
        run, runs in left input order — and every row of a run carries its
        left row's key values, so stably sorting the output by left keys
        moves whole runs as a stable sort of the left input moves its rows:
        joining the sorted left input gives the same sequence.  A right
        attribute or a ``⋈T``'s fresh ``T1``/``T2`` is not constant over a
        run, so a key on one is left to the sort."""
        joined = self._joined_schema.attributes
        left = self._left.output_schema.attributes
        # The joined rows are the left row's values, then the right's.
        renamed = dict(zip(joined, left))
        if not all(attribute in renamed for attribute in order.attributes):
            return False
        return self._left.serve_order(order.rename_attributes(renamed), True)

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

    A build side that hands on a stored relation (:meth:`~BatchOperator.stored`:
    a stored table, also across ``TS``, or a literal) is its relation's kept table
    (:meth:`Relation.buckets`), hashed once per relation and key.  The probe
    is one generated loop per left batch (:func:`join_kernel`): lookup,
    overlap test, residual and — once :meth:`fold_projection` has folded
    the projection above the join in — that projection, so a pair that
    survives is built only as its projected row.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._items: Optional[PyTuple[ProjectionItem, ...]] = None

    def fold_projection(
        self,
        items: Sequence[ProjectionItem],
        output_schema: RelationSchema,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> "HashJoinOp":
        """Run the projection ``items`` directly above this join inside its
        probe: the operator then emits the projection's rows, and realises
        its node (``paths`` = the projection's path, then this join's)."""
        self._items = tuple(items)
        self.output_schema = output_schema
        self.order = order
        self.paths = paths
        self.output_nodes = 2
        return self

    def serve_order(self, order: OrderSpec, filtered: bool = False) -> bool:
        if self._items is not None:
            order = _copied_order(order, self.output_schema, self._items, self._joined_schema)
            if order is None:
                return False
        return super().serve_order(order, filtered)

    def describe(self) -> str:
        if self._items is None:
            return super().describe()
        return f"{super().describe()} → Project(" + ", ".join(map(str, self._items)) + ")"

    def _batches(self) -> Iterator[ColumnBatch]:
        split = self._split
        slots = PairSlots(
            self._joined_schema,
            len(self._left.output_schema.attributes),
            len(self._right.output_schema.attributes),
            self._left_time + self._right_time if self._temporal else None,
        )
        residual = () if split.residual is None else flatten_conjuncts(split.residual)
        items = None if self._items is None else [item.expression for item in self._items]
        probe = join_kernel(slots, split.equi_left_indexes, residual, items, self._composed)
        get = self._build().get
        schema, size = self.output_schema, self.batch_size
        for batch in self._left.batches():
            rows = probe(batch.rows(), get)
            if len(rows) <= size:
                if rows:
                    yield ColumnBatch(schema, rows)
            else:
                for offset in range(0, len(rows), size):
                    yield ColumnBatch(schema, rows[offset : offset + size])

    def _build(self) -> Dict[object, List[PyTuple]]:
        """The right input's rows by key, drained for its accounting."""
        right, key = self._right, self._split.equi_right_indexes
        stored = right.stored()
        if stored is not None:
            for _ in right.batches():
                pass
            return stored.buckets(key)
        return hash_buckets((row for batch in right.batches() for row in batch.rows()), key)

    def _composed(self, rows: Sequence[PyTuple], get: Callable) -> List[PyTuple]:
        """What the probe kernel replaces, for one left batch: the joined
        pairs, then the residual's filter kernel, then the projection's."""
        joined = list(self._pairs(rows, get))
        if self._split.residual is not None:
            joined = filter_kernel(self._split.residual, self._joined_schema)(joined)
        if self._items is not None:
            expressions = [item.expression for item in self._items]
            joined = projection_kernel(expressions, self._joined_schema)(joined)
        return joined

    def _pairs(self, rows: Sequence[PyTuple], get: Callable) -> Iterator[PyTuple]:
        """The joined rows of left ``rows`` (pre-residual), in the reference
        sequence.  A single-attribute key (the common case) is the bare
        value, several give one tuple per row."""
        left_key = itemgetter(*self._split.equi_left_indexes)
        if self._temporal:
            lt1, lt2 = self._left_time
            rt1, rt2 = self._right_time
            for row in rows:
                l1, l2 = row[lt1], row[lt2]
                for right_row in get(left_key(row), ()):
                    r1, r2 = right_row[rt1], right_row[rt2]
                    start = l1 if l1 > r1 else r1
                    end = l2 if l2 < r2 else r2
                    if start < end:
                        yield row + right_row + (start, end)
        else:
            for row in rows:
                for right_row in get(left_key(row), ()):
                    yield row + right_row


class IntervalJoinOp(_JoinOp):
    """Sort-merge interval-overlap join.

    The right input is materialised sorted by interval start (stably, so
    input order survives as the tie-breaker), next to the running maximum
    of the ends.  Each left tuple bisects the prefix with ``right.start <
    left.end`` and, within it, skips the leading entries whose running
    maximum end is at most ``left.start`` — none of them can overlap, in
    any totally ordered domain — so it visits O(log n + candidates)
    entries; it keeps those with ``right.end > left.start``, re-ordered by
    right input position to preserve the reference sequence.
    ``candidates_examined`` counts the entries the last drain visited.
    """

    candidates_examined = 0

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
        max_ends = list(accumulate([entry[2] for entry in entries], max))
        temporal = self._temporal
        self.candidates_examined = 0
        for batch in self._left.batches():
            for row in batch.rows():
                l1, l2 = row[ls], row[le]
                limit = bisect_left(starts, l2)
                first = bisect_right(max_ends, l1, 0, limit)
                self.candidates_examined += limit - first
                matches = [
                    (entry_position, start, end, right_row)
                    for start, entry_position, end, right_row in entries[first:limit]
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
# The multiset operators
# ---------------------------------------------------------------------------
#
# They work on value rows positionally: the lowering has already brought every
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
        key_of = itemgetter(*key_indexes) if key_indexes else lambda row: ()
        groups: Dict[PyTuple, List[PyTuple]] = {}
        for batch in self._child.batches():
            for row in batch.rows():
                groups.setdefault(key_of(row), []).append(row)
        if len(key_indexes) == 1:  # the getter's bare value, as the 1-tuple a key is
            groups = {(key,): members for key, members in groups.items()}
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


class EmulateOp(BatchOperator):
    """A temporal operation in an engine without its operator — the DBMS's
    fallback: at the first pull it drains its inputs into relations and runs
    the operation's reference implementation over them."""

    def __init__(
        self,
        node: Operation,
        children: Sequence[BatchOperator],
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
    ) -> None:
        super().__init__(node.output_schema(), order, paths)
        self._node = node
        self._children = tuple(children)

    def children(self) -> Sequence[BatchOperator]:
        return self._children

    def _batches(self) -> Iterator[ColumnBatch]:
        inputs = [child.to_relation() for child in self._children]
        result = self._node._evaluate(inputs, EvaluationContext())
        yield from _chunked(self.output_schema, result.rows, self.batch_size)

    def describe(self) -> str:
        return f"Emulate({self._node.symbol})"


# ---------------------------------------------------------------------------
# The temporal operators only the stratum plans
# ---------------------------------------------------------------------------
#
# They read ``T1``/``T2`` as two integer columns found by name and build no
# ``Period``.  A *cover* is a set of time points held as disjoint, non-adjacent
# intervals sorted by start, in two parallel lists ``(starts, ends)``; one
# kernel, :func:`_cover_pass`, cuts rows by covers and grows them, a batch a call.


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


def _cover_pass(
    covers: Dict, rows: Iterable[PyTuple], first: int, last: int, value_of, out=None, grow=True
) -> None:
    """Run ``rows``, in order, against their value classes' covers.

    With ``out``, each row appends the parts of its period outside its
    class's cover, ascending, carrying its own values — the row itself when
    no cover interval lies inside its period; a class without a cover (``None``
    is a key like any) cuts nothing.  With ``grow``, the period then joins the
    cover, absorbing every interval it meets, so each interval a cut walks is
    merged away by the grow that follows.  Each step takes two bisections.
    """
    append = None if out is None else out.append
    get_cover = covers.get
    for row in rows:
        t1, t2 = row[first], row[last]
        key = value_of(row)
        cover = get_cover(key)
        if cover is None:
            if append is not None:
                append(row)
            if grow:
                covers[key] = ([t1], [t2])
            continue
        starts, ends = cover
        if append is not None:
            low, high = bisect_right(ends, t1), bisect_left(starts, t2)
            if low == high:
                append(row)
            else:
                cut = t1
                for index in range(low, high):
                    start = starts[index]
                    if cut < start:
                        append(_with_period(row, first, last, (cut, start)))
                    cut = ends[index]
                if cut < t2:
                    append(_with_period(row, first, last, (cut, t2)))
        if grow:
            low, high = bisect_left(ends, t1), bisect_right(starts, t2)
            if low == high:
                starts.insert(low, t1)
                ends.insert(low, t2)
                continue
            if starts[low] < t1:
                t1 = starts[low]
            if ends[high - 1] > t2:
                t2 = ends[high - 1]
            if high - low == 1:  # the common case: no list to build
                starts[low], ends[low] = t1, t2
            else:
                starts[low:high] = [t1]
                ends[low:high] = [t2]


class TemporalDistinctOp(_UnaryOp):
    """Streaming ``rdupT``: each row keeps the part of its period that no
    earlier value-equivalent row covered.

    This is the reference sequence: the work-list head is emitted unchanged
    and every later value-equivalent tuple loses the head's period in place,
    so a tuple reaching the head has lost exactly the union of the earlier
    value-equivalent periods and its fragments sit, ascending, in its slot.
    """

    def _batches(self) -> Iterator[ColumnBatch]:
        layout = _period_layout(self.output_schema)
        covers: Dict = {}
        for batch in self._child.batches():
            rows: List[PyTuple] = []
            _cover_pass(covers, batch.rows(), *layout, rows)
            yield from _chunked(self.output_schema, rows, self.batch_size)


class _TemporalSetOp(_SetOp):
    """``\\T`` and ``∪T``: one side's periods become a cover per value class,
    the other side's rows keep what lies outside their class's cover.

    Classes are keyed by name in the left (= output) schema's attribute order,
    as value equivalence and union compatibility are; a right input listing
    its attributes in another order is aligned once per drain.

    With ``distinct`` the operator runs the ``rdupT`` of its cut side — the
    left of a ``\\T``, the right of a ``∪T`` — itself: that side's pass also
    grows the cover, so each of its rows loses the other side's periods and
    those of the earlier rows of its own side, which is what ``rdupT`` and
    then the cut leave of it.
    """

    _cut_side = ""

    def __init__(self, *args, distinct: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._distinct = distinct

    def describe(self) -> str:
        suffix = f"[absorbs {self._cut_side} rdupT]" if self._distinct else ""
        return super().describe() + suffix

    def _aligned_right_rows(self) -> List[PyTuple]:
        """The right input's rows with their values in the output's attribute order."""
        rows = [row for batch in self._right.batches() for row in batch.rows()]
        attributes, right = self.output_schema.attributes, self._right.output_schema
        if right.attributes == attributes:
            return rows
        return list(map(itemgetter(*map(right.index_of, attributes)), rows))


class TemporalDifferenceOp(_TemporalSetOp):
    """``\\T``: blocking on the right input, streaming over the left — each
    left row loses the union of the value-equivalent right periods."""

    _cut_side = "left"

    def _batches(self) -> Iterator[ColumnBatch]:
        layout = _period_layout(self.output_schema)
        covers: Dict = {}
        _cover_pass(covers, self._aligned_right_rows(), *layout)
        for batch in self._left.batches():
            rows: List[PyTuple] = []
            _cover_pass(covers, batch.rows(), *layout, rows, grow=self._distinct)
            yield from _chunked(self.output_schema, rows, self.batch_size)


class TemporalUnionOp(_TemporalSetOp):
    """``∪T``: the left batches pass through unchanged, then each right row
    keeps what no value-equivalent *left* row covered (earlier right rows
    never subtract), its own values in the left schema's attribute order."""

    _cut_side = "right"

    def _batches(self) -> Iterator[ColumnBatch]:
        layout = _period_layout(self.output_schema)
        covers: Dict = {}
        for batch in self._left.batches():
            _cover_pass(covers, batch.rows(), *layout)
            yield batch
        rows: List[PyTuple] = []
        _cover_pass(covers, self._aligned_right_rows(), *layout, rows, grow=self._distinct)
        yield from _chunked(self.output_schema, rows, self.batch_size)


class CoalesceOp(_UnaryOp):
    """Blocking ``coalT``: one sort-and-sweep per input.

    The input's positions are sorted by period start once (stably), and the
    sweep runs one chain per value class: a period starting exactly where
    its class's chain ends joins it, one starting later closes it.  Within a
    class whose periods are disjoint, the reference's fixpoint merges exactly
    these chains, so the output is each chain's merged period on its
    *earliest* row, in input order — a row whose period did not change is
    passed on as the same object.  ``merges`` counts the rows the last drain
    joined to a chain.

    A period starting inside its chain overlaps it, and then which pairs the
    reference merges depends on the arrangement: the first such overlap hands
    the input to :func:`_saturate`.  With ``distinct`` the operator runs the
    ``rdupT`` below it itself (``coalT(rdupT(r))``): the sweep then merges
    overlaps as well, each chain is a maximal interval of its class's union,
    and its earliest row is the first one whose period ``rdupT`` kept whole.
    """

    merges = 0

    def __init__(
        self,
        child: BatchOperator,
        order: OrderSpec = _UNORDERED,
        paths: PyTuple[PlanPath, ...] = (),
        *,
        distinct: bool = False,
    ) -> None:
        super().__init__(child, order, paths)
        self._distinct = distinct

    def describe(self) -> str:
        return "Coalesce[absorbs rdupT]" if self._distinct else "Coalesce"

    def _rows(self) -> List[PyTuple]:
        first, last, value_of = _period_layout(self.output_schema)
        rows = [row for batch in self._child.batches() for row in batch.rows()]
        swept = self._sweep(rows, first, last, value_of)
        return _saturate(rows, first, last, value_of) if swept is None else swept

    def _sweep(self, rows: List[PyTuple], first: int, last: int, value_of) -> Optional[List[PyTuple]]:
        """The coalesced rows, or ``None`` at the first overlap (unless ``distinct``)."""
        starts = list(map(itemgetter(first), rows))
        ends = list(map(itemgetter(last), rows))
        keys = list(map(value_of, rows))
        chains: Dict[object, List] = {}  # class → its open chain: [start, end, earliest position]
        closed: List[Optional[List]] = [None] * len(rows)  # each chain, at its earliest position
        distinct = self._distinct
        merges = 0
        for position in sorted(range(len(rows)), key=starts.__getitem__):
            key = keys[position]
            chain = chains.get(key)
            if chain is None:
                chains[key] = [starts[position], ends[position], position]
                continue
            start, end = starts[position], chain[1]
            if start > end:
                closed[chain[2]] = chain
                chains[key] = [start, ends[position], position]
                continue
            if start == end:
                chain[1] = ends[position]
            elif not distinct:
                return None
            elif ends[position] > end:
                chain[1] = ends[position]
            merges += 1
            if position < chain[2]:
                chain[2] = position
        for chain in chains.values():
            closed[chain[2]] = chain
        self.merges = merges
        out: List[PyTuple] = []
        for row, chain, start, end in zip(rows, closed, starts, ends):
            if chain is not None:
                if chain[0] == start and chain[1] == end:
                    out.append(row)
                else:
                    out.append(_with_period(row, first, last, (chain[0], chain[1])))
        return out


def _saturate(rows: List[Optional[PyTuple]], first: int, last: int, value_of) -> List[PyTuple]:
    """``coalT`` by saturation in input order within each value class.

    The members of a class are visited in input order, absorbed ones skipped;
    the visited member repeatedly absorbs the *earliest later* unabsorbed
    member whose period is adjacent to its current period, and the output is
    the absorbers in input order, each with its own values and final period.
    That is the reference's merge-the-first-adjacent-pair-and-restart: a merged
    period's endpoints are endpoints of its participants, so an entry adjacent
    to neither participant is not adjacent to the merge — a saturated prefix
    stays saturated and the restart resumes at the same member.  It handles
    any input, overlapping periods included; an absorbed row becomes ``None``
    in ``rows``.
    """
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
    return [row for row in rows if row is not None]


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
    """Blocking ``γT``: per group, one step per change point of its own — a
    start or end of one of its members — and one row per non-empty constant
    interval of the *argument*: the aggregates hold between two change
    points, so the rows there are one slice of the argument's consecutive
    endpoint pairs.

    When every function is ``COUNT(*)`` the count runs on per-point deltas.
    Otherwise the active members are kept in input order, so every aggregate
    reduces the value sequence the reference's ``compute(valid)`` sees
    (``AVG``'s and a float ``SUM``'s summation order included); it is
    recomputed only at a change point.
    """

    def _rows(self) -> List[PyTuple]:
        groups, arguments = self._grouped()
        child_schema = self._child.output_schema
        first, last = child_schema.index_of(T1), child_schema.index_of(T2)
        endpoints = sorted(
            {row[i] for members in groups.values() for row in members for i in (first, last)}
        )
        pairs = list(zip(endpoints, endpoints[1:]))
        index_of = {point: index for index, point in enumerate(endpoints)}.__getitem__
        counting = all(at is None for _, at in arguments)
        out: List[PyTuple] = []
        for key, members in groups.items():
            if counting:
                delta: Dict[int, int] = {}
                for row in members:
                    start, end = row[first], row[last]
                    delta[start] = delta.get(start, 0) + 1
                    delta[end] = delta.get(end, 0) - 1
                points = sorted(delta)
                active = 0
                for point, following in zip(points, points[1:]):
                    active += delta[point]
                    if active:
                        prefix = key + (active,) * len(arguments)
                        out += [prefix + pair for pair in pairs[index_of(point) : index_of(following)]]
                continue
            opening: Dict[int, List[int]] = {}
            closing: Dict[int, List[int]] = {}
            for position, row in enumerate(members):
                opening.setdefault(row[first], []).append(position)
                closing.setdefault(row[last], []).append(position)
            points = sorted(opening.keys() | closing.keys())
            positions: List[int] = []  # the active members, ascending = input order
            for point, following in zip(points, points[1:]):
                for position in closing.get(point, ()):
                    del positions[bisect_left(positions, position)]
                for position in opening.get(point, ()):
                    insort(positions, position)
                if positions:
                    prefix = key + tuple(
                        function.reduce(
                            positions if at is None else [members[position][at] for position in positions]
                        )
                        for function, at in arguments
                    )
                    out += [prefix + pair for pair in pairs[index_of(point) : index_of(following)]]
        return out
