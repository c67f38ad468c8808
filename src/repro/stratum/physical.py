"""Pipelined physical operators for the stratum's share of a plan.

The stratum used to execute every conventional operation through the
reference λ-calculus semantics — in particular a join was "materialise the
full Cartesian product, then filter", quadratic in time *and memory*.  This
module lowers a maximal region of pipelinable logical operators (selection,
projection, sort, the products and the join idioms) to iterator operators:

* **hash equi-join** — build on the right input, probe with the left —
  whenever the predicate contributes equi-conjuncts;
* **sort-merge interval join** — the right input ordered by interval start,
  probed by binary search — for temporal products/joins and for predicates
  carrying an explicit ``ls < re ∧ rs < le`` overlap pair;
* streaming **nested loop** otherwise (no intermediate materialisation);
* streaming selection/projection and blocking sort, with predicates and
  projection items compiled once per query
  (:meth:`Expression.compile_batch`) instead of tree-walked once per tuple.

Execution is **columnar**: operators exchange
:class:`~repro.stratum.columnar.ColumnBatch` chunks of ``batch_size`` rows
through :meth:`StratumOperator.next_batch`, run predicates/projections as
column-wise kernels, join and sort on plain value rows, and materialize
:class:`~repro.core.tuples.Tuple` objects only at operator-tree boundaries.
This is the stratum's only pull protocol; when a region fails, the executor
degrades to the reference recursion, which shares no code with this module.

Every operator is **list-compatible** with the reference semantics at every
batch size: it yields the *identical tuple sequence*, only faster.  The same
guarantee — and the same reason — as :mod:`repro.stratum.temporal_exec`:
several temporal operations are order-sensitive (Section 6), so a merely
multiset-equivalent result could change the answer of an enclosing
operator.  ``tests/test_stratum_physical.py`` and
``tests/test_columnar_exec.py`` cross-check every operator tuple-for-tuple
against ``_evaluate`` on randomized inputs.

The algorithm choice comes from :mod:`repro.core.joinsplit`, which the cost
annotations consume too, so EXPLAIN reports exactly what runs here.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..core.expressions import Expression, ProjectionItem
from ..core.joinsplit import JoinSplit, split_for_join, split_for_product, split_for_selection
from ..core.operations import (
    CartesianProduct,
    Join,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalCartesianProduct,
    TemporalJoin,
)
from ..core.operations.base import PlanPath
from ..core.order_spec import OrderSpec
from ..core.period import T1, T2
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Tuple
from ..options import DEFAULT_BATCH_SIZE
from .columnar import BatchBuilder, ColumnBatch

#: Logical node types the stratum lowers to pipelined operators.
PIPELINED_TYPES = (
    Selection,
    Projection,
    Sort,
    Join,
    TemporalJoin,
    CartesianProduct,
    TemporalCartesianProduct,
)


def is_pipelined(node: Operation) -> bool:
    """True if the stratum executes ``node`` through the physical layer."""
    return isinstance(node, PIPELINED_TYPES)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class StratumOperator:
    """A batch-producing operator yielding the exact reference sequence.

    The pull interface is :meth:`next_batch` /:meth:`batches`: operators
    exchange :class:`~repro.stratum.columnar.ColumnBatch` chunks and
    concatenating an operator's batches row-wise gives the identical tuple
    sequence the reference semantics produce.  ``__iter__`` is a thin
    adapter over the batch stream for callers that want tuples.

    ``paths`` names the logical plan nodes this operator realises (a fused
    selection-over-product realises two); ``paths[0]`` is the node whose
    output the operator produces, and ``rows_out`` — filled once the
    operator has been drained — is that node's actual output cardinality,
    which the executor reports for EXPLAIN ANALYZE.

    When the executor runs under observability it assigns ``_timer`` (a
    monotonic clock callable) before draining; the operator then also
    records ``started_at``/``elapsed_seconds`` — *inclusive* wall-clock
    from first pull to exhaustion, children included, the same convention
    EXPLAIN ANALYZE timings use elsewhere.  When it runs under execution
    control it assigns ``_control``
    (:class:`~repro.faults.control.ExecutionControl`); the drain then ticks
    the ``stratum.pull`` fault point — once at start and every
    ``control.interval`` tuples (once per interval *boundary crossed*, so
    the check count, and with it the resource-guard row accounting, is
    identical for every batch size) — which is where cancellation,
    deadlines, resource budgets and fault injection interpose.  The plain
    path is the default and costs exactly two extra branches per drain.
    """

    #: The fault point this layer's pull loops tick (see :mod:`repro.faults`).
    FAULT_POINT = "stratum.pull"

    def __init__(
        self,
        output_schema: RelationSchema,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
    ) -> None:
        self.output_schema = output_schema
        self.order = order
        self.paths = paths
        self.rows_out: Optional[int] = None
        self.batch_size: int = DEFAULT_BATCH_SIZE
        self._timer: Optional[Callable[[], float]] = None
        self._control = None
        self._batch_stream: Optional[Iterator[ColumnBatch]] = None
        self.started_at: Optional[float] = None
        self.elapsed_seconds: Optional[float] = None

    # -- the batch protocol ----------------------------------------------------

    def next_batch(self) -> Optional[ColumnBatch]:
        """Pull the next output chunk; ``None`` once exhausted.

        The first call starts the drain (and the timing/control accounting
        of :meth:`batches`); subsequent calls continue it.
        """
        stream = self._batch_stream
        if stream is None:
            stream = self._batch_stream = self.batches()
        return next(stream, None)

    def batches(self) -> Iterator[ColumnBatch]:
        """The operator's output as a stream of column batches.

        This wrapper owns the per-drain accounting: row counting for
        EXPLAIN ANALYZE, inclusive wall-clock under observability, and
        control ticks under cancellation/resource guards.
        """
        clock = self._timer
        control = self._control
        if clock is not None:
            self.started_at = clock()
        count = 0
        if control is None:
            for batch in self._batches():
                count += batch.length
                yield batch
        else:
            control.tick(self.FAULT_POINT)
            interval = control.interval
            for batch in self._batches():
                before = count
                count += batch.length
                for _ in range(count // interval - before // interval):
                    control.tick(self.FAULT_POINT)
                yield batch
        self.rows_out = count
        if clock is not None:
            self.elapsed_seconds = clock() - self.started_at

    def _batches(self) -> Iterator[ColumnBatch]:
        """The operator's batch implementation, without accounting."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple]:
        for batch in self.batches():
            yield from batch.to_tuples()

    def children(self) -> Sequence["StratumOperator"]:
        return ()

    def operators(self) -> Iterator["StratumOperator"]:
        """This operator and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.operators()

    def set_batch_size(self, batch_size: int) -> None:
        """Configure the whole operator tree's chunk size (a positive integer)."""
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
        for operator in self.operators():
            operator.batch_size = batch_size

    def to_relation(self) -> Relation:
        """Drain the operator into a relation carrying the derived order."""
        tuples: List[Tuple] = []
        for batch in self.batches():
            tuples.extend(batch.to_tuples())
        return Relation(self.output_schema, tuples, order=self.order)

    def describe(self) -> str:
        return type(self).__name__


class SourceOp(StratumOperator):
    """A materialised boundary input (base relation, temporal operator, …)."""

    def __init__(self, relation: Relation) -> None:
        super().__init__(relation.schema, relation.order, ())
        self._relation = relation

    def _batches(self) -> Iterator[ColumnBatch]:
        # The source boundary is where tuples become columns; permuted
        # attribute orders are normalized here so every kernel upstream is
        # purely positional.
        size = self.batch_size
        schema = self.output_schema
        tuples = self._relation.tuples
        for offset in range(0, len(tuples), size):
            yield ColumnBatch.from_tuples(schema, tuples[offset : offset + size])

    def describe(self) -> str:
        return f"Source(rows={len(self._relation)})"


class FilterOp(StratumOperator):
    """Streaming selection with a column-wise predicate kernel."""

    def __init__(
        self,
        predicate: Expression,
        child: StratumOperator,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
    ) -> None:
        super().__init__(child.output_schema, order, paths)
        self._predicate = predicate
        self._child = child

    def _batches(self) -> Iterator[ColumnBatch]:
        kernel = self._predicate.compile_batch(self._child.output_schema)
        for batch in self._child.batches():
            flags = kernel(batch.columns, batch.length)
            selected = [i for i in range(batch.length) if flags[i]]
            if not selected:
                continue
            if len(selected) == batch.length:
                yield batch
            else:
                yield batch.take(selected)

    def children(self) -> Sequence[StratumOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Filter"


class ProjectOp(StratumOperator):
    """Streaming projection with column-wise item kernels."""

    def __init__(
        self,
        items: Sequence[ProjectionItem],
        output_schema: RelationSchema,
        child: StratumOperator,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
    ) -> None:
        super().__init__(output_schema, order, paths)
        self._items = tuple(items)
        self._child = child

    def _batches(self) -> Iterator[ColumnBatch]:
        child_schema = self._child.output_schema
        kernels = tuple(item.compile_batch(child_schema) for item in self._items)
        schema = self.output_schema
        for batch in self._child.batches():
            columns = [kernel(batch.columns, batch.length) for kernel in kernels]
            yield ColumnBatch(schema, columns, batch.length)

    def children(self) -> Sequence[StratumOperator]:
        return (self._child,)

    def describe(self) -> str:
        return "Project"


class SortOp(StratumOperator):
    """Blocking stable sort (identical to the reference ``sort_A``)."""

    def __init__(
        self,
        sort_order: OrderSpec,
        child: StratumOperator,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
    ) -> None:
        super().__init__(child.output_schema, order, paths)
        self._sort_order = sort_order
        self._child = child

    def _batches(self) -> Iterator[ColumnBatch]:
        size = self.batch_size
        schema = self.output_schema
        rows: List[PyTuple] = []
        for batch in self._child.batches():
            rows.extend(batch.rows())
        if not rows:
            return
        # Stable sort over value rows — input order is the tie-breaker, the
        # same sequence the reference sorted(child, comparison_key) yields.
        rows.sort(key=self._sort_order.positional_key(schema.attributes))
        for offset in range(0, len(rows), size):
            yield ColumnBatch.from_rows(schema, rows[offset : offset + size])

    def children(self) -> Sequence[StratumOperator]:
        return (self._child,)

    def describe(self) -> str:
        return f"Sort({self._sort_order})"


class _JoinOp(StratumOperator):
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
        left: StratumOperator,
        right: StratumOperator,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
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

    def children(self) -> Sequence[StratumOperator]:
        return (self._left, self._right)

    def describe(self) -> str:
        return f"Join[{self._split.describe()}]"

    def _residual_kernel(self):
        """The residual predicate compiled column-wise, or ``None``."""
        residual = self._split.residual
        if residual is None:
            return None
        return residual.compile_batch(self.output_schema)

    def _filtered(self, batch: ColumnBatch, kernel) -> Optional[ColumnBatch]:
        """Apply the residual kernel to an output chunk; None when empty."""
        if kernel is None:
            return batch
        flags = kernel(batch.columns, batch.length)
        selected = [i for i in range(batch.length) if flags[i]]
        if not selected:
            return None
        if len(selected) == batch.length:
            return batch
        return batch.take(selected)

    def _output_batches(self, rows: "Iterator[PyTuple]") -> Iterator[ColumnBatch]:
        """Re-chunk joined value rows and apply the residual per chunk."""
        builder = BatchBuilder(self.output_schema, self.batch_size)
        kernel = self._residual_kernel()
        for row in rows:
            full = builder.add(row)
            if full is not None:
                filtered = self._filtered(full, kernel)
                if filtered is not None:
                    yield filtered
        tail = builder.flush()
        if tail is not None:
            filtered = self._filtered(tail, kernel)
            if filtered is not None:
                yield filtered

    def _batches(self) -> Iterator[ColumnBatch]:
        return self._output_batches(self._join_rows())

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
        split = self._split
        left_indexes = tuple(split.equi_left_indexes)
        right_indexes = tuple(split.equi_right_indexes)
        # Single-attribute keys (the common case) probe on the bare value —
        # scalars hash like their 1-tuples but cost no allocation per row.
        single = len(left_indexes) == 1
        temporal = self._temporal
        if temporal:
            lt1, lt2 = self._left_time
            rt1, rt2 = self._right_time
        table: dict = {}
        for batch in self._right.batches():
            columns = batch.columns
            key_columns = [columns[i] for i in right_indexes]
            keys = (
                key_columns[0]
                if single
                else [tuple(column[i] for column in key_columns) for i in range(batch.length)]
            )
            if temporal:
                starts, ends = columns[rt1], columns[rt2]
                for position, row in enumerate(batch.rows()):
                    entry = (row, starts[position], ends[position])
                    table.setdefault(keys[position], []).append(entry)
            else:
                for position, row in enumerate(batch.rows()):
                    table.setdefault(keys[position], []).append(row)
        get_bucket = table.get
        for batch in self._left.batches():
            columns = batch.columns
            key_columns = [columns[i] for i in left_indexes]
            keys = (
                key_columns[0]
                if single
                else [tuple(column[i] for column in key_columns) for i in range(batch.length)]
            )
            if temporal:
                starts, ends = columns[lt1], columns[lt2]
                for position, row in enumerate(batch.rows()):
                    bucket = get_bucket(keys[position])
                    if not bucket:
                        continue
                    l1, l2 = starts[position], ends[position]
                    for right_row, r1, r2 in bucket:
                        start = l1 if l1 > r1 else r1
                        end = l2 if l2 < r2 else r2
                        if start >= end:
                            continue
                        yield row + right_row + (start, end)
            else:
                for position, row in enumerate(batch.rows()):
                    bucket = get_bucket(keys[position])
                    if not bucket:
                        continue
                    for right_row in bucket:
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
        position = 0
        for batch in self._right.batches():
            columns = batch.columns
            starts_column, ends_column = columns[rs], columns[re]
            for offset, row in enumerate(batch.rows()):
                entries.append((starts_column[offset], position, ends_column[offset], row))
                position += 1
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        starts = [entry[0] for entry in entries]
        temporal = self._temporal
        for batch in self._left.batches():
            columns = batch.columns
            left_starts, left_ends = columns[ls], columns[le]
            for offset, row in enumerate(batch.rows()):
                l1, l2 = left_starts[offset], left_ends[offset]
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


_JOIN_OPERATORS = {
    "hash": HashJoinOp,
    "interval": IntervalJoinOp,
    "nested-loop": NestedLoopJoinOp,
}


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower_plan(
    node: Operation,
    path: PlanPath,
    fetch: Callable[[Operation, PlanPath], Relation],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> StratumOperator:
    """Lower a pipelinable logical subtree to a physical operator tree.

    ``fetch`` materialises boundary subtrees (transfers, base relations, the
    temporal operations with their own fast paths) through the executor's
    ordinary recursion, which keeps their per-node accounting.

    ``batch_size`` is the built tree's chunk size, a positive integer
    (default :data:`~repro.options.DEFAULT_BATCH_SIZE`).
    """
    root = _lower_node(node, path, fetch)
    root.set_batch_size(batch_size)
    return root


def _lower_node(
    node: Operation,
    path: PlanPath,
    fetch: Callable[[Operation, PlanPath], Relation],
) -> StratumOperator:
    if isinstance(node, Selection):
        fused = split_for_selection(node)
        if fused is not None:
            split, product = fused
            left = _lower_child(product.children[0], path + (0, 0), fetch)
            right = _lower_child(product.children[1], path + (0, 1), fetch)
            return _make_join(
                split, product.output_schema(), node, left, right, (path, path + (0,))
            )
        child = _lower_child(node.child, path + (0,), fetch)
        order = node.result_order([child.order])
        return FilterOp(node.predicate, child, order, (path,))
    if isinstance(node, (Join, TemporalJoin)):
        split = split_for_join(node)
        left = _lower_child(node.children[0], path + (0,), fetch)
        right = _lower_child(node.children[1], path + (1,), fetch)
        return _make_join(split, node.output_schema(), node, left, right, (path,))
    if isinstance(node, (CartesianProduct, TemporalCartesianProduct)):
        split = split_for_product(node)
        left = _lower_child(node.children[0], path + (0,), fetch)
        right = _lower_child(node.children[1], path + (1,), fetch)
        return _make_join(split, node.output_schema(), node, left, right, (path,))
    if isinstance(node, Projection):
        child = _lower_child(node.child, path + (0,), fetch)
        order = node.result_order([child.order])
        return ProjectOp(node.items, node.output_schema(), child, order, (path,))
    if isinstance(node, Sort):
        child = _lower_child(node.child, path + (0,), fetch)
        order = node.result_order([child.order])
        return SortOp(node.sort_order, child, order, (path,))
    return SourceOp(fetch(node, path))


def _lower_child(
    node: Operation,
    path: PlanPath,
    fetch: Callable[[Operation, PlanPath], Relation],
) -> StratumOperator:
    if is_pipelined(node):
        return _lower_node(node, path, fetch)
    return SourceOp(fetch(node, path))


def _make_join(
    split: JoinSplit,
    output_schema: RelationSchema,
    output_node: Operation,
    left: StratumOperator,
    right: StratumOperator,
    paths: PyTuple[PlanPath, ...],
) -> StratumOperator:
    order = output_node.result_order(
        [left.order, right.order]
        if len(output_node.children) == 2
        else [_fused_product_order(output_node, left, right)]
    )
    operator_type = _JOIN_OPERATORS[split.algorithm]
    return operator_type(split, output_schema, left, right, order, paths)


def _fused_product_order(selection: Operation, left: StratumOperator, right: StratumOperator) -> OrderSpec:
    """The order the (fused-away) product below ``selection`` would derive."""
    return selection.children[0].result_order([left.order, right.order])
