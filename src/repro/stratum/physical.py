"""The stratum as a planner over the shared physical operators.

The stratum used to execute every conventional operation through the
reference λ-calculus semantics — in particular a join was "materialise the
full Cartesian product, then filter", quadratic in time *and memory*.  This
module lowers a maximal region of pipelinable logical operators (selection,
projection, sort, the products and the join idioms, and the five temporal
operations ``rdupT``, ``γT``, ``\\T``, ``∪T`` and ``coalT``) to the batch
operators of :mod:`repro.core.physical`, the set the conventional DBMS
compiles its fragments to as well.  The stratum's admissible subset is
:data:`ADMISSIBLE_OPERATORS` — all three join algorithms, the sort-merge
interval join included, and the five temporal operators, which only the
stratum may build (that *is* the paper's capability split) — and its drains
tick :data:`FAULT_POINT`.  A whole temporal plan is one operator tree: only
transfers, base relations, literals and the conventional multiset operations
(``rdup``, ``γ``, ``⊔``, ``∪``, ``\\``) are region boundaries, materialised by
the executor.

Every operator built here is **list-compatible** with the reference semantics
at every batch size (see :mod:`repro.core.physical`).  When a region fails,
the executor degrades to the reference recursion, which shares no code with
the operators.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple as PyTuple

from ..core.joinsplit import (
    JoinSplit,
    folds_into_hash_join,
    split_for_join,
    split_for_product,
    split_for_selection,
)
from ..core.operations import (
    CartesianProduct,
    Coalescing,
    Join,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
)
from ..core.operations.base import PlanPath
from ..core.order_spec import OrderSpec
from ..core.physical import (
    BatchOperator,
    CoalesceOp,
    FilterOp,
    HashJoinOp,
    IntervalJoinOp,
    NestedLoopJoinOp,
    ProjectOp,
    SortOp,
    SourceOp,
    TemporalAggregateOp,
    TemporalDifferenceOp,
    TemporalDistinctOp,
    TemporalUnionOp,
)
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..options import DEFAULT_BATCH_SIZE, check_batch_size

#: The fault point the drains of stratum-built operators tick.
FAULT_POINT = "stratum.pull"

#: Logical node types the stratum lowers to pipelined operators.
PIPELINED_TYPES = (
    Selection,
    Projection,
    Sort,
    Join,
    TemporalJoin,
    CartesianProduct,
    TemporalCartesianProduct,
    TemporalDuplicateElimination,
    TemporalAggregation,
    TemporalDifference,
    TemporalUnion,
    Coalescing,
)

_JOIN_OPERATORS = {
    "hash": HashJoinOp,
    "interval": IntervalJoinOp,
    "nested-loop": NestedLoopJoinOp,
}

_TEMPORAL_SET_OPERATORS = {
    TemporalDifference: TemporalDifferenceOp,
    TemporalUnion: TemporalUnionOp,
}

#: The operators the stratum's lowering may build.
ADMISSIBLE_OPERATORS = (
    SourceOp,
    FilterOp,
    ProjectOp,
    SortOp,
    *_JOIN_OPERATORS.values(),
    TemporalDistinctOp,
    TemporalAggregateOp,
    *_TEMPORAL_SET_OPERATORS.values(),
    CoalesceOp,
)


def is_pipelined(node: Operation) -> bool:
    """True if the stratum executes ``node`` through the physical layer."""
    return isinstance(node, PIPELINED_TYPES)


def lower_plan(
    node: Operation,
    path: PlanPath,
    fetch: Callable[[Operation, PlanPath], Relation],
    batch_size: int = DEFAULT_BATCH_SIZE,
    clock: Optional[Callable[[], float]] = None,
    control=None,
) -> BatchOperator:
    """Lower a pipelinable logical subtree to a physical operator tree.

    ``fetch`` materialises boundary subtrees (transfers, base relations,
    literals, the conventional multiset operations) through the executor's
    ordinary recursion, which keeps their per-node accounting.

    ``batch_size`` is the built tree's chunk size, a positive integer
    (default :data:`~repro.options.DEFAULT_BATCH_SIZE`); every operator is
    instrumented with the stratum's fault point and the given ``clock`` and
    ``control`` (see :meth:`BatchOperator.instrument`).
    """
    check_batch_size(batch_size)
    root = _lower_node(node, path, fetch)
    for operator in root.operators():
        operator.instrument(FAULT_POINT, batch_size, clock, control)
    return root


def _lower_node(
    node: Operation,
    path: PlanPath,
    fetch: Callable[[Operation, PlanPath], Relation],
) -> BatchOperator:
    if isinstance(node, Selection):
        fused = split_for_selection(node)
        if fused is not None:
            split, product = fused
            left = _lower_node(product.children[0], path + (0, 0), fetch)
            right = _lower_node(product.children[1], path + (0, 1), fetch)
            return _make_join(
                split, product.output_schema(), node, left, right, (path, path + (0,))
            )
    elif not is_pipelined(node):
        return SourceOp(fetch(node, path))
    elif len(node.children) == 2:
        left = _lower_node(node.children[0], path + (0,), fetch)
        right = _lower_node(node.children[1], path + (1,), fetch)
        for node_type, operator_type in _TEMPORAL_SET_OPERATORS.items():
            if isinstance(node, node_type):
                order = node.result_order([left.order, right.order])
                return operator_type(left, right, order, (path,))
        split = split_for_join(node) or split_for_product(node)
        return _make_join(split, node.output_schema(), node, left, right, (path,))
    # The unary operators: the child's subtree lowers into the same region.
    child = _lower_node(node.child, path + (0,), fetch)
    order = node.result_order([child.order])
    if isinstance(node, Selection):
        return FilterOp(node.predicate, child, order, (path,))
    if folds_into_hash_join(node):
        return child.fold_projection(node.items, node.output_schema(), order, (path,) + child.paths)
    if isinstance(node, Projection):
        return ProjectOp(node.items, node.output_schema(), child, order, (path,))
    if isinstance(node, Sort):
        return SortOp(node.sort_order, child, order, (path,))
    if isinstance(node, TemporalDuplicateElimination):
        return TemporalDistinctOp(child, order, (path,))
    if isinstance(node, Coalescing):
        return CoalesceOp(child, order, (path,))
    assert isinstance(node, TemporalAggregation), node  # the last of PIPELINED_TYPES
    return TemporalAggregateOp(
        node.grouping, node.functions, node.output_schema(), child, order, (path,)
    )


def _make_join(
    split: JoinSplit,
    output_schema: RelationSchema,
    output_node: Operation,
    left: BatchOperator,
    right: BatchOperator,
    paths: PyTuple[PlanPath, ...],
) -> BatchOperator:
    order = output_node.result_order(
        [left.order, right.order]
        if len(output_node.children) == 2
        else [_fused_product_order(output_node, left, right)]
    )
    operator_type = _JOIN_OPERATORS[split.algorithm]
    return operator_type(split, output_schema, left, right, order, paths)


def _fused_product_order(selection: Operation, left: BatchOperator, right: BatchOperator) -> OrderSpec:
    """The order the (fused-away) product below ``selection`` would derive."""
    return selection.children[0].result_order([left.order, right.order])
