"""One lowering for both engines: a request's plan as one operator tree.

The paper's architecture is one plan that ``TS``/``TD`` cut into stratum and
DBMS parts.  :class:`Lowering` builds exactly that: it walks the plan once,
under one of two engine descriptors — :data:`STRATUM_ENGINE` and
:data:`DBMS_ENGINE` — and maps every node to a batch operator of
:mod:`repro.core.physical`.  ``TS`` switches the descriptor to the DBMS's,
``TD`` switches it back, and both lower to one :class:`~repro.core.physical.TransferOp`
that passes its child's batches through, so a transfer is an iterator inside
the tree (the exchange-operator idea of Graefe's Volcano), not a point where
results are materialised.  Every operator carries the plan paths it realises,
whichever engine built it.

An engine descriptor is all that differs between the engines:

* its **fault point** — the drains of its operators tick ``stratum.pull`` or
  ``dbms.scan``;
* its **admissible operators** — the DBMS lacks the interval join and the
  five temporal operators, so a keyless DBMS join is a nested loop with the
  whole predicate as residual (:mod:`repro.core.cost` prices it quadratic,
  and the optimizer's choice to pull such a join into the stratum depends on
  it), and a temporal node in DBMS territory lowers to an
  :class:`~repro.core.physical.EmulateOp` — the paper's emulation penalty;
* whether its operators **know their order** — the DBMS promises multiset
  semantics, so only a sort establishes an order there (Section 4.5).

Lowering builds and drains nothing; :meth:`Lowering.execute` drains a
lowered tree once and reads the request's :class:`ExecutionReport` out of its
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Sequence, Tuple as PyTuple

from ..options import DEFAULT_BATCH_SIZE, check_batch_size
from .exceptions import EngineError, SchemaError
from .expressions import AttributeRef, ProjectionItem
from .joinsplit import JoinSplit, folds_into_hash_join, split_for_join, split_for_product, split_for_selection
from .operations import (
    Aggregation,
    BaseRelation,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)
from .operations.base import PlanPath, ROOT_PATH
from .order_spec import OrderSpec
from .physical import (
    AggregateOp,
    BatchOperator,
    CoalesceOp,
    DifferenceOp,
    DistinctOp,
    EmulateOp,
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
    TransferOp,
    UnionAllOp,
    UnionOp,
)
from .relation import Relation
from .schema import RelationSchema

_UNORDERED = OrderSpec.unordered()


@dataclass(frozen=True)
class Engine:
    """What one engine may build and how its drains are configured."""

    #: The engine's name, as the plan partition and EXPLAIN print it.
    name: str
    #: The fault point the drains of its operators tick.
    fault_point: str
    #: The operator types it may build.
    operators: FrozenSet[type]
    #: Whether its operators know their output order (else only a sort's).
    knows_order: bool

    @property
    def temporal(self) -> bool:
        """Whether it runs the temporal operations natively (else it emulates them)."""
        return CoalesceOp in self.operators


_SHARED = frozenset({
    SourceOp, TransferOp, FilterOp, ProjectOp, SortOp, HashJoinOp, NestedLoopJoinOp,
    DistinctOp, AggregateOp, UnionAllOp, DifferenceOp, UnionOp, EmulateOp,
})

DBMS_ENGINE = Engine("dbms", "dbms.scan", _SHARED, knows_order=False)
STRATUM_ENGINE = Engine(
    "stratum",
    "stratum.pull",
    _SHARED | {
        IntervalJoinOp, TemporalDistinctOp, TemporalAggregateOp, TemporalDifferenceOp,
        TemporalUnionOp, CoalesceOp,
    },
    knows_order=True,
)

_SET_OPERATORS = {
    Difference: DifferenceOp,
    UnionAll: UnionAllOp,
    Union: UnionOp,
    TemporalDifference: TemporalDifferenceOp,
    TemporalUnion: TemporalUnionOp,
}
_JOIN_OPERATORS = {"hash": HashJoinOp, "interval": IntervalJoinOp, "nested-loop": NestedLoopJoinOp}


@dataclass
class ExecutionReport:
    """What happened while one plan executed."""

    #: ``TS`` transfers executed: calls into the conventional DBMS.
    dbms_calls: int = 0
    #: Temporal operations the DBMS emulated, innermost first.
    dbms_emulated_operations: List[str] = field(default_factory=list)
    #: Plan nodes the stratum computed (leaves and transfers aside).
    stratum_operations: int = 0
    #: Base relations the stratum read directly: logically transfers too.
    implicit_transfers: int = 0
    #: Rows that crossed between the engines, implicit transfers included.
    transferred_tuples: int = 0
    #: Actual output cardinality per plan path — every node of both engines
    #: but a product fused into the join above it.
    node_rows: Dict[PlanPath, int] = field(default_factory=dict)
    #: Per-node inclusive ``(start, duration)`` wall-clock, keyed like
    #: ``node_rows``; only filled when the tree runs with a clock.
    node_timings: Dict[PlanPath, PyTuple[float, float]] = field(default_factory=dict)
    #: Failed drains re-run through the reference semantics (graceful
    #: degradation), ``"<root label> at <path>: <error code>"``; empty on
    #: every healthy execution.
    degraded_operations: List[str] = field(default_factory=list)


class Lowering:
    """Lower one plan over a catalog into an operator tree, and drain it.

    ``catalog`` resolves base relations (``catalog.table(name).relation``);
    every built operator is instrumented with its engine's fault point and
    the given ``batch_size``, ``clock`` and ``control`` (see
    :meth:`BatchOperator.instrument`), and with a control every lowered node
    is a token checkpoint.  The counts a report needs from the lowering —
    ``TS`` transfers, emulations, the operators whose rows cross between the
    engines — accumulate on the instance.
    """

    def __init__(
        self,
        catalog=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        clock=None,
        control=None,
    ) -> None:
        self._catalog = catalog
        self._batch_size = check_batch_size(batch_size)
        self._clock = clock
        self._control = control
        self.dbms_calls = 0
        self.implicit_transfers = 0
        self.emulated: List[str] = []
        #: The crossing transfers and the stratum's base-relation sources.
        self.crossings: List[BatchOperator] = []

    def lower(self, plan: Operation, engine: Engine = STRATUM_ENGINE) -> BatchOperator:
        """``plan`` as one operator tree, ``engine`` at its root."""
        return self._lower(plan, engine, ROOT_PATH)

    def execute(self, root: BatchOperator) -> PyTuple[Relation, ExecutionReport]:
        """Drain a lowered tree once; its result and what its operators counted."""
        relation = root.to_relation()
        report = ExecutionReport(
            dbms_calls=self.dbms_calls,
            dbms_emulated_operations=self.emulated,
            implicit_transfers=self.implicit_transfers,
            transferred_tuples=sum(operator.rows_out for operator in self.crossings),
        )
        stratum = STRATUM_ENGINE.fault_point
        for operator in root.operators():
            if operator.fault_point == stratum and not isinstance(operator, (SourceOp, TransferOp)):
                report.stratum_operations += len(operator.paths)
            for path in operator.paths[: operator.output_nodes]:
                report.node_rows[path] = operator.rows_out
                if operator.elapsed_seconds is not None:
                    report.node_timings[path] = (operator.started_at, operator.elapsed_seconds)
        control = self._control
        if control is not None and control.guard is not None:
            control.guard.charge_relation(relation)
        return relation, report

    # -- the walk ----------------------------------------------------------------

    def _lower(self, node: Operation, engine: Engine, path: PlanPath) -> BatchOperator:
        if self._control is not None:
            self._control.checkpoint()
        return self._admit(self._build(node, engine, path), engine)

    def _admit(self, operator: BatchOperator, engine: Engine) -> BatchOperator:
        operator.instrument(engine.fault_point, self._batch_size, self._clock, self._control)
        return operator

    def _children(self, node: Operation, engine: Engine, path: PlanPath) -> List[BatchOperator]:
        return [self._lower(child, engine, path + (index,)) for index, child in enumerate(node.children)]

    def _build(self, node: Operation, engine: Engine, path: PlanPath) -> BatchOperator:
        paths = (path,)
        if isinstance(node, (TransferToStratum, TransferToDBMS)):
            return self._transfer(node, engine, path)
        if isinstance(node, BaseRelation):
            if self._catalog is None:
                raise EngineError(f"no catalog to read base relation {node.relation_name!r} from")
            relation = self._catalog.table(node.relation_name).relation
            operator = SourceOp(relation, node.relation_name, paths)
            if engine is STRATUM_ENGINE:
                self.implicit_transfers += 1
                self.crossings.append(operator)
            return operator
        if isinstance(node, LiteralRelation):
            return SourceOp(node.relation, None, paths)
        if node.is_temporal_operator and not engine.temporal:
            children = self._children(node, engine, path)
            self.emulated.append(node.label())
            return EmulateOp(node, children, _derived(node, engine, [c.order for c in children]), paths)
        fused = split_for_selection(node)
        if fused is not None and (engine.temporal or not fused[1].is_temporal_operator):
            split, product = fused
            left, right = self._children(product, engine, path + (0,))
            inner = product.result_order([left.order, right.order])
            order = _derived(node, engine, [inner])
            schema = product.output_schema()
            return self._join(split, node.predicate, schema, left, right, order, (path, path + (0,)), engine)
        children = self._children(node, engine, path)
        order = _derived(node, engine, [child.order for child in children])
        if len(children) == 2:
            left, right = children
            if type(node) in _SET_OPERATORS:
                if not node.is_temporal_operator:  # rows are matched positionally
                    left = self._relabelled(left, node.output_schema(), engine)
                    right = self._relabelled(right, node.output_schema(), engine)
                return _SET_OPERATORS[type(node)](left, right, order, paths)
            split = split_for_join(node) or split_for_product(node)
            predicate = node.predicate if isinstance(node, Join) else None
            return self._join(split, predicate, node.output_schema(), left, right, order, paths, engine)
        (child,) = children
        if isinstance(node, Selection):
            return FilterOp(node.predicate, child, order, paths)
        if folds_into_hash_join(node, dbms=not engine.temporal):
            return child.fold_projection(node.items, node.output_schema(), order, paths + child.paths)
        if isinstance(node, Projection):
            return ProjectOp(node.items, node.output_schema(), child, order, paths)
        if isinstance(node, Sort):
            return SortOp(node.sort_order, child, order, paths)
        if isinstance(node, DuplicateElimination):
            return DistinctOp(self._relabelled(child, node.output_schema(), engine), order, paths)
        if isinstance(node, Aggregation):
            return AggregateOp(node.grouping, node.functions, node.output_schema(), child, order, paths)
        if isinstance(node, TemporalDuplicateElimination):
            return TemporalDistinctOp(child, order, paths)
        if isinstance(node, Coalescing):
            return CoalesceOp(child, order, paths)
        if isinstance(node, TemporalAggregation):
            return TemporalAggregateOp(
                node.grouping, node.functions, node.output_schema(), child, order, paths
            )
        raise EngineError(f"the {engine.name} cannot execute operation {node.label()!r}")

    def _transfer(self, node: Operation, engine: Engine, path: PlanPath) -> BatchOperator:
        """``TS``/``TD``: the child under the target engine, passed through.

        A transfer to the engine already running is an identity — except a
        ``TS`` inside a DBMS fragment, which means the plan's transfers are
        unbalanced; only a fragment handed to the DBMS directly may keep its
        ``TS`` at the root.
        """
        to_dbms = isinstance(node, TransferToStratum)
        target = DBMS_ENGINE if to_dbms else STRATUM_ENGINE
        if to_dbms and engine is DBMS_ENGINE and path != ROOT_PATH:
            raise EngineError(
                "nested TS inside a DBMS fragment: the plan's transfer operations are unbalanced"
            )
        child = self._lower(node.child, target, path + (0,))
        # An identity on the data: the order the sending engine knew arrives intact.
        operator = TransferOp(node.symbol, child, child.order, (path,))
        if target is not engine:
            self.crossings.append(operator)
            self.dbms_calls += to_dbms
        return operator

    def _relabelled(self, child: BatchOperator, schema: RelationSchema, engine: Engine) -> BatchOperator:
        """``child``'s rows presented over ``schema``'s attributes.

        The batch form of the reference ``_relabel``, as a projection of
        renamed attribute references (which copies no value): by name when
        the two schemas name the same attributes — a set operation's right
        input may list them in another order — otherwise positionally, which
        is how ``rdup``, ``\\`` and ``∪`` demote ``T1``/``T2`` to ``1.T1``/``1.T2``.
        """
        source = child.output_schema
        if source.attributes == schema.attributes:
            return child
        by_name = source.attribute_set() == schema.attribute_set()
        if not by_name and [source.domain_of(a).name for a in source.attributes] != [
            schema.domain_of(a).name for a in schema.attributes
        ]:
            raise SchemaError(f"cannot relabel {source} positionally as {schema}")
        items = [
            ProjectionItem(AttributeRef(target if by_name else name), alias=target)
            for name, target in zip(source.attributes, schema.attributes)
        ]
        return self._admit(ProjectOp(items, schema, child), engine)

    def _join(
        self,
        split: JoinSplit,
        predicate,
        output_schema: RelationSchema,
        left: BatchOperator,
        right: BatchOperator,
        order: OrderSpec,
        paths: PyTuple[PlanPath, ...],
        engine: Engine,
    ) -> BatchOperator:
        """The split's join operator; in an engine without the interval join
        a keyless split keeps the *whole* predicate as a nested loop's residual."""
        if not split.equi_left_indexes and IntervalJoinOp not in engine.operators:
            split = replace(split, overlap_names=None, overlap_indexes=None, residual=predicate)
        return _JOIN_OPERATORS[split.algorithm](split, output_schema, left, right, order, paths)


def _derived(node: Operation, engine: Engine, child_orders: Sequence[OrderSpec]) -> OrderSpec:
    """``node``'s output order in ``engine`` (Table 1, over what it knows)."""
    if not engine.knows_order:
        child_orders = [_UNORDERED] * len(child_orders)
    return node.result_order(child_orders)
