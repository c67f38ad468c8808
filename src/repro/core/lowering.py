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

Two pure functions hold every decision the walk makes, and the cost walks,
the memo's extraction and EXPLAIN read the same two: :func:`child_engine`
(the ``TS``/``TD`` switch) and :func:`physical_choice` (the operator that
runs a node in an engine, with its join split and fusions).

An engine descriptor is all that differs between the engines:

* its **fault point** — the drains of its operators tick ``stratum.pull`` or
  ``dbms.scan``;
* its **admissible operators** — the DBMS lacks the interval join and the
  five temporal operators, so a keyless DBMS join is a nested loop with the
  whole predicate as residual and a σ over a product fuses with it only into
  a hash join (:mod:`repro.core.cost` prices both quadratic, and the
  optimizer's choice to pull such a join into the stratum depends on it),
  and a temporal node in DBMS territory lowers to an
  :class:`~repro.core.physical.EmulateOp` — the paper's emulation penalty;
* whether its operators **know their order** — the DBMS promises multiset
  semantics, so only a sort establishes an order there (Section 4.5).

Lowering builds and drains nothing; :meth:`Lowering.execute` drains a
lowered tree once and reads the request's :class:`ExecutionReport` out of its
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple as PyTuple

from ..options import DEFAULT_BATCH_SIZE, check_batch_size
from .exceptions import EngineError, SchemaError
from .expressions import AttributeRef, ProjectionItem
from .joinsplit import PRODUCT_TYPES, JoinSplit, split_for_join, split_for_product, split_for_selection
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
    TemporalJoin,
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


@dataclass(frozen=True, eq=False)
class Engine:
    """What one engine may build and how its drains are configured.

    There are exactly two, :data:`STRATUM_ENGINE` and :data:`DBMS_ENGINE`;
    they compare and hash by identity, so the memo search keys its
    per-engine tables on them as cheaply as on a string.
    """

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

_TRANSFER_TARGETS = {TransferToStratum: DBMS_ENGINE, TransferToDBMS: STRATUM_ENGINE}
_JOIN_OPERATORS = {"hash": HashJoinOp, "interval": IntervalJoinOp, "nested-loop": NestedLoopJoinOp}


def child_engine(node: Operation, engine: Engine) -> Engine:
    """The engine running ``node``'s children when ``engine`` runs ``node``:
    the DBMS below a ``TS``, the stratum below a ``TD``, else ``engine``."""
    return _TRANSFER_TARGETS.get(type(node), engine)


class PhysicalChoice(NamedTuple):
    """How an engine realises one plan node (:func:`physical_choice`)."""

    #: The :class:`~repro.core.physical.BatchOperator` class that runs the node.
    operator: type
    #: The predicate split a join operator runs with.
    split: Optional[JoinSplit] = None
    #: The child the operator runs itself, taking that child's inputs in its
    #: place: the product below a selection that runs as one join, or the
    #: ``rdupT`` below a ``coalT``, the left of a ``\\T`` or the right of a ``∪T``.
    absorbs: Optional[int] = None
    #: A projection that runs inside the hash join below it.
    folds_projection: bool = False

    @property
    def fuses_product(self) -> bool:
        """Whether the node is a selection that runs with its product as one join."""
        return self.absorbs is not None and self.split is not None

    def describe(self) -> Optional[str]:
        """EXPLAIN's physical column for the node."""
        if self.folds_projection:
            return "fused into hash join"
        return None if self.split is None else self.split.describe()


def _inputs(lowering: "Lowering", node: Operation, engine: Engine, children: List[BatchOperator]):
    return children


def _relabelled_inputs(lowering: "Lowering", node: Operation, engine: Engine, children: List[BatchOperator]):
    """The children over the node's attributes: ``rdup``, ``\\``, ``∪`` and
    ``⊔`` match rows positionally."""
    schema = node.output_schema()
    return [lowering._relabelled(child, schema, engine) for child in children]


def _sort_inputs(lowering: "Lowering", node: Operation, engine: Engine, children: List[BatchOperator]):
    return (node.sort_order, *children)


def _aggregate_inputs(lowering: "Lowering", node: Operation, engine: Engine, children: List[BatchOperator]):
    return (node.grouping, node.functions, node.output_schema(), *children)


#: Every node type whose operator depends on the engine only through
#: emulation: its operator class, and how the lowering gets that operator's
#: constructor arguments (before the order and paths) from the node and its
#: lowered children.
_NATIVE = {
    Sort: (SortOp, _sort_inputs),
    DuplicateElimination: (DistinctOp, _relabelled_inputs),
    Aggregation: (AggregateOp, _aggregate_inputs),
    TemporalDuplicateElimination: (TemporalDistinctOp, _inputs),
    Coalescing: (CoalesceOp, _inputs),
    TemporalAggregation: (TemporalAggregateOp, _aggregate_inputs),
    Difference: (DifferenceOp, _relabelled_inputs),
    UnionAll: (UnionAllOp, _relabelled_inputs),
    Union: (UnionOp, _relabelled_inputs),
    TemporalDifference: (TemporalDifferenceOp, _inputs),
    TemporalUnion: (TemporalUnionOp, _inputs),
}
#: The choice for every node type with no join shape, fusion or fold.
_FIXED_CHOICES = {
    TransferToStratum: PhysicalChoice(TransferOp),
    TransferToDBMS: PhysicalChoice(TransferOp),
    BaseRelation: PhysicalChoice(SourceOp),
    LiteralRelation: PhysicalChoice(SourceOp),
    **{node_type: PhysicalChoice(operator) for node_type, (operator, _) in _NATIVE.items()},
}
#: The temporal operations that run an ``rdupT`` child themselves, by the
#: child's index: a cover pass that cuts that side can grow the cover too, and
#: ``coalT``'s sweep can merge overlaps as well as adjacencies.
_ABSORBING = {
    Coalescing: PhysicalChoice(CoalesceOp, absorbs=0),
    TemporalDifference: PhysicalChoice(TemporalDifferenceOp, absorbs=0),
    TemporalUnion: PhysicalChoice(TemporalUnionOp, absorbs=1),
}
_EMULATE = PhysicalChoice(EmulateOp)
_FILTER = PhysicalChoice(FilterOp)
_PROJECT = PhysicalChoice(ProjectOp)
_FOLDED = PhysicalChoice(HashJoinOp, folds_projection=True)


def physical_choice(node: Operation, engine: Engine) -> PhysicalChoice:
    """The one decision of what runs ``node`` in ``engine``.

    The lowering builds what it says, the cost walks price it and EXPLAIN
    prints its description.  A temporal node in an engine without the
    temporal operators is emulated.  A join-shaped node — a ``⋈``/``⋈T``,
    a product, or a selection fused with the product below it — runs the
    join operator of its predicate split (:mod:`repro.core.joinsplit`); in
    an engine without the interval join, a keyless split keeps the whole
    predicate as a nested loop's residual, and a selection fuses with its
    product only into a hash join.  A projection over a hash join runs
    inside it, unless another projection already does.  A ``coalT`` over an
    ``rdupT``, and a ``\\T`` (``∪T``) with one as its left (right) argument,
    run that ``rdupT`` themselves.
    """
    if node.is_temporal_operator and not engine.temporal:
        return _EMULATE
    choice = _ABSORBING.get(type(node))
    if choice is not None and isinstance(node.children[choice.absorbs], TemporalDuplicateElimination):
        return choice
    choice = _FIXED_CHOICES.get(type(node))
    if choice is not None:
        return choice
    if isinstance(node, Selection):
        fused = split_for_selection(node)
        if fused is not None:
            split, product = fused
            if engine.temporal or (split.algorithm == "hash" and not product.is_temporal_operator):
                return _join_choice(split, node.predicate, engine, True)
        return _FILTER
    if isinstance(node, Projection):
        split = physical_choice(node.child, engine).split
        return _FOLDED if split is not None and split.algorithm == "hash" else _PROJECT
    if isinstance(node, (Join, TemporalJoin)):
        return _join_choice(split_for_join(node), node.predicate, engine, False)
    if isinstance(node, PRODUCT_TYPES):
        return _join_choice(split_for_product(node), None, engine, False)
    raise EngineError(f"the {engine.name} cannot execute operation {node.label()!r}")


def _join_choice(split: JoinSplit, predicate, engine: Engine, fuses_product: bool) -> PhysicalChoice:
    if not split.equi_left_indexes and IntervalJoinOp not in engine.operators:
        split = replace(split, overlap_names=None, overlap_indexes=None, residual=predicate)
    return PhysicalChoice(_JOIN_OPERATORS[split.algorithm], split, 0 if fuses_product else None)


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
    #: but the child an operator runs itself (``PhysicalChoice.absorbs``): a
    #: product fused into the join above it, an absorbed ``rdupT``.
    node_rows: Dict[PlanPath, int] = field(default_factory=dict)
    #: Per-node inclusive ``(start, duration)`` wall-clock, keyed like
    #: ``node_rows``; only filled when the tree runs with a clock.
    node_timings: Dict[PlanPath, PyTuple[float, float]] = field(default_factory=dict)
    #: The sorts whose input served their order (:attr:`SortOp.kept_order`),
    #: by plan path: they streamed their input and sorted nothing.
    kept_orders: List[PlanPath] = field(default_factory=list)
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
            if isinstance(operator, SortOp) and operator.kept_order:
                report.kept_orders.append(operator.paths[0])
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
        choice = physical_choice(node, engine)
        operator, paths = choice.operator, (path,)
        if operator is TransferOp:
            return self._transfer(node, engine, path)
        if operator is SourceOp:
            if isinstance(node, LiteralRelation):
                return SourceOp(node.relation, None, paths)
            if self._catalog is None:
                raise EngineError(f"no catalog to read base relation {node.relation_name!r} from")
            relation = self._catalog.table(node.relation_name).relation
            source = SourceOp(relation, node.relation_name, paths)
            if engine is STRATUM_ENGINE:
                self.implicit_transfers += 1
                self.crossings.append(source)
            return source
        if choice.absorbs is None:
            children = self._children(node, engine, path)
            order = _derived(node, engine, [child.order for child in children])
        else:
            # The absorbed child never runs on its own: its inputs take its
            # place, and the operator realises its node too.
            children, orders = [], []
            for index, child in enumerate(node.children):
                if index == choice.absorbs:
                    inputs = self._children(child, engine, path + (index,))
                    children += inputs
                    orders.append(child.result_order([grandchild.order for grandchild in inputs]))
                else:
                    children.append(self._lower(child, engine, path + (index,)))
                    orders.append(children[-1].order)
            order = _derived(node, engine, orders)
            paths = (path, path + (choice.absorbs,))
        if operator is EmulateOp:
            self.emulated.append(node.label())
            return EmulateOp(node, children, order, paths)
        if choice.split is not None:
            left, right = children
            return operator(choice.split, node.output_schema(), left, right, order, paths)
        if operator is FilterOp:
            return FilterOp(node.predicate, children[0], order, paths)
        if choice.folds_projection:
            (join,) = children
            return join.fold_projection(node.items, node.output_schema(), order, paths + join.paths)
        if operator is ProjectOp:
            return ProjectOp(node.items, node.output_schema(), children[0], order, paths)
        arguments = _NATIVE[type(node)][1](self, node, engine, children)
        if choice.absorbs is not None:
            return operator(*arguments, order, paths, distinct=True)
        return operator(*arguments, order, paths)

    def _transfer(self, node: Operation, engine: Engine, path: PlanPath) -> BatchOperator:
        """``TS``/``TD``: the child under the target engine, passed through.

        A transfer to the engine already running is an identity — except a
        ``TS`` inside a DBMS fragment, which means the plan's transfers are
        unbalanced; only a fragment handed to the DBMS directly may keep its
        ``TS`` at the root.
        """
        target = child_engine(node, engine)
        if target is engine is DBMS_ENGINE and path != ROOT_PATH:
            raise EngineError(
                "nested TS inside a DBMS fragment: the plan's transfer operations are unbalanced"
            )
        child = self._lower(node.child, target, path + (0,))
        # An identity on the data: the order the sending engine knew arrives intact.
        operator = TransferOp(node.symbol, child, child.order, (path,))
        if target is not engine:
            self.crossings.append(operator)
            self.dbms_calls += target is DBMS_ENGINE
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


def _derived(node: Operation, engine: Engine, child_orders: Sequence[OrderSpec]) -> OrderSpec:
    """``node``'s output order in ``engine`` (Table 1, over what it knows)."""
    if not engine.knows_order:
        child_orders = [_UNORDERED] * len(child_orders)
    return node.result_order(child_orders)
