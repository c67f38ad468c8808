"""The conventional DBMS as a planner over the shared physical operators.

The substrate executes the *conventional* operations of the algebra natively
(scans, filters, projections, sorts, hash-based duplicate elimination,
aggregation, joins, set operations) by compiling a plan fragment to the
batch operators of :mod:`repro.core.physical` — the operator set the stratum
lowers its regions to as well.  What makes it the DBMS is *capability*, not
implementation: its admissible subset is :data:`ADMISSIBLE_OPERATORS`, its
drains tick the :data:`FAULT_POINT` ``dbms.scan``, it promises multiset
semantics only (no operator but a sort knows an order), and:

* its join is a hash join when :mod:`repro.core.joinsplit` finds equi keys
  and otherwise a nested loop with the whole predicate as residual — **never
  the interval join**, even for an ``ls < re ∧ rs < le`` overlap pair:
  :mod:`repro.core.cost` prices a keyless DBMS join at the product bound,
  and the optimizer's choice to pull such a join up into the stratum depends
  on the DBMS actually being quadratic there; a projection directly above
  its hash join runs inside the join's probe
  (:func:`~repro.core.joinsplit.folds_into_hash_join`), as in the stratum;
* temporal operations have no native counterpart in a conventional engine;
  when a fragment shipped to the DBMS nevertheless contains one — the
  paper's initial plans do exactly that — the planner falls back to
  *emulation*: it materialises the inputs and runs the reference
  (specification-level) implementation of the operation.  Emulations are
  counted and reported, because their inefficiency is the paper's motivation
  for letting the stratum take those operations over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from ..core.exceptions import EngineError, SchemaError
from ..core.expressions import AttributeRef, ProjectionItem
from ..core.joinsplit import (
    JoinSplit,
    folds_into_hash_join,
    split_for_join,
    split_for_product,
    split_for_selection,
)
from ..core.operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
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
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)
from ..core.operations.base import EvaluationContext
from ..core.physical import (
    AggregateOp,
    BatchOperator,
    DifferenceOp,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    ProjectOp,
    SortOp,
    SourceOp,
    UnionAllOp,
    UnionOp,
)
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..options import DEFAULT_BATCH_SIZE, check_batch_size
from .catalog import Catalog

#: The fault point the drains of DBMS-built operators tick.
FAULT_POINT = "dbms.scan"

#: The operators the DBMS's planner may build: everything but the interval
#: join (see the module docstring).
ADMISSIBLE_OPERATORS = (
    SourceOp,
    FilterOp,
    ProjectOp,
    SortOp,
    HashJoinOp,
    NestedLoopJoinOp,
    DistinctOp,
    AggregateOp,
    UnionAllOp,
    DifferenceOp,
    UnionOp,
)

_SET_OPERATORS = {Difference: DifferenceOp, UnionAll: UnionAllOp, Union: UnionOp}

#: Logical operations the conventional engine cannot execute natively.
TEMPORAL_OPERATIONS = (
    TemporalDuplicateElimination,
    TemporalDifference,
    TemporalCartesianProduct,
    TemporalUnion,
    TemporalAggregation,
    TemporalJoin,
    Coalescing,
)


@dataclass(frozen=True)
class OperatorSpan:
    """One physical operator's measured drain, for traces and EXPLAIN.

    Only produced when the planner runs with a clock (observability on);
    ``start`` is in the injected clock's domain, ``duration`` is inclusive
    wall-clock from first pull to exhaustion, children included.
    """

    operator: str
    rows: Optional[int]
    start: float
    duration: float


@dataclass
class ExecutionReport:
    """What happened while executing one plan fragment in the DBMS."""

    emulated_operations: List[str] = field(default_factory=list)
    native_operations: int = 0
    #: Per-operator timed drains, in plan order; empty unless the planner
    #: was constructed with a clock.
    operator_spans: List[OperatorSpan] = field(default_factory=list)

    @property
    def emulation_count(self) -> int:
        return len(self.emulated_operations)


class PhysicalPlanner:
    """Compile logical plans against a catalog into physical operators.

    Every operator is instrumented as soon as it is built — with the DBMS's
    fault point, the ``batch_size`` and, when given, the ``clock`` (a
    monotonic callable; observability on) and the ``control``
    (:class:`~repro.faults.control.ExecutionControl`) — which matters for
    emulated temporal fragments, whose children are drained *during*
    compilation: cancellation, budgets and fault injection reach those
    drains too.  With a clock, :meth:`execute` fills
    :attr:`ExecutionReport.operator_spans` from the operators' ``rows_out``/
    ``started_at``/``elapsed_seconds`` afterwards.
    """

    def __init__(
        self,
        catalog: Catalog,
        clock: Optional[Callable[[], float]] = None,
        control=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._catalog = catalog
        self._clock = clock
        self._control = control
        self._batch_size = check_batch_size(batch_size)
        #: Every operator built by the last :meth:`plan`, children before parents.
        self.operators: List[BatchOperator] = []
        self.report = ExecutionReport()

    # -- public API ------------------------------------------------------------

    def plan(self, logical: Operation) -> BatchOperator:
        """Compile ``logical`` into a physical operator tree."""
        self.report = ExecutionReport()
        self.operators = []
        return self._plan(logical)

    def execute(self, logical: Operation) -> Relation:
        """Compile and drain ``logical``, returning the result relation."""
        relation = self.plan(logical).to_relation()
        if self._clock is not None:
            self.report.operator_spans.extend(
                OperatorSpan(
                    operator=operator.describe(),
                    rows=operator.rows_out,
                    start=operator.started_at,
                    duration=operator.elapsed_seconds,
                )
                for operator in self.operators
                if operator.elapsed_seconds is not None
            )
        return relation

    # -- compilation ------------------------------------------------------------

    def _plan(self, node: Operation) -> BatchOperator:
        if isinstance(node, (TransferToDBMS, TransferToStratum)):
            # Transfers are engine boundaries, not work; inside a DBMS
            # fragment they are identities.
            return self._plan(node.child)
        if isinstance(node, TEMPORAL_OPERATIONS):
            return self._emulate(node)
        self.report.native_operations += 1
        return self._admit(self._compile(node))

    def _admit(self, operator: BatchOperator) -> BatchOperator:
        """Configure a freshly built operator before anything drains it."""
        operator.instrument(FAULT_POINT, self._batch_size, self._clock, self._control)
        self.operators.append(operator)
        return operator

    def _compile(self, node: Operation) -> BatchOperator:
        if isinstance(node, BaseRelation):
            table = self._catalog.table(node.relation_name)
            return SourceOp(table.relation, node.relation_name)
        if isinstance(node, LiteralRelation):
            return SourceOp(node.relation, "literal")
        if isinstance(node, Selection):
            fused = split_for_selection(node)
            if fused is not None and isinstance(fused[1], CartesianProduct):
                split, product = fused
                return self._join(split, node.predicate, product.output_schema(), product)
            return FilterOp(node.predicate, self._plan(node.child))
        if folds_into_hash_join(node, dbms=True):
            self.report.native_operations += 1  # the join the projection runs inside
            return self._compile(node.child).fold_projection(node.items, node.output_schema())
        if isinstance(node, Projection):
            return ProjectOp(node.items, node.output_schema(), self._plan(node.child))
        if isinstance(node, Sort):
            return SortOp(node.sort_order, self._plan(node.child), order=node.sort_order)
        if isinstance(node, DuplicateElimination):
            return DistinctOp(self._relabelled(node.child, node.output_schema()))
        if isinstance(node, Aggregation):
            return AggregateOp(
                node.grouping, node.functions, node.output_schema(), self._plan(node.child)
            )
        if isinstance(node, Join):
            return self._join(split_for_join(node), node.predicate, node.output_schema(), node)
        if isinstance(node, CartesianProduct):
            return self._join(split_for_product(node), None, node.output_schema(), node)
        if type(node) in _SET_OPERATORS:
            schema = node.output_schema()
            return _SET_OPERATORS[type(node)](
                self._relabelled(node.left, schema), self._relabelled(node.right, schema)
            )
        raise EngineError(f"the conventional DBMS cannot execute operation {node.label()!r}")

    def _relabelled(self, node: Operation, schema: RelationSchema) -> BatchOperator:
        """``node``'s operator, presenting its rows over ``schema``'s attributes.

        The batch form of the reference ``_relabel``, as a projection of
        renamed attribute references (which copies no value): by name when
        the two schemas name the same attributes — a set operation's right
        input may list them in another order — otherwise positionally, which
        is how ``rdup``, ``\\`` and ``∪`` demote ``T1``/``T2`` to ``1.T1``/``1.T2``.
        """
        child = self._plan(node)
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
        return self._admit(ProjectOp(items, schema, child))

    def _join(
        self,
        split: JoinSplit,
        predicate,
        output_schema: RelationSchema,
        inputs: Operation,
    ) -> BatchOperator:
        """Hash join on the split's equi keys, else a nested loop.

        A keyless split keeps the *whole* predicate as the residual of a
        nested loop, overlap pair included — the DBMS never runs the
        interval join (see the module docstring).
        """
        left = self._plan(inputs.children[0])
        right = self._plan(inputs.children[1])
        if split.equi_left_indexes:
            return HashJoinOp(split, output_schema, left, right)
        keyless = replace(split, overlap_names=None, overlap_indexes=None, residual=predicate)
        return NestedLoopJoinOp(keyless, output_schema, left, right)

    def _emulate(self, node: Operation) -> BatchOperator:
        """Materialise the inputs and run the reference temporal implementation."""
        child_relations = [self._plan(child).to_relation() for child in node.children]
        result = node._evaluate(child_relations, EvaluationContext())
        self.report.emulated_operations.append(node.label())
        return self._admit(SourceOp(result, f"emulated {node.symbol}"))
