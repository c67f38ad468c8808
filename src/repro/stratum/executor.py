"""The stratum's executor: run a partitioned plan across both engines.

Execution is recursive over the plan:

* the subtree below a ``TS`` transfer is handed to the conventional DBMS
  (after first executing any ``TD`` islands inside it in the stratum and
  splicing their materialised results back in as literal relations) and run
  **as given**: the executor never optimizes — a statement's fragments were
  chosen with its plan
  (:meth:`repro.stratum.layer.TemporalDatabase.optimize_plan`), so the plan
  in the cache entry is the plan that executes;
* every node above runs in the stratum: the pipelinable operations — the
  conventional ones and all five temporal operations (``rdupT``, ``γT``,
  ``\\T``, ``∪T``, ``coalT``) — as regions of the batch operators of
  :mod:`repro.core.physical` (lowered by :mod:`repro.stratum.physical`,
  degrading to the reference semantics when a region fails), and the rest —
  the conventional multiset operations — through the reference semantics;
* a base relation referenced directly from stratum territory is fetched from
  the DBMS catalog — logically an implicit transfer, which the execution
  report counts as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from ..core.operations.base import PlanPath, ROOT_PATH

from ..core.exceptions import (
    CancelledError,
    EngineError,
    ResourceExhaustedError,
    error_code,
)
from ..core.operations import (
    BaseRelation,
    LiteralRelation,
    Operation,
    TransferToDBMS,
    TransferToStratum,
)
from ..core.operations.base import EvaluationContext
from ..core.relation import Relation
from ..dbms.engine import ConventionalDBMS
from ..dbms.executor import OperatorSpan
from ..options import DEFAULT_BATCH_SIZE, check_batch_size
from .physical import is_pipelined, lower_plan


@dataclass
class StratumExecutionReport:
    """What happened while the stratum executed one plan."""

    dbms_calls: int = 0
    dbms_emulated_operations: List[str] = field(default_factory=list)
    stratum_operations: int = 0
    implicit_transfers: int = 0
    transferred_tuples: int = 0
    #: Actual output cardinality per plan node the stratum itself evaluated,
    #: keyed by plan path.  Nodes *inside* a DBMS fragment are executed by
    #: the substrate as one opaque call and are not broken out here (the
    #: fragment's total lands on the enclosing ``TS`` path); EXPLAIN ANALYZE
    #: fills those in with a reference walk.
    node_rows: Dict[PlanPath, int] = field(default_factory=dict)
    #: Per-node ``(start, duration)`` wall-clock, keyed like ``node_rows``;
    #: only filled when the executor runs with a clock (observability on).
    #: Durations are *inclusive* — a node's interval covers its children.
    node_timings: Dict[PlanPath, PyTuple[float, float]] = field(default_factory=dict)
    #: Timed physical-operator drains inside DBMS fragments, in call order;
    #: only filled when the executor runs with a clock.
    dbms_operator_spans: List[OperatorSpan] = field(default_factory=list)
    #: Pipelined regions that failed mid-drain and were re-executed through
    #: the reference semantics (graceful degradation): one entry per fallen
    #: back region, ``"<node label> at <path>: <error code>"``.  Empty on
    #: every healthy execution.
    degraded_operations: List[str] = field(default_factory=list)


class StratumExecutor:
    """Execute logical plans across the stratum and the conventional DBMS."""

    def __init__(
        self,
        dbms: ConventionalDBMS,
        clock: Optional[Callable[[], float]] = None,
        control=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._dbms = dbms
        #: Rows per chunk of the physical operators (:mod:`repro.core.physical`),
        #: in the stratum's regions and in the DBMS fragments alike.
        self._batch_size = check_batch_size(batch_size)
        #: With a ``clock`` (a monotonic callable; observability on) the
        #: report also carries per-node wall-clock intervals and the timed
        #: operator drains inside DBMS fragments.  Without one — the
        #: default — every timing site is a single predictable branch.
        self._clock = clock
        #: With a ``control`` (:class:`~repro.faults.control.ExecutionControl`)
        #: every pull loop in both engines ticks it, every plan node is a
        #: token checkpoint, and every materialized node result is charged
        #: against the byte budget.  ``None``-gated like the clock.
        self._control = control
        #: Set while a failed pipelined region re-executes through the
        #: reference semantics (see :meth:`_execute_pipelined`): forces
        #: :meth:`_evaluate_stratum` past the physical layer so the retry
        #: cannot re-enter the code path that just failed.
        self._reference_only = False
        self.report = StratumExecutionReport()

    def execute(self, plan: Operation) -> Relation:
        """Execute ``plan`` and return its result relation."""
        self.report = StratumExecutionReport()
        return self._execute_stratum(plan, ROOT_PATH)

    # -- stratum side ------------------------------------------------------------

    def _execute_stratum(self, node: Operation, path: PlanPath = ROOT_PATH) -> Relation:
        control = self._control
        if control is not None:
            control.checkpoint()
        if self._clock is None:
            result = self._evaluate_stratum(node, path)
        else:
            started = self._clock()
            result = self._evaluate_stratum(node, path)
            self.report.node_timings[path] = (started, self._clock() - started)
        self.report.node_rows[path] = len(result)
        if control is not None and control.guard is not None:
            control.guard.charge_relation(result)
        return result

    def _evaluate_stratum(self, node: Operation, path: PlanPath) -> Relation:
        if isinstance(node, TransferToStratum):
            return self._execute_in_dbms(node.child, path + (0,))
        if isinstance(node, TransferToDBMS):
            # A TD with stratum work above it (and no enclosing TS) simply
            # materialises in the stratum; the data stays where it is.
            return self._execute_stratum(node.child, path + (0,))
        if isinstance(node, BaseRelation):
            self.report.implicit_transfers += 1
            relation = self._dbms.catalog.table(node.relation_name).relation
            self.report.transferred_tuples += len(relation)
            return relation
        if isinstance(node, LiteralRelation):
            return node.relation
        if is_pipelined(node) and not self._reference_only:
            return self._execute_pipelined(node, path)
        child_results = [
            self._execute_stratum(child, path + (index,))
            for index, child in enumerate(node.children)
        ]
        self.report.stratum_operations += 1
        return self._apply(node, child_results)

    def _execute_pipelined(self, node: Operation, path: PlanPath) -> Relation:
        """Lower a pipelinable region to physical operators and drain it.

        Selections, projections, sorts, products and the join idioms execute
        through :mod:`repro.core.physical` — hash/interval joins instead
        of materialised Cartesian products, generated row kernels instead of
        per-tuple expression-tree walks, sweep-line temporal operators.  Boundary
        subtrees (transfers, base relations, literals, the conventional
        multiset operations) are materialised through the ordinary recursion above.
        Each physical operator counts the rows it emits, so per-node actuals
        stay available to EXPLAIN ANALYZE; a product fused into a join never
        materialises and reports no count, and a projection folded into the
        hash join below it reports the operator's rows and time on both nodes.

        When lowering or draining the region fails, execution **degrades**
        instead of dying: the region is re-executed through the reference
        recursion (``_reference_only``), which is slower but shares no code
        with the physical layer that just failed.  The fallback is recorded
        in :attr:`StratumExecutionReport.degraded_operations` (per-region
        work counters may double-count the failed attempt).  Cancellation,
        deadline and resource errors are *not* degradable — they mean
        "stop", not "this operator is broken" — and propagate unchanged.
        """
        try:
            root = lower_plan(
                node,
                path,
                self._execute_stratum,
                batch_size=self._batch_size,
                clock=self._clock,
                control=self._control,
            )
            relation = root.to_relation()
        except (CancelledError, ResourceExhaustedError):
            raise
        except Exception as exc:
            self.report.degraded_operations.append(
                f"{node.label()} at {path}: {error_code(exc)}"
            )
            self._reference_only = True
            try:
                child_results = [
                    self._execute_stratum(child, path + (index,))
                    for index, child in enumerate(node.children)
                ]
                self.report.stratum_operations += 1
                return self._apply(node, child_results)
            finally:
                self._reference_only = False
        for operator in root.operators():
            self.report.stratum_operations += len(operator.paths)
            for path in operator.paths[: operator.output_nodes]:
                if operator.rows_out is not None:
                    self.report.node_rows[path] = operator.rows_out
                if operator.elapsed_seconds is not None:
                    self.report.node_timings[path] = (
                        operator.started_at,
                        operator.elapsed_seconds,
                    )
        return relation

    def _apply(self, node: Operation, child_results: Sequence[Relation]) -> Relation:
        """The reference semantics: what the conventional multiset operations
        run on, and the degradation target of every pipelined operation."""
        derived_order = node.result_order([relation.order for relation in child_results])
        result = node._evaluate(list(child_results), EvaluationContext())
        return result.with_order(derived_order)

    # -- DBMS side ------------------------------------------------------------------

    def _execute_in_dbms(self, fragment: Operation, path: PlanPath = ROOT_PATH) -> Relation:
        prepared = self._materialize_stratum_islands(fragment, path)
        self.report.dbms_calls += 1
        result = self._dbms.execute(
            prepared,
            optimize=False,
            clock=self._clock,
            control=self._control,
            batch_size=self._batch_size,
        )
        self.report.dbms_operator_spans.extend(result.report.operator_spans)
        self.report.dbms_emulated_operations.extend(result.report.emulated_operations)
        self.report.transferred_tuples += len(result.relation)
        return result.relation

    def _materialize_stratum_islands(self, fragment: Operation, path: PlanPath = ROOT_PATH) -> Operation:
        """Replace ``TD(sub)`` islands inside a DBMS fragment by literal relations."""
        if isinstance(fragment, TransferToDBMS):
            relation = self._execute_stratum(fragment.child, path + (0,))
            self.report.node_rows[path] = len(relation)
            self.report.transferred_tuples += len(relation)
            return LiteralRelation(relation)
        if isinstance(fragment, TransferToStratum):
            raise EngineError(
                "nested TS inside a DBMS fragment: the plan's transfer operations are unbalanced"
            )
        if not fragment.children:
            return fragment
        new_children = [
            self._materialize_stratum_islands(child, path + (index,))
            for index, child in enumerate(fragment.children)
        ]
        if all(new is old for new, old in zip(new_children, fragment.children)):
            return fragment
        return fragment.with_children(new_children)
