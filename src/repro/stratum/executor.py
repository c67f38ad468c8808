"""The stratum's executor: run a partitioned plan across both engines.

A request's plan is lowered **once** (:class:`repro.core.lowering.Lowering`,
starting under the stratum's engine descriptor) into one tree of the batch
operators of :mod:`repro.core.physical` and drained **once**: the subtree
below a ``TS`` is built under the DBMS's descriptor and a ``TD`` switches
back, each transfer a pass-through operator of the tree.  Fragments run **as
given** — the executor never optimizes; a statement's fragments were chosen
with its plan (:meth:`repro.stratum.layer.TemporalDatabase.optimize_plan`),
so the plan in the cache entry is the plan that executes.  A base relation
referenced directly from stratum territory is read from the DBMS catalog —
logically an implicit transfer, which the report counts as such.

When the drain fails, execution **degrades** instead of dying: the request
re-runs once through the reference recursion (:meth:`StratumExecutor._apply`,
transfers as identities, base tables read from the catalog), which shares no
code with the operators that just failed.  Cancellation, deadline and
resource errors are *not* degradable — they mean "stop", not "this operator
is broken" — and propagate unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.exceptions import CancelledError, ResourceExhaustedError, error_code
from ..core.lowering import ExecutionReport, Lowering, STRATUM_ENGINE
from ..core.operations import BaseRelation, Operation
from ..core.operations.base import EvaluationContext, PlanPath, ROOT_PATH
from ..core.relation import Relation
from ..options import DEFAULT_BATCH_SIZE, check_batch_size


class StratumExecutor:
    """Execute logical plans across the stratum and the conventional DBMS."""

    def __init__(
        self,
        dbms,
        clock: Optional[Callable[[], float]] = None,
        control=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        #: The engine's catalog (live or pinned) is all the executor reads.
        self._catalog = dbms.catalog
        #: Rows per chunk of the physical operators, in both engines.
        self._batch_size = check_batch_size(batch_size)
        #: With a ``clock`` (a monotonic callable; observability on) the
        #: report also carries per-node wall-clock intervals.  Without one —
        #: the default — every timing site is a single predictable branch.
        self._clock = clock
        #: With a ``control`` (:class:`~repro.faults.control.ExecutionControl`)
        #: every pull loop in both engines ticks it, every plan node is a
        #: token checkpoint, and the rows handed across the engines and the
        #: result are charged against the byte budget.  ``None``-gated like
        #: the clock.
        self._control = control
        self.report = ExecutionReport()

    def execute(self, plan: Operation) -> Relation:
        """Execute ``plan`` and return its result relation."""
        lowering = Lowering(self._catalog, self._batch_size, self._clock, self._control)
        root = lowering.lower(plan, STRATUM_ENGINE)
        try:
            relation, self.report = lowering.execute(root)
            return relation
        except (CancelledError, ResourceExhaustedError):
            raise
        except Exception as exc:
            self.report = ExecutionReport(
                degraded_operations=[f"{plan.label()} at {ROOT_PATH}: {error_code(exc)}"]
            )
            return self._reference(plan, ROOT_PATH)

    def _reference(self, node: Operation, path: PlanPath) -> Relation:
        control = self._control
        if control is not None:
            control.checkpoint()
        if isinstance(node, BaseRelation):
            result = self._catalog.table(node.relation_name).relation
        else:
            children = [self._reference(child, path + (i,)) for i, child in enumerate(node.children)]
            result = self._apply(node, children)
        self.report.node_rows[path] = len(result)
        if control is not None and control.guard is not None:
            control.guard.charge_relation(result)
        return result

    def _apply(self, node: Operation, child_results: Sequence[Relation]) -> Relation:
        """The reference semantics: the degradation target of every operation."""
        derived_order = node.result_order([relation.order for relation in child_results])
        result = node._evaluate(list(child_results), EvaluationContext())
        return result.with_order(derived_order)
