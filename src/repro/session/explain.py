"""EXPLAIN: render the chosen plan with estimates, actuals and provenance.

The report answers the three questions a plan investigation starts with:

* **what runs where** — the plan tree with each operator's engine
  assignment (derived from the transfer operations);
* **how good were the estimates** — estimated output cardinality and cost
  per operator, side by side with the *actual* cardinality when the query
  was executed (``EXPLAIN ANALYZE``);
* **why this plan** — the optimizer counters (plans considered, memo groups
  and expressions, sweeps), the catalogue rules that fired during
  exploration, and the provenance rules that derived the chosen plan.

Actual cardinalities come from two sources merged: the stratum executor
records the output of every node it evaluates itself
(:attr:`~repro.stratum.executor.StratumExecutionReport.node_rows`), and a
reference evaluation walk fills in the operators inside DBMS fragments,
which the substrate executes as one opaque call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple as PyTuple

from ..core.cost import OperatorCostAnnotation
from ..core.operations import Operation
from ..core.operations.base import EvaluationContext, PlanPath, ROOT_PATH
from ..core.query import QueryResultSpec
from ..stratum.partition import partition_plan


def actual_cardinalities(
    plan: Operation, context: EvaluationContext
) -> Dict[PlanPath, int]:
    """Evaluate ``plan`` once, bottom-up, recording each node's output size.

    Child results are shared (each subtree is evaluated exactly once), the
    same scheme :func:`repro.core.cost.measure_cost` uses; unlike the
    stratum executor this breaks out every operator, including those inside
    DBMS fragments.
    """
    actuals: Dict[PlanPath, int] = {}

    def visit(node: Operation, path: PlanPath):
        child_results = [
            visit(child, path + (index,)) for index, child in enumerate(node.children)
        ]
        result = node._evaluate(child_results, context)
        actuals[path] = len(result)
        return result

    visit(plan, ROOT_PATH)
    return actuals


@dataclass(frozen=True)
class OperatorLine:
    """One row of the EXPLAIN plan table."""

    path: PlanPath
    label: str
    engine: str
    estimated_rows: float
    cost: float
    actual_rows: Optional[int] = None
    physical: Optional[str] = None
    """The physical algorithm the executing engine runs this operator with
    (``hash: …``, ``interval: …``, ``nested-loop``, ``fused into σ``):
    every stratum-side join shape carries one, and so does a DBMS-side
    σ-over-product pair the substrate fuses into its native hash join;
    ``None`` where the reference/fast-path implementation runs as-is."""
    time_seconds: Optional[float] = None
    """Inclusive wall-clock (children included) the operator took during the
    ANALYZE execution; ``None`` — rendered ``-`` like the actuals — for
    operators the executing engine never drained separately: a product
    fused into a join, or the nodes inside an opaque DBMS fragment."""

    @property
    def depth(self) -> int:
        return len(self.path)


@dataclass
class ExplainReport:
    """Everything ``Session.explain`` learned about one statement."""

    statement: str
    normalized_statement: str
    fingerprint: str
    epoch: int
    cache_hit: bool
    analyze: bool
    query_spec: QueryResultSpec
    plan: Operation
    lines: List[OperatorLine] = field(default_factory=list)
    estimated_cost: float = 0.0
    initial_cost: float = 0.0
    plans_considered: int = 1
    memo_groups: Optional[int] = None
    memo_expressions: Optional[int] = None
    sweeps: Optional[int] = None
    rule_usage: Mapping[str, int] = field(default_factory=dict)
    rules_applied: PyTuple[str, ...] = ()
    dbms_calls: Optional[int] = None
    transferred_tuples: Optional[int] = None
    result_rows: Optional[int] = None
    #: Rows per columnar chunk the stratum executed with; only set (and
    #: shown) for ``EXPLAIN ANALYZE``.
    batch_size: Optional[int] = None
    execute_seconds: Optional[float] = None

    @property
    def improvement_factor(self) -> float:
        """Initial-plan cost over chosen-plan cost."""
        if self.estimated_cost == 0:
            return 1.0
        return self.initial_cost / self.estimated_cost

    def line_for(self, path: PlanPath) -> OperatorLine:
        """The plan-table row at one plan path."""
        for line in self.lines:
            if line.path == path:
                return line
        raise KeyError(f"no operator at plan path {path!r}")

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """The report as the text ``EXPLAIN`` prints."""
        out: List[str] = []
        out.append(f"statement:  {self.normalized_statement}")
        out.append(f"result:     {self.query_spec}")
        out.append(
            f"plan cache: {'hit' if self.cache_hit else 'miss'}"
            f"  (fingerprint={self.fingerprint}, statistics epoch={self.epoch})"
        )
        out.append("")
        out.append(self._render_tree())
        out.append("")
        out.append(
            f"estimated cost: {self.estimated_cost:.1f}"
            f"  (initial plan {self.initial_cost:.1f},"
            f" improvement {self.improvement_factor:.2f}x)"
        )
        counters = [f"plans considered={self.plans_considered}"]
        if self.memo_groups is not None:
            counters.append(f"memo groups={self.memo_groups}")
        if self.memo_expressions is not None:
            counters.append(f"memo expressions={self.memo_expressions}")
        if self.sweeps is not None:
            counters.append(f"sweeps={self.sweeps}")
        out.append("optimizer:  " + ", ".join(counters))
        if self.rule_usage:
            fired = ", ".join(
                f"{name}×{count}" for name, count in sorted(self.rule_usage.items())
            )
            out.append(f"rules fired during exploration: {fired}")
        if self.rules_applied:
            out.append("rules in chosen plan: " + ", ".join(self.rules_applied))
        if self.analyze:
            execution = []
            if self.result_rows is not None:
                execution.append(f"result rows={self.result_rows}")
            if self.dbms_calls is not None:
                execution.append(f"dbms calls={self.dbms_calls}")
            if self.transferred_tuples is not None:
                execution.append(f"transferred tuples={self.transferred_tuples}")
            execution.append(f"batch size={self.batch_size}")
            if self.execute_seconds is not None:
                execution.append(f"time={self.execute_seconds * 1e3:.3f}ms")
            if execution:
                out.append("execution:  " + ", ".join(execution))
        return "\n".join(out)

    def _render_tree(self) -> str:
        by_path = {line.path: line for line in self.lines}
        rows: List[PyTuple[str, OperatorLine]] = []

        def walk(node: Operation, path: PlanPath, prefix: str, connector: str, child_prefix: str) -> None:
            line = by_path[path]
            text = prefix + connector + line.label
            if line.physical is not None:
                text += f" [{line.physical}]"
            rows.append((text, line))
            for index, child in enumerate(node.children):
                last = index == len(node.children) - 1
                walk(
                    child,
                    path + (index,),
                    child_prefix,
                    "└─ " if last else "├─ ",
                    child_prefix + ("   " if last else "│  "),
                )

        walk(self.plan, ROOT_PATH, "", "", "")
        width = max(len(text) for text, _ in rows)
        # Time columns appear only on ANALYZE runs that measured anything;
        # percentages are of the root's inclusive wall-clock.
        total = self.execute_seconds
        show_times = self.analyze and any(line.time_seconds is not None for _, line in rows)
        rendered = []
        for text, line in rows:
            actual = "-" if line.actual_rows is None else str(line.actual_rows)
            row = (
                f"{text.ljust(width)}  [{line.engine}]"
                f"  est rows={line.estimated_rows:.1f}"
                f"  actual={actual}"
                f"  cost={line.cost:.1f}"
            )
            if show_times:
                if line.time_seconds is None:
                    row += "  time=-"
                else:
                    row += f"  time={line.time_seconds * 1e3:.3f}ms"
                    if total:
                        row += f" ({min(100.0, 100.0 * line.time_seconds / total):.0f}%)"
            rendered.append(row)
        return "\n".join(rendered)

    def __str__(self) -> str:
        return self.render()


def build_operator_lines(
    plan: Operation,
    annotations: Mapping[PlanPath, OperatorCostAnnotation],
    actuals: Optional[Mapping[PlanPath, int]] = None,
    timings: Optional[Mapping[PlanPath, PyTuple[float, float]]] = None,
) -> List[OperatorLine]:
    """Assemble the plan-table rows from cost annotations, actuals and timings.

    ``timings`` maps plan paths to ``(start, duration)`` pairs as recorded in
    :attr:`~repro.stratum.executor.StratumExecutionReport.node_timings`.
    """
    partition = partition_plan(plan)
    lines: List[OperatorLine] = []
    for path, node in plan.locations():
        annotation = annotations[path]
        timing = None if timings is None else timings.get(path)
        lines.append(
            OperatorLine(
                path=path,
                label=node.label(),
                engine=partition.engine_of(path),
                estimated_rows=annotation.output_cardinality,
                cost=annotation.work,
                actual_rows=None if actuals is None else actuals.get(path),
                physical=annotation.physical,
                time_seconds=None if timing is None else timing[1],
            )
        )
    return lines
