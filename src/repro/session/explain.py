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

The report is a *rendering* of the request's record
(:class:`~repro.session.session.SessionResult`): :func:`build_operator_lines`
joins plan path → label, engine, estimate, actual rows and inclusive time
once per request — the one walk of the plan in the session and
observability layers — and the EXPLAIN table, the slow-query log's
``operators`` and the trace's operator spans all read those lines, so they
cannot disagree.  Actual rows and times come from the execution alone: the
request's plan runs as one operator tree whose operators, in both engines,
carry their plan paths
(:attr:`~repro.core.lowering.ExecutionReport.node_rows`/``node_timings``),
so ``EXPLAIN ANALYZE`` evaluates nothing a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple as PyTuple

from ..core.cost import OperatorCostAnnotation
from ..core.lowering import ExecutionReport
from ..core.operations import Operation
from ..core.operations.base import PlanPath
from ..core.query import QueryResultSpec
from ..stratum.partition import partition_plan

if TYPE_CHECKING:
    from .session import SessionResult


@dataclass(frozen=True)
class OperatorLine:
    """One row of the EXPLAIN plan table."""

    path: PlanPath
    label: str
    engine: str
    estimated_rows: Optional[float] = None
    """Estimated output cardinality and (``cost``) work; ``None`` on the
    lines of a request that was only traced — the costing pass is paid for
    EXPLAIN and for the slow-query log, not per sampled request."""
    cost: Optional[float] = None
    actual_rows: Optional[int] = None
    physical: Optional[str] = None
    """The description of the node's :func:`~repro.core.lowering.physical_choice`
    — the operator its engine runs it with (``hash: …``, ``interval: …``,
    ``nested-loop``, ``fused into hash join``), or ``fused into σ`` for a
    product the selection above runs as one join: every join shape of
    either engine carries one; ``absorbed into coalT`` (or ``\\T``, ``∪T``)
    for an ``rdupT`` the operator above runs itself; ``kept order`` for a
    sort whose input served its order, so that it sorted nothing
    (:attr:`~repro.core.lowering.ExecutionReport.kept_orders`); ``None``
    where the operator needs no algorithm choice."""
    time_seconds: Optional[float] = None
    """Inclusive wall-clock (children included) the operator took during the
    ANALYZE execution; ``None`` — rendered ``-`` like the actuals — only
    for a product fused into the join above it or an absorbed ``rdupT``,
    which never drain on their own."""
    start_seconds: Optional[float] = None
    """When the operator was first pulled, on the request's clock."""


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
    #: Whether the search that planned the entry re-costed an exploration the
    #: plan cache remembered (``None``: no search ran).
    exploration_reused: Optional[bool] = None
    rule_usage: Mapping[str, int] = field(default_factory=dict)
    rules_applied: PyTuple[str, ...] = ()
    dbms_calls: Optional[int] = None
    transferred_tuples: Optional[int] = None
    result_rows: Optional[int] = None
    #: Rows per columnar chunk the stratum executed with; only set (and
    #: shown) for ``EXPLAIN ANALYZE``.
    batch_size: Optional[int] = None
    execute_seconds: Optional[float] = None
    #: Seconds per lifecycle phase of the request the report renders
    #: (``parse``/``optimize``/``bind``/``execute``).
    phase_seconds: Mapping[str, float] = field(default_factory=dict)

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
        if self.exploration_reused is not None:
            out.append(f"explored:   {'reused' if self.exploration_reused else 'fresh'}")
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
        # The lines are the plan in pre-order; a node is its parent's last
        # child when no line sits at the next sibling's path.
        paths = {line.path for line in self.lines}

        def last(path: PlanPath) -> bool:
            return path[:-1] + (path[-1] + 1,) not in paths

        rows: List[PyTuple[str, OperatorLine]] = []
        for line in self.lines:
            path = line.path
            text = "".join("   " if last(path[:k]) else "│  " for k in range(1, len(path)))
            if path:
                text += "└─ " if last(path) else "├─ "
            text += line.label
            if line.physical is not None:
                text += f" [{line.physical}]"
            rows.append((text, line))
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
    report: Optional[ExecutionReport] = None,
    annotations: Optional[Mapping[PlanPath, OperatorCostAnnotation]] = None,
) -> List[OperatorLine]:
    """Join every plan path to its label, engine, estimate, actuals and time.

    ``report`` is the execution's (absent for a plain ``EXPLAIN``): its
    ``node_rows``/``node_timings`` give the actual rows and the inclusive
    ``(start, duration)`` of every node either engine drained.
    ``annotations`` are the costing pass's, when one was paid.
    """
    partition = partition_plan(plan)
    rows: Mapping[PlanPath, int] = {}
    timings: Mapping[PlanPath, PyTuple[float, float]] = {}
    kept: Sequence[PlanPath] = ()
    if report is not None:
        rows, timings, kept = report.node_rows, report.node_timings, report.kept_orders
    lines: List[OperatorLine] = []
    for path, node in plan.locations():
        annotation = None if annotations is None else annotations[path]
        start, seconds = timings.get(path, (None, None))
        physical = None if annotation is None else annotation.physical
        lines.append(
            OperatorLine(
                path=path,
                label=node.label(),
                engine=partition.engine_of(path),
                estimated_rows=None if annotation is None else annotation.output_cardinality,
                cost=None if annotation is None else annotation.work,
                actual_rows=rows.get(path),
                physical="kept order" if path in kept else physical,
                time_seconds=seconds,
                start_seconds=start,
            )
        )
    return lines


def build_explain_report(
    record: "SessionResult", normalized_statement: str, batch_size: int
) -> ExplainReport:
    """The EXPLAIN rendering of a finished request record (its ``operators`` set).

    The record of an ``EXPLAIN ANALYZE`` is the one that carries an
    execution ``report``.
    """
    optimization = record.optimization
    statistics = None if optimization.search is None else optimization.search.statistics
    report = record.report
    analyze = report is not None
    root = record.operators[0]
    return ExplainReport(
        statement=record.statement,
        normalized_statement=normalized_statement,
        fingerprint=record.fingerprint,
        epoch=record.epoch,
        cache_hit=record.cache_hit,
        analyze=analyze,
        query_spec=record.query_spec,
        plan=record.plan,
        lines=record.operators,
        estimated_cost=optimization.chosen_cost.total,
        initial_cost=optimization.initial_cost.total,
        plans_considered=optimization.plans_considered,
        memo_groups=None if statistics is None else statistics.groups,
        memo_expressions=None if statistics is None else statistics.expressions,
        sweeps=None if statistics is None else statistics.sweeps,
        exploration_reused=None if statistics is None else statistics.exploration_reused,
        rule_usage={} if statistics is None else dict(statistics.rule_usage),
        rules_applied=() if statistics is None else optimization.search.rules_applied,
        dbms_calls=report.dbms_calls if analyze else None,
        transferred_tuples=report.transferred_tuples if analyze else None,
        result_rows=root.actual_rows,
        batch_size=batch_size if analyze else None,
        execute_seconds=root.time_seconds,
        phase_seconds=record.phase_seconds(),
    )
