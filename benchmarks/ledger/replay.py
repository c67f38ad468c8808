"""The traced run: replay operations through the decomposed pipeline.

Every layer is measured from outside, by timing calls into public functions:

    parse → fingerprint → cache get → (miss: translate → optimize_plan → put)
    → bind → StratumExecutor.execute

which is what ``Session.execute`` does in one call (``layers.replay_vs_e2e``
checks the two stay in step).  After each operation a diagnostic pass
re-runs the plan's DBMS fragments alone, times a catalog snapshot, a
``ColumnBatch`` round trip and the wire encoding of the result, and executes
the plan once more with the executor's public ``clock=`` for per-operator
self times.  A span ``(name, start, end, parent, op_id)`` is recorded around
each call; a layer's self time is its span minus its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

from repro.core.operations import (
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Join,
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
)
from repro.obs import Tracer
from repro.server import Response
from repro.server.tcp import response_to_wire
from repro.session import Session
from repro.session.cache import CachedPlan, PlanCache, PlanCacheKey
from repro.session.fingerprint import statement_fingerprint
from repro.session.parameters import bind_parameters
from repro.stratum.columnar import ColumnBatch
from repro.stratum.executor import StratumExecutor
from repro.stratum.partition import partition_plan
from repro.tsql.parser import parse_statement
from repro.tsql.translator import translate
from repro.tsql.unparse import unparse_statement

from .calibrate import tick
from .targets import Checker
from .workloads import Op, Workload, build_database, round_ops, warmup_ops

#: Plan-node type -> operator class of the ``stratum.op.*`` metrics.
OPERATOR_CLASSES = {
    TemporalDuplicateElimination: "temporal",
    TemporalDifference: "temporal",
    TemporalUnion: "temporal",
    TemporalAggregation: "temporal",
    Coalescing: "temporal",
    TemporalJoin: "join",
    Join: "join",
    CartesianProduct: "join",
    TemporalCartesianProduct: "join",
    Sort: "sort",
    Selection: "filter_project",
    Projection: "filter_project",
    TransferToStratum: "transfer",
    TransferToDBMS: "transfer",
    BaseRelation: "transfer",
}

#: Spans that make up one ``Session.execute``-equivalent operation.
PIPELINE = (
    "tsql.parse",
    "session.fingerprint",
    "session.cache_lookup",
    "tsql.translate",
    "search.optimize",
    "session.bind",
    "stratum.execute",
)


#: ``<name>_ms`` metrics: mean calibrated ms per query of the spans (or
#: operator-class self times) called ``<name>``.
MEAN_MS = PIPELINE + (
    "stratum.self",
    "stratum.op.temporal",
    "stratum.op.join",
    "stratum.op.sort",
    "stratum.op.filter_project",
    "stratum.op.transfer",
    "stratum.materialise",
    "dbms.fragment",
    "dbms.optimize",
    "server.snapshot",
    "tcp.encode",
    "tcp.decode",
)
#: Counts reported as a mean per memo search, per query, and as totals.
PER_OPTIMIZATION = (
    "search.memo_groups",
    "search.memo_expressions",
    "search.tasks_attempted",
    "search.tasks_succeeded",
    "search.plans_considered",
)
PER_QUERY = (
    "stratum.transferred_tuples",
    "stratum.dbms_calls",
    "dbms.fragment_rows",
    "tcp.response_bytes",
)
TOTALS = (
    "session.cache_misses",
    "stratum.degraded_operations",
    "dbms.emulated_operations",
)


class Replay:
    """Replays operations in process, recording spans and boundary counts."""

    def __init__(self, workload: Workload, seed: int, checker: Checker) -> None:
        self.workload, self.seed, self.checker = workload, seed, checker
        self.database = build_database(workload.scale, seed)
        self.cache = PlanCache()
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: (op_id, operator class, self seconds) from the clocked passes.
        self.operator_self: List[tuple] = []
        self.operations = 0
        self.appends = 0
        #: op_id -> host speed factor while the operation ran.
        self.speeds: Dict[int, float] = {}
        self._catalog = self.database.dbms.catalog
        for op in warmup_ops(workload):
            self._query(op, record=False)
        self.counts.clear()

    # -- span plumbing -------------------------------------------------------------

    def _span(self, name: str, start: float, end: float, parent: Optional[int], op_id: int) -> int:
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "op_id": op_id}
        )
        return len(self.spans) - 1

    def _timed(self, name: str, parent: Optional[int], op_id: int, function, *args):
        start = time.perf_counter()
        result = function(*args)
        return result, self._span(name, start, time.perf_counter(), parent, op_id)

    # -- one operation ---------------------------------------------------------------

    def _schemas(self):
        return {name: self._catalog.table(name).schema for name in self._catalog.table_names()}

    def _plan_entry(self, ast, key: PlanCacheKey, root: Optional[int], op_id: int) -> CachedPlan:
        initial_plan, spec = self._timed(
            "tsql.translate", root, op_id, translate, ast, self._schemas()
        )[0]
        outcome, _ = self._timed(
            "search.optimize", root, op_id, self.database.optimize_plan, initial_plan, spec
        )
        search = outcome.search
        if search is not None:
            stats = search.statistics
            self.counts["search.optimizations"] += 1
            self.counts["search.memo_groups"] += stats.groups
            self.counts["search.memo_expressions"] += stats.expressions
            self.counts["search.tasks_attempted"] += stats.applications_attempted
            self.counts["search.tasks_succeeded"] += stats.applications_succeeded
            self.counts["search.plans_considered"] += stats.plans_considered
        return CachedPlan(
            key=key,
            plan=outcome.chosen_plan,
            query_spec=spec,
            optimization=outcome,
            parameter_count=ast.parameter_count,
            normalized_statement=unparse_statement(ast),
        )

    def _query(self, op: Op, record: bool = True) -> None:
        mark = len(self.spans)
        op_id = self.operations
        if self.workload.clear_cache:
            self.cache.clear()
        start = time.perf_counter()
        root = self._span("op", start, start, None, op_id)
        ast, _ = self._timed("tsql.parse", root, op_id, parse_statement, op.text)
        fingerprint, _ = self._timed(
            "session.fingerprint", root, op_id, statement_fingerprint, ast
        )
        epoch = self.database.statistics_epoch()
        key = PlanCacheKey(fingerprint=fingerprint, epoch=epoch)
        entry, _ = self._timed("session.cache_lookup", root, op_id, self.cache.get, key)
        hit = entry is not None
        if not hit:
            self._timed("session.cache_lookup", root, op_id, self.cache.purge_stale, epoch)
            entry = self._plan_entry(ast, key, root, op_id)
            self._timed("session.cache_lookup", root, op_id, self.cache.put, entry)
        plan = entry.plan
        if op.params:
            plan, _ = self._timed(
                "session.bind", root, op_id, bind_parameters, entry.plan, op.params
            )
        batch_size = self.database.options.batch_size
        executor = StratumExecutor(self.database.dbms, batch_size=batch_size)
        relation, execute_span = self._timed(
            "stratum.execute", root, op_id, executor.execute, plan
        )
        self.spans[root]["end"] = self.spans[-1]["end"]
        if not record:
            del self.spans[mark:]
            return
        self.operations += 1
        self.counts["session.cache_misses"] += not hit
        rows = [t.values() for t in relation.tuples]
        self.checker.check_rows(op, relation.schema.attributes, rows, self.appends)
        self._diagnostics(op_id, plan, relation, executor.report, execute_span, epoch, hit)

    def _diagnostics(self, op_id, plan, relation, report, execute_span, epoch, hit) -> None:
        counts = self.counts
        counts["result_rows"] += len(relation)
        counts["stratum.transferred_tuples"] += report.transferred_tuples
        counts["stratum.dbms_calls"] += report.dbms_calls
        counts["stratum.node_rows"] += sum(report.node_rows.values())
        counts["stratum.degraded_operations"] += len(report.degraded_operations)
        counts["dbms.emulated_operations"] += len(report.dbms_emulated_operations)
        start = time.perf_counter()
        root = self._span("diagnostics", start, start, None, op_id)
        dbms = self.database.dbms
        fragment_seconds = 0.0
        for path in partition_plan(plan).dbms_fragments:
            fragment = plan.subtree_at(path)
            # Logically children of the execute span (self time = execute −
            # fragments), measured by running each fragment again on its own.
            optimized, span = self._timed("dbms.optimize", execute_span, op_id, dbms.optimize, fragment)
            result, span2 = self._timed(
                "dbms.execute", execute_span, op_id, dbms.execute, optimized, False
            )
            fragment_seconds += sum(
                self.spans[s]["end"] - self.spans[s]["start"] for s in (span, span2)
            )
            counts["dbms.fragment_rows"] += len(result.relation)
        self._timed("server.snapshot", root, op_id, self.database.snapshot)
        batch, _ = self._timed(
            "stratum.materialise", root, op_id, ColumnBatch.from_tuples,
            relation.schema, relation.tuples,
        )
        self._timed("stratum.materialise", root, op_id, batch.to_tuples)
        response = Response(
            status="ok", kind="query", relation=relation, epoch=epoch, cache_hit=hit,
            timings={"parse": 0.0, "optimize": 0.0, "execute": 0.0}, request_id=op_id,
        )
        text, _ = self._timed(
            "tcp.encode", root, op_id, lambda: json.dumps(response_to_wire(response))
        )
        self._timed("tcp.decode", root, op_id, json.loads, text)
        counts["tcp.response_bytes"] += len(text) + 1
        clocked = StratumExecutor(
            dbms, clock=time.perf_counter, batch_size=self.database.options.batch_size
        )
        self._timed("stratum.clocked_pass", root, op_id, clocked.execute, plan)
        self._operator_self_times(op_id, plan, clocked.report.node_timings, fragment_seconds)
        self.spans[root]["end"] = time.perf_counter()

    def _operator_self_times(self, op_id, plan, node_timings, fragment_seconds: float) -> None:
        """Inclusive per-node intervals → self seconds per operator class."""
        for path, (start, duration) in node_timings.items():
            # A pipelined operator's sources are fetched before its own drain
            # starts, so only children inside its interval are subtracted.
            children = sum(
                other_duration
                for other, (other_start, other_duration) in node_timings.items()
                if len(other) == len(path) + 1
                and other[: len(path)] == path
                and start <= other_start
                and other_start + other_duration <= start + duration
            )
            node = plan.subtree_at(path)
            operator = OPERATOR_CLASSES.get(type(node), "other")
            self.operator_self.append((op_id, operator, duration - children))
        # A TS node's interval is the whole DBMS call; what is left after the
        # fragments' own time is the transfer itself.
        self.operator_self.append((op_id, "transfer", -fragment_seconds))

    def _append(self, op: Op) -> None:
        op_id = self.operations
        self.operations += 1
        (inserted, _), _ = self._timed(
            "catalog.append", None, op_id, self.database.append, op.text, op.params
        )
        self.appends += 1
        if inserted == len(op.params):
            self.checker.passed()
        else:
            self.checker.fail(op, f"inserted {inserted} rows")

    def _calibrated(self, op: Op) -> None:
        """Run one operation between two kernel runs; its spans are divided
        by their mean."""
        op_id = self.operations
        before = tick()
        if op.kind == "append":
            self._append(op)
        else:
            self._query(op)
        self.speeds[op_id] = (before + tick()) / 2

    # -- the replay ------------------------------------------------------------------------

    def run(self, rounds: int) -> Dict[str, float]:
        """Replay ``rounds`` rounds (all clients interleaved); per-layer metrics."""
        for round_index in range(rounds):
            plans = [
                round_ops(self.workload, self.seed, round_index, client)
                for client in range(self.workload.clients)
            ]
            for step in range(max(len(ops) for ops in plans)):
                for ops in plans:
                    if step < len(ops):
                        self._calibrated(ops[step])
        return self._metrics()

    def _metrics(self) -> Dict[str, float]:
        seconds: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            seconds[span["name"]] += (span["end"] - span["start"]) / self.speeds[span["op_id"]]
        for op_id, operator, self_seconds in self.operator_self:
            seconds[f"stratum.op.{operator}"] += self_seconds / self.speeds[op_id]
        seconds["dbms.fragment"] = seconds["dbms.optimize"] + seconds["dbms.execute"]
        seconds["stratum.self"] = seconds["stratum.execute"] - seconds["dbms.fragment"]
        counts = self.counts
        queries = self.operations - self.appends
        optimizations = max(1, counts["search.optimizations"])
        metrics = {f"{name}_ms": seconds[name] / queries * 1e3 for name in MEAN_MS}
        metrics.update({name: counts[name] / optimizations for name in PER_OPTIMIZATION})
        metrics.update({name: counts[name] / queries for name in PER_QUERY})
        metrics.update({name: counts[name] for name in TOTALS})
        metrics.update(
            {
                "stratum.transfer_ms": metrics.pop("stratum.op.transfer_ms"),
                "session.cache_hit_ratio": 1 - counts["session.cache_misses"] / queries,
                # One thread: a (statement, epoch) pair is never optimised twice.
                "session.miss_amplification": 1.0 if counts["session.cache_misses"] else 0.0,
                "search.task_success_ratio": counts["search.tasks_succeeded"]
                / max(1, counts["search.tasks_attempted"]),
                "stratum.rows_examined_per_result": counts["stratum.node_rows"]
                / max(1, counts["result_rows"]),
                "layers.coverage": sum(seconds[name] for name in PIPELINE) / seconds["op"],
                "replay.op_ms": seconds["op"] / queries * 1e3,
            }
        )
        return metrics

    def traced_overhead_pct(self, cycles: int) -> float:
        """``Session.execute`` with a ``Tracer`` vs. without, warm cache, in %.

        Per statement the fastest of ``cycles`` executions on each side is
        compared: host interference only ever adds time.
        """
        options = self.database.options
        cache = PlanCache()  # shared, so only one side pays the cold plans
        sessions = [
            Session(self.database, cache=cache, options=options),
            Session(self.database, cache=cache, options=options.replace(tracer=Tracer())),
        ]
        ops = warmup_ops(self.workload)
        best = [[float("inf")] * len(ops), [float("inf")] * len(ops)]
        for cycle in range(cycles + 1):  # cycle 0 fills the plan cache
            for index, op in enumerate(ops):
                for which in ((0, 1) if cycle % 2 else (1, 0)):
                    started = time.perf_counter()
                    sessions[which].execute(op.text, op.params)
                    elapsed = time.perf_counter() - started
                    if cycle:
                        best[which][index] = min(best[which][index], elapsed)
        return (sum(best[1]) / sum(best[0]) - 1) * 100
