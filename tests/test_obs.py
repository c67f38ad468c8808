"""The observability layer: tracing, metrics, timings, slow-query log.

Everything here is deterministic: traces run on a manually advanced clock
(injected through :class:`repro.obs.Tracer`), sampling is modular rather
than random, and the thread-safety hammers assert exact final counts after
a barrier-released burst (mirroring ``tests/test_concurrency.py``).
"""

from __future__ import annotations

import doctest
import json
import logging
import threading
import time

import pytest

import repro.obs.trace
from repro.core.exceptions import ParameterError, ParseError, ResourceExhaustedError
from repro.faults import FAULTS, ResourceGuard
from repro.obs import MetricsRegistry, SlowQueryLog, Tracer, q_error
from repro.options import ExecutionOptions
from repro.obs.trace import build_trace
from repro.server import Server
from repro.session import Session
from repro.session.explain import OperatorLine
from repro.stratum import TemporalDatabase
from repro.stratum.executor import StratumExecutor
from repro.stratum.partition import partition_plan
from repro.tsql.parser import parse_statement
from repro.workloads import (
    CONCURRENT_MIX_READS,
    PAPER_SQL,
    POINT_SQL,
    concurrent_mix_operations,
    employee_relation,
    project_relation,
    scaled_paper_workload,
)


class ManualClock:
    """A monotonic clock the test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_database() -> TemporalDatabase:
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


# ---------------------------------------------------------------------------
# Tracer / Trace
# ---------------------------------------------------------------------------


class StepClock:
    """A monotonic clock that advances one second per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def retained(trace_id: str = "t1", error_code=None) -> dict:
    """:func:`build_trace`'s arguments: parse 0.25 s, then execute 1.5 s with a
    1 s scan inside it and a fused product that was never timed."""
    return {
        "trace_id": trace_id,
        "statement": "SELECT 1",
        "phases": {"parse": (0.0, 0.25, {"dialect": "tsql"}), "execute": (0.25, 1.5, {})},
        "operators": [
            OperatorLine((0,), "scan", "dbms", actual_rows=7, time_seconds=1.0, start_seconds=0.25),
            OperatorLine((0, 0), "×", "dbms", actual_rows=7),
        ],
        "error_code": error_code,
    }


class TestTracer:
    def test_build_trace_nests_the_record_under_the_request_span(self):
        trace = build_trace(**retained(error_code="TIMED_OUT"))
        root = trace.root
        assert (root.name, root.start, root.duration) == ("request", 0.0, 1.75)
        assert root.attributes == {
            "statement": "SELECT 1", "error": True, "error_code": "TIMED_OUT"
        }
        parse, execute = root.children
        assert (parse.name, parse.duration) == ("parse", 0.25)
        assert parse.attributes == {"dialect": "tsql"}
        (scan,) = execute.children  # the untimed line builds no span
        assert (scan.name, scan.start, scan.duration) == ("scan", 0.25, 1.0)
        assert scan.attributes == {"path": [0], "rows": 7, "engine": "dbms"}
        assert "error" not in build_trace(**retained()).root.attributes

    def test_spans_nest_and_measure_on_the_injected_clock(self):
        tracer = Tracer(clock=StepClock())
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        result = session.execute(PAPER_SQL)
        (trace,) = tracer.recent()
        assert trace.trace_id == result.trace_id
        root = trace.root
        assert [span.name for span in root.children] == ["parse", "optimize", "bind", "execute"]
        # Every stamp is a read of the injected clock: whole seconds, phases
        # back to back, operators inside the execute span.
        for span in trace.spans():
            assert span.start == int(span.start) and span.duration == int(span.duration) > 0
        for before, after in zip(root.children, root.children[1:]):
            assert before.start + before.duration <= after.start
        first, last = root.children[0], root.children[-1]
        assert root.start == first.start
        assert root.start + root.duration == last.start + last.duration
        execute = trace.find("execute")
        assert execute.children
        for span in execute.children:
            assert execute.start <= span.start
            assert span.start + span.duration <= execute.start + execute.duration

    def test_sampling_is_deterministic_modular(self):
        tracer = Tracer(sample_every=3, clock=ManualClock())
        sampled = [tracer.sample() is not None for _ in range(9)]
        assert sampled == [True, False, False, True, False, False, True, False, False]

    def test_disabled_tracer_returns_none_without_reading_the_clock(self):
        calls = []

        def clock():
            calls.append(1)
            return 0.0

        assert Tracer(enabled=False, clock=clock).sample() is None
        assert Tracer(sample_every=0, clock=clock).sample() is None
        assert calls == []

    def test_recent_is_a_bounded_ring(self):
        tracer = Tracer(clock=ManualClock(), keep=2)
        ids = []
        for _ in range(3):
            ids.append(tracer.sample())
            tracer.retain(**retained(ids[-1]))
        recent = tracer.recent()
        assert [t.trace_id for t in recent] == ids[-2:]
        assert [t.trace_id for t in tracer.recent(limit=1)] == ids[-1:]
        assert tracer.recent(limit=0) == []
        assert len(set(ids)) == 3

    def test_chrome_trace_round_trips_with_the_expected_keys(self):
        trace = build_trace(**retained())
        exported = json.loads(json.dumps(trace.to_chrome_trace()))
        assert set(exported) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert exported["otherData"]["trace_id"] == trace.trace_id
        events = exported["traceEvents"]
        assert [event["name"] for event in events] == ["request", "parse", "execute", "scan"]
        for event in events:
            assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ph"] == "X"
        parse_event, scan_event = events[1], events[3]
        assert parse_event["ts"] == pytest.approx(0.0)
        assert parse_event["dur"] == pytest.approx(250_000.0)  # microseconds
        assert parse_event["args"] == {"dialect": "tsql"}
        assert scan_event["ts"] == pytest.approx(250_000.0)

    def test_to_dict_preserves_the_span_tree(self):
        trace = build_trace(**retained())
        payload = trace.to_dict()
        assert payload["trace_id"] == trace.trace_id
        execute = payload["root"]["children"][1]
        assert execute["name"] == "execute"
        assert execute["children"][0]["name"] == "scan"
        assert execute["children"][0]["duration"] == pytest.approx(1.0)

    def test_tracer_hammer_keeps_the_ring_consistent(self):
        tracer = Tracer(keep=16)
        threads, errors = 8, []
        barrier = threading.Barrier(threads)

        def work():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(200):
                    tracer.retain(**retained(tracer.sample()))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        recent = tracer.recent()
        assert len(recent) == 16
        assert len({trace.trace_id for trace in recent}) == 16
        assert all(trace.duration == 1.75 for trace in recent)

    def test_the_tracer_doctest_passes(self):
        failed, attempted = doctest.testmod(repro.obs.trace)
        assert failed == 0 and attempted > 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("depth", "Depth.")
        gauge.set(3)
        gauge.dec()
        histogram = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert counter.value() == 5
        assert gauge.value() == 2
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.55)
        assert snap["buckets"] == [(0.1, 1), (1.0, 2)]

    def test_counters_refuse_to_go_down_and_types_are_sticky(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", "N.")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("n_total", "N.") is counter
        with pytest.raises(ValueError):
            registry.gauge("n_total", "N.")

    def test_labels_create_independent_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("rows_total", "Rows.", labelnames=("kind",))
        counter.labels(kind="select").inc(10)
        counter.labels(kind="append").inc(1)
        assert counter.labels(kind="select").value() == 10
        with pytest.raises(ValueError):
            counter.labels(wrong="x")
        with pytest.raises(ValueError):
            counter.inc()  # labelled instruments need .labels(...)

    def test_exposition_is_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served.").inc(3)
        latency = registry.histogram(
            "latency_seconds", "Latency.", labelnames=("kind",), buckets=(0.1,)
        )
        latency.labels(kind="select").observe(0.05)
        latency.labels(kind="select").observe(0.5)
        registry.callback("queue_depth", "Queued.", lambda: 7)
        text = registry.exposition()
        lines = text.splitlines()
        assert "# HELP requests_total Requests served." in lines
        assert "# TYPE requests_total counter" in lines
        assert "requests_total 3" in lines
        assert "# TYPE latency_seconds histogram" in lines
        assert 'latency_seconds_bucket{kind="select",le="0.1"} 1' in lines
        assert 'latency_seconds_bucket{kind="select",le="+Inf"} 2' in lines
        assert 'latency_seconds_count{kind="select"} 2' in lines
        assert "# TYPE queue_depth gauge" in lines
        assert "queue_depth 7" in lines
        assert text.endswith("\n")

    def test_snapshot_reads_callbacks_lazily(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.callback("boxed", "Boxed.", lambda: box["value"])
        assert registry.snapshot()["boxed"] == 1
        box["value"] = 9
        assert registry.snapshot()["boxed"] == 9
        assert registry.value("boxed") == 9
        assert registry.value("missing", default=0) == 0

    def test_registry_hammer_counts_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "Hammered.")
        gauge = registry.gauge("hammer_gauge", "Hammered.")
        histogram = registry.histogram(
            "hammer_seconds", "Hammered.", labelnames=("kind",), buckets=(0.5,)
        )
        threads, per_thread, errors = 8, 400, []
        barrier = threading.Barrier(threads)

        def work(index: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                child = histogram.labels(kind=f"k{index % 2}")
                for step in range(per_thread):
                    counter.inc()
                    gauge.inc()
                    gauge.dec()
                    child.observe(0.001 * step)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        assert counter.value() == threads * per_thread
        assert gauge.value() == 0
        observed = sum(
            series["count"] for series in registry.snapshot()["hammer_seconds"].values()
        )
        assert observed == threads * per_thread


# ---------------------------------------------------------------------------
# Executor timings + session traces
# ---------------------------------------------------------------------------


class TestExecutionTimings:
    def test_stratum_executor_records_node_timings_only_with_a_clock(self):
        database = make_database()
        session = Session(database)
        result = session.execute(PAPER_SQL)
        assert result.report.node_timings == {}

        clock = ManualClock()
        executor = StratumExecutor(database.dbms, clock=clock)
        executor.execute(result.plan)
        report = executor.report
        assert set(report.node_timings) == set(report.node_rows)
        assert all(duration >= 0.0 for _, duration in report.node_timings.values())
        # The shipped fragments' operators are timed too, by plan path.
        partition = partition_plan(result.plan)
        inner = {path for path in partition.assignment if partition.engine_of(path) == "dbms"}
        assert inner and inner <= set(report.node_timings)

    def test_session_trace_covers_the_lifecycle_with_operator_children(self):
        tracer = Tracer()
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        result = session.execute(PAPER_SQL)
        assert result.trace_id is not None
        trace = tracer.recent()[-1]
        assert trace.trace_id == result.trace_id
        names = [span.name for span in trace.root.children]
        assert names[:4] == ["parse", "optimize", "bind", "execute"]
        optimize = trace.find("optimize")
        assert optimize.attributes["cache_hit"] is False
        assert optimize.attributes["memo.tasks"] > 0
        assert optimize.attributes["memo.groups"] > 0
        execute = trace.find("execute")
        assert execute.attributes["rows"] == len(result.relation)
        assert execute.children  # per-operator spans

    def test_a_dbms_inner_operator_is_a_span_with_path_rows_and_engine(self):
        tracer = Tracer()
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        analyzed = session.explain(PAPER_SQL)
        spans = tracer.recent()[-1].find("execute").children
        assert {span.attributes["engine"] for span in spans} == {"stratum", "dbms"}
        inner = [span for span in spans if span.attributes["engine"] == "dbms"]
        assert inner
        for span in inner:
            line = analyzed.line_for(tuple(span.attributes["path"]))
            assert line.engine == "dbms" and span.name == line.label
            assert span.attributes["rows"] == line.actual_rows is not None
            assert span.duration == line.time_seconds is not None

    def test_explain_analyze_renders_time_columns(self):
        session = Session(make_database())
        rendered = session.query("EXPLAIN ANALYZE " + PAPER_SQL)
        tree_lines = [l for l in rendered.splitlines() if "est rows=" in l]
        assert all("time=" in line for line in tree_lines)
        # One operator tree: every node is measured, DBMS-inner ones too
        # (only an absorbed rdupT, or a product fused into a join, shows "-").
        assert [line.endswith("time=-") for line in tree_lines] == [
            "[absorbed into " in line for line in tree_lines
        ]
        assert any("[absorbed into " in line for line in tree_lines)
        assert any("[dbms]" in line for line in tree_lines)
        assert any("%" in line for line in tree_lines)
        assert "time=" in [l for l in rendered.splitlines() if l.startswith("execution:")][0]

    def test_plain_explain_has_no_time_columns(self):
        session = Session(make_database())
        rendered = session.query("EXPLAIN " + PAPER_SQL)
        assert "time=" not in rendered


# ---------------------------------------------------------------------------
# One record per request: every surface is a rendering of it
# ---------------------------------------------------------------------------


class CountingClock:
    """:func:`time.perf_counter` that counts its reads."""

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return time.perf_counter()


def slow_query_payloads(caplog):
    return [r.slow_query for r in caplog.records if hasattr(r, "slow_query")]


class TestOneRequestRecord:
    @pytest.mark.parametrize("read", CONCURRENT_MIX_READS, ids=lambda read: read.name)
    def test_trace_slow_log_and_explain_analyze_are_one_record(self, read, caplog):
        """One execution; equal with ``==`` because they are the same numbers."""
        tracer = Tracer()
        session = Session(
            make_database(), options=ExecutionOptions(tracer=tracer, slow_query_seconds=0.0)
        )
        with caplog.at_level(logging.WARNING, logger="repro.slow_query"):
            result = session.execute("EXPLAIN ANALYZE " + read.statement, read.params[0])
        report = result.explain
        (trace,) = tracer.recent()
        (logged,) = slow_query_payloads(caplog)
        assert trace.trace_id == result.trace_id == logged["trace_id"]

        spans = {span.name: span.duration for span in trace.root.children}
        assert list(spans) == ["parse", "optimize", "bind", "execute"]
        assert spans == logged["phase_seconds"] == report.phase_seconds == result.phase_seconds()
        timings = result.timings
        assert list(spans.values()) == [
            timings.parse_seconds,
            timings.plan_seconds,
            timings.bind_seconds,
            timings.execute_seconds,
        ]
        assert logged["total_seconds"] == timings.total_seconds == sum(spans.values())

        explained = {
            line.path: (line.label, line.actual_rows, line.time_seconds)
            for line in report.lines
            if line.actual_rows is not None
        }
        slow = {
            tuple(op["path"]): (op["operator"], op["actual_rows"], op["seconds"])
            for op in logged["operators"]
        }
        assert slow == explained
        traced = {
            tuple(span.attributes["path"]): (span.name, span.attributes["rows"], span.duration)
            for span in trace.find("execute").children
            if "path" in span.attributes
        }
        timed = {path: line for path, line in explained.items() if line[2] is not None}
        assert traced == timed and traced
        # The stratum's own read-out, which the frozen ledger classifies by path.
        assert {path: rows for path, (_, rows, _) in traced.items()} == result.report.node_rows
        assert report.execute_seconds == traced[()][2]

    def test_unsampled_request_builds_no_span_and_reads_no_operator_clock(self, monkeypatch):
        built = []
        original = repro.obs.trace.Span.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(repro.obs.trace.Span, "__init__", counting_init)
        clock = CountingClock()
        tracer = Tracer(sample_every=2, clock=clock)
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        sampled = session.execute(PAPER_SQL)
        sampled_reads, clock.reads = clock.reads, 0
        unsampled = session.execute(PAPER_SQL)
        assert sampled.trace_id is not None and unsampled.trace_id is None
        # Two reads per phase and nothing else; sampling turns the operators' on.
        assert clock.reads == 2 * len(unsampled.phases) == 8
        assert sampled_reads > clock.reads
        assert unsampled.report.node_timings == {} and sampled.report.node_timings
        # No span exists until somebody looks — then the sampled request's do.
        assert built == []
        (trace,) = tracer.recent()
        assert trace.trace_id == sampled.trace_id
        assert len(built) == len(trace.spans()) > 5
        tracer.recent()[0].to_dict()
        assert len(built) == 2 * len(trace.spans())

    def test_ring_entries_hold_no_relation_plan_or_operator(self):
        tracer = Tracer()
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        session.execute(PAPER_SQL)
        (entry,) = tracer._finished

        def leaves(value):
            if isinstance(value, dict):
                for item in value.values():
                    yield from leaves(item)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            elif hasattr(value, "__dataclass_fields__"):
                yield from leaves(vars(value))
            else:
                yield value

        assert all(
            value is None or isinstance(value, (str, int, float, bool))
            for value in leaves(entry)
        )


#: (statement, params, options, armed fault point, expected status, error
#: code, the phases the request entered)
FAILING_REQUESTS = {
    "parse": ("SELEC EmpName FROM", (), {}, None, "error", "PARSE_ERROR", ["parse"]),
    "bind": (POINT_SQL, (), {}, None, "error", "PARAMETER_ERROR", ["parse", "optimize", "bind"]),
    "degraded-search": (
        PAPER_SQL, (), {}, "search.memo", "ok", None, ["parse", "optimize", "bind", "execute"],
    ),
    "mid-drain": (
        PAPER_SQL,
        (),
        {"max_rows_per_request": 1},
        None,
        "error",
        "RESOURCE_EXHAUSTED",
        ["parse", "optimize", "bind", "execute"],
    ),
}


class TestFailedRequestsLeaveAFinishedRecord:
    @pytest.mark.parametrize("case", FAILING_REQUESTS)
    def test_through_the_server(self, case):
        statement, params, options, fault, status, code, phases = FAILING_REQUESTS[case]
        tracer = Tracer()
        server = Server(
            make_database(),
            max_concurrency=1,
            options=ExecutionOptions(tracer=tracer, **options),
        )
        with server:
            if fault is None:
                response = server.query(statement, params)
            else:
                with FAULTS.armed(fault, times=1):
                    response = server.query(statement, params)
        assert (response.status, response.code) == (status, code)
        # Session and server together count the failure exactly once.
        errors = [
            line
            for line in server.metrics_exposition().splitlines()
            if line.startswith("repro_request_errors_total{")
        ]
        assert errors == ([f'repro_request_errors_total{{code="{code}"}} 1'] if code else [])
        # Nothing dangling in the ring: one finished trace, every span closed.
        (trace,) = tracer.recent()
        assert [span.name for span in trace.root.children] == phases
        assert all(span.duration is not None for span in trace.spans())
        assert trace.root.attributes.get("error_code") == code
        failing = trace.root.children[-1]
        assert failing.attributes.get("error_code") == code
        if fault is not None:
            assert trace.find("optimize").attributes["degraded"] == "memo_search:FAULT_INJECTED"
            assert 'repro_degraded_total{stage="memo_search"} 1' in server.metrics_exposition()

    @pytest.mark.parametrize(
        "statement, params, guard, error",
        [
            ("SELEC EmpName FROM", (), None, ParseError),
            (POINT_SQL, (), None, ParameterError),
            (PAPER_SQL, (), ResourceGuard(max_rows=1), ResourceExhaustedError),
        ],
    )
    def test_session_counts_its_own_failures_once(self, statement, params, guard, error):
        metrics = MetricsRegistry()
        session = Session(make_database(), options=ExecutionOptions(metrics=metrics))
        with pytest.raises(error):
            session.execute(statement, params, guard=guard)
        assert f'repro_request_errors_total{{code="{error.code}"}} 1' in metrics.exposition()
        assert "repro_request_seconds_count" not in metrics.exposition()


class TestTracesUnderLoad:
    def test_traces_actually_recorded_under_load(self):
        """Four clients on four workers: the ring keeps the last N real traces."""
        clients, operations = 4, 16
        employees, projects = scaled_paper_workload(8)
        database = TemporalDatabase()
        database.register("EMPLOYEE", employees)
        database.register("PROJECT", projects)
        tracer = Tracer(keep=8)
        errors: list = []

        def client(index: int) -> None:
            for _, statement, params in concurrent_mix_operations(operations, client=index):
                response = server.query(statement, params=params)
                if not response.ok:  # pragma: no cover - failure path
                    errors.append(response.error)

        with Server(
            database,
            max_concurrency=4,
            queue_limit=None,
            options=ExecutionOptions(tracer=tracer),
        ) as server:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        recent = tracer.recent()
        assert len(recent) == 8  # ring holds the last N of clients * operations requests
        for trace in recent:
            names = [span.name for span in trace.root.children]
            assert "parse" in names and "execute" in names


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_emits_structured_record_with_q_errors(self, caplog):
        session = Session(make_database(), options=ExecutionOptions(slow_query_seconds=0.0))
        with caplog.at_level(logging.WARNING, logger="repro.slow_query"):
            result = session.execute(PAPER_SQL)
        records = [r for r in caplog.records if hasattr(r, "slow_query")]
        assert records
        payload = records[-1].slow_query
        assert payload["fingerprint"] == result.fingerprint
        assert list(payload["phase_seconds"]) == ["parse", "optimize", "bind", "execute"]
        assert payload["chosen_plan_cost"] > 0
        assert payload["operators"]
        assert all(op["q_error"] >= 1.0 for op in payload["operators"])
        assert payload["max_q_error"] == max(op["q_error"] for op in payload["operators"])
        json.dumps(payload)  # the record must be structured/serializable

    def test_off_by_default(self, caplog):
        session = Session(make_database())
        with caplog.at_level(logging.WARNING, logger="repro.slow_query"):
            session.execute(POINT_SQL, params=("Sales",))
        assert [r for r in caplog.records if hasattr(r, "slow_query")] == []

    def test_threshold_gates_emission(self):
        log = SlowQueryLog(0.5)
        assert log.enabled
        assert not log.should_log(0.4)
        assert log.should_log(0.5)
        assert not SlowQueryLog(None).should_log(100.0)

    def test_q_error_is_symmetric_and_floored(self):
        assert q_error(10, 2) == pytest.approx(5.0)
        assert q_error(2, 10) == pytest.approx(5.0)
        assert q_error(0, 0) == 1.0
        assert q_error(0.5, 1) == 1.0


# ---------------------------------------------------------------------------
# Statement kinds
# ---------------------------------------------------------------------------


class TestStatementKind:
    @pytest.mark.parametrize(
        "statement, kind",
        [
            (POINT_SQL, "select"),
            (PAPER_SQL, "compound"),
            ("SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept", "aggregate"),
            ("EXPLAIN " + POINT_SQL, "explain"),
        ],
    )
    def test_kind_labels_are_low_cardinality(self, statement, kind):
        assert parse_statement(statement).kind == kind
