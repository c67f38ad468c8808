"""The observability layer: tracing, metrics, timings, slow-query log.

Everything here is deterministic: traces run on a manually advanced clock
(injected through :class:`repro.obs.Tracer`), sampling is modular rather
than random, and the thread-safety hammers assert exact final counts after
a barrier-released burst (mirroring ``tests/test_concurrency.py``).
"""

from __future__ import annotations

import json
import logging
import threading

import pytest

from repro.obs import MetricsRegistry, SlowQueryLog, Tracer, q_error
from repro.options import ExecutionOptions
from repro.session import Session
from repro.stratum import TemporalDatabase
from repro.stratum.executor import StratumExecutor
from repro.tsql.parser import parse_statement
from repro.workloads import PAPER_SQL, POINT_SQL, employee_relation, project_relation


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


class TestTracer:
    def test_spans_nest_and_measure_on_the_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.start_trace("request", statement="SELECT 1")
        with trace.span("parse"):
            clock.advance(0.25)
        with trace.span("execute") as execute:
            with trace.span("scan"):
                clock.advance(1.0)
            clock.advance(0.5)
            execute.set(rows=7)
        tracer.finish(trace)
        root = trace.root
        assert root.duration == pytest.approx(1.75)
        parse, execute_span = root.children
        assert parse.name == "parse" and parse.duration == pytest.approx(0.25)
        assert execute_span.duration == pytest.approx(1.5)
        assert execute_span.attributes["rows"] == 7
        (scan,) = execute_span.children
        assert scan.start == pytest.approx(0.25) and scan.duration == pytest.approx(1.0)

    def test_sampling_is_deterministic_modular(self):
        clock = ManualClock()
        tracer = Tracer(sample_every=3, clock=clock)
        sampled = [tracer.start_trace("request") is not None for _ in range(9)]
        assert sampled == [True, False, False, True, False, False, True, False, False]

    def test_disabled_tracer_returns_none_without_reading_the_clock(self):
        calls = []

        def clock():
            calls.append(1)
            return 0.0

        assert Tracer(enabled=False, clock=clock).start_trace("request") is None
        assert Tracer(sample_every=0, clock=clock).start_trace("request") is None
        assert calls == []

    def test_recent_is_a_bounded_ring(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, keep=2)
        ids = []
        for _ in range(3):
            trace = tracer.start_trace("request")
            ids.append(trace.trace_id)
            tracer.finish(trace)
        recent = tracer.recent()
        assert [t.trace_id for t in recent] == ids[-2:]
        assert [t.trace_id for t in tracer.recent(limit=1)] == ids[-1:]
        assert len(set(ids)) == 3

    def test_finish_is_none_safe_and_idempotent(self):
        tracer = Tracer(clock=ManualClock())
        tracer.finish(None)
        trace = tracer.start_trace("request")
        tracer.finish(trace)
        duration = trace.duration
        tracer.finish(trace)
        assert trace.duration == duration

    def test_chrome_trace_round_trips_with_the_expected_keys(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.start_trace("request")
        with trace.span("parse", dialect="tsql"):
            clock.advance(0.002)
        tracer.finish(trace)
        exported = json.loads(json.dumps(trace.to_chrome_trace()))
        assert set(exported) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert exported["otherData"]["trace_id"] == trace.trace_id
        events = exported["traceEvents"]
        assert [event["name"] for event in events] == ["request", "parse"]
        for event in events:
            assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ph"] == "X"
        parse_event = events[1]
        assert parse_event["ts"] == pytest.approx(0.0)
        assert parse_event["dur"] == pytest.approx(2000.0)  # microseconds
        assert parse_event["args"] == {"dialect": "tsql"}

    def test_to_dict_preserves_the_span_tree(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.start_trace("request")
        with trace.span("outer"):
            with trace.span("inner"):
                clock.advance(1.0)
        tracer.finish(trace)
        payload = trace.to_dict()
        assert payload["trace_id"] == trace.trace_id
        outer = payload["root"]["children"][0]
        assert outer["name"] == "outer"
        assert outer["children"][0]["name"] == "inner"
        assert outer["children"][0]["duration"] == pytest.approx(1.0)

    def test_tracer_hammer_keeps_the_ring_consistent(self):
        tracer = Tracer(keep=16)
        threads, errors = 8, []
        barrier = threading.Barrier(threads)

        def work():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(200):
                    trace = tracer.start_trace("request")
                    with trace.span("step"):
                        pass
                    tracer.finish(trace)
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
        assert all(trace.duration is not None for trace in recent)


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
        assert result.report.dbms_operator_spans == []

        clock = ManualClock()
        executor = StratumExecutor(database.dbms, clock=clock)
        executor.execute(result.plan)
        report = executor.report
        assert set(report.node_timings) == set(report.node_rows)
        assert all(duration >= 0.0 for _, duration in report.node_timings.values())
        # The shipped fragments' physical operators are timed too.
        assert report.dbms_operator_spans
        assert all(span.rows is not None for span in report.dbms_operator_spans)

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

    def test_trace_operator_rows_match_explain_analyze(self):
        tracer = Tracer()
        session = Session(make_database(), options=ExecutionOptions(tracer=tracer))
        session.execute(PAPER_SQL)
        trace = tracer.recent()[-1]
        execute = trace.find("execute")
        traced_rows = {
            tuple(child.attributes["path"]): child.attributes["rows"]
            for child in execute.children
            if "path" in child.attributes
        }
        assert traced_rows
        explain = session.explain(PAPER_SQL, analyze=True)
        compared = 0
        for line in explain.lines:
            if line.path in traced_rows and line.actual_rows is not None:
                assert traced_rows[line.path] == line.actual_rows
                compared += 1
        assert compared >= 3

    def test_explain_analyze_renders_time_columns(self):
        session = Session(make_database())
        rendered = session.query("EXPLAIN ANALYZE " + PAPER_SQL)
        tree_lines = [l for l in rendered.splitlines() if "est rows=" in l]
        assert all("time=" in line for line in tree_lines)
        # The fused/DBMS-inner convention: unmeasured operators show "-".
        assert any(line.endswith("time=-") for line in tree_lines)
        assert any("%" in line for line in tree_lines)
        assert "time=" in [l for l in rendered.splitlines() if l.startswith("execution:")][0]

    def test_plain_explain_has_no_time_columns(self):
        session = Session(make_database())
        rendered = session.query("EXPLAIN " + PAPER_SQL)
        assert "time=" not in rendered


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
        assert set(payload["phase_seconds"]) == {"parse", "optimize", "execute"}
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
