"""The fault-injection registry and its injection points across the stack."""

from __future__ import annotations

import time

import pytest

from repro.core.exceptions import (
    CancelledError,
    DataCorruptionError,
    EngineError,
    InjectedFaultError,
    ReproError,
    SchemaError,
    error_code,
)
from repro.core.physical import SourceOp
from repro.core.relation import Relation
from repro.core.schema import INTEGER, RelationSchema
from repro.faults import (
    FAULT_POINTS,
    FAULTS,
    CancellationToken,
    ExecutionControl,
    FaultRegistry,
    FaultSpec,
)
from repro.session import Session
from repro.tsql import parse_statement


def make_session(temporal_db):
    return Session(temporal_db)


class TestFaultSpec:
    def test_validates_kind_latency_and_rate(self):
        with pytest.raises(ValueError):
            FaultSpec("dbms.scan", "explode")
        with pytest.raises(ValueError):
            FaultSpec("dbms.scan", "latency", latency=0.0)
        with pytest.raises(ValueError):
            FaultSpec("dbms.scan", "error", rate=0.0)
        with pytest.raises(ValueError):
            FaultSpec("dbms.scan", "error", rate=1.5)

    def test_times_bounds_firing(self):
        spec = FaultSpec("dbms.scan", "error", times=2)
        assert [spec.should_fire() for _ in range(4)] == [True, True, False, False]
        assert spec.fired == 2

    def test_unbounded_times(self):
        spec = FaultSpec("dbms.scan", "error", times=None)
        assert all(spec.should_fire() for _ in range(10))

    def test_seeded_rate_is_deterministic(self):
        a = FaultSpec("dbms.scan", "error", times=None, rate=0.5, seed=42)
        b = FaultSpec("dbms.scan", "error", times=None, rate=0.5, seed=42)
        decisions_a = [a.should_fire() for _ in range(50)]
        decisions_b = [b.should_fire() for _ in range(50)]
        assert decisions_a == decisions_b
        assert True in decisions_a and False in decisions_a

    def test_make_exception_default_class_and_template(self):
        assert isinstance(FaultSpec("dbms.scan", "error").make_exception(), InjectedFaultError)
        from_class = FaultSpec("dbms.scan", "error", exception=EngineError).make_exception()
        assert isinstance(from_class, EngineError)
        template = EngineError("disk on fire")
        first = FaultSpec("dbms.scan", "error", exception=template).make_exception()
        assert isinstance(first, EngineError) and first is not template
        assert str(first) == "disk on fire"


class TestFaultRegistry:
    def test_inactive_by_default_and_unknown_point_rejected(self):
        registry = FaultRegistry()
        assert registry.active is False
        with pytest.raises(ValueError, match="unknown fault point"):
            registry.arm("no.such.point")

    def test_armed_context_arms_and_disarms(self):
        registry = FaultRegistry()
        with registry.armed("dbms.scan", times=1) as spec:
            assert registry.active is True
            with pytest.raises(InjectedFaultError):
                registry.check("dbms.scan")
            assert spec.fired == 1
            registry.check("dbms.scan")  # times exhausted: no-op
        assert registry.active is False
        registry.check("dbms.scan")  # disarmed: no-op
        assert registry.fired("dbms.scan") == 1  # history survives disarm

    def test_reset_clears_everything(self):
        registry = FaultRegistry()
        registry.arm("dbms.scan")
        with pytest.raises(InjectedFaultError):
            registry.check("dbms.scan")
        registry.reset()
        assert registry.active is False
        assert registry.fired("dbms.scan") == 0
        assert registry.snapshot_fired() == {}

    def test_snapshot_fired_merges_live_and_history(self):
        registry = FaultRegistry()
        with registry.armed("tsql.parse", times=1):
            with pytest.raises(InjectedFaultError):
                registry.check("tsql.parse")
        registry.arm("dbms.scan", times=2)
        with pytest.raises(InjectedFaultError):
            registry.check("dbms.scan")
        assert registry.snapshot_fired() == {"tsql.parse": 1, "dbms.scan": 1}

    def test_latency_fault_sleeps(self):
        registry = FaultRegistry()
        with registry.armed("dbms.scan", kind="latency", latency=0.05):
            started = time.perf_counter()
            registry.check("dbms.scan")
            assert time.perf_counter() - started >= 0.045

    def test_latency_sleep_interrupted_by_cancellation(self):
        registry = FaultRegistry()
        token = CancellationToken()
        token.cancel("stop the stall")
        with registry.armed("dbms.scan", kind="latency", latency=10.0):
            started = time.perf_counter()
            with pytest.raises(CancelledError):
                registry.check("dbms.scan", token=token)
            assert time.perf_counter() - started < 1.0

    def test_corrupt_kind_raises_at_plain_check_sites(self):
        registry = FaultRegistry()
        with registry.armed("dbms.scan", kind="corrupt"):
            with pytest.raises(DataCorruptionError) as excinfo:
                registry.check("dbms.scan")
        assert excinfo.value.code == "DATA_CORRUPTED"

    def test_corrupt_rows_replaces_one_value_without_mutating_input(self):
        registry = FaultRegistry()
        rows = [["Alice", "Sales", 1, 5]]
        with registry.armed("catalog.append", kind="corrupt"):
            corrupted = registry.corrupt_rows("catalog.append", rows)
        assert rows == [["Alice", "Sales", 1, 5]]
        assert corrupted[0][0] is not rows[0][0]
        assert corrupted[0][1:] == ["Sales", 1, 5]

    def test_corrupt_rows_passthrough_when_unarmed_or_error_kind(self):
        registry = FaultRegistry()
        rows = (("Alice", "Sales", 1, 5),)
        assert registry.corrupt_rows("catalog.append", rows) is rows
        with registry.armed("catalog.append", kind="error"):
            with pytest.raises(InjectedFaultError):
                registry.corrupt_rows("catalog.append", rows)

    def test_every_declared_point_arms(self):
        registry = FaultRegistry()
        for point in FAULT_POINTS:
            registry.arm(point, times=1)
        assert registry.active is True
        registry.reset()


class TestInjectionSites:
    """Every declared point actually fires from its production call site."""

    def test_parse_point(self):
        with FAULTS.armed("tsql.parse", times=1):
            with pytest.raises(InjectedFaultError):
                parse_statement("SELECT EmpName FROM EMPLOYEE")
        # the point disarms cleanly: parsing works again
        parse_statement("SELECT EmpName FROM EMPLOYEE")

    def test_bind_point(self, temporal_db):
        session = make_session(temporal_db)
        with FAULTS.armed("session.bind", times=1):
            with pytest.raises(InjectedFaultError):
                session.execute(
                    "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", params=("Sales",)
                )

    def test_memo_point_degrades_not_raises(self, temporal_db):
        session = make_session(temporal_db)
        with FAULTS.armed("search.memo", times=1):
            result = session.execute("SELECT DISTINCT EmpName FROM EMPLOYEE COALESCE")
        assert result.optimization.degraded == "memo_search:FAULT_INJECTED"

    def test_stratum_pull_point_degrades_to_reference(self, temporal_db, paper_statement):
        # The paper statement keeps temporal operators in the stratum, so
        # its pull loops run (a pure pushed-down query never reaches them).
        session = make_session(temporal_db)
        with FAULTS.armed("stratum.pull", times=1):
            result = session.execute(paper_statement)
        assert result.report.degraded_operations
        assert "FAULT_INJECTED" in result.report.degraded_operations[0]

    def test_dbms_scan_point(self, dbms):
        from repro.core.operations import BaseRelation
        from repro.workloads import EMPLOYEE_SCHEMA

        plan = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        with FAULTS.armed("dbms.scan", times=1):
            with pytest.raises(InjectedFaultError):
                dbms.execute(plan, control=ExecutionControl())

    def test_catalog_append_corruption_detected_atomically(self, temporal_db):
        before = len(temporal_db.table("EMPLOYEE"))
        rows = [("Zara", "Sales", 1, 5), ("Yuri", "Toys", 2, 6)]
        with FAULTS.armed("catalog.append", kind="corrupt"):
            with pytest.raises(SchemaError):
                temporal_db.append("EMPLOYEE", rows)
        # detection happened before any mutation: no partial batch landed
        assert len(temporal_db.table("EMPLOYEE")) == before
        temporal_db.append("EMPLOYEE", rows)
        assert len(temporal_db.table("EMPLOYEE")) == before + 2

    def test_disabled_faults_leave_queries_untouched(self, temporal_db):
        assert FAULTS.active is False
        session = make_session(temporal_db)
        result = session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", ("Sales",))
        assert {t["EmpName"] for t in result.relation.tuples} == {"Anna", "John"}


class TestErrorTaxonomy:
    def test_every_repro_error_subclass_has_a_stable_code(self):
        seen = set()
        stack = [ReproError]
        while stack:
            cls = stack.pop()
            assert isinstance(cls.code, str) and cls.code, cls
            seen.add(cls)
            stack.extend(sub for sub in cls.__subclasses__() if sub not in seen)

    def test_error_code_of_foreign_exceptions_is_internal(self):
        assert error_code(ValueError("nope")) == "INTERNAL"
        assert error_code(KeyError("x")) == "INTERNAL"

    def test_error_code_reads_the_class_attribute(self):
        assert error_code(SchemaError("bad")) == "SCHEMA_ERROR"
        assert error_code(InjectedFaultError("boom")) == "FAULT_INJECTED"


class TestExecutionControlFaultGate:
    def test_tick_fires_armed_point(self):
        control = ExecutionControl()
        with FAULTS.armed("stratum.pull", times=1):
            with pytest.raises(InjectedFaultError):
                control.tick("stratum.pull")

    def test_a_drain_checks_at_its_start_and_every_interval(self):
        registry = FaultRegistry()
        control = ExecutionControl(interval=10, faults=registry)
        relation = Relation.from_rows(
            RelationSchema.snapshot([("N", INTEGER)]), [(i,) for i in range(25)]
        )
        source = SourceOp(relation)
        source.instrument("dbms.scan", 4, control=control)
        registry.arm("dbms.scan", times=None)
        with pytest.raises(InjectedFaultError):
            next(source.batches())  # the start check fires before the first batch
        registry.reset()
        # without faults the accounting is transparent
        assert [row for batch in source.batches() for row in batch.rows()] == [
            (i,) for i in range(25)
        ]
