"""The redesigned configuration surface: ``ExecutionOptions`` everywhere.

One frozen options object rides through all three constructors
(``TemporalDatabase``, ``Session``, ``Server``).  These tests pin the
round-trip and inheritance, ``batch_size`` validation, that the removed
per-constructor keywords are rejected, the ``repro.connect`` facade, and the
database's one optimizer object: a ``MemoSearch`` that every request shares.
"""

from __future__ import annotations

import pytest

import repro
from repro import DEFAULT_BATCH_SIZE, ExecutionOptions, Session, TemporalDatabase, connect
from repro.core.exceptions import ResourceExhaustedError
from repro.core.lowering import Lowering
from repro.dbms.engine import ConventionalDBMS
from repro.faults import ResourceGuard
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.search import MemoSearch, SearchOptions
from repro.server import Server
from repro.stratum.executor import StratumExecutor
from repro.workloads import PAPER_SQL, employee_relation, scaled_paper_workload

from .conftest import in_threads


class TestOptionsObject:
    def test_frozen_and_hashable(self):
        options = ExecutionOptions(use_statistics=True)
        with pytest.raises(Exception):
            options.use_statistics = False
        assert hash(options) == hash(ExecutionOptions(use_statistics=True))

    def test_replace_derives_variants(self):
        base = ExecutionOptions(batch_size=64)
        derived = base.replace(use_statistics=True)
        assert derived.batch_size == 64 and derived.use_statistics is True
        assert base.use_statistics is False  # the original is untouched

    def test_non_defaults_names_the_turned_knobs(self):
        assert ExecutionOptions().non_defaults() == {}
        assert ExecutionOptions(batch_size=7, use_statistics=True).non_defaults() == {
            "batch_size": 7,
            "use_statistics": True,
        }

    def test_batch_size_is_a_positive_integer(self):
        assert ExecutionOptions().batch_size == DEFAULT_BATCH_SIZE
        for invalid in (None, 0, -3, 2.5):
            with pytest.raises(ValueError):
                ExecutionOptions(batch_size=invalid)
            with pytest.raises(ValueError):
                StratumExecutor(ConventionalDBMS(), batch_size=invalid)
            with pytest.raises(ValueError):
                Lowering(batch_size=invalid)


class TestRoundTrip:
    """``options=`` reaches execution through every constructor."""

    def test_temporal_database(self):
        options = ExecutionOptions(use_statistics=True)
        db = TemporalDatabase(options=options)
        assert db.options is options
        assert db.options.use_statistics is True

    def test_session_inherits_database_options(self):
        db = TemporalDatabase(options=ExecutionOptions(batch_size=32))
        assert Session(db).options is db.options
        assert db.session().options is db.options

    def test_session_own_options_win(self):
        db = TemporalDatabase(options=ExecutionOptions(batch_size=32))
        session = Session(db, options=ExecutionOptions(batch_size=8))
        assert session.options.batch_size == 8

    def test_server_applies_options_to_itself_and_workers(self):
        tracer = Tracer()
        options = ExecutionOptions(
            tracer=tracer, slow_query_seconds=0.5, max_rows_per_request=100
        )
        server = Server(options=options)
        assert server.options is options
        assert server.options.tracer is tracer
        assert server.options.slow_query_seconds == 0.5
        assert server.options.max_rows_per_request == 100
        assert server.database.options is options

    def test_server_inherits_database_options(self):
        db = TemporalDatabase(options=ExecutionOptions(batch_size=16, use_statistics=True))
        server = Server(database=db)
        assert server.options is db.options
        assert server.options.use_statistics is True

    def test_every_session_enforces_the_budgets(self):
        """The per-request budgets hold outside the server too; a guard the
        caller passes replaces them."""
        db = TemporalDatabase(options=ExecutionOptions(max_rows_per_request=1))
        db.register("EMPLOYEE", employee_relation())
        with pytest.raises(ResourceExhaustedError):
            db.execute("SELECT EmpName FROM EMPLOYEE")
        bytes_bound = Session(db, options=ExecutionOptions(max_bytes_per_request=1))
        with pytest.raises(ResourceExhaustedError):
            bytes_bound.execute("SELECT EmpName FROM EMPLOYEE")
        given = db.session().execute(
            "SELECT EmpName FROM EMPLOYEE", guard=ResourceGuard(max_rows=10_000)
        )
        assert len(given.relation) == 5
        with Server(db) as server:
            assert server.query("SELECT EmpName FROM EMPLOYEE").code == "RESOURCE_EXHAUSTED"

    def test_server_defaults_to_a_private_registry(self):
        assert isinstance(Server().metrics, MetricsRegistry)
        registry = MetricsRegistry()
        assert Server(options=ExecutionOptions(metrics=registry)).metrics is registry


class TestRemovedKeywords:
    """The pre-``ExecutionOptions`` keywords are gone from every constructor."""

    @pytest.mark.parametrize(
        "constructor, keyword",
        [
            (TemporalDatabase, "optimize_queries"),
            (ExecutionOptions, "optimize_queries"),
            (ExecutionOptions, "cancellation"),
            (TemporalDatabase, "use_statistics"),
            (Session, "tracer"),
            (Session, "metrics"),
            (Session, "slow_query_seconds"),
            (Session, "slow_query_logger"),
            (Server, "metrics"),
            (Server, "tracer"),
            (Server, "slow_query_seconds"),
            (Server, "cancellation"),
            (Server, "max_rows_per_request"),
            (Server, "max_bytes_per_request"),
        ],
    )
    def test_legacy_keyword_is_a_type_error(self, constructor, keyword):
        with pytest.raises(TypeError, match=keyword):
            constructor(**{keyword: None})


class TestOneOptimizer:
    """The database plans with the one ``MemoSearch`` it holds."""

    def test_the_default_is_a_memo_search_with_the_one_budget_default(self):
        optimizer = TemporalDatabase().optimizer
        assert type(optimizer) is MemoSearch
        assert optimizer.options == SearchOptions()

    def test_a_shared_search_keeps_no_per_request_state(self):
        """Two snapshots either side of a skewing append, planned alone and
        interleaved from four threads: each keeps its own plan and cost."""
        database = TemporalDatabase(options=ExecutionOptions(use_statistics=True))
        employees, projects = scaled_paper_workload(12)
        database.register("EMPLOYEE", employees)
        database.register("PROJECT", projects)
        before = database.snapshot()
        database.append("EMPLOYEE", [("Zed", "Sales", i % 5, 40 + i) for i in range(300)])
        after = database.snapshot()
        plan, spec = database.parse(PAPER_SQL)

        def decide(snapshot):
            outcome = snapshot.optimize_plan(plan, spec)
            return outcome.chosen_plan, outcome.chosen_cost

        alone = {snapshot.statistics_epoch(): decide(snapshot) for snapshot in (before, after)}
        # The append moves the estimator enough to flip the chosen plan.
        assert alone[before.statistics_epoch()][0] != alone[after.statistics_epoch()][0]

        def interleaved(first, second):
            return lambda: [
                (snapshot.statistics_epoch(), decide(snapshot))
                for snapshot in (first, second) * 3
            ]

        outcomes = in_threads(
            interleaved(before, after), interleaved(after, before),
            interleaved(before, after), interleaved(after, before),
        )()
        for outcome in outcomes:
            assert not isinstance(outcome, BaseException), outcome
            for epoch, decision in outcome:
                assert decision == alone[epoch]


class TestFacade:
    def test_connect_returns_a_wired_database(self):
        db = connect()
        assert isinstance(db, TemporalDatabase)
        assert db.options == ExecutionOptions()
        custom = connect(ExecutionOptions(batch_size=3))
        assert custom.options.batch_size == 3
        assert custom.session().options.batch_size == 3

    def test_blessed_names_lead_the_public_all(self):
        blessed = {
            "connect",
            "ExecutionOptions",
            "DEFAULT_BATCH_SIZE",
            "TemporalDatabase",
            "Session",
            "Relation",
            "RelationSchema",
            "Tuple",
            "__version__",
        }
        assert blessed <= set(repro.__all__)
        # The facade names come first: the reading order starts at connect().
        assert repro.__all__[0] == "connect"
        for name in blessed:
            assert getattr(repro, name) is not None

    def test_end_to_end_through_the_facade(self):
        db = connect(ExecutionOptions(batch_size=8))
        db.register("EMPLOYEE", employee_relation())
        result = db.query(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales' ORDER BY EmpName"
        )
        assert [t["EmpName"] for t in result.tuples] == sorted(
            t["EmpName"] for t in result.tuples
        )
        assert result.cardinality > 0
