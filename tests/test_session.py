"""Tests for the session layer: plan cache, parameters, epoch, EXPLAIN."""

from __future__ import annotations

import hashlib
import inspect
import re
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import repro.search.search
from repro.core.exceptions import (
    CancelledError,
    ParameterError,
    ParseError,
    ReproError,
    ResourceExhaustedError,
)
from repro.core.expressions import Literal, Parameter
from repro.core.lowering import Lowering
from repro.core.operations import Selection
from repro.core.relation import Relation
from repro.core.schema import INTEGER, STRING, RelationSchema
from repro.dbms import ConventionalDBMS
from repro.faults import ResourceGuard
from repro.options import ExecutionOptions
from repro.server import Server
from repro.session import (
    PlanCache,
    PlanCacheKey,
    Session,
    bind_parameters,
    collect_parameters,
    statement_fingerprint,
)
from repro.session.fingerprint import normalize_statement
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.stratum.partition import partition_plan
from repro.tsql import parse_statement
from repro.tsql.unparse import unparse_statement
from repro.workloads import (
    CHAINED_SQL,
    PAPER_SQL,
    POINT_SQL,
    employee_relation,
    project_relation,
)

from .conftest import PAPER_STATEMENT, flight_waiters, in_threads, wait_until
from .test_tsql_roundtrip import statements, typed


@pytest.fixture
def session():
    db = TemporalDatabase()
    db.register("EMPLOYEE", employee_relation())
    db.register("PROJECT", project_relation())
    return Session(db)


class TestLifecycle:
    def test_execute_matches_database_execute(self, session):
        via_session = session.execute(PAPER_STATEMENT).relation
        via_database = session.database.query(PAPER_STATEMENT)
        assert via_session.as_list() == via_database.as_list()

    def test_execute_reports_timings_and_report(self, session):
        result = session.execute(PAPER_STATEMENT)
        assert result.timings.total_seconds > 0
        assert result.report is not None
        assert result.report.dbms_calls >= 1
        assert result.report.node_rows  # actual cardinalities were captured

    def test_database_execute_runs_the_cached_default_session(self, session):
        db = session.database
        first = db.execute(PAPER_STATEMENT)
        second = db.execute(PAPER_STATEMENT)
        assert not first.cache_hit
        assert second.cache_hit
        assert first.relation.as_list() == second.relation.as_list()


class TestPlanCache:
    def test_repeated_statement_hits(self, session):
        first = session.execute(PAPER_STATEMENT)
        second = session.execute(PAPER_STATEMENT)
        assert not first.cache_hit
        assert second.cache_hit
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_surface_variants_share_one_entry(self, session):
        session.execute(PAPER_STATEMENT)
        variant = session.execute(
            "select  DISTINCT   EmpName from EMPLOYEE except temporal "
            "select EmpName from PROJECT order by EmpName coalesce"
        )
        assert variant.cache_hit

    def test_parameter_variants_share_one_entry(self, session):
        a = session.execute(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", params=("Sales",)
        )
        b = session.execute(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", params=("Advertising",)
        )
        assert not a.cache_hit
        assert b.cache_hit
        assert {t["EmpName"] for t in a.relation.tuples} == {"John", "Anna"}
        assert {t["EmpName"] for t in b.relation.tuples} == {"John", "Anna"}
        assert a.relation.as_multiset() != b.relation.as_multiset()

    def test_inline_literals_do_not_share(self, session):
        a = session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'")
        b = session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Advertising'")
        assert not a.cache_hit and not b.cache_hit

    def test_statistics_epoch_bump_invalidates(self, session):
        statement = "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?"
        session.execute(statement, params=("Sales",))
        assert session.execute(statement, params=("Sales",)).cache_hit
        epoch_before = session.database.statistics_epoch()
        session.database.insert("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        assert session.database.statistics_epoch() > epoch_before
        after = session.execute(statement, params=("Sales",))
        assert not after.cache_hit  # the cached plan was not reused
        assert any(t["EmpName"] == "Zoe" for t in after.relation.tuples)
        # The superseded entry was purged, not just shadowed.
        assert session.cache_info().invalidations >= 1

    def test_epoch_advances_on_create_and_drop(self):
        db = TemporalDatabase()
        e0 = db.statistics_epoch()
        db.register("EMPLOYEE", employee_relation())
        e1 = db.statistics_epoch()
        assert e1 > e0
        db.dbms.drop_table("EMPLOYEE")
        assert db.statistics_epoch() > e1

    def test_lru_eviction(self, session):
        session.cache = PlanCache(capacity=2)
        session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'")
        session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Advertising'")
        session.execute("SELECT EmpName FROM EMPLOYEE")  # evicts the oldest
        info = session.cache_info()
        assert info.size == 2 and info.evictions == 1
        assert not session.execute(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'"
        ).cache_hit

    def test_cache_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestFingerprint:
    def test_explain_prefix_is_normalized_away(self):
        plain = statement_fingerprint(parse_statement(PAPER_STATEMENT))
        explained = statement_fingerprint(parse_statement("EXPLAIN " + PAPER_STATEMENT))
        analyzed = statement_fingerprint(
            parse_statement("EXPLAIN ANALYZE " + PAPER_STATEMENT)
        )
        assert plain == explained == analyzed

    def test_distinct_statements_do_not_collide(self):
        texts = [
            "SELECT EmpName FROM EMPLOYEE",
            "SELECT DISTINCT EmpName FROM EMPLOYEE",
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'",
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?",
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales' ORDER BY EmpName",
            "SELECT EmpName FROM PROJECT",
        ]
        fingerprints = {statement_fingerprint(parse_statement(t)) for t in texts}
        assert len(fingerprints) == len(texts)

    def test_literal_type_matters(self):
        a = statement_fingerprint(parse_statement("SELECT * FROM T WHERE x = 1"))
        b = statement_fingerprint(parse_statement("SELECT * FROM T WHERE x = 1.0"))
        c = statement_fingerprint(parse_statement("SELECT * FROM T WHERE x = '1'"))
        assert len({a, b, c}) == 3


def _plain(text: str) -> str:
    return text.removeprefix("EXPLAIN ANALYZE ").removeprefix("EXPLAIN ")


@st.composite
def _statement_pairs(draw):
    """A generated statement and a second one: another draw or a variant of it."""
    text = draw(statements())
    other = draw(
        st.one_of(
            statements(),
            st.sampled_from(
                [
                    text,
                    text.replace(" ", "  "),
                    "EXPLAIN " + _plain(text),
                    _plain(text),
                    unparse_statement(parse_statement(text)),
                    text.replace("SELECT DISTINCT", "SELECT", 1),
                ]
            ),
        )
    )
    return text, other


def _identity_database() -> TemporalDatabase:
    """Every table of the generator, each with every attribute it draws."""
    database = TemporalDatabase()
    for name in ("EMPLOYEE", "PROJECT", "ACCOUNT"):
        database.create_table(
            name,
            RelationSchema.temporal(
                [("EmpName", STRING), ("Dept", STRING), ("Salary", INTEGER), ("Prj", STRING)],
                name=name,
            ),
        )
    return database


#: Module-level: hypothesis runs every example inside one test call.
_IDENTITY_DATABASE = _identity_database()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestOneIdentity:
    """The plan-cache key is a digest of the text EXPLAIN prints, and nothing else."""

    def test_the_fingerprint_is_the_digest_of_the_normalized_text(self):
        statement = parse_statement("EXPLAIN ANALYZE " + PAPER_STATEMENT)
        text = unparse_statement(replace(statement, explain=False, analyze=False))
        assert normalize_statement(statement) == (text, _digest(text))
        assert statement_fingerprint(statement) == _digest(text)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_statement_pairs())
    def test_fingerprints_agree_exactly_when_the_parses_do(self, pair):
        first, second = (
            replace(parse_statement(text), explain=False, analyze=False) for text in pair
        )
        same_parse = typed(first) == typed(second)
        assert (statement_fingerprint(first) == statement_fingerprint(second)) == same_parse
        try:
            report = _IDENTITY_DATABASE.execute("EXPLAIN " + pair[0]).explain.render()
        except ReproError:
            return  # the generator does not know the schema: not every draw translates
        header = dict(line.split(":", 1) for line in report.splitlines()[:2])
        printed = re.search(r"fingerprint=(\w+)", report).group(1)
        assert _digest(header["statement"].strip()) == printed == statement_fingerprint(first)


class TestParameters:
    def test_bind_substitutes_literals(self, session):
        plan, _ = session.database.parse("SELECT EmpName FROM EMPLOYEE WHERE Dept = ?")
        assert collect_parameters(plan) == (0,)
        bound = bind_parameters(plan, ("Sales",))
        assert collect_parameters(bound) == ()
        selections = [n for n in bound.nodes() if isinstance(n, Selection)]
        assert selections and Literal("Sales") in (
            selections[0].predicate.left,
            selections[0].predicate.right,
        )

    def test_bind_shares_parameter_free_subtrees(self, session):
        plan, _ = session.database.parse(PAPER_STATEMENT)
        assert bind_parameters(plan, ()) is plan

    def test_wrong_parameter_count_raises(self, session):
        with pytest.raises(ParameterError):
            session.execute("SELECT EmpName FROM EMPLOYEE WHERE Dept = ?")
        with pytest.raises(ParameterError):
            session.execute(
                "SELECT EmpName FROM EMPLOYEE WHERE Dept = ?", params=("a", "b")
            )
        with pytest.raises(ParameterError):
            session.execute("SELECT EmpName FROM EMPLOYEE", params=("stray",))

    def test_unbound_parameter_cannot_evaluate(self):
        with pytest.raises(Exception) as excinfo:
            Parameter(0).evaluate(None)
        assert "unbound" in str(excinfo.value)

    def test_marker_order_is_text_order(self, session):
        result = session.execute(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ? AND T1 >= ?",
            params=("Sales", 2),
        )
        names = {t["EmpName"] for t in result.relation.tuples}
        assert names == {"Anna"}


def measured_unless_absorbed(line):
    """An EXPLAIN ANALYZE line has its actual rows unless it is an rdupT the
    operator above runs itself, which never drains on its own."""
    absorbed = (line.physical or "").startswith("absorbed into ")
    return (line.actual_rows is None) == absorbed and (not absorbed or line.label == "rdupT")


class TestExplain:
    def test_explain_shows_estimates_and_actuals_everywhere(self, session):
        report = session.explain(PAPER_STATEMENT)
        assert report.lines
        for line in report.lines:
            assert line.estimated_rows >= 0
            assert measured_unless_absorbed(line)
            assert line.engine in ("stratum", "dbms")
        rendered = report.render()
        assert "est rows=" in rendered and "actual=" in rendered
        assert "memo groups=" in rendered
        assert "rules fired during exploration" in rendered

    def test_explain_without_analyze_has_no_actuals(self, session):
        report = session.explain(PAPER_STATEMENT, analyze=False)
        assert all(line.actual_rows is None for line in report.lines)
        assert report.dbms_calls is None

    def test_explain_statement_prefix(self, session):
        result = session.execute("EXPLAIN " + PAPER_STATEMENT)
        assert result.relation is None
        assert result.explain is not None
        assert not result.explain.analyze
        analyzed = session.execute("EXPLAIN ANALYZE " + PAPER_STATEMENT)
        assert analyzed.explain.analyze
        assert analyzed.explain.result_rows is not None

    def test_explain_populates_and_reuses_the_cache(self, session):
        report = session.explain(PAPER_STATEMENT)
        assert not report.cache_hit
        result = session.execute(PAPER_STATEMENT)
        assert result.cache_hit
        assert session.explain(PAPER_STATEMENT).cache_hit

    def test_explain_cost_totals_are_consistent(self, session):
        report = session.explain(PAPER_STATEMENT, analyze=False)
        total = sum(line.cost for line in report.lines)
        assert total == pytest.approx(report.estimated_cost)

    def test_explain_query_returns_rendered_text(self, session):
        text = session.query("EXPLAIN " + PAPER_STATEMENT)
        assert isinstance(text, str)
        assert "plan cache:" in text


class TestExplainIsTheSameLifecycle:
    """``EXPLAIN [ANALYZE]`` and ``Session.explain()`` run the plain
    statement's lifecycle: same snapshot, same guard, same record."""

    ROWS = "SELECT EmpName FROM EMPLOYEE"

    def test_explain_analyze_honours_the_guard(self, session):
        for run in (
            lambda guard: session.execute(PAPER_STATEMENT, guard=guard),
            lambda guard: session.execute("EXPLAIN ANALYZE " + PAPER_STATEMENT, guard=guard),
            lambda guard: session.explain(PAPER_STATEMENT, guard=guard),
        ):
            with pytest.raises(ResourceExhaustedError):
                run(ResourceGuard(max_rows=1))
        # A plain EXPLAIN pulls no row, so it has nothing to exhaust.
        assert session.explain(PAPER_STATEMENT, analyze=False, guard=ResourceGuard(max_rows=1))

    def test_explain_reads_the_snapshot(self, session):
        database = session.database
        snapshot = database.snapshot()
        database.append("EMPLOYEE", [("Zoe", "Sales", 1, 3)])
        assert database.statistics_epoch() == snapshot.statistics_epoch() + 1 == 3
        plain = session.execute(self.ROWS, snapshot=snapshot)
        assert (len(plain.relation), plain.epoch) == (5, 2)
        for report in (
            session.execute("EXPLAIN ANALYZE " + self.ROWS, snapshot=snapshot).explain,
            session.explain(self.ROWS, snapshot=snapshot),
        ):
            assert (report.result_rows, report.epoch) == (5, 2)
            assert [line.actual_rows for line in report.lines] == [5, 5, 5]
        # A plain EXPLAIN plans against the snapshot's statistics ...
        estimated = session.execute("EXPLAIN " + self.ROWS, snapshot=snapshot).explain
        assert estimated.epoch == 2 and estimated.lines[-1].estimated_rows == 5
        # ... and without one, all of them see the live catalog.
        live = session.explain(self.ROWS)
        assert (live.result_rows, live.epoch, live.lines[-1].estimated_rows) == (6, 3, 6)

    def test_explain_analyze_record_carries_its_execution(self, session):
        plain = session.execute(PAPER_STATEMENT)
        analyzed = session.execute("EXPLAIN ANALYZE " + PAPER_STATEMENT)
        assert analyzed.relation is None and analyzed.report is not None
        assert analyzed.report.node_rows == plain.report.node_rows
        assert analyzed.report.dbms_calls == plain.report.dbms_calls == analyzed.explain.dbms_calls
        assert list(analyzed.phases) == list(plain.phases)
        assert list(session.execute("EXPLAIN " + PAPER_STATEMENT).phases) == [
            "parse", "optimize", "bind",
        ]


class TestExplainWorkloads:
    """Acceptance: estimates vs. actuals for every operator on the paper's
    chained statement and on the skewed statistics workload."""

    CHAINED = (
        "SELECT DISTINCT EmpName FROM EMPLOYEE "
        "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
        "UNION TEMPORAL SELECT EmpName FROM PROJECT "
        "ORDER BY EmpName COALESCE"
    )

    def test_chained_workload_explain_is_fully_annotated(self, session):
        report = session.explain(self.CHAINED)
        assert len(report.lines) >= 8
        assert all(measured_unless_absorbed(line) for line in report.lines)
        assert all(line.estimated_rows >= 0 for line in report.lines)

    def test_skewed_workload_explain_is_fully_annotated(self):
        from repro.workloads import skewed_paper_workload

        employees, projects = skewed_paper_workload(8)
        db = TemporalDatabase(options=ExecutionOptions(use_statistics=True))
        db.register("EMPLOYEE", employees)
        db.register("PROJECT", projects)
        report = Session(db).explain(self.CHAINED)
        assert all(measured_unless_absorbed(line) for line in report.lines)
        assert all(line.estimated_rows >= 0 for line in report.lines)
        assert report.memo_groups and report.rule_usage


class TestUseStatistics:
    def test_session_over_statistics_database(self):
        db = TemporalDatabase(options=ExecutionOptions(use_statistics=True))
        db.register("EMPLOYEE", employee_relation())
        db.register("PROJECT", project_relation())
        session = Session(db)
        first = session.execute(PAPER_STATEMENT)
        second = session.execute(PAPER_STATEMENT)
        assert second.cache_hit
        assert first.relation.as_list() == second.relation.as_list()
        report = session.explain(PAPER_STATEMENT)
        assert all(measured_unless_absorbed(line) for line in report.lines)


FIRST = {"tokenize": 1, "fingerprint": 1}


class TestAHitIsAHit:
    """A plan-cache hit runs no search, no lexer and no fingerprint — by count.

    A first execution runs one search, the statement's, which explores one
    memo; its ``fragments`` (the ``TS`` fragments of the chosen plan) are
    searched by nothing — each is one DBMS call, executed as chosen.
    """

    CASES = [
        pytest.param(PAPER_SQL, (), 2, id="paper"),
        pytest.param(CHAINED_SQL, (), 3, id="chained"),
        pytest.param(POINT_SQL, ("Sales",), 1, id="point"),
    ]

    @pytest.mark.parametrize("sql, params, fragments", CASES)
    def test_first_execution_plans_once_and_every_repeat_does_nothing(
        self, session, planning_work, sql, params, fragments
    ):
        first = session.execute(sql, params)
        assert planning_work == {"searches": 1, "explorations": 1, **FIRST}
        assert first.report.dbms_calls == fragments
        planning_work.clear()

        repeat = session.execute(sql, params)
        other_values = session.execute(sql, ("Advertising",) if params else ())
        explained = session.explain(sql, params)
        pinned = session.execute(sql, params, snapshot=session.database.snapshot())
        assert not planning_work
        assert repeat.cache_hit and other_values.cache_hit and pinned.cache_hit
        assert explained.cache_hit
        assert pinned.relation.as_list() == first.relation.as_list()

        # The prefixed text is a text of its own: lexed and hashed once, to
        # the same fingerprint — and so to the same plan, with no search.
        assert session.execute("EXPLAIN ANALYZE " + sql, params).cache_hit
        assert planning_work == FIRST
        planning_work.clear()
        assert session.execute("EXPLAIN ANALYZE " + sql, params).explain is not None
        assert not planning_work

    @pytest.mark.parametrize("sql, params, fragments", CASES)
    def test_an_epoch_bump_replans_but_neither_reparses_nor_explores(
        self, session, planning_work, sql, params, fragments
    ):
        session.execute(sql, params)
        planning_work.clear()
        session.database.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        replanned = session.execute(sql, params)
        assert not replanned.cache_hit
        # The search runs again — as an extraction from the remembered memo.
        assert planning_work == {"searches": 1}
        assert planning_work["explorations"] == 0
        assert replanned.optimization.search.statistics.exploration_reused
        assert replanned.report.dbms_calls == fragments
        planning_work.clear()
        assert session.execute(sql, params).cache_hit
        assert not planning_work

    def test_clear_makes_the_next_request_cold_again(self, session, planning_work):
        session.execute(PAPER_SQL)
        session.cache.clear()
        assert session.cache_info().texts == 0
        planning_work.clear()
        assert session.cache_info().explorations == 0
        assert not session.execute(PAPER_SQL).cache_hit
        # This is what keeps the ledger's ``cold-plan`` cold: it explores again.
        assert planning_work == {"searches": 1, "explorations": 1, **FIRST}

    def test_the_cached_plan_is_the_plan_that_executes(self, session, monkeypatch):
        lowered = []
        real_lower = Lowering.lower

        def lower(self, plan, *args, **kwargs):
            lowered.append(plan)
            return real_lower(self, plan, *args, **kwargs)

        def dbms_execute(*args, **kwargs):
            raise AssertionError("the stratum runs its fragments inside its own operator tree")

        monkeypatch.setattr(Lowering, "lower", lower)
        monkeypatch.setattr(ConventionalDBMS, "execute", dbms_execute)
        session.execute(CHAINED_SQL)
        hit = session.execute(CHAINED_SQL)
        entry = session.cache.get(PlanCacheKey(hit.fingerprint, hit.epoch))
        assert hit.plan is entry.plan is hit.optimization.chosen_plan
        # One lowering per request, of the cached plan itself: its fragments
        # run as extracted, each one ``TS`` crossing of the one tree.
        assert len(lowered) == 2 and lowered[1] is hit.plan
        assert hit.report.dbms_calls == len(partition_plan(hit.plan).dbms_fragments) == 3

    def test_the_executor_has_no_optimize_switch(self):
        parameters = list(inspect.signature(StratumExecutor.__init__).parameters)
        assert parameters == ["self", "dbms", "clock", "control", "batch_size"]


class TestExploreOncePerStatement:
    """The plan space is explored once per statement; each epoch only re-costs it.

    By count (``planning_work["explorations"]`` spies on the search's
    ``explore``): what may and what may not reuse a remembered memo.
    """

    ROW = ("Zoe", "Sales", 3, 9)

    def test_any_number_of_appends_never_explores_again(self, session, planning_work):
        for sql, params in ((PAPER_SQL, ()), (CHAINED_SQL, ()), (POINT_SQL, ("Sales",))):
            session.execute(sql, params)
        planning_work.clear()
        for round_ in range(3):
            session.database.append("EMPLOYEE", [self.ROW])
            for sql, params in ((PAPER_SQL, ()), (CHAINED_SQL, ()), (POINT_SQL, ("Sales",))):
                assert not session.execute(sql, params).cache_hit
        assert planning_work == {"searches": 3 * 3}
        info = session.cache_info()
        assert info.explorations_reused == 3 * 3
        assert info.explorations == 3

    def test_the_record_and_explain_say_what_was_reused(self, session):
        first = session.execute(PAPER_SQL).phases["optimize"][2]
        assert first["memo.exploration_reused"] is False
        hit = session.execute(PAPER_SQL).phases["optimize"][2]
        assert hit["memo.exploration_reused"] is False  # the entry's search, as it ran
        session.database.append("EMPLOYEE", [self.ROW])
        replanned = session.execute(PAPER_SQL).phases["optimize"][2]
        assert replanned["memo.exploration_reused"] is True
        report = session.explain(PAPER_SQL, analyze=False)
        assert report.exploration_reused is True
        assert "explored:   reused" in report.render().splitlines()

    def test_a_recreated_table_under_another_schema_is_explored_afresh(
        self, session, planning_work
    ):
        sql = "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'"
        before = session.execute(sql)
        assert before.relation.schema.is_temporal
        database = session.database
        database.dbms.drop_table("EMPLOYEE")
        snapshot_schema = RelationSchema.snapshot(
            [("EmpName", STRING), ("Dept", STRING)], name="EMPLOYEE"
        )
        database.register(
            "EMPLOYEE", Relation.from_rows(snapshot_schema, [("Ann", "Sales"), ("Bob", "Ads")])
        )
        planning_work.clear()
        after = session.execute(sql)
        # Same text, same fingerprint — and another seed tree, compared, not assumed.
        assert after.fingerprint == before.fingerprint and not after.cache_hit
        assert planning_work["explorations"] == planning_work["searches"] == 1
        assert not after.optimization.search.statistics.exploration_reused
        assert not after.relation.schema.is_temporal
        assert [t.values() for t in after.relation.tuples] == [("Ann",)]

    def test_a_pinned_request_replans_from_the_shared_exploration_at_its_own_epoch(
        self, session, planning_work
    ):
        database = session.database
        pinned = database.snapshot()
        database.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        live = session.execute(POINT_SQL, ("Sales",))  # explores, at the live epoch
        planning_work.clear()
        old = session.execute(POINT_SQL, ("Sales",), snapshot=pinned)
        assert not old.cache_hit and old.epoch == pinned.statistics_epoch() == live.epoch - 1
        assert planning_work == {"searches": 1}  # ... and the older epoch only extracts

        def names(result):
            return sorted(t["EmpName"] for t in result.relation.tuples)

        assert "Zoe" in names(live) and "Zoe" not in names(old)
        assert names(old) == names(Session(database).execute(POINT_SQL, ("Sales",), snapshot=pinned))
        # Both entries are served side by side, from one exploration each way.
        assert session.execute(POINT_SQL, ("Sales",)).cache_hit
        assert session.execute(POINT_SQL, ("Sales",), snapshot=pinned).cache_hit

    def test_the_explorations_are_an_lru_of_at_most_capacity(self, session, planning_work):
        session.cache = PlanCache(capacity=2)
        texts = [f"SELECT EmpName FROM EMPLOYEE WHERE Dept = '{d}'" for d in "ABC"]
        explored = []
        for text in texts:  # one statement memo each
            session.execute(text)
            explored.append(session.cache_info().explorations)
        assert explored == [1, 2, 2]
        # texts[1]'s and texts[2]'s are left: texts[2] re-costs, texts[0] explores again ...
        session.database.append("EMPLOYEE", [self.ROW])
        planning_work.clear()
        session.execute(texts[2])
        assert planning_work == {"searches": 1}
        session.execute(texts[0])  # (its text fell out of the text memo as well)
        assert (planning_work["searches"], planning_work["explorations"]) == (2, 1)
        # ... which evicted texts[1]'s, the least recently used.
        planning_work.clear()
        session.database.append("EMPLOYEE", [self.ROW])
        session.execute(texts[2])
        session.execute(texts[0])
        assert planning_work == {"searches": 2}
        session.execute(texts[1])
        assert planning_work["explorations"] == 1
        assert session.cache_info().explorations == 2

    def test_a_recency_refresh_protects_an_exploration(self):
        cache = PlanCache(capacity=2)
        for key in "ab":
            cache.remember_exploration(key, key.upper())
        assert cache.exploration("a") == "A"  # refreshes "a": "b" is now the oldest
        cache.remember_exploration("c", "C")
        assert (cache.exploration("a"), cache.exploration("b"), cache.exploration("c")) == (
            "A", None, "C"
        )
        assert cache.info().explorations == 2 and cache.info().explorations_reused == 3
        cache.purge_stale(99)
        assert cache.info().explorations == 2  # no epoch: a purge leaves them alone
        cache.clear()
        assert cache.info().explorations == 0

    def test_a_leader_whose_search_raises_leaves_nothing_and_the_waiter_explores_once(
        self, session, planning_work, park_first_call
    ):
        database, cache = session.database, session.cache
        gate = park_first_call(
            repro.search.search, "explore", then_raise=CancelledError("stopped mid-search")
        )

        def request():
            return Session(database, cache=cache).execute(PAPER_SQL)

        leader = in_threads(request)
        assert gate.entered.wait(timeout=30.0)  # parked inside its search, memo half built
        waiter = in_threads(request)
        wait_until(lambda: flight_waiters(cache) == 1)
        assert cache.info().explorations == 0
        gate.release.set()
        (failed,), (served,) = leader(), waiter()
        assert isinstance(failed, CancelledError)
        assert not served.cache_hit
        assert not served.optimization.search.statistics.exploration_reused
        # The leader stored neither an entry nor a memo: the waiter took over
        # and explored the statement, once.
        assert planning_work["explorations"] == 1 and planning_work["searches"] == 2
        info = cache.info()
        assert (info.misses, info.size, info.explorations, info.explorations_reused) == (2, 1, 1, 0)

    def test_two_server_workers_explore_each_statement_once_for_any_number_of_appends(
        self, session, planning_work
    ):
        statements = ((PAPER_SQL, ()), (CHAINED_SQL, ()), (POINT_SQL, ("Sales",)))
        with Server(session.database, max_concurrency=2) as server:
            # Each statement explored once, then re-planned by both workers
            # at once after every append.
            for sql, params in statements:
                assert server.query(sql, params=params).ok
            for round_ in range(3):
                server.append("EMPLOYEE", [self.ROW])
                responses = in_threads(
                    *[partial(server.query, sql, params=params) for sql, params in statements * 2]
                )()
                assert all(response.ok for response in responses)
            info = server.plan_cache.info()
        # One memo per statement, whichever worker got there first.
        assert planning_work["explorations"] == info.explorations == 3
        assert info.misses == planning_work["searches"] == 4 * 3
        assert info.explorations_reused == planning_work["searches"] - 3


class TestStatementMemo:
    """Exact text → ``(Statement, normalized text, fingerprint)``, inside the plan cache."""

    def test_explain_and_plain_are_two_texts_one_fingerprint_one_plan(self, session):
        plain = session.execute(POINT_SQL, ("Sales",))
        explained = session.execute("EXPLAIN " + POINT_SQL)
        assert explained.fingerprint == plain.fingerprint and explained.cache_hit
        info = session.cache_info()
        assert (info.texts, info.size) == (2, 1)

    def test_a_text_miss_renders_the_normal_form_once_and_a_plan_miss_never(
        self, session, planning_work
    ):
        session.execute(PAPER_SQL)
        assert planning_work["fingerprint"] == 1
        session.database.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        planning_work.clear()
        replanned = session.execute(PAPER_SQL)
        assert not replanned.cache_hit and planning_work == {"searches": 1}
        entry = session.cache.get(PlanCacheKey(replanned.fingerprint, replanned.epoch))
        assert entry.normalized_statement is session.cache.statement(PAPER_SQL)[1]

    def test_a_parse_error_is_never_remembered(self, session, planning_work):
        session.execute(POINT_SQL, ("Sales",))
        planning_work.clear()
        errors = []
        for _ in range(2):
            with pytest.raises(ParseError) as raised:
                session.execute("SELECT FROM WHERE")
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert planning_work == {"tokenize": 2}
        assert session.cache_info().texts == 1  # nothing stored, nothing evicted

    def test_the_memo_is_an_lru_of_at_most_capacity_texts(self, session, planning_work):
        session.cache = PlanCache(capacity=2)
        texts = [f"SELECT EmpName FROM EMPLOYEE WHERE Dept = '{d}'" for d in "ABC"]
        session.execute(texts[0])
        session.execute(texts[1])
        session.execute(texts[0])  # refreshes texts[0]
        session.execute(texts[2])  # evicts texts[1], the least recently used
        assert session.cache_info().texts == 2
        planning_work.clear()
        session.execute(texts[0])
        assert not planning_work
        session.execute(texts[1])
        assert planning_work["tokenize"] == 1

    def test_an_epoch_bump_and_purge_leave_the_memo_alone(self, session):
        session.execute(PAPER_SQL)
        session.database.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        session.cache.purge_stale(session.database.statistics_epoch())
        assert session.cache_info().size == 0
        assert session.cache_info().texts == 1

    def test_explain_never_mutates_the_stored_statement(self, session):
        session.execute(PAPER_SQL)
        stored, normalized, fingerprint = session.cache.statement(PAPER_SQL)
        before = unparse_statement(stored)
        assert before == normalized
        for analyze in (False, True):
            assert session.explain(PAPER_SQL, analyze=analyze).cache_hit
        again, _, _ = session.cache.statement(PAPER_SQL)
        assert again is stored
        assert (stored.explain, stored.analyze) == (False, False)
        assert unparse_statement(stored) == before
        assert statement_fingerprint(stored) == fingerprint
        assert session.execute(PAPER_SQL).relation is not None  # still a plain statement

    def test_the_record_says_what_happened(self, session):
        first = session.execute(PAPER_SQL)
        second = session.execute(PAPER_SQL)
        assert first.phases["parse"][2] == {"memo_hit": False}
        assert second.phases["parse"][2] == {"memo_hit": True}
        planned, hit = first.phases["optimize"][2], second.phases["optimize"][2]
        # The statement's search — the only one — hit or miss.
        assert planned["memo.tasks"] == first.optimization.search.statistics.applications_attempted
        assert hit["memo.tasks"] == planned["memo.tasks"]
        assert {key for key in planned if key.startswith("memo.")} == set(
            first.optimization.search.statistics.as_span_attributes()
        )
