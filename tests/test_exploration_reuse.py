"""Re-costing a remembered exploration equals searching afresh — differentially.

``MemoSearch.optimize`` is ``extract(explore(...))``; the session's plan cache
remembers the first step per statement and re-runs only the second when the
statistics move.  That is sound iff

* exploration reads nothing that moves (no statistics, estimator, cost model
  or root engine), so the remembered memo *is* the memo a fresh search at the
  new statistics would build; and
* extraction only reads the memo, so any number of them — other epochs,
  other workers — may share one.

Both are checked here by comparing whole outcomes: for every registry query,
every ledger statement and the plan-quality workload's flip, the plan re-costed
after an append equals the plan a fresh session finds on the same database
state, counter for counter; and as a property over generated plans and random
statistics.  The count-based side (what explores, what does not) is
``tests/test_session.py::TestExploreOncePerStatement``.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads import STATEMENTS, build_database
from benchmarks.test_bench_perf_plan_quality import (
    MAINTENANCE_SCHEMA,
    RESERVATION_SCHEMA,
    _interval_rows,
    overlap_join_seed,
)
from repro.core.analysis import derive_order
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE
from repro.core.operations import BaseRelation, Join, LiteralRelation, TransferToStratum
from repro.core.query import QueryResultSpec
from repro.core.relation import Relation
from repro.search import MemoSearch, SearchOptions
from repro.session import PlanCache, Session
from repro.stratum import TemporalDatabase
from repro.workloads import concurrent_mix_append_batch
from repro.workloads.queries import WORKLOAD_QUERIES

from .conftest import in_threads
from .strategies import conventional_plans, temporal_shaped_plans


def counters(statistics) -> dict:
    """Every ``SearchStatistics`` counter — all but the flag that says *reused*."""
    fields = dataclasses.asdict(statistics)
    del fields["exploration_reused"]
    return fields


def assert_same_outcome(reused, fresh) -> None:
    """Two ``OptimizationOutcome`` s agree on everything a search decides and counts."""
    assert reused.chosen_plan == fresh.chosen_plan
    assert reused.chosen_cost == fresh.chosen_cost
    assert reused.initial_cost == fresh.initial_cost
    assert reused.degraded is fresh.degraded is None
    assert reused.search.rules_applied == fresh.search.rules_applied
    assert counters(reused.search.statistics) == counters(fresh.search.statistics)


class TestAReplanEqualsAFreshSearch:
    """After an append that changes the statistics: same plan, cost, rules and counters."""

    @pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda query: query.name)
    def test_registry_queries(self, temporal_db, query):
        plan, spec = query.build()
        cache = PlanCache()
        first = temporal_db.optimize_plan(plan, spec, explorations=cache)
        assert not first.search.statistics.exploration_reused
        temporal_db.append("EMPLOYEE", concurrent_mix_append_batch(0, rows=40))
        temporal_db.append("PROJECT", [(f"N{i}", "P1", 2 + i, 9 + i) for i in range(3)])
        reused = temporal_db.optimize_plan(plan, spec, explorations=cache)
        fresh = temporal_db.optimize_plan(plan, spec)
        assert reused.search.statistics.exploration_reused
        assert not fresh.search.statistics.exploration_reused
        assert_same_outcome(reused, fresh)
        assert reused.chosen_cost != first.chosen_cost  # the statistics did move

    @pytest.mark.parametrize("statement", STATEMENTS.values(), ids=lambda s: s.name)
    def test_ledger_statements_through_the_session(self, statement):
        database = build_database(12, 0)
        session = Session(database)
        params = statement.params[0]
        session.execute(statement.sql, params)
        database.append("EMPLOYEE", concurrent_mix_append_batch(0, rows=30))
        replanned = session.execute(statement.sql, params)
        fresh = Session(database).execute(statement.sql, params)
        assert not replanned.cache_hit and not fresh.cache_hit
        assert replanned.optimization.search.statistics.exploration_reused
        assert not fresh.optimization.search.statistics.exploration_reused
        assert_same_outcome(replanned.optimization, fresh.optimization)
        assert replanned.plan == fresh.plan
        assert replanned.relation.as_list() == fresh.relation.as_list()

    def test_new_statistics_pick_a_different_plan_out_of_the_same_memo(self):
        """The plan-quality workload: at 20 rows a side the overlap join is cheapest
        in the DBMS, at 150 in the stratum (interval join) — one memo, both plans."""
        rng = random.Random(5)

        def rows(schema, prefix, count):
            return Relation.from_rows(schema, _interval_rows(count, prefix, rng))

        database = TemporalDatabase()
        database.register("RESERVATION", rows(RESERVATION_SCHEMA, "r", 20))
        database.register("MAINTENANCE", rows(MAINTENANCE_SCHEMA, "m", 20))
        plan, spec = overlap_join_seed()
        cache = PlanCache()
        small = database.optimize_plan(plan, spec, explorations=cache)
        assert isinstance(small.chosen_plan, TransferToStratum)  # the join below the transfer
        database.insert("RESERVATION", _interval_rows(130, "R", rng))
        database.insert("MAINTENANCE", _interval_rows(130, "M", rng))
        large = database.optimize_plan(plan, spec, explorations=cache)
        assert isinstance(large.chosen_plan, Join)  # ... and above both transfers
        assert large.search.statistics.exploration_reused
        assert large.search.memo is small.search.memo
        assert_same_outcome(large, database.optimize_plan(plan, spec))
        assert list(database.run_plan(large.chosen_plan).tuples)


def _over_base_tables(plan):
    """``plan`` with each literal leaf replaced by a named base table of its schema."""
    names = iter(f"L{index}" for index in range(64))

    def visit(node):
        if isinstance(node, LiteralRelation):
            return BaseRelation(next(names), node.relation.schema)
        return node.with_children([visit(child) for child in node.children])

    rebuilt = visit(plan)
    return rebuilt, [node.relation_name for node in rebuilt.nodes() if isinstance(node, BaseRelation)]


@st.composite
def plans_and_two_statistics(draw):
    plan, tables = _over_base_tables(draw(st.one_of(conventional_plans(), temporal_shaped_plans())))
    cardinalities = st.integers(min_value=0, max_value=5000)
    maps = [{name: draw(cardinalities) for name in tables} for _ in range(2)]
    order = derive_order(plan)
    spec = QueryResultSpec.list(order) if order else QueryResultSpec.multiset()
    return TransferToStratum(plan), spec, maps


def _decision(result):
    return result.best_plan, result.best_cost, result.rules_applied, counters(result.statistics)


class TestPurity:
    """Exploration reads no statistics; extraction writes no memo."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(case=plans_and_two_statistics(), engine=st.sampled_from([STRATUM_ENGINE, DBMS_ENGINE]))
    def test_explore_is_a_function_of_the_seed_and_extract_only_reads(self, case, engine):
        plan, spec, (first, second) = case
        search = MemoSearch(options=SearchOptions(max_expressions=400), root_engine=engine)
        explored, again = search.explore(plan, spec), search.explore(plan, spec)
        assert explored.memo is not again.memo
        assert list(explored.memo._expression_index) == list(again.memo._expression_index)
        assert explored.statistics == again.statistics and not explored.reused

        mutations = explored.memo.mutations
        serial = [_decision(search.extract(explored, statistics)) for statistics in (first, second)]
        assert explored.memo.mutations == mutations
        assert list(explored.memo._expression_index) == list(again.memo._expression_index)
        # ``optimize`` is the composition, and a second memo extracts the same.
        assert serial[0] == _decision(search.optimize(plan, spec, first))
        assert serial[1] == _decision(search.extract(again, second))

        # Two threads, one memo, different statistics: each equals its serial result.
        for _ in range(2):
            threaded = in_threads(
                lambda: _decision(search.extract(explored, first)),
                lambda: _decision(search.extract(explored, second)),
            )()
            assert threaded == serial
        assert explored.memo.mutations == mutations


class TestSharedUnderLoad:
    """More workers than cores, a short switch interval: the store and its memos hold up."""

    def test_extractions_from_shared_memos_at_several_epochs_equal_the_serial_answers(self):
        database = build_database(6, 0)
        statements = [STATEMENTS[name] for name in ("paper", "chained", "point")]
        snapshots = [database.snapshot()]
        for batch in range(3):
            database.append("EMPLOYEE", concurrent_mix_append_batch(batch, rows=8))
            snapshots.append(database.snapshot())
        serial = {
            (statement.name, snapshot.statistics_epoch()): Session(database)
            .execute(statement.sql, statement.params[0], snapshot=snapshot)
            for statement in statements
            for snapshot in snapshots
        }
        # Small enough that entries are evicted and re-planned over and over,
        # so the same memo is extracted at several epochs by several threads.
        cache = PlanCache(capacity=4)
        sizes = []

        def worker(offset: int):
            def run():
                session = Session(database, cache=cache)
                for step in range(24):
                    statement = statements[(step + offset) % len(statements)]
                    snapshot = snapshots[(step * 7 + offset) % len(snapshots)]
                    result = session.execute(statement.sql, statement.params[0], snapshot=snapshot)
                    expected = serial[statement.name, snapshot.statistics_epoch()]
                    assert result.plan == expected.plan
                    assert result.optimization.chosen_cost == expected.optimization.chosen_cost
                    assert result.relation.as_list() == expected.relation.as_list()
                    sizes.append(cache.info().explorations)
                return True
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = in_threads(*[worker(offset) for offset in range(6)], timeout=120.0)()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [True] * 6, outcomes
        info = cache.info()
        assert max(sizes) <= cache.capacity and info.size <= cache.capacity
        assert info.explorations_reused > 0 and info.evictions > 0
