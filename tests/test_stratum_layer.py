"""Unit tests for the TemporalDatabase facade and the query optimizer driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads import STATEMENTS, build_database
from repro.core.analysis import derive_order
from repro.core.cost import CostModel
from repro.core.equivalence import multiset_equivalent
from repro.core.exceptions import CatalogError, ParseError
from repro.core.expressions import equals
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TransferToDBMS,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.query import QueryResultSpec
from repro.core.rules import rules_by_name
from repro.dbms.engine import SnapshotDBMS
from repro.options import ExecutionOptions
from repro.stratum import TemporalDatabase, TemporalQueryOptimizer
from repro.stratum.partition import partition_plan
from repro.workloads import (
    CHAINED_SQL,
    EMPLOYEE_SCHEMA,
    PAPER_SQL,
    WORKLOAD_QUERIES,
    employee_relation,
)

from .strategies import conventional_plans, join_shaped_plans


class TestTemporalQueryOptimizer:
    def make_initial(self, temporal_db, paper_statement):
        return temporal_db.parse(paper_statement)

    def test_optimize_returns_cheaper_or_equal_plan(self, temporal_db, paper_statement):
        plan, spec = self.make_initial(temporal_db, paper_statement)
        optimizer = TemporalQueryOptimizer()
        outcome = optimizer.optimize(plan, spec, temporal_db.statistics())
        assert outcome.chosen_cost.total <= outcome.initial_cost.total
        assert outcome.initial_plan == plan
        # The memo search records its own statistics.
        assert outcome.search is not None
        assert outcome.plans_considered == outcome.search.statistics.plans_considered

    def test_restricted_rule_set(self, temporal_db, paper_statement):
        plan, spec = self.make_initial(temporal_db, paper_statement)
        rules = rules_by_name()
        optimizer = TemporalQueryOptimizer(rules=[rules["D2"], rules["S2"]])
        outcome = optimizer.optimize(plan, spec, temporal_db.statistics())
        assert outcome.plans_considered <= 3

    def test_custom_cost_model_changes_choices(self, temporal_db, paper_statement):
        plan, spec = self.make_initial(temporal_db, paper_statement)
        dbms_biased = TemporalQueryOptimizer(cost_model=CostModel(dbms_speed=0.01, transfer_cost=0.0))
        stratum_biased = TemporalQueryOptimizer(cost_model=CostModel(dbms_speed=10.0, transfer_cost=5.0))
        statistics = temporal_db.statistics()
        dbms_choice = dbms_biased.optimize(plan, spec, statistics).chosen_plan
        stratum_choice = stratum_biased.optimize(plan, spec, statistics).chosen_plan
        # With wildly different engine speeds the chosen plans should differ
        # in how much work they leave in the DBMS (transfer placement).
        assert dbms_choice != stratum_choice

    def test_improvement_factor_of_identity(self, temporal_db, paper_statement):
        plan, spec = self.make_initial(temporal_db, paper_statement)
        optimizer = TemporalQueryOptimizer(rules=[])
        outcome = optimizer.optimize(plan, spec, temporal_db.statistics())
        assert outcome.plans_considered == 1
        assert outcome.improvement_factor == pytest.approx(1.0)


class TestTemporalDatabaseFacade:
    def test_register_rejects_duplicate_names(self, temporal_db):
        with pytest.raises(CatalogError):
            temporal_db.register("EMPLOYEE", employee_relation())

    def test_create_table_and_insert(self):
        database = TemporalDatabase()
        database.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert database.table("EMPLOYEE").is_empty()
        database.insert("EMPLOYEE", [("Mia", "Sales", 1, 3)])
        assert database.table("EMPLOYEE").cardinality == 1

    def test_parse_errors_propagate(self, temporal_db):
        with pytest.raises(ParseError):
            temporal_db.query("SELECT FROM WHERE")

    def test_evaluation_context_contains_all_tables(self, temporal_db):
        context = temporal_db.evaluation_context()
        assert "EMPLOYEE" in context and "PROJECT" in context

    def test_run_plan_executes_without_optimization(self, temporal_db, employee):
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Projection(
                ["EmpName", "T1", "T2"],
                TransferToStratum(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
            ),
        )
        result = temporal_db.run_plan(plan)
        assert result.cardinality == employee.cardinality

    def test_execute_plan_with_optimization_disabled(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        database = TemporalDatabase(
            dbms=temporal_db.dbms, options=ExecutionOptions(optimize_queries=False)
        )
        optimization = database.execute_plan(plan, spec).optimization
        # The stratum searched nothing; the initial plan's one fragment (the
        # whole statement) went through the DBMS's own optimizer, once.
        assert optimization.search is None and optimization.plans_considered == 1
        assert optimization.initial_plan == plan
        fragment = temporal_db.dbms.optimize(plan.child)
        assert optimization.chosen_plan == plan.with_children([fragment])
        assert len(optimization.fragment_searches) == 1

    def test_query_outcome_records_statement(self, temporal_db, paper_statement):
        outcome = temporal_db.execute(paper_statement)
        assert outcome.statement == paper_statement
        assert outcome.query_spec.coalesced

    def test_reference_and_engine_agree_for_multiset_query(self, temporal_db):
        statement = "SELECT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT"
        plan, spec = temporal_db.parse(statement)
        reference = temporal_db.evaluate_reference(plan)
        produced = temporal_db.query(statement)
        assert multiset_equivalent(reference, produced)

    def test_coalesced_flag_reaches_the_plan(self, temporal_db):
        plan, spec = temporal_db.parse(
            "SELECT EmpName FROM EMPLOYEE COALESCE"
        )
        assert spec.coalesced
        assert any(isinstance(node, Coalescing) for _, node in plan.locations())


def ts_fragments(plan):
    return [plan.subtree_at(path) for path in partition_plan(plan).dbms_fragments]


class TestFragmentsAreOptimizedWhereThePlanIsChosen:
    def test_every_ts_fragment_is_searched_once_in_plan_order(self, temporal_db):
        plan, spec = temporal_db.parse(CHAINED_SQL)
        outcome = temporal_db.optimize_plan(plan, spec)
        assert len(outcome.fragment_searches) == len(ts_fragments(outcome.chosen_plan)) == 3
        # The statement's own search is reported alone.
        alone = temporal_db.optimizer.optimize(plan, spec, temporal_db.statistics())
        assert outcome.search.statistics == alone.search.statistics
        assert outcome.chosen_plan == alone.chosen_plan

    def test_a_ts_nested_in_a_td_island_is_reached(self, temporal_db, employee):
        """``TS(σ(TD(rdupT(TS(π(π(EMPLOYEE)))))))``: both fragments, outer first."""
        scan = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        inner = Projection(["EmpName", "T1", "T2"], Projection(["EmpName", "Dept", "T1", "T2"], scan))
        island = TransferToDBMS(TemporalDuplicateElimination(TransferToStratum(inner)))
        plan = TransferToStratum(Selection(equals("EmpName", "John"), island))
        database = TemporalDatabase(
            dbms=temporal_db.dbms, options=ExecutionOptions(optimize_queries=False)
        )
        outcome = database.optimize_plan(plan, QueryResultSpec.multiset())
        assert len(outcome.fragment_searches) == 2
        assert outcome.fragments_rewritten == 1  # the π cascade below the island
        outer, nested = ts_fragments(outcome.chosen_plan)
        assert outer == plan.child.with_children([outcome.chosen_plan.subtree_at((0, 0))])
        assert nested == Projection(["EmpName", "T1", "T2"], scan)
        assert outcome.chosen_cost.total < outcome.initial_cost.total
        produced = database.run_plan(outcome.chosen_plan)
        assert list(produced.tuples) == list(database.run_plan(plan).tuples)

    def test_a_snapshot_plans_its_fragments_against_the_pinned_engine(self, temporal_db, monkeypatch):
        searched_by = []
        real_search = SnapshotDBMS.search

        def search(self, plan, explorations=None):
            searched_by.append(self)
            return real_search(self, plan, explorations)

        monkeypatch.setattr(SnapshotDBMS, "search", search)
        snapshot = temporal_db.snapshot()
        plan, spec = temporal_db.parse(PAPER_SQL)
        temporal_db.optimize_plan(plan, spec, snapshot=snapshot)
        assert searched_by == [snapshot.dbms] * 2


class TestTheDBMSSearchIsIdentityOnWhatTheStratumExtracted:
    """Is the DBMS's own search ever non-identity after the stratum's?  Counted: never.

    The stratum's memo is engine-aware — it has already explored below every
    ``TS`` with the rules the DBMS's search uses — so on a plan it produced
    each fragment search returns the fragment it was given: 0 non-identity of
    37 (``WORKLOAD_QUERIES``) + 11 (the ledger's seven statements) + 172 (the
    150 generated plans below).  Pinned so that a cost-model or rule change that
    makes the two searches disagree shows up here first (ROADMAP item 6).
    """

    @staticmethod
    def check(database, plan, spec):
        outcome = database.optimize_plan(plan, spec)
        fragments = ts_fragments(outcome.chosen_plan)
        assert outcome.degraded is None
        assert len(outcome.fragment_searches) == len(fragments)
        assert outcome.fragments_rewritten == 0
        assert outcome.chosen_plan is outcome.search.best_plan
        return len(fragments)

    def test_registry_workloads(self, temporal_db):
        total = sum(self.check(temporal_db, *query.build()) for query in WORKLOAD_QUERIES)
        assert total == 37

    def test_ledger_statements(self):
        database = build_database(12, 0)
        total = sum(
            self.check(database, *database.parse(statement.sql))
            for statement in STATEMENTS.values()
        )
        assert (len(STATEMENTS), total) == (7, 11)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(plan=st.one_of(conventional_plans(), join_shaped_plans()))
    def test_generated_conventional_and_join_plans(self, plan):
        order = derive_order(plan)
        spec = QueryResultSpec.list(order) if order else QueryResultSpec.multiset()
        assert self.check(TemporalDatabase(), TransferToStratum(plan), spec) >= 1
