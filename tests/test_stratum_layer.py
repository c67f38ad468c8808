"""Unit tests for the TemporalDatabase facade and the query optimizer driver."""

import pytest

from repro.core.cost import CostModel
from repro.core.equivalence import multiset_equivalent
from repro.core.exceptions import CatalogError, ParseError
from repro.core.operations import BaseRelation, Coalescing, Projection, Sort, TransferToStratum
from repro.core.order_spec import OrderSpec
from repro.core.query import QueryResultSpec
from repro.core.rules import rules_by_name
from repro.options import ExecutionOptions
from repro.stratum import TemporalDatabase, TemporalQueryOptimizer
from repro.workloads import EMPLOYEE_SCHEMA, employee_relation


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
        outcome = database.execute_plan(plan, spec)
        assert outcome.optimization.chosen_plan == plan
        assert outcome.optimization.plans_considered == 1

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
