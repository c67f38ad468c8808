"""Integration tests: the TemporalDatabase layer end to end.

These are the repository's acceptance tests: parse a temporal SQL statement,
optimize it with the paper's machinery, execute it across the stratum and the
conventional DBMS, and compare against (a) the expected results from the
paper and (b) the reference evaluation of the unoptimized plan under the
Definition 5.1 acceptance criterion.
"""

import pytest

from repro.core.applicability import results_acceptable
from repro.core.equivalence import list_equivalent, multiset_equivalent
from repro.core.operations import Coalescing, Sort, TemporalDifference, TransferToStratum
from repro.search import MemoSearch, SearchOptions
from repro.stratum import TemporalDatabase
from repro.workloads import (
    WorkloadParameters,
    employee_relation,
    expected_result_relation,
    generate_employees,
    generate_projects,
    project_relation,
)


class TestPaperExample:
    def test_query_reproduces_figure1_result(self, temporal_db, paper_statement, expected_result):
        result = temporal_db.query(paper_statement)
        assert list_equivalent(result, expected_result)

    def test_unoptimized_execution_matches_too(self, employee, project, paper_statement, expected_result):
        database = TemporalDatabase(optimizer=MemoSearch(rules=[]))
        database.register("EMPLOYEE", employee)
        database.register("PROJECT", project)
        result = database.query(paper_statement)
        # Without optimization the whole plan runs in the DBMS via emulation;
        # the result is only guaranteed up to the query's required
        # equivalence (here: ordering on EmpName + content).
        outcome = database.execute(paper_statement)
        assert results_acceptable(expected_result, outcome.relation, outcome.query_spec)
        assert multiset_equivalent(result, expected_result)

    def test_optimization_outcome_reports_improvement(self, temporal_db, paper_statement):
        outcome = temporal_db.execute(paper_statement)
        optimization = outcome.optimization
        assert optimization.plans_considered > 20
        assert optimization.chosen_cost.total <= optimization.initial_cost.total
        assert optimization.improvement_factor >= 1.0

    def test_initial_plan_matches_figure_2a(self, temporal_db, paper_statement):
        initial, spec = temporal_db.parse(paper_statement)
        assert isinstance(initial, TransferToStratum)
        assert isinstance(initial.child, Sort)
        assert isinstance(initial.child.child, Coalescing)

    def test_chosen_plan_moves_temporal_work_to_the_stratum(self, temporal_db, paper_statement):
        outcome = temporal_db.execute(paper_statement)
        chosen = outcome.optimization.chosen_plan
        # The chosen plan must not emulate temporal operations in the DBMS.
        assert outcome.report.dbms_emulated_operations == []
        # And it must still contain the temporal difference (in the stratum).
        assert chosen.contains_operator(TemporalDifference)

    def test_explain_renders_the_chosen_plan_and_the_initial_cost(self, temporal_db, paper_statement):
        explanation = temporal_db.explain(paper_statement)
        outcome = temporal_db.execute(paper_statement).optimization
        assert f"(initial plan {outcome.initial_cost.total:.1f}," in explanation
        assert f"estimated cost: {outcome.chosen_cost.total:.1f}" in explanation
        assert "[stratum]" in explanation and "[dbms]" in explanation


class TestOtherStatements:
    def test_selection_with_distinct_has_sequenced_semantics(self, temporal_db):
        result = temporal_db.query("SELECT DISTINCT Dept FROM EMPLOYEE WHERE Dept = 'Sales'")
        # Temporal statement: the result is timestamped and duplicate free in
        # every snapshot (someone is in Sales during [1,8) and [8,12)).
        assert {tup["Dept"] for tup in result} == {"Sales"}
        assert result.schema.is_temporal
        assert not result.has_snapshot_duplicates()
        assert sorted((tup["T1"], tup["T2"]) for tup in result) == [(1, 8), (8, 12)]

    def test_order_by_descending(self, temporal_db):
        result = temporal_db.query("SELECT EmpName FROM EMPLOYEE ORDER BY EmpName DESC")
        names = [tup["EmpName"] for tup in result]
        assert names == sorted(names, reverse=True)

    def test_temporal_aggregation_statement(self, temporal_db):
        result = temporal_db.query(
            "SELECT Dept, COUNT(EmpName) AS n FROM EMPLOYEE GROUP BY Dept"
        )
        assert result.schema.is_temporal
        sales_at_3 = [
            tup["n"]
            for tup in result
            if tup["Dept"] == "Sales" and tup["T1"] <= 3 < tup["T2"]
        ]
        assert sales_at_3 == [2]

    def test_temporal_union_statement(self, temporal_db):
        result = temporal_db.query(
            "SELECT EmpName FROM EMPLOYEE UNION TEMPORAL SELECT EmpName FROM PROJECT COALESCE"
        )
        assert result.schema.is_temporal
        assert not result.has_snapshot_duplicates() or result.cardinality > 0

    def test_registering_and_inserting(self):
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.insert("EMPLOYEE", [("Mia", "Support", 3, 9)])
        assert database.table("EMPLOYEE").cardinality == 6
        result = database.query("SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Support'")
        assert {tup["EmpName"] for tup in result} == {"Mia"}

    def test_statistics_feed_the_cost_model(self, temporal_db):
        assert temporal_db.statistics() == {"EMPLOYEE": 5, "PROJECT": 8}


class TestDefinition51AcrossTheEngine:
    """Optimized, engine-executed results satisfy Definition 5.1 vs the reference."""

    STATEMENTS = [
        "SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
        "ORDER BY EmpName COALESCE",
        "SELECT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT",
        "SELECT DISTINCT EmpName FROM EMPLOYEE",
        "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales' ORDER BY EmpName",
        "SELECT EmpName FROM EMPLOYEE UNION ALL SELECT EmpName FROM PROJECT",
        "SELECT Dept, COUNT(EmpName) AS n FROM EMPLOYEE GROUP BY Dept ORDER BY Dept",
    ]

    @pytest.mark.parametrize("statement", STATEMENTS)
    def test_statement(self, temporal_db, statement):
        initial_plan, spec = temporal_db.parse(statement)
        reference = temporal_db.evaluate_reference(initial_plan)
        outcome = temporal_db.execute(statement)
        assert results_acceptable(reference, outcome.relation, spec), statement


class TestScaledWorkload:
    def test_paper_query_on_generated_data(self):
        employees = generate_employees(WorkloadParameters(tuples=150, entities=30, seed=9))
        projects = generate_projects(WorkloadParameters(tuples=200, entities=30, seed=10))
        database = TemporalDatabase(
            optimizer=MemoSearch(options=SearchOptions(max_expressions=300))
        )
        database.register("EMPLOYEE", employees)
        database.register("PROJECT", projects)
        statement = (
            "SELECT DISTINCT EmpName FROM EMPLOYEE "
            "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
            "ORDER BY EmpName COALESCE"
        )
        initial_plan, spec = database.parse(statement)
        reference = database.evaluate_reference(initial_plan)
        outcome = database.execute(statement)
        assert results_acceptable(reference, outcome.relation, spec)
        assert outcome.relation.is_coalesced()
        assert not outcome.relation.has_snapshot_duplicates()
