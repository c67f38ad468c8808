"""Tests for table profiles and the histogram-backed cardinality estimator."""

import pytest
from hypothesis import given, settings

from repro.core.cost import CostModel, estimate_cardinality, estimate_cost
from repro.core.expressions import (
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    Not,
    Or,
    between,
    equals,
)
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    Coalescing,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    TemporalCartesianProduct,
    TemporalDuplicateElimination,
)
from repro.core.expressions import count as count_aggregate
from repro.core.relation import Relation
from repro.stats import CardinalityEstimator, TableProfile
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PROJECT_SCHEMA,
    employee_relation,
    project_relation,
    skewed_paper_workload,
)

from .strategies import profiled_relation_pairs, temporal_relations


@pytest.fixture(scope="module")
def skewed():
    employees, projects = skewed_paper_workload(20)
    return {"EMPLOYEE": employees, "PROJECT": projects}


@pytest.fixture(scope="module")
def estimator(skewed):
    return CardinalityEstimator.from_relations(skewed)


class TestTableProfile:
    def test_basic_fields(self):
        profile = TableProfile.from_relation("EMPLOYEE", employee_relation())
        assert profile.cardinality == 5
        assert profile.attributes["Dept"].distinct == 2.0
        assert profile.period is not None
        assert 0.0 < profile.coalesced_fraction <= 1.0
        assert 0.0 < profile.row_distinct_ratio <= 1.0

    def test_coalesced_fraction_counts_merged_intervals(self):
        rows = [
            ("Mia", "Sales", 1, 4),
            ("Mia", "Sales", 4, 8),   # adjacent: merges with the first
            ("Mia", "Sales", 10, 12),  # gap: its own interval
            ("Tom", "Ads", 1, 3),
        ]
        relation = Relation.from_rows(EMPLOYEE_SCHEMA, rows)
        profile = TableProfile.from_relation("EMPLOYEE", relation)
        assert profile.coalesced_fraction == pytest.approx(3 / 4)

    def test_snapshot_relation_has_no_period_histogram(self):
        schema = EMPLOYEE_SCHEMA.drop_time()
        relation = Relation.from_rows(
            schema, [("Mia", "Sales", 1, 4), ("Tom", "Ads", 2, 5)]
        )
        profile = TableProfile.from_relation("S", relation)
        assert profile.period is None
        assert profile.coalesced_fraction == 1.0


class TestSelectivities:
    def test_equality_matches_actual_frequency(self, skewed, estimator):
        employees = skewed["EMPLOYEE"]
        actual = sum(1 for t in employees if t["Dept"] == "Sales") / len(employees)
        assert estimator.selectivity(equals("Dept", "Sales")) == pytest.approx(
            actual, rel=0.25
        )

    def test_unknown_attribute_falls_back(self, estimator):
        assert estimator.selectivity(equals("NoSuch", 1)) == pytest.approx(
            estimator.fallback_selectivity
        )

    def test_boolean_connectives(self, estimator):
        sales = estimator.selectivity(equals("Dept", "Sales"))
        assert estimator.selectivity(Literal(True)) == 1.0
        assert estimator.selectivity(Literal(False)) == 0.0
        assert estimator.selectivity(Not(equals("Dept", "Sales"))) == pytest.approx(
            1.0 - sales
        )
        conjunction = estimator.selectivity(
            And(equals("Dept", "Sales"), between("T1", 1, 200))
        )
        assert conjunction <= sales + 1e-9
        disjunction = estimator.selectivity(
            Or(equals("Dept", "Sales"), equals("Dept", "Legal"))
        )
        assert disjunction >= sales - 1e-9

    def test_clash_prefixes_are_stripped(self, estimator):
        prefixed = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.Dept"), Literal("Sales")
        )
        assert estimator.selectivity(prefixed) == pytest.approx(
            estimator.selectivity(equals("Dept", "Sales"))
        )

    def test_equijoin_tracks_the_actual_match_rate(self, skewed, estimator):
        join = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
        )
        employees, projects = skewed["EMPLOYEE"], skewed["PROJECT"]
        matches = sum(
            1
            for left in employees
            for right in projects
            if left["EmpName"] == right["EmpName"]
        )
        actual = matches / (len(employees) * len(projects))
        estimate = estimator.selectivity(join)
        # Under Zipf skew the uniform 1/d assumption is several times low; the
        # end-biased dot product must land within a factor of two instead.
        distinct = estimator.profiles["EMPLOYEE"].attributes["EmpName"].distinct
        assert estimate > 1.0 / distinct
        assert actual / 2 <= estimate <= actual * 2


class TestOperatorCardinality:
    def test_selection_scales_by_selectivity(self, estimator):
        node = Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        estimate = estimator.operator_cardinality(node, [100.0])
        assert estimate == pytest.approx(
            100.0 * estimator.selectivity(equals("Dept", "Sales"))
        )

    def test_temporal_product_uses_pooled_overlap(self, estimator):
        node = TemporalCartesianProduct(
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("PROJECT", PROJECT_SCHEMA),
        )
        estimate = estimator.operator_cardinality(node, [10.0, 20.0])
        assert estimate == pytest.approx(200.0 * estimator.overlap_fraction)

    def test_duplicate_elimination_and_coalescing_shrink(self, estimator):
        base = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        for node in (
            DuplicateElimination(base),
            TemporalDuplicateElimination(base),
            Coalescing(base),
        ):
            estimate = estimator.operator_cardinality(node, [50.0])
            assert 0.0 <= estimate <= 50.0

    def test_aggregation_bounded_by_group_count(self, estimator):
        node = Aggregation(["Dept"], [count_aggregate()], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        distinct = estimator.profiles["EMPLOYEE"].attributes["Dept"].distinct
        assert estimator.operator_cardinality(node, [1000.0]) == pytest.approx(distinct)
        assert estimator.operator_cardinality(node, [2.0]) == pytest.approx(2.0)

    def test_unhandled_operators_fall_back(self, estimator):
        node = Projection(["EmpName"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        assert estimator.operator_cardinality(node, [10.0]) is None


class TestAssumedTables:
    def test_known_tables_are_data_driven(self, skewed, estimator):
        plan = Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        estimate = estimator.estimate(plan)
        assert estimate.assumed_tables == frozenset()
        assert estimate.data_driven
        assert estimate.cardinality == pytest.approx(
            len(skewed["EMPLOYEE"]) * estimator.selectivity(equals("Dept", "Sales"))
        )

    def test_statistics_mapping_backfills_unprofiled_tables(self, estimator):
        plan = BaseRelation("MISSING", PROJECT_SCHEMA)
        estimator.assumed_tables.clear()
        assert estimate_cardinality(plan, {"MISSING": 77}, estimator=estimator) == 77.0
        # The table is still flagged: its histograms are missing even though
        # the caller knew its cardinality.
        assert "MISSING" in estimator.assumed_tables
        estimator.assumed_tables.clear()
        assert estimate_cardinality(plan, {}, estimator=estimator) == pytest.approx(
            estimator.default_base_cardinality
        )
        estimator.assumed_tables.clear()

    def test_mistyped_range_predicate_falls_back_instead_of_raising(self, estimator):
        from repro.core.expressions import less_than

        selectivity = estimator.selectivity(less_than("EmpName", 5))
        assert 0.0 <= selectivity <= 1.0

    def test_missing_tables_are_recorded(self, estimator):
        plan = Join(
            Literal(True),
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("MISSING", PROJECT_SCHEMA),
        )
        estimator.assumed_tables.clear()
        estimate = estimator.estimate(plan)
        assert estimate.assumed_tables == frozenset({"MISSING"})
        assert not estimate.data_driven
        # The estimator also accumulates across calls until reset.
        assert "MISSING" in estimator.assumed_tables
        estimator.assumed_tables.clear()
        assert estimator.assumed_tables == set()

    def test_estimate_agrees_with_estimate_cardinality(self, skewed, estimator):
        plan = Coalescing(
            TemporalDuplicateElimination(
                Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
            )
        )
        statistics = {name: len(relation) for name, relation in skewed.items()}
        via_cost = estimate_cardinality(plan, statistics, estimator=estimator)
        assert estimator.estimate(plan).cardinality == pytest.approx(via_cost)

    def test_estimate_cost_consumes_the_estimator(self, skewed, estimator):
        plan = Selection(equals("Dept", "Legal"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        statistics = {name: len(relation) for name, relation in skewed.items()}
        with_stats = estimate_cost(plan, statistics, estimator=estimator)
        without = estimate_cost(plan, statistics)
        assert with_stats.output_cardinality != pytest.approx(without.output_cardinality)


class TestStatisticsWiring:
    def test_unoptimized_execution_reports_histogram_backed_cost(self, skewed):
        from repro.options import ExecutionOptions
        from repro.search import MemoSearch
        from repro.stratum import TemporalDatabase
        from repro.workloads import paper_query

        plan, spec = paper_query()
        outcomes = {}
        for use_statistics in (False, True):
            db = TemporalDatabase(
                optimizer=MemoSearch(rules=[]),
                options=ExecutionOptions(use_statistics=use_statistics),
            )
            for name, relation in skewed.items():
                db.register(name, relation)
            optimization = db.optimize_plan(plan, spec)
            outcomes[use_statistics] = (optimization, db.run_plan(optimization.chosen_plan))
        assert outcomes[True][1] == outcomes[False][1]
        assert (
            outcomes[True][0].chosen_cost.total
            != outcomes[False][0].chosen_cost.total
        )


class TestEstimatorProperties:
    """The satellite property suite: bounds every estimate must satisfy."""

    @settings(max_examples=40, deadline=None)
    @given(pair=profiled_relation_pairs())
    def test_selection_estimate_within_input_bounds(self, pair):
        left, _, estimator = pair
        plan = Selection(equals("Name", "John"), LiteralRelation(left))
        estimate = estimator.estimate(plan).cardinality
        assert 0.0 <= estimate <= len(left) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pair=profiled_relation_pairs())
    def test_join_estimate_never_exceeds_product_of_inputs(self, pair):
        left, right, estimator = pair
        predicate = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.Name"), AttributeRef("2.Name")
        )
        plan = Join(predicate, LiteralRelation(left), LiteralRelation(right))
        estimate = estimator.estimate(plan).cardinality
        assert 0.0 <= estimate <= len(left) * len(right) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pair=profiled_relation_pairs())
    def test_shrinking_operators_never_grow(self, pair):
        left, _, estimator = pair
        for wrap in (DuplicateElimination, TemporalDuplicateElimination, Coalescing):
            estimate = estimator.estimate(wrap(LiteralRelation(left))).cardinality
            assert 0.0 <= estimate <= len(left) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(relation=temporal_relations())
    def test_estimates_are_data_driven_for_literal_plans(self, relation):
        estimator = CardinalityEstimator.from_relations({"R": relation})
        estimate = estimator.estimate(Coalescing(LiteralRelation(relation)))
        assert estimate.assumed_tables == frozenset()
