"""Tests for table profiles and the histogram-backed cardinality estimator."""

import pytest
from hypothesis import given, settings

from repro.core.cost import CostModel, estimate_cardinality, estimate_cost, operator_cardinality
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


#: The cost model's selectivity: what an unresolved conjunct falls back to.
FALLBACK = CostModel().selectivity


def selectivity(estimator, predicate):
    return estimator.selectivity(predicate, FALLBACK)


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
        assert selectivity(estimator, equals("Dept", "Sales")) == pytest.approx(
            actual, rel=0.25
        )

    def test_unknown_attribute_falls_back(self, estimator):
        assert selectivity(estimator, equals("NoSuch", 1)) == FALLBACK
        assert estimator.selectivity(equals("NoSuch", 1), 0.5) == 0.5

    def test_boolean_connectives(self, estimator):
        sales = selectivity(estimator, equals("Dept", "Sales"))
        assert selectivity(estimator, Literal(True)) == 1.0
        assert selectivity(estimator, Literal(False)) == 0.0
        assert selectivity(estimator, Not(equals("Dept", "Sales"))) == pytest.approx(
            1.0 - sales
        )
        conjunction = selectivity(estimator, 
            And(equals("Dept", "Sales"), between("T1", 1, 200))
        )
        assert conjunction <= sales + 1e-9
        disjunction = selectivity(estimator, 
            Or(equals("Dept", "Sales"), equals("Dept", "Legal"))
        )
        assert disjunction >= sales - 1e-9

    def test_clash_prefixes_are_stripped(self, estimator):
        prefixed = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.Dept"), Literal("Sales")
        )
        assert selectivity(estimator, prefixed) == pytest.approx(
            selectivity(estimator, equals("Dept", "Sales"))
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
        estimate = selectivity(estimator, join)
        # Under Zipf skew the uniform 1/d assumption is several times low; the
        # end-biased dot product must land within a factor of two instead.
        distinct = estimator.profiles["EMPLOYEE"].attributes["EmpName"].distinct
        assert estimate > 1.0 / distinct
        assert actual / 2 <= estimate <= actual * 2


class TestOperatorCardinality:
    """The estimator's answers, read by the one table of estimates."""

    def test_selection_scales_by_selectivity(self, estimator):
        node = Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        estimate = operator_cardinality(node, [100.0], estimator=estimator)
        assert estimate == pytest.approx(100.0 * selectivity(estimator, equals("Dept", "Sales")))

    def test_temporal_product_uses_pooled_overlap(self, estimator):
        node = TemporalCartesianProduct(
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("PROJECT", PROJECT_SCHEMA),
        )
        estimate = operator_cardinality(node, [10.0, 20.0], estimator=estimator)
        assert estimate == pytest.approx(200.0 * estimator.overlap_fraction)

    def test_duplicate_elimination_and_coalescing_shrink(self, estimator):
        base = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        for node, ratio in (
            (DuplicateElimination(base), estimator.rdup_ratio),
            (TemporalDuplicateElimination(base), estimator.tdup_ratio),
            (Coalescing(base), estimator.coal_ratio),
        ):
            estimate = operator_cardinality(node, [50.0], estimator=estimator)
            assert estimate == pytest.approx(50.0 * ratio)
            assert 0.0 <= estimate <= 50.0

    def test_aggregation_bounded_by_group_count(self, estimator):
        node = Aggregation(["Dept"], [count_aggregate()], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        distinct = estimator.profiles["EMPLOYEE"].attributes["Dept"].distinct
        assert estimator.group_count(["Dept"]) == pytest.approx(distinct)
        assert operator_cardinality(node, [1000.0], estimator=estimator) == pytest.approx(distinct)
        assert operator_cardinality(node, [2.0], estimator=estimator) == pytest.approx(2.0)
        assert estimator.group_count(["NoSuch"]) is None

    def test_unhandled_operators_fall_back(self, estimator):
        node = Projection(["EmpName"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        assert operator_cardinality(node, [10.0], estimator=estimator) == 10.0


class TestTheModelsConstantsAreTheOnlyFallbacks:
    """Where the profiles know nothing, a tuned :class:`CostModel` decides."""

    @pytest.fixture(scope="class")
    def employee_only(self):
        return CardinalityEstimator.from_relations({"EMPLOYEE": employee_relation()})

    def test_tuned_selectivity_prices_an_unresolved_conjunct(self, employee_only):
        tuned = CostModel(selectivity=0.5)
        employee = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        unresolved = Selection(equals("NoSuch", 1), employee)
        assert estimate_cardinality(unresolved, {}, tuned, employee_only) == pytest.approx(2.5)
        mixed = Selection(And(equals("Dept", "Sales"), equals("NoSuch", 1)), employee)
        sales = employee_only.selectivity(equals("Dept", "Sales"), 0.5)
        assert estimate_cardinality(mixed, {}, tuned, employee_only) == pytest.approx(
            5 * sales * 0.5
        )

    def test_tuned_default_base_cardinality_prices_an_unknown_table(self, employee_only):
        tuned = CostModel(default_base_cardinality=77)
        missing = BaseRelation("MISSING", PROJECT_SCHEMA)
        assert estimate_cardinality(missing, {}, tuned, employee_only) == 77.0
        assert estimate_cardinality(missing, {}, estimator=employee_only) == (
            CostModel().default_base_cardinality
        )


class TestBaseCardinality:
    def test_known_tables_are_profiled(self, skewed, estimator):
        assert estimator.base_cardinality("EMPLOYEE") == len(skewed["EMPLOYEE"])
        plan = Selection(equals("Dept", "Sales"), BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
        assert estimate_cardinality(plan, {}, estimator=estimator) == pytest.approx(
            len(skewed["EMPLOYEE"]) * selectivity(estimator, equals("Dept", "Sales"))
        )

    def test_statistics_mapping_backfills_unprofiled_tables(self, estimator):
        plan = BaseRelation("MISSING", PROJECT_SCHEMA)
        assert estimator.base_cardinality("MISSING") is None
        assert estimate_cardinality(plan, {"MISSING": 77}, estimator=estimator) == 77.0
        assert estimate_cardinality(plan, {}, estimator=estimator) == pytest.approx(
            CostModel().default_base_cardinality
        )

    def test_mistyped_range_predicate_falls_back_instead_of_raising(self, estimator):
        from repro.core.expressions import less_than

        assert 0.0 <= selectivity(estimator, less_than("EmpName", 5)) <= 1.0

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
        estimate = estimate_cardinality(plan, estimator=estimator)
        assert 0.0 <= estimate <= len(left) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pair=profiled_relation_pairs())
    def test_join_estimate_never_exceeds_product_of_inputs(self, pair):
        left, right, estimator = pair
        predicate = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.Name"), AttributeRef("2.Name")
        )
        plan = Join(predicate, LiteralRelation(left), LiteralRelation(right))
        estimate = estimate_cardinality(plan, estimator=estimator)
        assert 0.0 <= estimate <= len(left) * len(right) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pair=profiled_relation_pairs())
    def test_shrinking_operators_never_grow(self, pair):
        left, _, estimator = pair
        for wrap in (DuplicateElimination, TemporalDuplicateElimination, Coalescing):
            estimate = estimate_cardinality(wrap(LiteralRelation(left)), estimator=estimator)
            assert 0.0 <= estimate <= len(left) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(relation=temporal_relations())
    def test_literal_plans_read_the_profiled_ratio(self, relation):
        estimator = CardinalityEstimator.from_relations({"R": relation})
        estimate = estimate_cardinality(Coalescing(LiteralRelation(relation)), estimator=estimator)
        if len(relation):
            assert estimate == pytest.approx(len(relation) * estimator.coal_ratio)
        else:
            assert estimator.coal_ratio is None and estimate == 0.0
