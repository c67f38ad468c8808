"""``rdupT`` and ``γT`` as batch operators inside the stratum's regions.

``TemporalDistinctOp`` and ``TemporalAggregateOp`` replace a per-tuple
work-list function and the reference recursion, so the contract is the
strict one: on generated stacks of temporal and streaming operations the
stratum yields, at every batch size, the **identical tuple sequence** the
reference ``node._evaluate`` does (several temporal operations are
order-sensitive, Section 6); the operators account like every other batch
operator (rows, ticks, chunking); only the stratum builds them; and their
cost is pinned by counts — no ``Period``, no ``Tuple``, O(n log n) cover
steps — not by a clock.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core import physical
from repro.core.expressions import (
    AggregateFunction,
    AggregateKind,
    agg_avg,
    agg_sum,
    count,
    equals,
)
from repro.core.operations import (
    Coalescing,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext, ROOT_PATH
from repro.core.order_spec import OrderSpec
from repro.core.period import Period
from repro.core.physical import SourceOp, TemporalAggregateOp, TemporalDistinctOp
from repro.core.relation import Relation
from repro.core.schema import Domain, INTEGER, RelationSchema, STRING, TIME
from repro.core.tuples import Tuple
from repro.dbms import ConventionalDBMS, PhysicalPlanner
from repro.dbms import executor as dbms_planner
from repro.dbms.catalog import Catalog
from repro.stratum import StratumExecutor
from repro.stratum import physical as stratum_planner
from repro.workloads import figure3_r1, figure3_r3

from .strategies import NARROW_TEMPORAL_SCHEMA, SCORED_SCHEMA, temporal_shaped_plans
from .test_dbms_operators import BATCH_SIZES, CountingControl

CONTEXT = EvaluationContext()
TEMPORAL_OPERATORS = (TemporalDistinctOp, TemporalAggregateOp)
TEMPORAL_NODES = (TemporalDuplicateElimination, TemporalAggregation)


def run_stratum(plan, batch_size=1024, **kwargs):
    """The plan's result and report through the stratum's executor, undegraded."""
    executor = StratumExecutor(ConventionalDBMS(), batch_size=batch_size, **kwargs)
    result = executor.execute(plan)
    assert executor.report.degraded_operations == []
    return result, executor.report


def lower(plan, batch_size=1024, **kwargs):
    """The plan's root region as operators; boundary subtrees come from the reference."""
    return stratum_planner.lower_plan(
        plan, ROOT_PATH, lambda node, path: node.evaluate(CONTEXT), batch_size=batch_size, **kwargs
    )


def assert_list_identical(result: Relation, reference: Relation):
    assert result.schema.attributes == reference.schema.attributes
    assert list(result.tuples) == list(reference.tuples)


def values(relation):
    return [tup.values() for tup in relation]


def narrow(*rows):
    return LiteralRelation(Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows))


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(temporal_shaped_plans())
    def test_every_batch_size_yields_the_reference_sequence(self, plan):
        reference = plan.evaluate(CONTEXT)
        for batch_size in BATCH_SIZES:
            result, _ = run_stratum(plan, batch_size)
            assert_list_identical(result, reference)

    @settings(max_examples=60, deadline=None)
    @given(temporal_shaped_plans())
    def test_operators_are_admissible_redrainable_and_emit_their_own_schema(self, plan):
        root = lower(plan, batch_size=2)
        for operator in root.operators():
            assert type(operator) in stratum_planner.ADMISSIBLE_OPERATORS
            assert operator.fault_point == stratum_planner.FAULT_POINT == "stratum.pull"
            first = list(operator.batches())
            assert all(batch.schema is operator.output_schema for batch in first)
            assert all(0 < batch.length <= 2 for batch in first)
            rows = [row for batch in first for row in batch.rows()]
            assert [row for batch in operator.batches() for row in batch.rows()] == rows
            assert operator.rows_out == len(rows)

    @settings(max_examples=60, deadline=None)
    @given(temporal_shaped_plans())
    def test_the_dbms_planner_builds_neither_operator(self, plan):
        planner = PhysicalPlanner(Catalog())
        root = planner.plan(plan)
        for operator in root.operators():
            assert type(operator) in dbms_planner.ADMISSIBLE_OPERATORS
            assert not isinstance(operator, TEMPORAL_OPERATORS)
        # Every rdupT and γT is materialise-and-emulate there, as before.
        temporal = Counter(
            node.label() for _, node in plan.locations() if isinstance(node, TEMPORAL_NODES)
        )
        assert temporal and not temporal - Counter(planner.report.emulated_operations)

    def test_only_the_stratum_admits_them_and_pipelines_their_nodes(self):
        for operator_type in TEMPORAL_OPERATORS:
            assert operator_type in stratum_planner.ADMISSIBLE_OPERATORS
            assert operator_type not in dbms_planner.ADMISSIBLE_OPERATORS
        for node_type in TEMPORAL_NODES:
            assert node_type in stratum_planner.PIPELINED_TYPES
        # The three unported temporal operations stay region boundaries.
        plan = Coalescing(TemporalDifference(narrow(("a", 1, 5)), narrow(("a", 2, 3))))
        assert not stratum_planner.is_pipelined(plan) and not stratum_planner.is_pipelined(plan.child)
        assert isinstance(lower(TemporalDuplicateElimination(plan)).children()[0], SourceOp)

    def test_a_stack_is_one_operator_tree_with_no_relation_in_between(self):
        argument = LiteralRelation(figure3_r1())
        plan = Sort(
            OrderSpec.of("EmpName DESC"),
            TemporalAggregation(
                ["EmpName"], [count(alias="n")], Selection(equals("EmpName", "Anna"), argument)
            ),
        )
        fetched = []

        def fetch(node, path):
            fetched.append(node)
            return node.evaluate(CONTEXT)

        root = stratum_planner.lower_plan(plan, ROOT_PATH, fetch)
        assert fetched == [argument]  # nothing above the literal is materialised
        assert root.explain().splitlines() == [
            "Sort(EmpName DESC)",
            "  TemporalAggregate(by=['EmpName']; COUNT(*))",
            "    Filter(EmpName = 'Anna')",
            "      Source(rows=5)",
        ]
        assert_list_identical(root.to_relation(), plan.evaluate(CONTEXT))


class TestAccounting:
    @settings(max_examples=80, deadline=None)
    @given(temporal_shaped_plans())
    def test_ticks_follow_the_closed_form_at_every_batch_size(self, plan):
        for batch_size in BATCH_SIZES:
            control = CountingControl(interval=3)
            root = lower(plan, batch_size, control=control)
            root.to_relation()
            expected = sum(1 + operator.rows_out // 3 for operator in root.operators())
            assert control.ticks == {"stratum.pull": expected}

    @settings(max_examples=80, deadline=None)
    @given(temporal_shaped_plans())
    def test_rows_out_is_the_reports_node_rows(self, plan):
        _, report = run_stratum(plan, batch_size=2)
        for path, node in plan.locations():
            if isinstance(node, TEMPORAL_NODES):
                assert report.node_rows[path] == len(node.evaluate(CONTEXT))
        root = lower(plan, batch_size=7)
        root.to_relation()
        for operator in root.operators():
            if operator.paths:
                assert operator.rows_out == report.node_rows[operator.paths[0]]

    def test_each_operator_counts_as_one_stratum_operation_with_its_order(self):
        argument = narrow(("b", 1, 5), ("a", 2, 4), ("a", 3, 9))
        sort = Sort(OrderSpec.of("Name", "T1 DESC"), argument)
        plan = TemporalAggregation(["Name"], [count(alias="n")], TemporalDuplicateElimination(sort))
        result, report = run_stratum(plan)
        assert report.stratum_operations == 3
        assert values(result) == [
            ("a", 1, 2, 3), ("a", 1, 3, 5), ("a", 1, 5, 9), ("b", 1, 1, 2), ("b", 1, 2, 3), ("b", 1, 3, 5),
        ]
        assert report.node_rows == {(): 6, (0,): 3, (0, 0): 3, (0, 0, 0): 3}
        # Table 1: rdupT drops the time keys from the order, γT keeps the grouping prefix.
        assert result.order == OrderSpec.ascending("Name")
        assert lower(plan).children()[0].order == OrderSpec.ascending("Name")

    def test_the_operators_are_timed_like_any_other(self):
        ticks = iter(range(1000))
        plan = TemporalDuplicateElimination(narrow(("a", 1, 5), ("a", 2, 9)))
        _, report = run_stratum(plan, clock=lambda: float(next(ticks)))
        started, duration = report.node_timings[()]
        assert duration > 0


class TestTemporalDistinct:
    def test_figure3(self):
        root = lower(TemporalDuplicateElimination(LiteralRelation(figure3_r1())))
        assert isinstance(root, TemporalDistinctOp) and root.describe() == "TemporalDistinct"
        assert_list_identical(root.to_relation(), figure3_r3())

    def test_fragments_sit_ascending_in_their_rows_slot(self):
        plan = TemporalDuplicateElimination(
            narrow(("a", 4, 6), ("a", 10, 12), ("b", 1, 20), ("a", 1, 20), ("a", 5, 11))
        )
        result, _ = run_stratum(plan)
        assert values(result) == [
            ("a", 4, 6), ("a", 10, 12), ("b", 1, 20), ("a", 1, 4), ("a", 6, 10), ("a", 12, 20),
        ]
        assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_one_row_can_leave_more_fragments_than_a_batch_holds(self):
        islands = [("a", start, start + 1) for start in range(2, 40, 4)]
        plan = TemporalDuplicateElimination(narrow(*islands, ("a", 0, 50)))
        root = lower(plan, batch_size=3)
        lengths = [batch.length for batch in root.batches()]
        assert sum(lengths) == 10 + 11 and max(lengths) == 3
        assert_list_identical(root.to_relation(), plan.evaluate(CONTEXT))

    def test_time_attributes_need_not_be_the_trailing_columns(self):
        schema = RelationSchema.from_pairs(
            [("T1", TIME), ("Name", STRING), ("T2", TIME), ("Dept", STRING)], name="X"
        )
        relation = Relation.from_rows(
            schema, [(1, "a", 8, "s"), (3, "a", 12, "s"), (2, "a", 5, "t"), (0, "a", 20, "s")]
        )
        plan = TemporalDuplicateElimination(LiteralRelation(relation))
        result, _ = run_stratum(plan)
        assert values(result) == [
            (1, "a", 8, "s"), (8, "a", 12, "s"), (2, "a", 5, "t"), (0, "a", 1, "s"), (12, "a", 20, "s"),
        ]
        assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_a_relation_of_nothing_but_periods_is_one_value_class(self):
        schema = RelationSchema.temporal([], name="T")
        plan = TemporalDuplicateElimination(
            LiteralRelation(Relation.from_rows(schema, [(1, 5), (3, 9), (0, 2)]))
        )
        result, _ = run_stratum(plan)
        assert values(result) == [(1, 5), (5, 9), (0, 1)]
        assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_one_class_of_200_mutually_overlapping_tuples_takes_n_log_n_cover_steps(self, monkeypatch):
        n = 200
        rows = [("a", 100 - (i * 37) % n, 101 + (i * 53) % n) for i in range(n)]  # all hold 100
        plan = TemporalDuplicateElimination(narrow(*rows))
        reference = plan.evaluate(CONTEXT)
        steps = Counter()

        def counted(name):
            original = getattr(physical, name)

            def wrapper(*args):
                steps[name] += 1
                if name.startswith("_cover"):
                    steps["intervals"] += len(args[0])
                return original(*args)

            monkeypatch.setattr(physical, name, wrapper)

        for name in ("_cover_gaps", "_cover_add", "bisect_left", "bisect_right"):
            counted(name)
        result, _ = run_stratum(plan)
        assert_list_identical(result, reference)
        # One gaps and one add per row after the first, two bisections each,
        # and the class's cover never grows beyond the one merged interval.
        assert steps["_cover_gaps"] == steps["_cover_add"] == n - 1
        assert steps["bisect_left"] + steps["bisect_right"] == 4 * (n - 1)
        assert steps["intervals"] == 2 * (n - 1)

    def test_cover_walks_are_amortised_by_the_merges(self):
        # Every interval a gaps() walks is absorbed by the add() that follows.
        starts, ends = [], []
        for start in range(0, 400, 4):
            physical._cover_add(starts, ends, start, start + 2)
        assert len(starts) == 100
        assert physical._cover_gaps(starts, ends, 1, 9) == [(2, 4), (6, 8)]
        assert len(physical._cover_gaps(starts, ends, -5, 500)) == 101
        physical._cover_add(starts, ends, -5, 500)
        assert (starts, ends) == ([-5], [500])
        physical._cover_add(starts, ends, 500, 510)  # adjacent intervals merge
        physical._cover_add(starts, ends, 520, 530)
        assert (starts, ends) == ([-5, 520], [510, 530])
        assert physical._cover_gaps(starts, ends, 505, 525) == [(510, 520)]
        assert physical._cover_gaps(starts, ends, 0, 10) == []


NULLABLE = Domain("nullable")
MEASURED_SCHEMA = RelationSchema.temporal(
    [("Name", STRING), ("Dept", STRING), ("Amount", INTEGER), ("Bonus", NULLABLE)], name="G"
)
MEASURED = Relation.from_rows(
    MEASURED_SCHEMA,
    [
        ("Anna", "Sales", 3, 10, 1, 6),
        ("John", "Ads", 5, None, 2, 9),
        ("Anna", "Sales", 4, None, 4, 12),
        ("Anna", "Ads", 1, 7, 5, 7),
        ("John", "Ads", 2, 2, 8, 11),
        ("Anna", "Sales", 9, 1, 3, 5),
    ],
)


class TestTemporalAggregate:
    @pytest.mark.parametrize("grouping", [[], ["Name"], ["Name", "Dept"], ["Dept", "Name"]])
    @pytest.mark.parametrize("kind", list(AggregateKind))
    def test_every_kind_and_grouping_width_matches_the_reference(self, grouping, kind):
        functions = [AggregateFunction(kind, "Amount", "out"), count(alias="n")]
        plan = TemporalAggregation(grouping, functions, LiteralRelation(MEASURED))
        for batch_size in BATCH_SIZES:
            result, _ = run_stratum(plan, batch_size)
            assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_count_star_counts_rows_and_count_attribute_skips_nulls(self):
        plan = TemporalAggregation(
            ["Name"], [count(alias="rows"), count("Bonus", alias="bonuses")], LiteralRelation(MEASURED)
        )
        result, _ = run_stratum(plan)
        assert_list_identical(result, plan.evaluate(CONTEXT))
        anna = [tup.values() for tup in result if tup["Name"] == "Anna"]
        assert ("Anna", 3, 2, 4, 5) in anna  # [4,5): three Annas valid, one without a bonus
        assert any(tup["rows"] != tup["bonuses"] for tup in result)

    def test_groups_come_in_first_occurrence_order_and_gaps_emit_nothing(self):
        plan = TemporalAggregation(
            ["Name"], [count(alias="n")], narrow(("b", 5, 7), ("a", 1, 3), ("b", 9, 10), ("a", 2, 6))
        )
        result, _ = run_stratum(plan)
        assert values(result) == [
            ("b", 1, 5, 6), ("b", 1, 6, 7), ("b", 1, 9, 10),  # [7,9) is a gap for b
            ("a", 1, 1, 2), ("a", 2, 2, 3), ("a", 1, 3, 5), ("a", 1, 5, 6),
        ]
        assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_an_empty_argument_yields_no_batch(self):
        plan = TemporalAggregation(["Name"], [count(alias="n")], narrow())
        root = lower(plan)
        assert isinstance(root, TemporalAggregateOp)
        assert list(root.batches()) == [] and root.rows_out == 0
        result, _ = run_stratum(plan)
        assert result.is_empty() and result.schema.attributes == ("Name", "n", "T1", "T2")

    def test_averages_sum_in_input_order(self):
        # (1e16 + 1.0) - 1e16 == 0.0 but (1e16 - 1e16) + 1.0 == 1.0: the active
        # members must reach the aggregate in input order, as in the reference.
        rows = [("a", 1e16, 1, 9), ("a", 1.0, 1, 9), ("a", -1e16, 1, 9), ("a", 1.0, 4, 6)]
        plan = TemporalAggregation(
            [],
            [agg_avg("Score", alias="mean"), agg_sum("Score", alias="total")],
            LiteralRelation(Relation.from_rows(SCORED_SCHEMA, rows)),
        )
        result, _ = run_stratum(plan)
        assert values(result) == [(0.0, 0.0, 1, 4), (0.25, 1.0, 4, 6), (0.0, 0.0, 6, 9)]
        assert_list_identical(result, plan.evaluate(CONTEXT))

    def test_time_attributes_need_not_be_the_trailing_columns(self):
        permuted = Projection(["T2", "Amount", "T1", "Name"], LiteralRelation(MEASURED))
        plan = TemporalAggregation(["Name"], [agg_sum("Amount", alias="total")], permuted)
        result, _ = run_stratum(plan)
        assert_list_identical(result, plan.evaluate(CONTEXT))
        assert result.schema.attributes == ("Name", "total", "T1", "T2")


class TestNoTupleAtATimeWork:
    """Count-based: a drain builds no ``Period`` and no ``Tuple``."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = Counter()
        period_init, tuple_init, trusted = Period.__init__, Tuple.__init__, Tuple.trusted

        def counting_period(self, *args, **kwargs):
            built["Period"] += 1
            period_init(self, *args, **kwargs)

        def counting_tuple(self, *args, **kwargs):
            built["Tuple"] += 1
            tuple_init(self, *args, **kwargs)

        def counting_trusted(cls, schema, row):
            built["Tuple"] += 1
            return trusted(schema, row)

        monkeypatch.setattr(Period, "__init__", counting_period)
        monkeypatch.setattr(Tuple, "__init__", counting_tuple)
        monkeypatch.setattr(Tuple, "trusted", classmethod(counting_trusted))
        return built

    @pytest.mark.parametrize(
        "make_plan",
        [
            lambda leaf: Projection(["Name", "T1", "T2"], TemporalDuplicateElimination(leaf)),
            lambda leaf: Sort(
                OrderSpec.of("n DESC"),
                TemporalAggregation(["Name"], [count(alias="n"), agg_avg("Amount", alias="m")], leaf),
            ),
        ],
        ids=["rdupT", "γT"],
    )
    def test_tuples_appear_only_in_to_relation(self, make_plan, built):
        plan = make_plan(LiteralRelation(MEASURED))
        reference = plan.evaluate(CONTEXT)
        root = lower(plan, batch_size=2)
        built.clear()
        drained = [row for batch in root.batches() for row in batch.rows()]
        assert built == {}
        assert drained == values(reference)
        relation = root.to_relation()
        assert built == {"Tuple": len(reference)}
        assert_list_identical(relation, reference)

    def test_the_reference_does_build_them(self, built):
        # The counters see what they claim to: the reference recursion is
        # the Period-per-comparison path the operators replace.
        TemporalDuplicateElimination(narrow(("a", 1, 5), ("a", 2, 9))).evaluate(CONTEXT)
        assert built["Period"] > 0 and built["Tuple"] > 0


class TestBoundaries:
    def test_a_ts_fragment_keeps_emulating_in_the_dbms(self):
        plan = TransferToStratum(TemporalDuplicateElimination(LiteralRelation(figure3_r1())))
        executor = StratumExecutor(ConventionalDBMS(), optimize_dbms_fragments=False)
        result = executor.execute(plan)
        assert executor.report.dbms_emulated_operations == ["rdupT"]
        assert executor.report.stratum_operations == 0
        assert sorted(values(result)) == sorted(values(figure3_r3()))
