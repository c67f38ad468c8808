"""The five temporal operations as batch operators inside the stratum's regions.

``TemporalDistinctOp``, ``TemporalAggregateOp``, ``TemporalDifferenceOp``,
``TemporalUnionOp`` and ``CoalesceOp`` replace per-tuple functions over
materialised relations and the reference recursion, so the contract is the
strict one: on generated stacks of temporal and streaming operations the
stratum yields, at every batch size, the **identical tuple sequence** the
reference ``node._evaluate`` does (several temporal operations are
order-sensitive, Section 6); the operators account like every other batch
operator (rows, ticks, chunking); only the stratum builds them; a whole
temporal plan is one operator tree; and their cost is pinned by counts — no
``Period``, no ``Tuple``, O(n log n) cover steps counted as bisections, O(n)
absorptions — not by a clock.  The one cover kernel behind ``rdupT``, ``\\T``
and ``∪T`` is checked against a model that keeps covers as point sets, and
the ledger's ``paper``/``chained`` statements at its scale against the
reference.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import accumulate
from operator import is_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    BaseRelation,
    Coalescing,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToStratum,
)
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE, Lowering
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.core.period import Period
from repro.core.physical import (
    CoalesceOp,
    SourceOp,
    TemporalAggregateOp,
    TemporalDifferenceOp,
    TemporalDistinctOp,
    TemporalUnionOp,
)
from repro.core.relation import Relation
from repro.core.schema import Domain, INTEGER, RelationSchema, STRING, TIME
from repro.dbms import ConventionalDBMS
from repro.dbms.catalog import Catalog
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.workloads import CHAINED_SQL, PAPER_SQL, figure3_r1, figure3_r3, scaled_paper_workload

from .strategies import NARROW_TEMPORAL_SCHEMA, SCORED_SCHEMA, temporal_shaped_plans
from .test_dbms_operators import BATCH_SIZES, CountingControl

CONTEXT = EvaluationContext()
TEMPORAL_OPERATORS = (
    TemporalDistinctOp, TemporalAggregateOp, TemporalDifferenceOp, TemporalUnionOp, CoalesceOp,
)
TEMPORAL_NODES = (
    TemporalDuplicateElimination, TemporalAggregation, TemporalDifference, TemporalUnion, Coalescing,
)


def run_stratum(plan, batch_size=1024, **kwargs):
    """The plan's result and report through the stratum's executor, undegraded."""
    executor = StratumExecutor(ConventionalDBMS(), batch_size=batch_size, **kwargs)
    result = executor.execute(plan)
    assert executor.report.degraded_operations == []
    return result, executor.report


def lower(plan, batch_size=1024, **kwargs):
    """The plan as the stratum's operator tree."""
    return Lowering(batch_size=batch_size, **kwargs).lower(plan)


def assert_list_identical(result: Relation, reference: Relation):
    assert result.schema.attributes == reference.schema.attributes
    assert list(result.tuples) == list(reference.tuples)


def values(relation):
    return [tup.values() for tup in relation]


def literal(schema, *rows):
    return LiteralRelation(Relation.from_rows(schema, rows))


def narrow(*rows):
    return literal(NARROW_TEMPORAL_SCHEMA, *rows)


@pytest.fixture
def bisections(monkeypatch):
    """Every bisection the operators make, in order: (function name, cover length)."""
    calls = []
    for name in ("bisect_left", "bisect_right"):

        def counted(intervals, point, *args, name=name, original=getattr(physical, name)):
            calls.append((name, len(intervals)))
            return original(intervals, point, *args)

        monkeypatch.setattr(physical, name, counted)
    return calls


#: A cover step's two bisections: a cut finds the intervals inside a period
#: (right of its start, left of its end), a grow those it meets or touches.
CUT, GROW = ("bisect_right", "bisect_left"), ("bisect_left", "bisect_right")


def cover_steps(bisections):
    """The cuts and grows a run of bisections made."""
    names = [name for name, _ in bisections]
    steps = Counter(zip(names[::2], names[1::2]))
    assert len(names) % 2 == 0 and set(steps) <= {CUT, GROW}
    return {"cut": steps[CUT], "grow": steps[GROW]}


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
            assert type(operator) in STRATUM_ENGINE.operators
            assert operator.fault_point == STRATUM_ENGINE.fault_point == "stratum.pull"
            first = list(operator.batches())
            assert all(batch.schema is operator.output_schema for batch in first)
            assert all(0 < batch.length <= 2 for batch in first)
            rows = [row for batch in first for row in batch.rows()]
            assert [row for batch in operator.batches() for row in batch.rows()] == rows
            assert operator.rows_out == len(rows)

    @settings(max_examples=60, deadline=None)
    @given(temporal_shaped_plans())
    def test_the_dbms_planner_builds_none_of_the_operators(self, plan):
        lowering = Lowering(Catalog())
        root = lowering.lower(plan, DBMS_ENGINE)
        for operator in root.operators():
            assert type(operator) in DBMS_ENGINE.operators
            assert not isinstance(operator, TEMPORAL_OPERATORS)
        # Every temporal operation is materialise-and-emulate there, as before.
        temporal = Counter(
            node.label() for _, node in plan.locations() if isinstance(node, TEMPORAL_NODES)
        )
        assert temporal and not temporal - Counter(lowering.emulated)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_ledger_statements_at_its_scale_yield_the_reference_sequence(self, seed):
        # At scale 60 a value class's cover spans many input batches, which
        # the generated plans' few rows never reach.
        database = TemporalDatabase()
        for name, relation in zip(("EMPLOYEE", "PROJECT"), scaled_paper_workload(60, seed)):
            database.register(name, relation)
        session = database.session()
        # Every rdupT there runs inside the operator above it.
        for sql, kernels in (
            (PAPER_SQL, {"Coalesce[absorbs rdupT]", "TemporalDifference"}),
            (
                CHAINED_SQL,
                {"Coalesce", "TemporalDifference[absorbs left rdupT]", "TemporalUnion[absorbs right rdupT]"},
            ),
        ):
            plan = session.execute(sql).plan
            operators = list(lower(plan, catalog=database.dbms.catalog).operators())
            assert kernels <= {op.describe() for op in operators}
            assert not any(isinstance(op, TemporalDistinctOp) for op in operators)
            reference = database.evaluate_reference(plan)
            for batch_size in (1, 7, 1024):
                executor = StratumExecutor(database.dbms, batch_size=batch_size)
                result = executor.execute(plan)
                assert executor.report.degraded_operations == []
                assert_list_identical(result, reference)

    def test_only_the_stratum_admits_them(self):
        for operator_type in TEMPORAL_OPERATORS:
            assert operator_type in STRATUM_ENGINE.operators
            assert operator_type not in DBMS_ENGINE.operators
        plan = Coalescing(TemporalDifference(narrow(("a", 1, 5)), narrow(("a", 2, 3))))
        root = lower(TemporalDuplicateElimination(plan))
        assert [type(operator) for operator in root.operators()] == [
            TemporalDistinctOp, CoalesceOp, TemporalDifferenceOp, SourceOp, SourceOp,
        ]

    @settings(max_examples=60, deadline=None)
    @given(temporal_shaped_plans())
    def test_a_lowered_plan_has_a_source_only_at_a_leaf(self, plan):
        root = lower(plan)
        sources = [operator.paths for operator in root.operators() if isinstance(operator, SourceOp)]
        leaves = [(path,) for path, node in plan.locations() if isinstance(node, (BaseRelation, LiteralRelation))]
        assert sources == leaves

    def test_the_chained_shape_is_one_tree_over_its_three_leaves(self):
        leaf = narrow(("a", 1, 5), ("a", 3, 9), ("b", 2, 4))
        distinct = TemporalDuplicateElimination(leaf)
        plan = Sort(
            OrderSpec.of("Name"),
            Coalescing(TemporalUnion(TemporalDifference(distinct, leaf), distinct)),
        )
        # Both rdupT run inside the operator above them, which realises their nodes.
        assert lower(plan).explain().splitlines() == [
            "Sort(Name ASC)",
            "  Coalesce",
            "    TemporalUnion[absorbs right rdupT]",
            "      TemporalDifference[absorbs left rdupT]",
            "        Source(rows=3)",
            "        Source(rows=3)",
            "      Source(rows=3)",
        ]
        result, report = run_stratum(plan)
        assert_list_identical(result, plan.evaluate(CONTEXT))
        assert report.stratum_operations == 6

    def test_a_stack_is_one_operator_tree_with_no_relation_in_between(self):
        argument = LiteralRelation(figure3_r1())
        plan = Sort(
            OrderSpec.of("EmpName DESC"),
            TemporalAggregation(
                ["EmpName"], [count(alias="n")], Selection(equals("EmpName", "Anna"), argument)
            ),
        )
        root = lower(plan)
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
        root = lower(plan, batch_size=7)
        # An rdupT run inside the operator above it never drains on its own.
        absorbed = {path for operator in root.operators() for path in operator.paths[operator.output_nodes :]}
        for path, node in plan.locations():
            if isinstance(node, TEMPORAL_NODES) and path not in absorbed:
                assert report.node_rows[path] == len(node.evaluate(CONTEXT))
        assert absorbed.isdisjoint(report.node_rows)
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

    def test_one_class_of_200_mutually_overlapping_tuples_takes_n_log_n_cover_steps(self, bisections):
        n = 200
        rows = [("a", 100 - (i * 37) % n, 101 + (i * 53) % n) for i in range(n)]  # all hold 100
        plan = TemporalDuplicateElimination(narrow(*rows))
        reference = plan.evaluate(CONTEXT)
        result, _ = run_stratum(plan)
        assert_list_identical(result, reference)
        # One cut and one grow per row after the first, two bisections each,
        # and the class's cover never grows beyond the one merged interval.
        assert cover_steps(bisections) == {"cut": n - 1, "grow": n - 1}
        assert [length for _, length in bisections] == [1] * 4 * (n - 1)

    def test_cover_walks_are_amortised_by_the_merges(self):
        # Every interval a cut walks is absorbed by the grow that follows.
        covers = {}

        def cover_pass(*periods, out=None, grow=True):
            physical._cover_pass(covers, periods, 0, 1, lambda row: (), out, grow)
            return out

        cover_pass(*[(start, start + 2) for start in range(0, 400, 4)])
        assert len(covers[()][0]) == 100
        assert cover_pass((1, 9), out=[], grow=False) == [(2, 4), (6, 8)]
        assert len(cover_pass((-5, 500), out=[])) == 101
        assert covers[()] == ([-5], [500])
        cover_pass((500, 510), (520, 530))  # adjacent intervals merge
        assert covers[()] == ([-5, 520], [510, 530])
        assert cover_pass((505, 525), out=[], grow=False) == [(510, 520)]
        assert cover_pass((0, 10), out=[], grow=False) == []


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


PAIR_SCHEMA = RelationSchema.temporal([("A", STRING), ("B", STRING)], name="L")
PERIOD_SCHEMA = RelationSchema.temporal([], name="T")
#: One value attribute that admits anything: ``None``, and ``1``/``1.0``/``True``,
#: which hash and compare equal but are not the same value to print.
ANY_SCHEMA = RelationSchema.temporal([("V", Domain("any"))], name="V")


def printed(relation):
    return [repr(tup.values()) for tup in relation]


def run_checked(plan):
    """The stratum's result, identical to the reference's at every batch size."""
    reference = plan.evaluate(CONTEXT)
    for batch_size in BATCH_SIZES:
        result, _ = run_stratum(plan, batch_size)
        assert_list_identical(result, reference)
        assert printed(result) == printed(reference)
    return result


class TestTemporalDifferenceAndUnion:
    LEFT = literal(
        PAIR_SCHEMA, ("x", "y", 1, 9), ("y", "x", 2, 6), ("x", "y", 4, 12), ("z", "z", 1, 3)
    )

    @staticmethod
    def right(permuted, *rows):
        """``rows`` as (A, B, T1, T2), optionally behind a permuting projection."""
        argument = literal(PAIR_SCHEMA, *rows)
        return Projection(["T2", "B", "A", "T1"], argument) if permuted else argument

    @pytest.mark.parametrize("permuted", [False, True])
    def test_difference_leaves_each_left_rows_fragments_in_its_slot(self, permuted):
        right = self.right(
            permuted, ("y", "x", 3, 4), ("x", "y", 2, 3), ("x", "y", 5, 7), ("x", "y", 6, 10), ("q", "q", 1, 2)
        )
        root = lower(TemporalDifference(self.LEFT, right))
        assert isinstance(root, TemporalDifferenceOp) and root.describe() == "TemporalDifference"
        result = run_checked(TemporalDifference(self.LEFT, right))
        assert result.schema.attributes == ("A", "B", "T1", "T2")
        assert values(result) == [
            ("x", "y", 1, 2), ("x", "y", 3, 5),
            ("y", "x", 2, 3), ("y", "x", 4, 6),
            ("x", "y", 4, 5), ("x", "y", 10, 12),
            ("z", "z", 1, 3),
        ]

    @pytest.mark.parametrize("permuted", [False, True])
    def test_union_subtracts_the_left_cover_only_and_aligns_the_right_rows(self, permuted):
        right = self.right(
            permuted, ("x", "y", 0, 14), ("y", "x", 1, 3), ("y", "x", 1, 3), ("q", "p", 1, 2), ("z", "z", 2, 3)
        )
        root = lower(TemporalUnion(self.LEFT, right))
        assert isinstance(root, TemporalUnionOp) and root.describe() == "TemporalUnion"
        result = run_checked(TemporalUnion(self.LEFT, right))
        assert result.schema.attributes == ("A", "B", "T1", "T2")
        assert values(result) == values(self.LEFT.relation) + [
            ("x", "y", 0, 1), ("x", "y", 12, 14),
            ("y", "x", 1, 2),
            ("y", "x", 1, 2),  # an earlier right row never subtracts
            ("q", "p", 1, 2),
        ]

    def test_equal_values_under_swapped_names_are_another_class(self):
        # Right rows (B=y, A=x): by name the left's class, by position another.
        right = self.right(True, ("x", "y", 1, 9))
        assert right.output_schema().attributes == ("T2", "B", "A", "T1")
        left = literal(PAIR_SCHEMA, ("x", "y", 1, 9), ("y", "x", 1, 9))
        assert values(run_checked(TemporalDifference(left, right))) == [("y", "x", 1, 9)]
        assert values(run_checked(TemporalUnion(left, right))) == values(left.relation)

    def test_a_relation_of_nothing_but_periods_is_one_value_class(self):
        left = literal(PERIOD_SCHEMA, (1, 9), (2, 4))
        right = literal(PERIOD_SCHEMA, (3, 5), (7, 8), (0, 2), (8, 12))
        assert values(run_checked(TemporalDifference(left, right))) == [(2, 3), (5, 7), (2, 3)]
        assert values(run_checked(TemporalUnion(left, right))) == [(1, 9), (2, 4), (0, 1), (9, 12)]

    def test_an_empty_side(self):
        rows = [("x", "y", 1, 9), ("x", "y", 2, 4)]
        full, empty = literal(PAIR_SCHEMA, *rows), literal(PAIR_SCHEMA)
        assert values(run_checked(TemporalDifference(full, empty))) == rows
        assert values(run_checked(TemporalUnion(full, empty))) == rows
        assert values(run_checked(TemporalUnion(empty, full))) == rows
        root = lower(TemporalDifference(empty, full))
        assert list(root.batches()) == [] and root.rows_out == 0

    def test_none_is_a_class_key_not_a_missing_cover(self):
        left = literal(ANY_SCHEMA, (None, 1, 9), (5, 1, 9))
        right = literal(ANY_SCHEMA, (None, 3, 5))
        assert values(run_checked(TemporalDifference(left, right))) == [(None, 1, 3), (None, 5, 9), (5, 1, 9)]
        assert values(run_checked(TemporalUnion(right, left))) == [
            (None, 3, 5), (None, 1, 3), (None, 5, 9), (5, 1, 9),
        ]

    def test_fragments_carry_the_emitting_rows_own_values(self):
        left = literal(ANY_SCHEMA, (1, 1, 9), (1.0, 2, 6), (True, 0, 3))
        right = literal(ANY_SCHEMA, (1.0, 2, 4))
        assert printed(run_checked(TemporalDifference(left, right))) == [
            "(1, 1, 2)", "(1, 4, 9)", "(1.0, 4, 6)", "(True, 0, 2)",
        ]
        assert printed(run_checked(TemporalUnion(right, left))) == [
            "(1.0, 2, 4)", "(1, 1, 2)", "(1, 4, 9)", "(1.0, 4, 6)", "(True, 0, 2)",
        ]

    def test_time_attributes_need_not_be_the_trailing_columns(self):
        left = Projection(["T1", "A", "T2", "B"], self.LEFT)
        right = self.right(True, ("x", "y", 2, 5), ("z", "z", 0, 2))
        difference = run_checked(TemporalDifference(left, right))
        assert difference.schema.attributes == ("T1", "A", "T2", "B")
        assert values(difference) == [
            (1, "x", 2, "y"), (5, "x", 9, "y"), (2, "y", 6, "x"), (5, "x", 12, "y"), (2, "z", 3, "z"),
        ]
        union = run_checked(TemporalUnion(left, right))
        assert values(union)[4:] == [(0, "z", 1, "z")]

    def test_one_class_takes_one_grow_per_covering_row_and_one_cut_per_row_cut(self, bisections):
        m, n = 40, 25
        covering = narrow(*[("a", 3 * i, 3 * i + 2) for i in range(m)])
        cut = narrow(*[("a", i, i + 7) for i in range(n)])
        run_stratum(TemporalDifference(cut, covering))
        assert cover_steps(bisections) == {"cut": n, "grow": m - 1}
        bisections.clear()
        run_stratum(TemporalUnion(covering, cut))
        assert cover_steps(bisections) == {"cut": n, "grow": m - 1}

    def test_a_row_that_loses_nothing_is_passed_on_not_rebuilt(self):
        left = Relation.from_rows(
            NARROW_TEMPORAL_SCHEMA, [("a", 1, 3), ("b", 3, 5), ("a", 4, 6), ("a", 2, 5)]
        )
        right = Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("a", 3, 4), ("c", 1, 2)])
        kept = list(left.rows[:3])
        for root, rows, passed in (
            (TemporalDistinctOp(SourceOp(left)), [*kept, ("a", 3, 4)], kept),
            (TemporalDifferenceOp(SourceOp(left), SourceOp(right)), [*kept, ("a", 2, 3), ("a", 4, 5)], kept),
            (TemporalUnionOp(SourceOp(left), SourceOp(right)), [*left.rows, right.rows[1]], [*left.rows, right.rows[1]]),
        ):
            drained = [row for batch in root.batches() for row in batch.rows()]
            assert drained == rows
            # The rows that lose nothing are the input's own objects.
            assert all(map(is_, drained, passed))


PERIODS = st.builds(lambda start, length: (start, start + length), st.integers(0, 30), st.integers(1, 8))
CLASS_ROWS = st.lists(st.builds(lambda name, period: (name, *period), st.sampled_from("ab"), PERIODS), max_size=20)


def runs(points):
    """A set of time points as maximal intervals, ascending."""
    intervals = []
    for point in sorted(points):
        if intervals and intervals[-1][1] == point:
            intervals[-1][1] = point + 1
        else:
            intervals.append([point, point + 1])
    return [tuple(interval) for interval in intervals]


class TestCoverPass:
    """The one cover kernel against a model that keeps each cover as a set of points."""

    @settings(max_examples=300, deadline=None)
    @given(CLASS_ROWS, CLASS_ROWS, st.sampled_from(["cut and grow", "grow", "cut"]))
    def test_every_mode_matches_the_point_set_model(self, covering, rows, mode):
        first, last, value_of = physical._period_layout(NARROW_TEMPORAL_SCHEMA)
        covers, model = {}, defaultdict(set)
        physical._cover_pass(covers, covering, first, last, value_of)
        for name, t1, t2 in covering:
            model[name].update(range(t1, t2))
        out = None if mode == "grow" else []
        physical._cover_pass(covers, rows, first, last, value_of, out, grow=mode != "cut")
        expected, whole = [], []
        for row in rows:
            name, t1, t2 = row
            kept = runs(set(range(t1, t2)) - model[name])
            if kept == [(t1, t2)]:
                expected.append(row)
                whole.append(True)
            else:
                expected.extend((name, *piece) for piece in kept)
                whole.extend(False for _ in kept)
            if mode != "cut":
                model[name].update(range(t1, t2))
        if out is not None:
            # Period minus cover, ascending, with the row's own values; a row
            # that loses nothing is passed on as the same object.
            assert out == expected
            assert [fragment is row for fragment, row in zip(out, expected)] == whole
        # Each cover is sorted, disjoint and non-adjacent, and as points the
        # union of the periods it grew by.
        assert set(covers) == {name for name, points in model.items() if points}
        for name, (starts, ends) in covers.items():
            assert all(start < end for start, end in zip(starts, ends))
            assert all(end < start for end, start in zip(ends, starts[1:]))
            assert list(zip(starts, ends)) == runs(model[name])


class TestCoalesce:
    @pytest.mark.parametrize(
        "periods, merged",
        [
            # "Earliest later", not "next after the last one absorbed".
            ([(1, 3), (5, 7), (3, 5)], [(1, 7)]),
            ([(1, 3), (3, 5), (3, 7)], [(1, 5), (3, 7)]),
            ([(1, 3), (3, 7), (3, 5)], [(1, 7), (3, 5)]),
            ([(5, 7), (1, 3), (3, 5)], [(1, 7)]),
            ([(1, 3), (1, 3), (3, 5)], [(1, 5), (1, 3)]),
            # Either end may grow, whichever neighbour comes first in the input.
            ([(4, 6), (6, 8), (2, 4), (8, 9), (0, 2)], [(0, 9)]),
            ([(1, 5), (2, 6), (3, 9)], [(1, 5), (2, 6), (3, 9)]),  # overlap is rdupT's business
        ],
    )
    def test_saturation_in_input_order(self, periods, merged):
        plan = Coalescing(narrow(*[("a", *period) for period in periods]))
        root = lower(plan)
        assert isinstance(root, CoalesceOp) and root.describe() == "Coalesce"
        assert values(run_checked(plan)) == [("a", *period) for period in merged]

    def test_an_absorber_keeps_its_slot_among_the_other_classes(self):
        plan = Coalescing(
            narrow(("a", 5, 7), ("b", 1, 2), ("c", 4, 5), ("a", 1, 3), ("b", 2, 3), ("a", 3, 5))
        )
        assert values(run_checked(plan)) == [("a", 1, 7), ("b", 1, 3), ("c", 4, 5)]

    def test_the_merged_row_carries_the_absorbers_own_values(self):
        rows = [(1, 1, 3), (1.0, 3, 5), (True, 5, 7)]
        assert printed(run_checked(Coalescing(literal(ANY_SCHEMA, *rows)))) == ["(1, 1, 7)"]
        assert printed(run_checked(Coalescing(literal(ANY_SCHEMA, *reversed(rows))))) == ["(True, 1, 7)"]
        nullable = literal(ANY_SCHEMA, (None, 1, 3), (0, 3, 5), (None, 3, 4))
        assert values(run_checked(Coalescing(nullable))) == [(None, 1, 4), (0, 3, 5)]

    def test_schemas_without_values_or_with_leading_time_attributes(self):
        periods = literal(PERIOD_SCHEMA, (3, 5), (7, 9), (1, 3), (5, 6))
        assert values(run_checked(Coalescing(periods))) == [(1, 6), (7, 9)]
        schema = RelationSchema.from_pairs(
            [("T1", TIME), ("Name", STRING), ("T2", TIME), ("Dept", STRING)], name="X"
        )
        plan = Coalescing(literal(schema, (3, "a", 5, "s"), (5, "a", 8, "t"), (1, "a", 3, "s"), (8, "a", 9, "t")))
        assert values(run_checked(plan)) == [(1, "a", 5, "s"), (5, "a", 9, "t")]

    def test_an_empty_argument_yields_no_batch(self):
        root = lower(Coalescing(narrow()))
        assert list(root.batches()) == [] and root.rows_out == 0

    def test_a_row_that_keeps_its_period_is_not_rebuilt(self, monkeypatch):
        rebuilt = []
        original = physical._with_period
        monkeypatch.setattr(
            physical, "_with_period", lambda row, *args: rebuilt.append(row) or original(row, *args)
        )
        left = narrow(("a", 1, 3), ("b", 3, 5), ("a", 4, 6), ("c", 1, 2), ("c", 2, 3))
        right = narrow(("a", 3, 4), ("b", 5, 9), ("c", 2, 3))
        plan = Coalescing(TemporalUnion(TemporalDifference(TemporalDuplicateElimination(left), right), right))
        result, _ = run_stratum(plan)
        assert_list_identical(result, plan.evaluate(CONTEXT))
        # No row loses anything to rdupT, \\T or ∪T; coalT rebuilds its three
        # absorbers once each, however many members they absorb (a takes two).
        assert values(result) == [("a", 1, 6), ("b", 3, 9), ("c", 1, 3)]
        assert rebuilt == [("a", 1, 3), ("b", 3, 5), ("c", 1, 2)]

    def test_a_reversed_chain_of_n_takes_n_minus_one_absorptions(self, monkeypatch):
        n = 300
        chain = [("a", start, start + 1) for start in reversed(range(n))]
        probes = Counter()

        def counted(*args, original=physical._earliest_later):
            found = original(*args)
            probes["hit" if found is not None else "miss"] += 1
            return found

        monkeypatch.setattr(physical, "_earliest_later", counted)
        monkeypatch.setattr(Period, "is_adjacent_to", None)  # the pair scan is gone
        plan = Coalescing(narrow(*chain, ("b", 0, 1)))
        root = lower(plan)
        assert values(root.to_relation()) == [("a", 0, n), ("b", 0, 1)]
        # Disjoint periods: the sweep joins each of the n - 1 later-starting
        # members to the chain once, and the saturation never runs.
        assert root.merges == n - 1 and probes == {}
        # One overlap hands the input to the saturation: the first member
        # absorbs the other n - 1, one per probe of the "ends at my start"
        # index; nothing ever starts at its end, and the last round finds
        # neither.  The overlapping member, adjacent to nothing left, misses
        # twice; the single-member class is never probed.
        plan = Coalescing(narrow(*chain, ("b", 0, 1), ("a", 1, 3)))
        result, _ = run_stratum(plan)
        assert values(result) == [("a", 0, n), ("b", 0, 1), ("a", 1, 3)]
        assert probes == {"hit": n - 1, "miss": n + 3}


SCORED_NULLABLE_SCHEMA = RelationSchema.temporal(
    [("Name", STRING), ("Score", SCORED_SCHEMA.domain_of("Score")), ("Bonus", NULLABLE)], name="S"
)


@st.composite
def class_lists(draw, values=st.tuples(st.sampled_from("ab"))):
    """Rows in which value classes hold overlapping periods, equal starts and
    chains of adjacent periods in reversed order, segment by segment."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        value, start = draw(values), draw(st.integers(0, 8))
        kind = draw(st.sampled_from(["reversed chain", "overlap", "equal starts", "one"]))
        if kind == "reversed chain":
            ends = list(accumulate(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)), initial=start))
            periods = list(zip(ends, ends[1:]))[::-1]
        elif kind == "overlap":
            end = start + draw(st.integers(2, 4))
            periods = [(start, end), (end - 1, end + draw(st.integers(0, 3)))]
        elif kind == "equal starts":
            periods = [(start, start + draw(st.integers(1, 3))) for _ in range(2)]
        else:
            periods = [(start, start + draw(st.integers(1, 4)))]
        rows += [(*value, *period) for period in periods]
    return rows


SCORED_VALUES = st.tuples(
    st.sampled_from("ab"), st.sampled_from([1, 2, 0.1, 0.2, 1e16, -1e16]), st.sampled_from([None, 1])
)


def lowered_and_checked(plan, physical_line):
    """The plan's root operator describes itself as ``physical_line``, and its
    rows are the reference's list at batch sizes 1, 2 and the default."""
    assert lower(plan).describe() == physical_line
    reference = plan.evaluate(CONTEXT)
    for batch_size in (1, 2, 1024):
        assert_list_identical(lower(plan, batch_size).to_relation(), reference)


class TestSweepAndAbsorption:
    """Every kernel path against the reference, on derandomized inputs: the
    coalT sweep, its fallback to the saturation, each absorbed rdupT and γT's
    change-point walk with each kind of aggregate."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(class_lists())
    # An overlap that forces the saturation, and a class with two equal starts.
    @example([("a", 3, 5), ("a", 1, 3), ("a", 2, 4), ("a", 5, 6)])
    @example([("b", 4, 6), ("a", 1, 3), ("a", 1, 2), ("a", 2, 5), ("a", 3, 4)])
    def test_coalesce_with_and_without_its_rdupt(self, rows):
        leaf = narrow(*rows)
        lowered_and_checked(Coalescing(leaf), "Coalesce")
        lowered_and_checked(Coalescing(TemporalDuplicateElimination(leaf)), "Coalesce[absorbs rdupT]")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(class_lists(), class_lists())
    @example([("a", 1, 3), ("a", 1, 2), ("a", 2, 5)], [("a", 2, 3), ("b", 1, 2)])
    def test_difference_and_union_run_their_rdupt(self, left_rows, right_rows):
        left, right = narrow(*left_rows), narrow(*right_rows)
        lowered_and_checked(
            TemporalDifference(TemporalDuplicateElimination(left), right),
            "TemporalDifference[absorbs left rdupT]",
        )
        lowered_and_checked(
            TemporalUnion(left, TemporalDuplicateElimination(right)), "TemporalUnion[absorbs right rdupT]"
        )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(class_lists(SCORED_VALUES), st.sampled_from([[], ["Name"], ["Bonus", "Name"]]))
    def test_temporal_aggregation_with_every_kind(self, rows, grouping):
        leaf = literal(SCORED_NULLABLE_SCHEMA, *rows)
        functions = [
            [count(alias="n"), count(alias="m")],  # only COUNT(*): the running count
            [count("Bonus", alias="n")],
            *([AggregateFunction(kind, "Score", "x")] for kind in AggregateKind if kind is not AggregateKind.COUNT),
        ]
        for function_list in functions:
            plan = TemporalAggregation(grouping, function_list, leaf)
            described = ", ".join(map(str, function_list))
            lowered_and_checked(plan, f"TemporalAggregate(by={grouping}; {described})")


def five_operation_stack(leaf):
    """``γT ∘ coalT ∘ ∪T(\\T(rdupT(r), σ(r)), rdupT(π(r)))``, the right sides permuted."""
    distinct = TemporalDuplicateElimination(leaf)
    ads = Projection(["T2", "Bonus", "Dept", "Name", "T1", "Amount"], Selection(equals("Dept", "Ads"), leaf))
    permuted = Projection(["Amount", "Name", "T1", "T2", "Dept", "Bonus"], leaf)
    union = TemporalUnion(TemporalDifference(distinct, ads), TemporalDuplicateElimination(permuted))
    return TemporalAggregation(["Name"], [count(alias="n"), agg_sum("Amount", alias="total")], Coalescing(union))


class TestNoTupleAtATimeWork:
    """Count-based: an operator tree builds no ``Period`` and no ``Tuple`` —
    not in its drain and not in ``to_relation``; a ``Tuple`` is a view the
    result builds for the caller that asks for one."""

    @pytest.fixture
    def built(self, monkeypatch, tuple_constructions):
        period_init = Period.__init__

        def counting_period(self, *args, **kwargs):
            tuple_constructions["Period"] += 1
            period_init(self, *args, **kwargs)

        monkeypatch.setattr(Period, "__init__", counting_period)
        return tuple_constructions

    @pytest.mark.parametrize(
        "make_plan",
        [
            lambda leaf: Projection(["Name", "T1", "T2"], TemporalDuplicateElimination(leaf)),
            lambda leaf: Sort(
                OrderSpec.of("n DESC"),
                TemporalAggregation(["Name"], [count(alias="n"), agg_avg("Amount", alias="m")], leaf),
            ),
            five_operation_stack,
        ],
        ids=["rdupT", "γT", "all five"],
    )
    def test_tuples_are_views_built_on_request(self, make_plan, built, monkeypatch):
        monkeypatch.setattr(Period, "is_adjacent_to", None)  # nor is any pair of periods compared
        plan = make_plan(LiteralRelation(MEASURED))
        reference = plan.evaluate(CONTEXT)
        root = lower(plan, batch_size=2)
        built.clear()
        drained = [row for batch in root.batches() for row in batch.rows()]
        relation = root.to_relation()
        assert built == {}
        assert drained == values(reference) == list(relation.rows)
        # The first caller to ask for tuples pays one view per row, once.
        assert len(relation.tuples) == len(reference)
        assert built == {"trusted": len(reference)}
        assert_list_identical(relation, reference)
        assert built == {"trusted": len(reference)}

    def test_the_reference_does_build_them(self, built):
        # The counters see what they claim to: the reference recursion is
        # the Period-per-comparison path the operators replace.
        TemporalDuplicateElimination(narrow(("a", 1, 5), ("a", 2, 9))).evaluate(CONTEXT)
        assert built["Period"] > 0 and built["validated"] > 0


class TestBoundaries:
    def test_a_ts_fragment_keeps_emulating_in_the_dbms(self):
        plan = TransferToStratum(TemporalDuplicateElimination(LiteralRelation(figure3_r1())))
        executor = StratumExecutor(ConventionalDBMS())
        result = executor.execute(plan)
        assert executor.report.dbms_emulated_operations == ["rdupT"]
        assert executor.report.stratum_operations == 0
        assert sorted(values(result)) == sorted(values(figure3_r3()))
