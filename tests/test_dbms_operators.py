"""The conventional DBMS on the shared batch operators.

The lowering under the DBMS's engine descriptor builds a conventional plan
from the operators of ``repro.core.physical`` — the set the stratum runs on
too.  The DBMS only
promises *multiset* semantics, but one operator set means one behaviour to
pin, so the contract here is the strict one: for generated plans over every
operation the planner admits, every batch size yields the **same tuple
sequence**, that sequence is multiset-equal to the reference (list-equal
under a ``Sort`` root), and the drain accounting — rows, control ticks,
node rows and times — is the chunking-free count the per-tuple engine it
replaced had.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.core.equivalence import multiset_equivalent
from repro.core.exceptions import SchemaError
from repro.core.expressions import (
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    ProjectionItem,
    agg_sum,
    count,
)
from repro.core.operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TemporalJoin,
    TransferToStratum,
    Union,
    UnionAll,
)
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE, Lowering
from repro.core.operations.base import EvaluationContext, ROOT_PATH
from repro.core.order_spec import OrderSpec
from repro.core.physical import (
    BatchOperator,
    CoalesceOp,
    DistinctOp,
    EmulateOp,
    HashJoinOp,
    IntervalJoinOp,
    ProjectOp,
    SourceOp,
    TemporalAggregateOp,
    TemporalDifferenceOp,
    TemporalDistinctOp,
    TemporalUnionOp,
    UnionAllOp,
    UnionOp,
)
from repro.core.relation import Relation
from repro.core.schema import RelationSchema
from repro.dbms import ConventionalDBMS
from repro.dbms.catalog import Catalog
from repro.faults import ExecutionControl
from repro.stratum import StratumExecutor
from repro.workloads import employee_relation

from .strategies import (
    JOIN_RIGHT_SCHEMA,
    PERMUTED_SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA,
    TEMPORAL_SCHEMA,
    conventional_plans,
    join_shaped_plans,
)

CONTEXT = EvaluationContext()
BATCH_SIZES = (1, 2, 7, 1024)

OVERLAP = And(
    Comparison(ComparisonOperator.LT, AttributeRef("1.T1"), AttributeRef("2.T2")),
    Comparison(ComparisonOperator.LT, AttributeRef("2.T1"), AttributeRef("1.T2")),
)


def snapshot(*rows):
    return LiteralRelation(Relation.from_rows(SNAPSHOT_SCHEMA, rows))


def temporal(*rows):
    return LiteralRelation(Relation.from_rows(TEMPORAL_SCHEMA, rows))


def dbms_tree(plan, batch_size=1024, **kwargs):
    """The plan lowered under the DBMS's descriptor, and its lowering."""
    lowering = Lowering(Catalog(), batch_size, **kwargs)
    return lowering.lower(plan, DBMS_ENGINE), lowering


def run_dbms(plan, batch_size=1024, **kwargs):
    root, lowering = dbms_tree(plan, batch_size, **kwargs)
    return lowering.execute(root)[0]


def values(relation):
    return [tup.values() for tup in relation]


class CountingControl(ExecutionControl):
    """Counts ticks per fault point; a small interval makes row ticks visible."""

    def __init__(self, interval=3):
        super().__init__(interval=interval)
        self.ticks = Counter()

    def tick(self, point):
        self.ticks[point] += 1
        super().tick(point)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(conventional_plans())
    def test_every_batch_size_yields_one_sequence_equal_to_the_reference(self, plan):
        reference = plan.evaluate(CONTEXT)
        results = [run_dbms(plan, batch_size) for batch_size in BATCH_SIZES]
        first = results[0]
        assert first.schema.attributes == reference.schema.attributes
        if isinstance(plan, Sort):
            assert list(first.tuples) == list(reference.tuples)
            assert first.order == plan.sort_order
        else:
            assert multiset_equivalent(first, reference), plan.pretty()
        for other in results[1:]:
            assert list(other.tuples) == list(first.tuples)

    @settings(max_examples=60, deadline=None)
    @given(conventional_plans())
    def test_operators_are_admissible_redrainable_and_emit_their_own_schema(self, plan):
        root, _ = dbms_tree(plan, batch_size=2)
        for operator in root.operators():
            assert type(operator) in DBMS_ENGINE.operators
            assert operator.fault_point == DBMS_ENGINE.fault_point == "dbms.scan"
            first = [batch for batch in operator.batches()]
            assert all(batch.schema is operator.output_schema for batch in first)
            assert all(0 < batch.length <= 2 for batch in first)
            rows = [row for batch in first for row in batch.rows()]
            assert [row for batch in operator.batches() for row in batch.rows()] == rows
            assert operator.rows_out == len(rows)

    @settings(max_examples=40, deadline=None)
    @given(join_shaped_plans())
    def test_the_stratum_builds_only_its_admissible_operators(self, plan):
        root = Lowering(batch_size=2).lower(plan)
        for operator in root.operators():
            assert isinstance(operator, BatchOperator)
            assert type(operator) in STRATUM_ENGINE.operators
            assert operator.fault_point == STRATUM_ENGINE.fault_point == "stratum.pull"
            for batch in operator.batches():
                assert batch.schema is operator.output_schema and 0 < batch.length <= 2

    def test_the_engines_differ_by_the_interval_join_and_the_multiset_operators(self):
        stratum, dbms = STRATUM_ENGINE.operators, DBMS_ENGINE.operators
        # The stratum builds everything the DBMS does, the multiset operators
        # included; the paper's capability split: the temporal operators are
        # the stratum's.
        assert dbms < stratum
        assert stratum - dbms == {
            IntervalJoinOp,
            TemporalDistinctOp, TemporalAggregateOp, TemporalDifferenceOp, TemporalUnionOp, CoalesceOp,
        }
        assert {DistinctOp, UnionAllOp, UnionOp} <= dbms


class TestAccounting:
    @settings(max_examples=80, deadline=None)
    @given(conventional_plans())
    def test_ticks_follow_the_closed_form_at_every_batch_size(self, plan):
        for batch_size in BATCH_SIZES:
            control = CountingControl(interval=3)
            root, lowering = dbms_tree(plan, batch_size, control=control)
            lowering.execute(root)
            # Once per output node: a hash join with the π above folded in
            # ticks for both, as the two operators would have.
            expected = sum(
                operator.output_nodes * (1 + operator.rows_out // 3)
                for operator in root.operators()
            )
            assert control.ticks == {"dbms.scan": expected}

    @settings(max_examples=60, deadline=None)
    @given(conventional_plans())
    def test_every_node_reports_its_rows_and_time(self, plan):
        ticks = iter(range(10**6))
        root, lowering = dbms_tree(plan, batch_size=2, clock=lambda: float(next(ticks)))
        result, report = lowering.execute(root)
        assert report.node_rows[ROOT_PATH] == len(result)
        # Every plan node but a product fused into the join above it.
        fused = {path for operator in root.operators() for path in operator.paths[operator.output_nodes :]}
        assert set(report.node_rows) == {path for path, _ in plan.locations()} - fused
        assert report.node_timings.keys() == report.node_rows.keys()
        assert all(seconds > 0 for _, seconds in report.node_timings.values())
        for operator in root.operators():
            for path in operator.paths[: operator.output_nodes]:
                assert report.node_rows[path] == operator.rows_out

    def test_no_clock_no_timings(self):
        root, lowering = dbms_tree(snapshot(("a", 1)))
        assert lowering.execute(root)[1].node_timings == {}

    def test_operator_names(self):
        plan = Selection(
            Comparison(ComparisonOperator.GT, AttributeRef("Amount"), AttributeRef("Amount")),
            DuplicateElimination(snapshot(("a", 1), ("a", 1))),
        )
        root, _ = dbms_tree(plan)
        assert [operator.describe() for operator in root.operators()] == [
            "Filter(Amount > Amount)",
            "Distinct",
            "Source(rows=2)",
        ]

    def test_invalid_batch_size_is_rejected(self):
        for invalid in (0, -1, 1.5, None):
            with pytest.raises(ValueError):
                Lowering(Catalog(), batch_size=invalid)


class TestPlannerChoices:
    def test_keyless_overlap_predicate_is_a_nested_loop_not_an_interval_join(self):
        left = temporal(("John", "Sales", 1, 5), ("Anna", "Ads", 2, 8))
        right = LiteralRelation(
            Relation.from_rows(JOIN_RIGHT_SCHEMA, [("John", "X", 2, 6), ("Mia", "Y", 7, 9)])
        )
        # A keyless σ over the product is not fused in the DBMS (only a hash
        # join is): it filters the product's own nested loop.
        expected = {
            Join: [f"NestedLoopJoin[nested-loop, residual: {OVERLAP}]"],
            Selection: [f"Filter({OVERLAP})", "NestedLoopJoin[nested-loop]"],
        }
        for plan in (Join(OVERLAP, left, right), Selection(OVERLAP, CartesianProduct(left, right))):
            root, _ = dbms_tree(plan)
            assert not any(isinstance(op, IntervalJoinOp) for op in root.operators())
            described = [op.describe() for op in root.operators()]
            assert described[: len(expected[type(plan)])] == expected[type(plan)]
            assert multiset_equivalent(root.to_relation(), plan.evaluate(CONTEXT))
        # The same predicate in stratum territory does get the interval join.
        assert isinstance(Lowering().lower(Join(OVERLAP, left, right)), IntervalJoinOp)

    def test_temporal_inputs_are_relabelled_positionally(self):
        argument = temporal(("John", "Sales", 1, 5), ("John", "Sales", 1, 5), ("Anna", "Ads", 2, 8))
        root, _ = dbms_tree(DuplicateElimination(argument))
        assert isinstance(root, DistinctOp)
        (relabel,) = root.children()
        assert relabel.describe() == "Project(Name, Dept, T1 AS 1.T1, T2 AS 1.T2)"
        assert values(root.to_relation()) == [("John", "Sales", 1, 5), ("Anna", "Ads", 2, 8)]

    def test_snapshot_inputs_need_no_relabel(self):
        root, _ = dbms_tree(DuplicateElimination(snapshot(("a", 1))))
        assert isinstance(root.children()[0], SourceOp)

    def test_permuted_right_input_is_aligned_by_name(self):
        left = snapshot(("a", 1), ("a", 1), ("b", 2))
        right = LiteralRelation(
            Relation.from_rows(PERMUTED_SNAPSHOT_SCHEMA, [(1, "a"), (3, "c")])
        )
        assert values(run_dbms(Difference(left, right))) == [("a", 1), ("b", 2)]
        assert values(run_dbms(UnionAll(left, right)))[-2:] == [("a", 1), ("c", 3)]
        assert values(run_dbms(Union(left, right))) == [("a", 1), ("a", 1), ("b", 2), ("c", 3)]

    @pytest.mark.parametrize("union", [UnionAllOp, UnionOp])
    def test_a_right_input_in_another_attribute_order_is_relabelled_row_for_row(self, union):
        # The right input lists (Amount, Name); a by-name projection puts its
        # rows into the output's order under a schema of its own, which the
        # set operator relabels batch by batch without touching a value.
        left = Relation.from_rows(SNAPSHOT_SCHEMA, [("a", 1), ("b", 2), ("a", 1)])
        right = Relation.from_rows(PERMUTED_SNAPSHOT_SCHEMA, [(1, "a"), (3, "c"), (3, "c")])
        aligned = RelationSchema.snapshot(
            [(name, SNAPSHOT_SCHEMA.domain_of(name)) for name in SNAPSHOT_SCHEMA.attributes],
            name="P",
        )
        reference = (UnionAll if union is UnionAllOp else Union)(
            LiteralRelation(left), LiteralRelation(right)
        ).evaluate(CONTEXT)
        for batch_size in BATCH_SIZES:
            relabel = ProjectOp(
                [ProjectionItem(AttributeRef(name)) for name in aligned.attributes],
                aligned,
                SourceOp(right),
            )
            root = union(SourceOp(left), relabel)
            for operator in root.operators():
                operator.instrument("dbms.scan", batch_size)
            assert relabel.output_schema is not root.output_schema
            batches = list(root.batches())
            assert all(batch.schema is root.output_schema for batch in batches)
            assert [row for batch in batches for row in batch.rows()] == values(reference)

    def test_positional_relabel_rejects_mismatched_domains(self):
        # Like the reference ``_relabel``: a temporal right input in another
        # attribute order cannot be matched up position by position.
        right = Relation.from_rows(TEMPORAL_SCHEMA.project(["T1", "T2", "Name", "Dept"]), [])
        plan = Difference(temporal(), LiteralRelation(right))
        with pytest.raises(SchemaError):
            dbms_tree(plan)

    def test_union_keeps_the_first_surplus_occurrences_in_right_order(self):
        left = snapshot(("a", 1))
        right = snapshot(("a", 1), ("b", 2), ("a", 1), ("b", 2))
        plan = Union(left, right)
        for batch_size in BATCH_SIZES:
            result = run_dbms(plan, batch_size)
            assert list(result.tuples) == list(plan.evaluate(CONTEXT).tuples)
            assert values(result) == [("a", 1), ("a", 1), ("b", 2), ("b", 2)]

    def test_aggregate_relabels_grouped_time_attributes(self):
        argument = temporal(("John", "Sales", 1, 5), ("Anna", "Ads", 1, 8), ("Mia", "Ads", 2, 8))
        plan = Aggregation(["T1"], [count(alias="n"), agg_sum("T2", alias="total")], argument)
        result = run_dbms(plan)
        assert result.schema.attributes == ("1.T1", "n", "total")
        assert values(result) == [(1, 2, 13), (2, 1, 8)]

    def test_a_bare_scan_hands_over_the_stored_relation_and_is_still_accounted(self):
        dbms = ConventionalDBMS()
        stored = dbms.load_relation("EMPLOYEE", employee_relation()).relation
        ticks = iter(range(100))
        control = CountingControl(interval=2)
        outcome = dbms.execute(
            BaseRelation("EMPLOYEE", stored.schema),
            clock=lambda: float(next(ticks)),
            control=control,
            batch_size=2,
        )
        assert outcome.relation is stored  # no tuple taken apart and rebuilt
        assert control.ticks == {"dbms.scan": 1 + len(stored) // 2}
        assert outcome.report.node_rows == {ROOT_PATH: len(stored)}
        assert set(outcome.report.node_timings) == {ROOT_PATH}
        assert dbms.explain(BaseRelation("EMPLOYEE", stored.schema)) == (
            f"Source(EMPLOYEE, rows={len(stored)})"
        )

    def test_a_bare_scan_across_ts_hands_over_the_stored_relation(self):
        dbms = ConventionalDBMS()
        stored = dbms.load_relation("EMPLOYEE", employee_relation()).relation
        control = CountingControl(interval=2)
        executor = StratumExecutor(dbms, control=control, batch_size=2)
        result = executor.execute(TransferToStratum(BaseRelation("EMPLOYEE", stored.schema)))
        assert result is stored
        # The scan ticks the DBMS's point, the transfer the stratum's.
        assert control.ticks == {"dbms.scan": 1 + len(stored) // 2, "stratum.pull": 1 + len(stored) // 2}
        assert executor.report.transferred_tuples == len(stored)
        assert executor.report.node_rows == {ROOT_PATH: len(stored), (0,): len(stored)}

    def test_transfers_inside_a_fragment_are_identities(self):
        plan = TransferToStratum(Sort(OrderSpec.of("Amount DESC"), snapshot(("a", 1), ("b", 2))))
        result = run_dbms(plan)
        assert values(result) == [("b", 2), ("a", 1)]
        assert result.order == OrderSpec.of("Amount DESC")


class TestHashJoinSequence:
    """The hash join reads keys and periods from the rows it is handed; its
    output is still the reference sequence — left-major, matches in right
    input order — with duplicate keys, several key attributes or an empty side."""

    LEFT = (
        ("John", "Sales", 1, 5),
        ("Anna", "Ads", 2, 9),
        ("John", "Sales", 4, 8),
        ("Mia", "Ads", 1, 3),
        ("John", "Ads", 1, 9),
    )
    RIGHT = (
        ("John", "Sales", 3, 6),
        ("John", "Ads", 1, 2),
        ("Anna", "Ads", 9, 12),
        ("John", "Sales", 5, 9),
        ("Anna", "Ads", 1, 4),
    )
    ON_NAME = Comparison(ComparisonOperator.EQ, AttributeRef("1.Name"), AttributeRef("2.Name"))
    ON_BOTH = And(
        ON_NAME, Comparison(ComparisonOperator.EQ, AttributeRef("Dept"), AttributeRef("Code"))
    )

    @staticmethod
    def inputs(left, right):
        return (
            temporal(*left),
            LiteralRelation(Relation.from_rows(JOIN_RIGHT_SCHEMA, right)),
        )

    @staticmethod
    def lower(plan, batch_size):
        return Lowering(batch_size=batch_size).lower(plan)

    @pytest.mark.parametrize("predicate", [ON_NAME, ON_BOTH], ids=["one key", "two keys"])
    @pytest.mark.parametrize("join", [Join, TemporalJoin])
    @pytest.mark.parametrize(
        "left, right", [(LEFT, RIGHT), (LEFT, ()), ((), RIGHT)], ids=["both", "no right", "no left"]
    )
    def test_every_batch_size_yields_the_reference_sequence(self, join, predicate, left, right):
        plan = join(predicate, *self.inputs(left, right))
        reference = plan.evaluate(CONTEXT)
        assert (len(reference) > 0) == bool(left and right)
        for batch_size in BATCH_SIZES:
            root = self.lower(plan, batch_size)
            assert isinstance(root, HashJoinOp)
            assert list(root.to_relation().rows) == values(reference)
            if join is Join:  # the DBMS emulates the temporal join
                assert list(run_dbms(plan, batch_size).rows) == values(reference)

    def test_the_sequence_is_the_one_it_always_was(self):
        plan = TemporalJoin(self.ON_BOTH, *self.inputs(self.LEFT, self.RIGHT))
        assert list(self.lower(plan, 2).to_relation().rows) == [
            ("John", "Sales", 1, 5, "John", "Sales", 3, 6, 3, 5),
            ("Anna", "Ads", 2, 9, "Anna", "Ads", 1, 4, 2, 4),
            ("John", "Sales", 4, 8, "John", "Sales", 3, 6, 4, 6),
            ("John", "Sales", 4, 8, "John", "Sales", 5, 9, 5, 8),
            ("John", "Ads", 1, 9, "John", "Ads", 1, 2, 1, 2),
        ]


class TestEmulation:
    def test_emulated_temporal_fragments_are_counted_and_drain_under_control(self):
        dbms = ConventionalDBMS()
        dbms.load_relation("EMPLOYEE", employee_relation())
        plan = Coalescing(
            TemporalDuplicateElimination(
                Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation()))
            )
        )
        control = CountingControl(interval=2)
        outcome = dbms.execute(plan, control=control, batch_size=2)
        assert outcome.report.dbms_emulated_operations == ["rdupT", "coalT"]
        assert multiset_equivalent(outcome.relation, plan.evaluate(CONTEXT))
        # Source and projection drain at the emulation's first pull, under the same control.
        assert control.ticks["dbms.scan"] > 4

    def test_an_emulation_drains_nothing_until_it_is_pulled(self):
        plan = TemporalDuplicateElimination(
            Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation()))
        )
        root, lowering = dbms_tree(plan)
        assert isinstance(root, EmulateOp) and lowering.emulated == ["rdupT"]
        assert all(operator.rows_out is None for operator in root.operators())
        assert root.explain().splitlines() == [
            "Emulate(rdupT)", "  Project(EmpName, T1, T2)", "    Source(rows=5)",
        ]
        assert list(root.to_relation().rows) == list(plan.evaluate(CONTEXT).rows)

    def test_the_stratum_passes_its_batch_size_and_reports_the_emulations(self, monkeypatch):
        dbms = ConventionalDBMS()
        dbms.load_relation("EMPLOYEE", employee_relation())
        plan = TransferToStratum(
            TemporalDuplicateElimination(
                Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation()))
            )
        )
        seen = []
        original = BatchOperator.batches

        def recording(self):
            seen.append(self.batch_size)
            return original(self)

        executor = StratumExecutor(dbms, batch_size=3)
        monkeypatch.setattr(BatchOperator, "batches", recording)
        executor.execute(plan)
        assert seen and set(seen) == {3}
        assert executor.report.dbms_emulated_operations == ["rdupT"]
        assert executor.report.dbms_calls == 1
