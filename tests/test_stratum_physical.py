"""Differential tests for the stratum's pipelined physical operators.

Every physical operator must be **list-compatible** with the reference
semantics — the identical tuple sequence, not merely the same multiset
(order-sensitivity, Section 6).  The property tests cross-check randomized
join-shaped plans tuple-for-tuple against ``Operation.evaluate``; the unit
tests pin the algorithm selection, the predicate split, the executor's
per-node accounting and the EXPLAIN annotation.
"""

from hypothesis import given, settings

from repro.core.cost import cost_annotations
from repro.core.expressions import (
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    equals,
)
from repro.core.joinsplit import (
    split_for_join,
    split_for_product,
    split_for_selection,
    split_product_predicate,
)
from repro.core.operations import (
    CartesianProduct,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalCartesianProduct,
    TemporalJoin,
)
from repro.core.operations.base import EvaluationContext, ROOT_PATH
from repro.core.order_spec import OrderSpec
from repro.core.relation import Relation
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.core.tuples import Tuple
from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor
from repro.core.lowering import STRATUM_ENGINE, Lowering, physical_choice
from repro.core.physical import HashJoinOp, IntervalJoinOp, NestedLoopJoinOp
from repro.workloads import employee_relation, project_relation

from .strategies import (
    JOIN_RIGHT_SCHEMA,
    TEMPORAL_SCHEMA,
    join_right_relations,
    join_shaped_plans,
    temporal_relations,
)

CONTEXT = EvaluationContext()


def run_stratum(plan):
    return StratumExecutor(ConventionalDBMS()).execute(plan)


def assert_list_identical(fast: Relation, reference: Relation):
    assert fast.schema.attributes == reference.schema.attributes
    assert list(fast.tuples) == list(reference.tuples)


EQUI = Comparison(ComparisonOperator.EQ, AttributeRef("1.Name"), AttributeRef("2.Name"))
OVERLAP = (
    Comparison(ComparisonOperator.LT, AttributeRef("1.T1"), AttributeRef("2.T2")),
    Comparison(ComparisonOperator.LT, AttributeRef("2.T1"), AttributeRef("1.T2")),
)


def left_rel(*rows):
    return LiteralRelation(Relation.from_rows(TEMPORAL_SCHEMA, rows))


def right_rel(*rows):
    return LiteralRelation(Relation.from_rows(JOIN_RIGHT_SCHEMA, rows))


SAMPLE_LEFT = left_rel(
    ("John", "Sales", 1, 5),
    ("Anna", "Ads", 2, 8),
    ("John", "Sales", 4, 9),
    ("Mia", "Ads", 3, 6),
)
SAMPLE_RIGHT = right_rel(
    ("John", "X", 2, 6),
    ("Mia", "Y", 1, 4),
    ("John", "Z", 7, 9),
    ("Anna", "X", 5, 7),
)


class TestDifferential:
    """Randomized plans: physical output == reference output, tuple for tuple."""

    @settings(max_examples=120, deadline=None)
    @given(join_shaped_plans())
    def test_join_shaped_plans_match_reference(self, plan):
        assert_list_identical(run_stratum(plan), plan.evaluate(CONTEXT))

    @settings(deadline=None)
    @given(temporal_relations(max_size=6), join_right_relations(max_size=6))
    def test_hash_temporal_join(self, left, right):
        plan = TemporalJoin(EQUI, LiteralRelation(left), LiteralRelation(right))
        assert_list_identical(run_stratum(plan), plan.evaluate(CONTEXT))

    @settings(deadline=None)
    @given(temporal_relations(max_size=6), join_right_relations(max_size=6))
    def test_interval_join_from_overlap_conjuncts(self, left, right):
        plan = Join(And(*OVERLAP), LiteralRelation(left), LiteralRelation(right))
        assert_list_identical(run_stratum(plan), plan.evaluate(CONTEXT))

    def test_paper_relations_join(self):
        predicate = Comparison(
            ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
        )
        plan = TemporalJoin(
            predicate,
            LiteralRelation(employee_relation()),
            LiteralRelation(project_relation()),
        )
        result = run_stratum(plan)
        assert_list_identical(result, plan.evaluate(CONTEXT))
        assert result.cardinality > 0


class TestAlgorithmSelection:
    """The predicate split picks the algorithm the issue prescribes."""

    def lowered(self, plan):
        return Lowering().lower(plan)

    def test_equi_predicate_selects_hash_join(self):
        plan = TemporalJoin(EQUI, SAMPLE_LEFT, SAMPLE_RIGHT)
        assert isinstance(self.lowered(plan), HashJoinOp)

    def test_selection_over_product_fuses_to_hash_join(self):
        plan = Selection(
            And(EQUI, equals("Code", "X")), CartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT)
        )
        root = self.lowered(plan)
        assert isinstance(root, HashJoinOp)
        assert root.paths == (ROOT_PATH, (0,))

    def test_temporal_product_selects_interval_join(self):
        plan = TemporalCartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT)
        assert isinstance(self.lowered(plan), IntervalJoinOp)

    def test_overlap_conjuncts_select_interval_join(self):
        plan = Selection(And(*OVERLAP), CartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT))
        assert isinstance(self.lowered(plan), IntervalJoinOp)

    def test_keyless_predicate_falls_back_to_nested_loop(self):
        plan = Join(equals("Code", "X"), SAMPLE_LEFT, SAMPLE_RIGHT)
        assert isinstance(self.lowered(plan), NestedLoopJoinOp)

    def test_split_classifies_conjuncts(self):
        predicate = And(EQUI, *OVERLAP, equals("Dept", "Sales"))
        split = split_product_predicate(
            predicate,
            ["1.Name", "Dept", "1.T1", "1.T2"],
            ["2.Name", "Code", "2.T1", "2.T2"],
            temporal=False,
        )
        assert split.algorithm == "hash"
        assert split.equi_names == (("1.Name", "2.Name"),)
        # With equi keys available, the overlap pair stays in the residual.
        assert split.overlap_names is None
        assert split.residual is not None

    def test_split_extracts_overlap_without_equi(self):
        split = split_product_predicate(
            And(*OVERLAP, equals("Dept", "Sales")),
            ["1.Name", "Dept", "1.T1", "1.T2"],
            ["2.Name", "Code", "2.T1", "2.T2"],
            temporal=False,
        )
        assert split.algorithm == "interval"
        assert split.overlap_names == ("1.T1", "1.T2", "2.T1", "2.T2")
        assert str(split.residual) == "Dept = 'Sales'"

    def test_fresh_period_attributes_are_never_join_keys(self):
        predicate = Comparison(ComparisonOperator.EQ, AttributeRef("T1"), AttributeRef("2.T1"))
        plan = TemporalJoin(predicate, SAMPLE_LEFT, SAMPLE_RIGHT)
        split = split_for_join(plan)
        assert split.equi_names == ()
        assert split.residual == predicate
        assert_list_identical(run_stratum(plan), plan.evaluate(CONTEXT))

    def test_split_helpers_reject_other_nodes(self):
        assert split_for_join(Selection(Literal(True), SAMPLE_LEFT)) is None
        assert split_for_selection(Selection(Literal(True), SAMPLE_LEFT)) is None
        assert split_for_product(SAMPLE_LEFT) is None


class TestExecutorAccounting:
    def test_fused_product_reports_no_rows(self):
        plan = Selection(EQUI, TemporalCartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT))
        executor = StratumExecutor(ConventionalDBMS())
        result = executor.execute(plan)
        report = executor.report
        # The selection's output is counted; the fused-away product's is not
        # (it never materialises), while the literal leaves are.
        assert report.node_rows[ROOT_PATH] == len(result)
        assert (0,) not in report.node_rows
        assert report.stratum_operations == 2

    def test_pipelined_region_counts_every_node(self):
        plan = Sort(
            OrderSpec.ascending("Dept"),
            Selection(
                Comparison(ComparisonOperator.NE, AttributeRef("Code"), Literal("X")),
                TemporalJoin(EQUI, SAMPLE_LEFT, SAMPLE_RIGHT),
            ),
        )
        executor = StratumExecutor(ConventionalDBMS())
        result = executor.execute(plan)
        rows = executor.report.node_rows
        assert rows[ROOT_PATH] == len(result)
        assert rows[(0,)] == len(result)
        assert (0, 0) in rows
        assert executor.report.stratum_operations == 3


class TestDrainIntoRelation:
    def test_to_relation_skips_the_validating_constructor(self, monkeypatch):
        """The operator built every tuple over its own output schema one line
        earlier; ``Relation.__init__`` would walk them all again."""
        plan = Projection(["Name", "T1", "T2"], SAMPLE_LEFT)
        root = Lowering().lower(plan)
        validated = []
        original = Relation.__init__

        def counting(self, schema, tuples=(), order=None):
            validated.append(schema)
            original(self, schema, tuples, order)

        monkeypatch.setattr(Relation, "__init__", counting)
        relation = root.to_relation()
        assert validated == []
        assert all(tup.schema is root.output_schema for tup in relation)
        assert relation.order == root.order
        monkeypatch.undo()
        assert relation == plan.evaluate(CONTEXT)


class TestExplainAnnotation:
    def test_cost_annotations_carry_the_algorithm(self):
        plan = Selection(EQUI, TemporalCartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT))
        annotations = cost_annotations(plan)
        assert annotations[ROOT_PATH].physical == "hash: 1.Name=2.Name ∧ overlap"
        assert annotations[(0,)].physical == "fused into σ"
        assert annotations[(0, 0)].physical is None

    def test_description_matches_what_the_executor_runs(self):
        for plan in (
            TemporalJoin(EQUI, SAMPLE_LEFT, SAMPLE_RIGHT),
            Join(And(*OVERLAP), SAMPLE_LEFT, SAMPLE_RIGHT),
            CartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT),
        ):
            choice = physical_choice(plan, STRATUM_ENGINE)
            root = Lowering().lower(plan)
            assert not choice.fuses_product
            assert type(root) is choice.operator
            assert choice.describe() in root.describe()

    def test_dbms_side_annotations_fuse_only_the_hash_pair(self):
        from repro.core.operations import TransferToStratum

        # The DBMS fuses an equi σ(×) into its native hash join
        # (repro.core.lowering.physical_choice), so that pair is annotated
        # like the stratum's fusion; a keyless σ filters the product, which
        # runs as its own nested loop.
        plan = TransferToStratum(Selection(EQUI, CartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT)))
        annotations = cost_annotations(plan, engine=STRATUM_ENGINE)
        assert annotations[(0,)].physical == "hash: 1.Name=2.Name"
        assert annotations[(0, 0)].physical == "fused into σ"
        keyless = TransferToStratum(
            Selection(OVERLAP[0], CartesianProduct(SAMPLE_LEFT, SAMPLE_RIGHT))
        )
        keyless_annotations = cost_annotations(keyless, engine=STRATUM_ENGINE)
        assert keyless_annotations[(0,)].physical is None
        assert keyless_annotations[(0, 0)].physical == "nested-loop"


class TestSchemaPermutationFallback:
    """Compiled positional access falls back for attribute-permuted tuples."""

    def test_filter_over_permuted_tuples(self):
        base = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)], name="C")
        permuted = RelationSchema.snapshot([("Amount", INTEGER), ("Name", STRING)], name="C")
        tuples = [
            Tuple(permuted, {"Amount": 1, "Name": "John"}),
            Tuple(base, {"Name": "Anna", "Amount": 2}),
            Tuple(permuted, {"Amount": 3, "Name": "Mia"}),
        ]
        relation = Relation(base, tuples)
        plan = Selection(
            Comparison(ComparisonOperator.GT, AttributeRef("Amount"), Literal(1)),
            LiteralRelation(relation),
        )
        assert_list_identical(run_stratum(plan), plan.evaluate(CONTEXT))
