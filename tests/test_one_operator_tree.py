"""One operator tree per request, checked against the reference at random cut points.

A plan is lowered once into one tree of batch operators across both
engines: ``TS`` switches the lowering to the DBMS's engine descriptor, ``TD``
switches it back, and both are pass-through operators.  Generated plans get
balanced ``TS``/``TD`` pairs inserted at cut points hypothesis draws, and at
every batch size the tree must give:

* the reference's rows as a list (``plan.evaluate``), with the order the
  engines derive — Table 1 in the stratum, only a sort's in the DBMS;
* a ``node_rows`` count equal to a reference walk's at every path it
  reports — every path but a product fused into a join (what EXPLAIN
  ANALYZE's actuals read, DBMS-inner nodes included);
* operators that each belong to their engine's admissible set, carry plan
  paths of that engine's territory and tick that engine's fault point;
* one decision behind the tree and its prices: at every path the lowered
  operator, and whether it fuses its product child or folds a projection,
  is ``physical_choice``'s, the cost annotations name the same engine and
  print the choice's description, and the paths priced at work 0.0 as
  fused are exactly the ones that report no rows.

A healthy EXPLAIN ANALYZE evaluates nothing through the reference semantics.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cost import cost_annotations
from repro.core.expressions import (
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    ProjectionItem,
)
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE, Lowering, physical_choice
from repro.core.operations import (
    BaseRelation,
    CartesianProduct,
    Join,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    TemporalCartesianProduct,
    TransferToDBMS,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext, ROOT_PATH
from repro.core.order_spec import OrderSpec
from repro.core.physical import FilterOp, NestedLoopJoinOp
from repro.core.relation import Relation
from repro.dbms import ConventionalDBMS
from repro.dbms.catalog import Catalog
from repro.session import Session
from repro.session.explain import build_operator_lines
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.stratum.partition import partition_plan
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation, project_relation

from .conftest import PAPER_STATEMENT
from .strategies import (
    JOIN_RIGHT_SCHEMA,
    TEMPORAL_SCHEMA,
    _equi_conjunct,
    _overlap_conjuncts,
    conventional_plans,
    join_shaped_plans,
    temporal_shaped_plans,
)
from .test_dbms_operators import BATCH_SIZES, CountingControl

CONTEXT = EvaluationContext()
ENGINES = {engine.fault_point: engine for engine in (STRATUM_ENGINE, DBMS_ENGINE)}


@st.composite
def cut_plans(draw):
    """A generated plan with balanced ``TS``/``TD`` pairs at drawn cut points:
    above any node, a transfer into the other engine."""
    plan = draw(st.one_of(conventional_plans(), join_shaped_plans(), temporal_shaped_plans()))

    def cut(node: Operation, engine: str) -> Operation:
        if draw(st.integers(0, 3)) == 0:
            if engine == "stratum":
                return TransferToStratum(rebuilt(node, "dbms"))
            return TransferToDBMS(rebuilt(node, "stratum"))
        return rebuilt(node, engine)

    def rebuilt(node: Operation, engine: str) -> Operation:
        return node.with_children([cut(child, engine) for child in node.children])

    if draw(st.booleans()):  # half the plans start in DBMS territory
        return TransferToStratum(rebuilt(plan, "dbms"))
    return cut(plan, "stratum")


LEFT = LiteralRelation(Relation.from_rows(
    TEMPORAL_SCHEMA, [("John", "Sales", 1, 5), ("Anna", "Ads", 2, 8), ("John", "Ads", 4, 9)]
))
RIGHT = LiteralRelation(Relation.from_rows(
    JOIN_RIGHT_SCHEMA, [("John", "X", 2, 6), ("Mia", "Y", 7, 9), ("Anna", "Z", 1, 3)]
))


def _dbms_join_shapes():
    """The shapes whose engine decides the join: each under a ``TS``, so the
    DBMS runs it — fused hash join with a folded projection, a keyless σ
    over a product, a keyless join, and a σ over an emulated ``×T``."""
    equi, overlap = _equi_conjunct(), And(*_overlap_conjuncts())
    return [
        TransferToStratum(Projection(["1.Name", "Dept", "Code"], Selection(equi, CartesianProduct(LEFT, RIGHT)))),
        TransferToStratum(Selection(overlap, CartesianProduct(LEFT, RIGHT))),
        TransferToStratum(Join(overlap, LEFT, RIGHT)),
        TransferToStratum(Selection(equi, TemporalCartesianProduct(LEFT, RIGHT))),
    ]


def _stacked_projections():
    """π over π over an equi σ(×), in the stratum and under a ``TS``: only
    the inner π folds into the hash join, and the outer reads the inner's
    columns — one computed (``Span``), one renamed onto a name the join
    also has (``2.T1 AS 1.T1``)."""
    span = Arithmetic(ArithmeticOperator.SUB, AttributeRef("1.T2"), AttributeRef("1.T1"))
    inner = Projection(
        ["1.Name", ProjectionItem(span, alias="Span"), ProjectionItem(AttributeRef("2.T1"), alias="1.T1")],
        Selection(_equi_conjunct(), CartesianProduct(LEFT, RIGHT)),
    )
    plans = [Projection(["Span", "1.T1"], inner), Projection(["1.Name", "1.T1"], inner)]
    return plans + [TransferToStratum(plan) for plan in plans]


DBMS_JOIN_SHAPES = _dbms_join_shapes()
STACKED_PROJECTIONS = _stacked_projections()


def reference_walk(plan: Operation):
    """Per path, the reference's row count; and the plan's order as the
    engines derive it — a transfer hands on what it was given."""
    counts = {}

    def visit(node, path, engine):
        below = "dbms" if isinstance(node, TransferToStratum) else (
            "stratum" if isinstance(node, TransferToDBMS) else engine
        )
        results = [visit(child, path + (index,), below) for index, child in enumerate(node.children)]
        relation = node._evaluate([result for result, _ in results], CONTEXT)
        counts[path] = len(relation)
        orders = [order for _, order in results]
        if isinstance(node, (TransferToStratum, TransferToDBMS)):
            return relation, orders[0]
        if engine == "dbms":
            orders = [OrderSpec.unordered()] * len(orders)
        return relation, node.result_order(orders)

    return counts, visit(plan, ROOT_PATH, "stratum")[1]


class TestTheTreeAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(cut_plans())
    @example(DBMS_JOIN_SHAPES[0])
    @example(DBMS_JOIN_SHAPES[1])
    @example(DBMS_JOIN_SHAPES[2])
    @example(DBMS_JOIN_SHAPES[3])
    @example(STACKED_PROJECTIONS[0])
    @example(STACKED_PROJECTIONS[1])
    @example(STACKED_PROJECTIONS[2])
    @example(STACKED_PROJECTIONS[3])
    def test_rows_order_counts_and_engines_at_every_batch_size(self, plan):
        reference = plan.evaluate(CONTEXT)
        counts, order = reference_walk(plan)
        partition = partition_plan(plan)
        everywhere = {path for path, _ in plan.locations()}
        for batch_size in BATCH_SIZES:
            control = CountingControl(interval=3)
            lowering = Lowering(Catalog(), batch_size, control=control)
            root = lowering.lower(plan)
            relation, report = lowering.execute(root)
            assert relation.schema.attributes == reference.schema.attributes
            assert list(relation.rows) == list(reference.rows), plan.pretty()
            assert relation.order == order
            fused = {path for op in root.operators() for path in op.paths[op.output_nodes :]}
            assert set(report.node_rows) == everywhere - fused
            assert report.node_rows == {path: counts[path] for path in report.node_rows}
            ticks = Counter()
            for operator in root.operators():
                engine = ENGINES[operator.fault_point]
                assert type(operator) in engine.operators
                assert all(partition.engine_of(path) == engine.name for path in operator.paths)
                ticks[operator.fault_point] += operator.output_nodes * (1 + operator.rows_out // 3)
            assert control.ticks == ticks
        assert_one_decision(plan, root, report)
        executor = StratumExecutor(ConventionalDBMS(), batch_size=7)
        assert list(executor.execute(plan).rows) == list(reference.rows)
        assert executor.report.degraded_operations == []
        assert executor.report.dbms_calls == sum(
            isinstance(node, TransferToStratum) for _, node in plan.locations()
        )


def assert_one_decision(plan, root, report):
    """The lowered tree, its cost annotations and its report all follow
    ``physical_choice`` at every path."""
    annotations = cost_annotations(plan)
    fused, absorbed = set(), set()
    for operator in root.operators():
        if not operator.paths:  # a relabelling projection, no plan node of its own
            continue
        engine = ENGINES[operator.fault_point]
        producing = operator.paths[: operator.output_nodes]
        tail = set(operator.paths[operator.output_nodes :])
        for index, path in enumerate(producing):
            node = plan.subtree_at(path)
            choice = physical_choice(node, engine)
            assert choice.operator is type(operator), (path, plan.pretty())
            assert choice.folds_projection == (index == 0 and operator.output_nodes == 2)
            if choice.absorbs is None:
                assert not tail & {path + (i,) for i in range(len(node.children))}
            else:
                assert path + (choice.absorbs,) in tail
                (fused if choice.fuses_product else absorbed).add(path + (choice.absorbs,))
                if not choice.fuses_product:
                    assert annotations[path + (choice.absorbs,)].physical == f"absorbed into {node.symbol}"
            assert annotations[path].physical == choice.describe()
        for path in operator.paths:
            assert annotations[path].engine == engine.name
    for path in fused:
        assert annotations[path].physical == "fused into σ" and annotations[path].work == 0.0
    assert {path for path, a in annotations.items() if a.physical == "fused into σ"} == fused
    # An absorbed rdupT is priced as its own node, a fused product is not.
    assert all(annotations[path].work > 0.0 for path in absorbed)
    assert {path for path, a in annotations.items() if (a.physical or "").startswith("absorbed")} == absorbed
    assert fused | absorbed == {path for path, _ in plan.locations()} - set(report.node_rows)


class TestAKeylessDBMSPairIsAFilterOverTheProduct:
    """The DBMS fuses a σ over a product only into a hash join — as the cost
    model prices it — so a keyless pair runs as a filter over the product's
    own nested loop, and EXPLAIN ANALYZE reports the product's rows."""

    def test_the_explain_analyze_lines_match_the_lowered_operators(self):
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.register("PROJECT", project_relation())
        earlier = Comparison(ComparisonOperator.LT, AttributeRef("1.T1"), AttributeRef("2.T1"))
        plan = TransferToStratum(Selection(earlier, CartesianProduct(
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA), BaseRelation("PROJECT", PROJECT_SCHEMA)
        )))
        lowering = Lowering(database.dbms.catalog)
        root = lowering.lower(plan)
        relation, report = lowering.execute(root)
        annotations = cost_annotations(plan, database.statistics())
        lines = {line.path: line for line in build_operator_lines(plan, report, annotations)}
        operators = {operator.paths: operator for operator in root.operators()}
        assert set(operators) == {(path,) for path in annotations}
        assert type(operators[((0,),)]) is FilterOp and lines[(0,)].physical is None
        assert type(operators[((0, 0),)]) is NestedLoopJoinOp
        assert lines[(0, 0)].physical == "nested-loop"
        assert lines[(0, 0)].actual_rows == 40 and lines[(0,)].actual_rows == len(relation)
        assert all(annotation.work > 0.0 for annotation in annotations.values())
        assert_one_decision(plan, root, report)


def operation_types(cls=Operation):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from operation_types(subclass)


def test_a_healthy_explain_analyze_evaluates_nothing_a_second_time(monkeypatch):
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    session = Session(database)

    def refuse(self, child_results, context):
        raise AssertionError(f"reference evaluation of {self.label()}")

    for node_type in operation_types():
        monkeypatch.setattr(node_type, "_evaluate", refuse)
    result = session.execute("EXPLAIN ANALYZE " + PAPER_STATEMENT)
    assert result.report.dbms_emulated_operations == []
    assert result.report.degraded_operations == []
    lines = result.explain.lines
    assert {line.engine for line in lines} == {"stratum", "dbms"}
    # The rdupT that \T runs itself has no drain of its own to count or time.
    absorbed = [line for line in lines if line.physical == "absorbed into \\T"]
    assert [line.label for line in absorbed] == ["rdupT"]
    for line in lines:
        if line in absorbed:
            assert line.actual_rows is None and line.time_seconds is None, line
        else:
            assert line.actual_rows is not None and line.time_seconds is not None, line
