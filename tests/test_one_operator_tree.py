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
  paths of that engine's territory and tick that engine's fault point.

A healthy EXPLAIN ANALYZE evaluates nothing through the reference semantics.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE, Lowering
from repro.core.operations import Operation, TransferToDBMS, TransferToStratum
from repro.core.operations.base import EvaluationContext, ROOT_PATH
from repro.core.order_spec import OrderSpec
from repro.dbms import ConventionalDBMS
from repro.dbms.catalog import Catalog
from repro.session import Session
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.stratum.partition import partition_plan
from repro.workloads import employee_relation, project_relation

from .conftest import PAPER_STATEMENT
from .strategies import conventional_plans, join_shaped_plans, temporal_shaped_plans
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

    return cut(plan, "stratum")


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
        executor = StratumExecutor(ConventionalDBMS(), batch_size=7)
        assert list(executor.execute(plan).rows) == list(reference.rows)
        assert executor.report.degraded_operations == []
        assert executor.report.dbms_calls == sum(
            isinstance(node, TransferToStratum) for _, node in plan.locations()
        )


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
    for line in lines:
        assert line.actual_rows is not None and line.time_seconds is not None, line
