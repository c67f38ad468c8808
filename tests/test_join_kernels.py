"""The join operators' probes: fused hash-join kernels and the interval index.

A projection directly above a hash join runs inside the join's generated
probe loop (``repro.core.expressions.join_kernel``), and a stored build side
is hashed once per relation and key (``Relation.buckets``).  Pinned here:

* **differential** — π over generated hash joins whose residuals mix
  left-only, right-only and pair conjuncts, with projections reading the
  fresh ``T1``/``T2`` and arithmetic, equals the reference evaluation, the
  unfused ``ProjectOp`` over ``HashJoinOp`` and the composition the kernel
  replaces, at every batch size;
* **error order** — only a *leading* run of left-only conjuncts is tested
  before the lookup, and an exception inside the kernel re-runs the batch
  through that composition;
* **safety** — the generated probe source holds no value or name;
* **the build side by count** — one build per (relation, key) per epoch,
  also under snapshots and threads;
* **accounting** — the folded operator reports rows and time for both
  nodes and charges the resource guard what the two operators did;
* **the interval probe** — ``IntervalJoinOp`` visits O(log n + candidates)
  entries per left row and stays exact on degenerate intervals.
"""

from __future__ import annotations

import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads import CHECK_SCALE, STATEMENTS, build_database

import repro.core.expressions as expressions
import repro.core.relation as relation_module
from repro.core.exceptions import EvaluationError
from repro.core.expressions import (
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    ProjectionItem,
)
from repro.core.operations import (
    CartesianProduct,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    TemporalCartesianProduct,
    TemporalJoin,
)
from repro.core.operations.base import EvaluationContext
from repro.core.physical import HashJoinOp, IntervalJoinOp, ProjectOp
from repro.core.relation import Relation
from repro.core.schema import INTEGER, STRING, RelationSchema
from repro.faults.control import ExecutionControl, ResourceGuard
from repro.stratum.executor import StratumExecutor
from repro.core.lowering import STRATUM_ENGINE, Lowering, physical_choice

from .conftest import in_threads
from .strategies import (
    JOIN_RIGHT_SCHEMA,
    TEMPORAL_SCHEMA,
    join_right_relations,
    join_shaped_plans,
    temporal_relations,
)
from .test_row_kernels import ODD, assert_safe, typed

BATCH_SIZES = (1, 2, 7, 1024)
CONTEXT = EvaluationContext()


def attr(name):
    return AttributeRef(name)


def compare(operator, left, right):
    return Comparison(operator, left, right)


EQUI = compare(ComparisonOperator.EQ, attr("1.Name"), attr("2.Name"))

#: Residual conjuncts over the product of TEMPORAL_SCHEMA and JOIN_RIGHT_SCHEMA.
LEFT_ONLY = (
    compare(ComparisonOperator.NE, attr("Dept"), Literal("Ads")),
    compare(ComparisonOperator.GE, attr("1.T1"), Literal(3)),
    compare(ComparisonOperator.EQ, attr("Dept"), Literal("Sales")),
)
RIGHT_ONLY = (
    compare(ComparisonOperator.NE, attr("Code"), Literal("X")),
    compare(ComparisonOperator.GT, attr("2.T2"), Literal(4)),
)
PAIR = (
    compare(ComparisonOperator.LT, attr("1.T1"), attr("2.T2")),
    compare(ComparisonOperator.LE, attr("2.T1"), attr("1.T2")),
    compare(ComparisonOperator.NE, attr("Code"), attr("Dept")),
)
#: Over the fresh intersection period of a temporal join.
FRESH = (
    compare(ComparisonOperator.GT, attr("T2"), attr("T1")),
    compare(ComparisonOperator.GE, attr("T1"), Literal(4)),
)


def items_for(temporal):
    """Projection items: plain attributes, arithmetic, the fresh period."""
    items = [
        ProjectionItem(attr("1.Name")),
        ProjectionItem(attr("Code")),
        ProjectionItem(attr("Dept")),
        ProjectionItem(Arithmetic(ArithmeticOperator.SUB, attr("2.T2"), attr("1.T1")), "gap"),
        ProjectionItem(Arithmetic(ArithmeticOperator.ADD, attr("1.T2"), Literal(1)), "next"),
        ProjectionItem(Literal(7), "seven"),
    ]
    if temporal:
        items.append(
            ProjectionItem(Arithmetic(ArithmeticOperator.SUB, attr("T2"), attr("T1")), "span")
        )
    return items


@st.composite
def projected_hash_joins(draw):
    """π over a hash join (an idiom node or a fused σ-over-product) whose
    residual mixes left-only, right-only and pair conjuncts in any order."""
    left = LiteralRelation(draw(temporal_relations(max_size=8)))
    right = LiteralRelation(draw(join_right_relations(max_size=8)))
    shape = draw(st.sampled_from(["join", "temporal-join", "select-product", "select-temporal-product"]))
    temporal = "temporal" in shape
    pool = LEFT_ONLY + RIGHT_ONLY + PAIR + (FRESH if temporal else ())
    conjuncts = draw(st.lists(st.sampled_from(pool), max_size=4)) + [EQUI]
    predicate = And(*draw(st.permutations(conjuncts)))
    if shape == "join":
        plan = Join(predicate, left, right)
    elif shape == "temporal-join":
        plan = TemporalJoin(predicate, left, right)
    elif shape == "select-product":
        plan = Selection(predicate, CartesianProduct(left, right))
    else:
        plan = Selection(predicate, TemporalCartesianProduct(left, right))
    items = draw(
        st.lists(st.sampled_from(items_for(temporal)), min_size=1, max_size=5, unique_by=lambda i: i.output_name)
    )
    if temporal and draw(st.booleans()):  # a projection keeps both or neither
        items += [ProjectionItem(attr("T1")), ProjectionItem(attr("T2"))]
    return Projection(items, plan)


def drained(root, batch_size, control=None):
    for operator in root.operators():
        operator.instrument("stratum.pull", batch_size, control=control)
    return root.to_relation()


def rows_of(relation, attributes):
    return typed(relation.rows_over(attributes))


def outcome(compute):
    try:
        return "rows", compute()
    except Exception as exc:  # the exception *is* the outcome
        return "raises", type(exc), str(exc)


def fused(plan, batch_size):
    return drained(Lowering().lower(plan), batch_size)


def unfused(plan, batch_size):
    """The operator pair the fold replaces: ``ProjectOp`` over ``HashJoinOp``."""
    join = Lowering().lower(plan.child)
    assert isinstance(join, HashJoinOp) and join.output_nodes == 1
    return drained(ProjectOp(plan.items, plan.output_schema(), join), batch_size)


def failing_join_kernels():
    """``compile_kernel`` whose probe kernels always raise: every batch then
    runs through the composition the kernel replaces."""
    original = expressions.compile_kernel

    def compile_kernel(source):
        if source.startswith("lambda rows, get"):
            def kernel(*args):
                raise RuntimeError("probe kernel disabled")
            return kernel
        return original(source)

    return mock.patch.object(expressions, "compile_kernel", compile_kernel)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(projected_hash_joins())
    def test_the_fused_probe_equals_the_reference_and_the_operator_pair(self, plan):
        assert physical_choice(plan, STRATUM_ENGINE).folds_projection
        attributes = plan.output_schema().attributes
        expected = rows_of(plan.evaluate(CONTEXT), attributes)
        for batch_size in BATCH_SIZES:
            root = Lowering().lower(plan)
            assert isinstance(root, HashJoinOp) and root.output_nodes == 2
            assert rows_of(drained(root, batch_size), attributes) == expected
            assert rows_of(unfused(plan, batch_size), attributes) == expected
            with failing_join_kernels():
                assert rows_of(fused(plan, batch_size), attributes) == expected

    @settings(max_examples=100, deadline=None)
    @given(join_shaped_plans(), st.booleans())
    def test_a_projection_over_any_join_shape_equals_the_reference(self, plan, span):
        schema = plan.output_schema()
        items = [ProjectionItem(attr(schema.attributes[0]))]
        if span and schema.has_attribute("T1") and schema.has_attribute("T2"):
            items.append(ProjectionItem(Arithmetic(ArithmeticOperator.SUB, attr("T2"), attr("T1")), "span"))
        projected = Projection(items, plan)
        attributes = projected.output_schema().attributes
        expected = rows_of(projected.evaluate(CONTEXT), attributes)
        for batch_size in BATCH_SIZES:
            assert rows_of(fused(projected, batch_size), attributes) == expected


# ---------------------------------------------------------------------------
# Error order
# ---------------------------------------------------------------------------


def people(*rows):
    return LiteralRelation(Relation.from_rows(TEMPORAL_SCHEMA, rows))


def jobs(*rows):
    return LiteralRelation(Relation.from_rows(JOIN_RIGHT_SCHEMA, rows))


def hoisted(source):
    """The tests a probe source runs before its bucket lookup."""
    before_lookup = source.split(" for r in ", 1)[0]
    return before_lookup.split(" for l in rows", 1)[1].count(" if ")


class TestErrorOrder:
    LEFT = people(("John", "Sales", 1, 5), ("Anna", "Ads", 2, 8))
    RIGHT = jobs(("John", "X", 2, 6), ("Anna", "Y", 5, 7))

    def test_a_raising_pair_conjunct_still_raises_ahead_of_a_false_left_only_one(
        self, compiled_sources
    ):
        raising = compare(ComparisonOperator.LT, attr("1.T1"), attr("Code"))  # int < str
        never = compare(ComparisonOperator.EQ, attr("Dept"), Literal("Nobody"))
        plan = Projection(["1.Name", "Code"], TemporalJoin(And(EQUI, raising, never), self.LEFT, self.RIGHT))
        expected = outcome(lambda: plan.evaluate(CONTEXT))
        assert expected[:2] == ("raises", EvaluationError)
        for batch_size in BATCH_SIZES:
            assert outcome(lambda: fused(plan, batch_size)) == expected
            assert outcome(lambda: unfused(plan, batch_size)) == expected
        # ``never`` follows a pair conjunct: neither is tested before the lookup.
        assert {hoisted(s) for s in compiled_sources if s.startswith("lambda rows, get")} == {0}

    def test_a_left_only_conjunct_raising_on_a_row_without_a_partner_does_not_raise(
        self, compiled_sources
    ):
        # 6 / (T1 - 10) divides by zero on Mia's left row, whose only key
        # partner does not overlap it: the reference never gets there.
        left = people(("John", "Sales", 1, 5), ("Mia", "Ads", 10, 11), ("Anna", "Ads", 2, 8))
        right = jobs(("John", "X", 2, 6), ("Mia", "Y", 6, 9), ("Anna", "Y", 5, 7))
        divides = compare(
            ComparisonOperator.GT,
            Arithmetic(
                ArithmeticOperator.DIV,
                Literal(6),
                Arithmetic(ArithmeticOperator.SUB, attr("1.T1"), Literal(10)),
            ),
            Literal(-100),
        )
        plan = Projection(["1.Name", "Code", "T1", "T2"], TemporalJoin(And(divides, EQUI), left, right))
        expected = rows_of(plan.evaluate(CONTEXT), plan.output_schema().attributes)
        assert len(expected) == 2
        for batch_size in BATCH_SIZES:
            assert rows_of(fused(plan, batch_size), plan.output_schema().attributes) == expected
        # Tested before the lookup — where it raised, and the batch re-ran.
        assert {hoisted(s) for s in compiled_sources if s.startswith("lambda rows, get")} == {1}
        overlapping = jobs(("Mia", "Y", 9, 12))
        with pytest.raises(EvaluationError, match="division by zero"):
            fused(Projection(["1.Name"], TemporalJoin(And(divides, EQUI), left, overlapping)), 7)


# ---------------------------------------------------------------------------
# Safety of the generated probe source
# ---------------------------------------------------------------------------


HOSTILE = "]; __import__('os')"
ODD_SCHEMA = RelationSchema.snapshot([("Name", STRING), (ODD, INTEGER)], name="O")
KEYED_SCHEMA = RelationSchema.snapshot([("Key", STRING), ("Weight", INTEGER)], name="W")


class TestGeneratedSource:
    def test_no_value_or_name_enters_a_probe_source(self, compiled_sources):
        left = LiteralRelation(
            Relation.from_rows(ODD_SCHEMA, [(HOSTILE, 1), ("it's", 2), ("John", 3)])
        )
        right = LiteralRelation(
            Relation.from_rows(KEYED_SCHEMA, [(HOSTILE, 5), ("John", 0), ("it's", 9)])
        )
        predicate = And(
            compare(ComparisonOperator.NE, attr("Name"), Literal(HOSTILE + "x")),
            compare(ComparisonOperator.EQ, attr("Name"), attr("Key")),
            compare(ComparisonOperator.GE, attr(ODD), Literal(1)),
            compare(ComparisonOperator.NE, attr("Weight"), Literal(0)),
        )
        plan = Projection(
            [
                ProjectionItem(attr(ODD), "odd"),
                ProjectionItem(Literal(HOSTILE), "hostile"),
                ProjectionItem(Arithmetic(ArithmeticOperator.MUL, attr("Weight"), attr(ODD)), "w"),
            ],
            Join(predicate, left, right),
        )
        result = fused(plan, 2)
        assert list(result.rows) == [(1, HOSTILE, 5), (2, HOSTILE, 18)]
        probes = [s for s in compiled_sources if s.startswith("lambda rows, get")]
        assert probes
        for source in compiled_sources:
            assert_safe(source)
            assert HOSTILE not in source and "it's" not in source and ODD not in source
        # The key is consumed, so both left-only tests lead the residual.
        assert {hoisted(s) for s in probes} == {2}

    @settings(max_examples=60, deadline=None)
    @given(projected_hash_joins())
    def test_every_generated_probe_source_is_safe(self, plan):
        sources = []
        original = expressions.compile_kernel

        def spy(source):
            sources.append(source)
            return original(source)

        with mock.patch.object(expressions, "compile_kernel", spy):
            fused(plan, 7)
        assert any(source.startswith("lambda rows, get") for source in sources)
        for source in sources:
            assert_safe(source)


# ---------------------------------------------------------------------------
# The build side, by count
# ---------------------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Every hash table built from a relation's rows: ``(rows, key)`` sizes."""
    seen = []
    original = relation_module.hash_buckets

    def spy(rows, key_indexes):
        table = original(rows, key_indexes)
        seen.append((sum(map(len, table.values())), key_indexes))
        return table

    monkeypatch.setattr(relation_module, "hash_buckets", spy)
    return seen


TJOIN = STATEMENTS["tjoin"]


def run_tjoin(session, index=0, **kwargs):
    return session.execute(TJOIN.sql, TJOIN.params[index % len(TJOIN.params)], **kwargs)


class TestBuildOncePerEpoch:
    def test_ten_warm_executions_build_once_per_relation_and_key(self, builds):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        assignment = len(database.dbms.catalog.table("ASSIGNMENT").relation)
        for index in range(10):
            run_tjoin(session, index)
        assert builds == [(assignment, (0,))]

    def test_an_append_builds_once_more_and_a_pinned_reader_keeps_its_rows(self, builds):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        before = run_tjoin(session).relation
        snapshot = database.snapshot()
        person = before.rows[0][0]
        database.append("ASSIGNMENT", [(person, "T-new", 0, 1000)])
        after = run_tjoin(session).relation
        assert len(after) > len(before)
        assert len(builds) == 2
        for _ in range(3):
            assert run_tjoin(session, snapshot=snapshot).relation == before
            assert run_tjoin(session).relation == after
        assert len(builds) == 2

    def test_threads_racing_the_first_build_get_identical_rows(self, builds):
        expected = run_tjoin(build_database(CHECK_SCALE, 0).session()).relation
        database = build_database(CHECK_SCALE, 0)
        threads = 4  # more than the cores, switching as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            join = in_threads(*(lambda: run_tjoin(database.session()).relation for _ in range(threads)))
            outcomes = join()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [expected] * threads
        # the first database's build, then one per racer at most
        assert 2 <= len(builds) <= 1 + threads
        stored = database.dbms.catalog.table("ASSIGNMENT").relation
        assert stored.buckets((0,)) == relation_module.hash_buckets(stored.rows, (0,))


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    """The fold keeps every count the unfused operator pair reported
    (measured on the operator pair before the fold: these are its values)."""

    def test_explain_analyze_reports_both_nodes(self):
        session = build_database(CHECK_SCALE, 0).session()
        run_tjoin(session)
        report = session.explain(TJOIN.sql, TJOIN.params[0])
        projection, join = report.line_for((0,)), report.line_for((0, 0))
        assert projection.physical == "fused into hash join"
        assert join.physical.startswith("hash: EmpName=Person ∧ overlap")
        assert projection.actual_rows == join.actual_rows == 42
        assert projection.time_seconds is not None and join.time_seconds is not None
        text = report.render()
        for label in ("π[EmpName, Dept, Task, T1, T2]", "⋈T["):
            (line,) = [row for row in text.splitlines() if label in row]
            assert "actual=42" in line and re.search(r"time=\d+\.\d+ms", line), line

    def test_stratum_operations_and_the_guard_charge_match_the_operator_pair(self):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        guard = ResourceGuard()
        result = run_tjoin(session, guard=guard)
        assert (result.report.stratum_operations, guard.rows, len(result.relation)) == (3, 896, 42)
        for interval, charged in ((1, 445), (5, 465)):
            for batch_size in (1, 7, 1024):
                control = ExecutionControl(guard=ResourceGuard(), interval=interval)
                executor = StratumExecutor(database.dbms, control=control, batch_size=batch_size)
                executor.execute(result.plan)
                assert executor.report.stratum_operations == 3
                assert control.guard.rows == charged, (interval, batch_size)

    def test_the_folded_operator_ticks_once_per_node(self):
        plan = Projection(["1.Name"], TemporalJoin(EQUI, TestErrorOrder.LEFT, TestErrorOrder.RIGHT))
        control = ExecutionControl(guard=ResourceGuard(), interval=1)
        root = Lowering().lower(plan)
        drained(root, 1, control)
        # two sources (2 rows each) and the fold (2 rows, two nodes): one
        # tick per node at drain start and one per row
        assert root.rows_out == 2
        assert control.guard.rows == 2 * (1 + 2) + 2 * (1 + 2)


# ---------------------------------------------------------------------------
# The interval join's probe
# ---------------------------------------------------------------------------


LEFT_INTERVALS = RelationSchema.snapshot([("A", INTEGER), ("S", INTEGER), ("E", INTEGER)], name="L")
RIGHT_INTERVALS = RelationSchema.snapshot([("B", INTEGER), ("S", INTEGER), ("E", INTEGER)], name="R")
OVERLAP = And(
    compare(ComparisonOperator.LT, attr("1.S"), attr("2.E")),
    compare(ComparisonOperator.LT, attr("2.S"), attr("1.E")),
)


def intervals(schema, count, seed, start_step, lengths):
    rng = random.Random(seed)
    rows = [(k, start_step * k + rng.randrange(3), 0) for k in range(count)]
    rows = [(k, s, s + lengths[k % len(lengths)]) for k, s, _ in rows]
    rng.shuffle(rows)
    return Relation.from_rows(schema, rows)


@st.composite
def degenerate_intervals(draw, schema):
    """Intervals over 0..6 of length 0..3: zero-length, touching and
    identical ones are common."""
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 3)).map(
                lambda t: (t[0], t[1], t[1] + t[2])
            ),
            max_size=10,
        )
    )
    return Relation.from_rows(schema, rows)


class TestIntervalProbe:
    def test_candidates_examined_fall_to_at_most_twice_the_matches(self):
        left = intervals(LEFT_INTERVALS, 2000, 0, 3, (2, 3))
        right = intervals(RIGHT_INTERVALS, 2000, 1, 3, (4, 5, 6))
        plan = Join(OVERLAP, LiteralRelation(left), LiteralRelation(right))
        root = Lowering().lower(plan)
        assert isinstance(root, IntervalJoinOp)
        result = drained(root, 1024)
        matches = sum(
            1 for l in left.rows for r in right.rows if l[1] < r[2] and r[1] < l[2]
        )
        assert len(result) == matches > 2000
        assert root.candidates_examined <= 2 * matches  # a prefix scan visits ~n²/2 = 2 000 000
        # left-major, each left row's matches in right input order
        positions = {row: index for index, row in enumerate(right.rows)}
        for previous, row in zip(result.rows, result.rows[1:]):
            if previous[:3] == row[:3]:
                assert positions[previous[3:]] < positions[row[3:]]

    @settings(max_examples=150, deadline=None)
    @given(degenerate_intervals(LEFT_INTERVALS), degenerate_intervals(RIGHT_INTERVALS), st.booleans())
    def test_degenerate_intervals_match_the_reference(self, left, right, project):
        plan = Join(OVERLAP, LiteralRelation(left), LiteralRelation(right))
        if project:
            plan = Projection(["1.S", "2.E", "B"], plan)
        attributes = plan.output_schema().attributes
        expected = rows_of(plan.evaluate(CONTEXT), attributes)
        for batch_size in BATCH_SIZES:
            assert rows_of(fused(plan, batch_size), attributes) == expected
