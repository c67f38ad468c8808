"""A sort whose input can hand over its rows in order sorts nothing.

Before it drains, a ``SortOp`` asks its input to serve the sort order
(``BatchOperator.serve_order``): a source answers from its relation's kept
sorted copy (``Relation.sorted_rows``), ``TS``/``TD``, a selection and a
projection whose keys are copied attributes pass the request down, and a
join passes it to its left (probe) input when every key is a left
attribute.  Pinned here:

* **small-scope list equality** — every placement equals the reference
  ``sort`` as a list, at batch sizes 1, 2 and the default, on every list of
  up to three left tuples (ties under every key) against right inputs with
  ties: a sort over ``TS``/σ/π of a stored relation (a literal, whose
  ``SourceOp`` serves an order as a table's does), over a sort, and over a
  ``⋈``, ``⋈T``, folded π, interval join or nested-loop join, by
  probe-side and non-probe-side keys, ASC, DESC and mixed-direction;
* **the decision** — which sorts an input served, and that every other
  sort still sorts: a key on a ``⋈T``'s fresh ``T1``/``T2``, a computed π
  item or a right attribute, a left input that is not stored, a sort over
  a sort;
* **values without a total order** — a NaN or a ``None`` that a σ or a
  join drops before the sort leaves the result the reference's, with no
  error: the copy is refused and the sort sorts;
* **the sorted copy by count** — one build per (relation, order) per
  epoch, across warm requests, sessions sharing a plan cache, appends and
  snapshots;
* **observability** — the report's ``kept_orders``, EXPLAIN ANALYZE's
  ``[kept order]`` and the operator's ``describe()``.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from benchmarks.ledger.workloads import CHECK_SCALE, STATEMENTS, build_database

import repro.core.relation as relation_module
from repro.core.exceptions import AttributeNotFound
from repro.core.expressions import (
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    ProjectionItem,
)
from repro.core.lowering import Lowering
from repro.core.operations import (
    Join,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TemporalJoin,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.core.physical import HashJoinOp, IntervalJoinOp, NestedLoopJoinOp, SortOp, SourceOp
from repro.core.relation import Relation, totally_ordered
from repro.core.schema import FLOAT, STRING, Domain, RelationSchema
from repro.options import DEFAULT_BATCH_SIZE
from repro.session import Session

from .conftest import in_threads
from .strategies import JOIN_RIGHT_SCHEMA, TEMPORAL_SCHEMA

BATCH_SIZES = (1, 2, DEFAULT_BATCH_SIZE)
CONTEXT = EvaluationContext()

#: (Name, Dept, T1, T2): every pair of rows ties under some key.
LEFT_ROWS = (
    ("John", "Sales", 1, 3),
    ("John", "Ads", 2, 4),
    ("Anna", "Sales", 1, 3),
    ("Anna", "Ads", 2, 3),
)
#: Every list of at most three left rows, in every order.
LEFTS = [
    Relation.from_rows(TEMPORAL_SCHEMA, rows)
    for size in range(4)
    for rows in itertools.product(LEFT_ROWS, repeat=size)
]
#: (Name, Code, T1, T2) inputs with ties on each attribute; several matches
#: per left row, so a left row's run has more than one row.
RIGHTS = [
    Relation.from_rows(JOIN_RIGHT_SCHEMA, rows)
    for rows in (
        [],
        [("John", "X", 1, 4), ("Anna", "Y", 2, 3), ("John", "Y", 1, 2)],
        [("Anna", "X", 1, 3), ("Anna", "X", 2, 4), ("John", "Z", 1, 4), ("John", "X", 3, 4)],
    )
]


def ref(name):
    return AttributeRef(name)


def compare(operator, left, right):
    return Comparison(operator, left, right)


SAME_NAME = compare(ComparisonOperator.EQ, ref("1.Name"), ref("2.Name"))
#: Keyless and without an overlap test: a nested loop (a ``⋈T``: interval join).
OTHER_CODE = compare(ComparisonOperator.NE, ref("Dept"), ref("Code"))
SPAN = ProjectionItem(Arithmetic(ArithmeticOperator.SUB, ref("T2"), ref("T1")), alias="Span")
RENAMED = (ref("Name"), ProjectionItem(ref("Dept"), alias="Unit"), "T1", "T2")


def orders(*specs):
    return [OrderSpec.of(*spec) for spec in specs]


class Placement:
    """A sort over one shape: ``build(order, left, right)`` is the plan, and
    ``served`` the orders the sort's input serves (the others are sorted).
    A ``filtered`` sort — over a σ or a join — is served from the second
    request per epoch on (``Relation.sorted_rows(eager=False)``)."""

    def __init__(self, build, served, sorted_, joins=False, filtered=False):
        self.build = build
        self.served = orders(*served)
        self.sorted = orders(*sorted_)
        self.joins = joins
        self.filtered = filtered or joins

    def orders(self):
        return self.served + self.sorted

    def inputs(self):
        rights = RIGHTS if self.joins else RIGHTS[:1]
        return itertools.product(LEFTS, rights)


def literal(relation):
    return LiteralRelation(relation)


LEFT_ONLY = (("Name",), ("Name DESC",), ("Name", "Dept DESC"), ("Dept DESC", "T2"))
JOIN_PROBE = (("1.Name DESC",), ("Dept", "1.T1 DESC"), ("1.Name", "Dept DESC", "1.T2"))
JOIN_OTHER = (("Code",), ("1.Name", "Code DESC"), ("2.T1 DESC",), ("2.Name", "Dept"))

PLACEMENTS = {
    "sort-over-TS": Placement(
        lambda o, l, r: Sort(o, TransferToStratum(literal(l))), LEFT_ONLY, ()
    ),
    "sort-over-σ": Placement(
        lambda o, l, r: Sort(o, Selection(compare(ComparisonOperator.LT, ref("T1"), Literal(2)), literal(l))),
        LEFT_ONLY,
        (),
        filtered=True,
    ),
    "sort-over-π": Placement(
        lambda o, l, r: Sort(o, Projection(RENAMED, literal(l))),
        (("Unit DESC",), ("Name", "Unit DESC")),
        (),
    ),
    "sort-over-computed-π": Placement(
        lambda o, l, r: Sort(o, Projection(("Name", SPAN), literal(l))),
        (("Name DESC",),),
        (("Span",), ("Name", "Span DESC")),
    ),
    "sort-over-sort": Placement(
        lambda o, l, r: Sort(o, Sort(OrderSpec.of("Dept DESC"), literal(l))),
        (),
        LEFT_ONLY,
    ),
    "sort-over-⋈": Placement(
        lambda o, l, r: Sort(o, Join(SAME_NAME, literal(l), literal(r))),
        JOIN_PROBE,
        JOIN_OTHER,
        joins=True,
    ),
    "sort-over-⋈T": Placement(
        lambda o, l, r: Sort(o, TemporalJoin(SAME_NAME, literal(l), literal(r))),
        JOIN_PROBE,
        JOIN_OTHER + (("T1",), ("1.Name", "T2 DESC")),
        joins=True,
    ),
    "sort-over-π-folded-into-⋈T": Placement(
        lambda o, l, r: Sort(
            o,
            Projection(
                (ProjectionItem(ref("1.Name"), alias="Name"), "Dept", "Code", "T1", "T2"),
                TemporalJoin(SAME_NAME, TransferToStratum(literal(l)), literal(r)),
            ),
        ),
        (("Name DESC",), ("Dept", "Name")),
        (("Code",), ("Name", "T1 DESC")),
        joins=True,
    ),
    "sort-over-interval-join": Placement(
        lambda o, l, r: Sort(o, TemporalJoin(OTHER_CODE, literal(l), literal(r))),
        JOIN_PROBE,
        JOIN_OTHER + (("T2 DESC",),),
        joins=True,
    ),
    "sort-over-nested-loop-join": Placement(
        lambda o, l, r: Sort(o, Join(OTHER_CODE, literal(l), literal(r))),
        JOIN_PROBE,
        JOIN_OTHER,
        joins=True,
    ),
}


def execute(plan, batch_size=DEFAULT_BATCH_SIZE):
    lowering = Lowering(batch_size=batch_size)
    root = lowering.lower(plan)
    relation, report = lowering.execute(root)
    return relation, report, root


@pytest.fixture
def sorted_builds(monkeypatch):
    """Every sorted copy built from a relation's rows: ``(rows, order)``."""
    seen = []
    original = relation_module.sorted_copy

    def spy(rows, order, attributes):
        seen.append((len(rows), order))
        return original(rows, order, attributes)

    monkeypatch.setattr(relation_module, "sorted_copy", spy)
    return seen


@pytest.fixture
def row_sorts(monkeypatch):
    """Every physical row sort: the order it sorted by."""
    seen = []
    original = OrderSpec.sort_rows

    def spy(order, rows, attributes):
        seen.append(order)
        return original(order, rows, attributes)

    monkeypatch.setattr(OrderSpec, "sort_rows", spy)
    return seen


# ---------------------------------------------------------------------------
# Small-scope list equality
# ---------------------------------------------------------------------------


class TestEveryPlacementEqualsTheReferenceSort:
    @pytest.mark.parametrize("name", PLACEMENTS)
    def test_on_every_small_input_at_every_batch_size(self, name):
        placement = PLACEMENTS[name]
        checked = 0
        for left, right in placement.inputs():
            for order in placement.orders():
                plan = placement.build(order, left, right)
                reference = plan.evaluate(CONTEXT)
                # The first request of a filtered sort sorts, and the ones
                # after it are served: run both kinds.
                assert execute(plan)[0].rows == reference.rows
                for batch_size in BATCH_SIZES:
                    relation, _, _ = execute(plan, batch_size)
                    assert relation.schema.attributes == reference.schema.attributes
                    assert relation.rows == reference.rows, (order, left.rows, right.rows, batch_size)
                    checked += 1
        assert checked == len(list(placement.inputs())) * len(placement.orders()) * len(BATCH_SIZES)

    def test_the_join_placements_run_the_join_they_name(self):
        left, right = Relation.from_rows(TEMPORAL_SCHEMA, LEFT_ROWS), RIGHTS[1]
        expected = {
            "sort-over-⋈": HashJoinOp,
            "sort-over-⋈T": HashJoinOp,
            "sort-over-π-folded-into-⋈T": HashJoinOp,
            "sort-over-interval-join": IntervalJoinOp,
            "sort-over-nested-loop-join": NestedLoopJoinOp,
        }
        for name, operator in expected.items():
            placement = PLACEMENTS[name]
            _, _, root = execute(placement.build(placement.orders()[0], left, right))
            assert isinstance(root, SortOp)
            assert type(root.children()[0]) is operator, name


# ---------------------------------------------------------------------------
# The decision
# ---------------------------------------------------------------------------


class TestWhichSortsAnInputServes:
    """The inputs that serve an order hand over the kept copy, and the sort
    sorts nothing; every other sort sorts exactly as before."""

    @pytest.mark.parametrize("name", [name for name in PLACEMENTS if name != "sort-over-sort"])
    def test_served_orders_sort_nothing_and_the_rest_sort_once(self, name, row_sorts, sorted_builds):
        placement = PLACEMENTS[name]
        left, right = Relation.from_rows(TEMPORAL_SCHEMA, LEFT_ROWS), RIGHTS[2]
        for order in placement.orders():
            if placement.filtered:
                # The first request only marks the order as asked for.
                del row_sorts[:], sorted_builds[:]
                _, report, sort = execute(placement.build(order, left, right))
                assert report.kept_orders == [] and not sort.kept_order
                assert sorted_builds == [] and row_sorts == [order]
            del row_sorts[:], sorted_builds[:]
            _, report, sort = execute(placement.build(order, left, right))
            served = order in placement.served
            assert report.kept_orders == ([()] if served else []), order
            assert sort.kept_order is served
            assert sort.describe() == f"Sort({order})" + ("[kept order]" if served else "")
            if served:
                # One stable sort of the stored rows, by the order renamed to
                # the source's attributes, and none of the sort's own.
                (build,) = sorted_builds
                assert build[0] == len(LEFT_ROWS) and row_sorts == [build[1]]
            else:
                assert sorted_builds == [] and row_sorts == [order]

    def test_a_left_input_that_is_not_stored_is_sorted(self, row_sorts, sorted_builds):
        left, right = Relation.from_rows(TEMPORAL_SCHEMA, LEFT_ROWS), RIGHTS[2]
        order = OrderSpec.of("1.Name DESC")
        distinct = TemporalDuplicateElimination(literal(left))
        plan = Sort(order, TemporalJoin(SAME_NAME, distinct, literal(right)))
        relation, report, _ = execute(plan)
        assert report.kept_orders == [] and sorted_builds == [] and row_sorts == [order]
        assert relation == plan.evaluate(CONTEXT)

    def test_a_sort_over_a_sort_sorts_and_the_inner_sort_is_served(self, row_sorts, sorted_builds):
        inner, outer = OrderSpec.of("Dept"), OrderSpec.of("Name DESC")
        plan = Sort(outer, Sort(inner, literal(Relation.from_rows(TEMPORAL_SCHEMA, LEFT_ROWS))))
        _, report, root = execute(plan)
        assert report.kept_orders == [(0,)]
        assert sorted_builds == [(len(LEFT_ROWS), inner)] and row_sorts == [inner, outer]
        described = [operator.describe() for operator in root.operators()][:2]
        assert described == ["Sort(Name DESC)", "Sort(Dept ASC)[kept order]"]

    def test_a_key_the_input_lacks_still_raises(self):
        sort = SortOp(OrderSpec.of("Missing"), SourceOp(Relation.from_rows(TEMPORAL_SCHEMA, LEFT_ROWS)))
        with pytest.raises(AttributeNotFound):
            sort.to_relation()


# ---------------------------------------------------------------------------
# Values without a total order
# ---------------------------------------------------------------------------

NAN = float("nan")
#: (Name, Score, T1, T2): ``Score`` is the key; the middle row is the odd one.
SCORED_SCHEMA = RelationSchema.temporal([("Name", STRING), ("Score", FLOAT)], name="S")
MAYBE_SCHEMA = RelationSchema.temporal([("Name", STRING), ("Score", Domain("nullable"))], name="M")
NOT_ODD = compare(ComparisonOperator.NE, ref("Name"), Literal("Odd"))
MATCHED = compare(ComparisonOperator.EQ, ref("1.Name"), ref("2.Name"))
#: Matches the left rows named John and Anna, never Odd.
NAMED = Relation.from_rows(JOIN_RIGHT_SCHEMA, [("John", "X", 1, 4), ("Anna", "Y", 2, 3)])


def odd_rows(schema, odd):
    """Rows whose ``Score`` has a total order but for ``odd``'s row, which
    both ``NOT_ODD`` and ``MATCHED`` drop."""
    return Relation.from_rows(
        schema, [("John", 3.0, 1, 2), ("Odd", odd, 1, 2), ("Anna", 1.0, 1, 2), ("John", 3, 2, 3)]
    )


class TestValuesWithoutATotalOrderAreSorted:
    """A copy of the whole table is sorted with rows the sort never sees;
    where a key's values have no total order that could reorder or raise,
    so the copy is refused (decided once per epoch) and the sort sorts."""

    @pytest.mark.parametrize(
        "schema, odd", [(SCORED_SCHEMA, NAN), (MAYBE_SCHEMA, None), (MAYBE_SCHEMA, "high")]
    )
    @pytest.mark.parametrize("over", ["σ", "⋈"])
    def test_a_dropped_odd_row_leaves_the_reference_sort(self, schema, odd, over, sorted_builds, row_sorts):
        relation, order = odd_rows(schema, odd), OrderSpec.of("Score")
        if over == "σ":
            plan = Sort(order, Selection(NOT_ODD, literal(relation)))
        else:
            plan = Sort(order, Join(MATCHED, literal(relation), literal(NAMED)))
        reference = plan.evaluate(CONTEXT)
        assert [row[1] for row in reference.rows] == [1.0, 3.0, 3]
        for _ in range(3):
            result, report, _ = execute(plan)
            assert result.rows == reference.rows
            assert report.kept_orders == [] and report.degraded_operations == []
        # The second request tried the copy once; every request sorted.
        assert sorted_builds == [(len(relation), order)] and row_sorts == [order] * 3

    def test_an_unfiltered_sort_over_a_nan_sorts_as_the_reference(self, row_sorts):
        relation = odd_rows(SCORED_SCHEMA, NAN)
        plan = Sort(OrderSpec.of("Score DESC"), literal(relation))
        for _ in range(2):
            result, report, _ = execute(plan)
            assert report.kept_orders == []
            assert [repr(row) for row in result.rows] == [repr(row) for row in plan.evaluate(CONTEXT).rows]
        assert len(row_sorts) == 2

    def test_which_values_have_a_total_order(self):
        assert totally_ordered([]) and totally_ordered(["b", "a"])
        assert totally_ordered([3, 1.5, True, -2, 10**30])
        for values in ([1.0, NAN], [1, None], ["a", 1], [frozenset({1}), frozenset({2})], [(1,), (2,)]):
            assert not totally_ordered(values), values


# ---------------------------------------------------------------------------
# The sorted copy by count, through the session
# ---------------------------------------------------------------------------

SORT, TJOIN = STATEMENTS["sort"], STATEMENTS["tjoin"]
BY_NAME_DESC, BY_NAME = OrderSpec.of("EmpName DESC"), OrderSpec.of("EmpName")


def run(session, statement, index=0, **kwargs):
    return session.execute(statement.sql, statement.params[index % len(statement.params)], **kwargs)


class TestOneSortedCopyPerEpochAndOrder:
    def test_ten_warm_sorts_build_one_copy_per_relation_and_order(self, sorted_builds, row_sorts):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        employees = len(database.dbms.catalog.table("EMPLOYEE").relation)
        for index in range(10):
            run(session, SORT, index)
            run(session, TJOIN, index)
        assert sorted_builds == [(employees, BY_NAME_DESC), (employees, BY_NAME)]
        # The builds are the only row sorts but one: a join thins the rows
        # that reach ``tjoin``'s sort, so its first request sorted them and
        # its second built the copy.
        assert row_sorts == [BY_NAME_DESC, BY_NAME, BY_NAME]

    def test_two_sessions_sharing_a_plan_cache_build_one_copy(self, sorted_builds):
        database = build_database(CHECK_SCALE, 0)
        first = database.session()
        second = Session(database, cache=first.cache)
        results = [run(session, SORT).relation for session in (first, second, first, second)]
        assert results[1:] == results[:1] * 3
        assert [order for _, order in sorted_builds] == [BY_NAME_DESC]

    def test_an_append_builds_once_more_and_a_snapshot_keeps_its_rows(self, sorted_builds):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        before = run(session, SORT).relation
        snapshot = database.snapshot()
        database.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        after = run(session, SORT).relation
        assert len(after) == len(before) + 1 and "Zoe" in [row[0] for row in after.rows]
        assert len(sorted_builds) == 2
        for _ in range(3):
            assert run(session, SORT, snapshot=snapshot).relation == before
            assert run(session, SORT).relation == after
        assert len(sorted_builds) == 2

    def test_the_served_result_is_the_reference_sort(self):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        catalog = database.dbms.catalog
        context = EvaluationContext({name: catalog.table(name).relation for name in catalog.table_names()})
        # ``sort`` runs its sort below the root's TS, ``tjoin`` at the root.
        for statement, path in ((SORT, (0,)), (TJOIN, ())):
            first, second = run(session, statement), run(session, statement)
            # A join thins ``tjoin``'s input: its copy is built on the second request.
            assert first.report.kept_orders == ([] if statement is TJOIN else [path])
            assert second.report.kept_orders == [path]
            for result in (first, second):
                assert result.relation.rows == result.plan.evaluate(context).rows

    def test_a_filtered_sort_of_a_table_that_changes_every_time_builds_nothing(
        self, sorted_builds, row_sorts
    ):
        database = build_database(CHECK_SCALE, 0)
        session = database.session()
        for cycle in range(3):
            database.append("EMPLOYEE", [(f"Zoe{cycle}", "Sales", 3, 9)])
            assert run(session, TJOIN).report.kept_orders == []
        assert sorted_builds == [] and row_sorts == [BY_NAME] * 3


    def test_threads_racing_the_first_requests_get_the_reference_rows(self, sorted_builds):
        """The kept slot is shared by every session: racing first requests
        (the filtered ``tjoin`` marks, then builds) may build more than once,
        and every outcome is still the single-threaded one."""
        single = build_database(CHECK_SCALE, 0).session()
        expected = [run(single, SORT).relation, run(single, TJOIN).relation]
        database = build_database(CHECK_SCALE, 0)
        threads = 4  # more than the cores, switching as often as possible

        def requests():
            session = database.session()
            return [[run(session, SORT).relation, run(session, TJOIN).relation] for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = in_threads(*(requests for _ in range(threads)))()
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [[expected] * 3] * threads
        # The single-threaded database's build for ``sort`` (its one ``tjoin``
        # only marked the order), then one to one per racer for each order.
        assert 3 <= len(sorted_builds) <= 1 + 2 * threads


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestTheKeptOrderIsVisible:
    def test_explain_analyze_marks_the_served_sort(self):
        session = build_database(CHECK_SCALE, 0).session()
        report = session.explain(SORT.sql)
        (sort,) = [line for line in report.lines if line.label.startswith("sort[")]
        assert sort.physical == "kept order"
        (text,) = [row for row in report.render().splitlines() if "sort[" in row]
        assert "sort[EmpName DESC] [kept order]" in text

    def test_a_plain_explain_executes_nothing_and_marks_nothing(self):
        text = build_database(CHECK_SCALE, 0).explain(SORT.sql)
        assert "sort[EmpName DESC]" in text and "kept order" not in text
