"""The batch engine: identical results at every chunking.

The physical operators execute ``ColumnBatch`` chunks of value rows (see
``docs/architecture.md#physical-execution``).  Because the algebra is
list-based, correctness is *sequence* identity, not multiset identity — so
the contract tested here is strict: for any join-shaped plan and any batch
size (including 1, sizes that straddle operator boundaries, and sizes
larger than the input), the batch engine must produce the byte-identical
tuple sequence of the reference semantics, with the same per-operator row
accounting and the same control-tick cadence.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings

from benchmarks.ledger.workloads import CHECK_SCALE, STATEMENTS, build_database, build_relations

from repro import TemporalDatabase
from repro.core.expressions import (
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    ProjectionItem,
    compile_kernel,
)
from repro.core.lowering import STRATUM_ENGINE, physical_choice
from repro.core.operations import (
    BaseRelation,
    DuplicateElimination,
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
from repro.core.relation import Relation
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.core.tuples import Tuple
from repro.dbms.engine import ConventionalDBMS
from repro.faults import ExecutionControl
from repro.server import Server
from repro.server.tcp import response_to_wire
from repro.session import Session
from repro.core.columnar import ColumnBatch
from repro.stratum.executor import StratumExecutor
from repro.options import ExecutionOptions
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PROJECT_SCHEMA,
    employee_relation,
    project_relation,
    scaled_paper_workload,
)

from .strategies import TEMPORAL_SCHEMA, join_shaped_plans

CONTEXT = EvaluationContext()

#: The swept chunkings: degenerate (1), boundary-straddling small sizes,
#: a mid size, and one larger than any generated input.
BATCH_SIZES = (1, 2, 7, 64, 4096)


def run_stratum(plan, batch_size):
    return StratumExecutor(ConventionalDBMS(), batch_size=batch_size).execute(plan)


def assert_list_identical(fast: Relation, reference: Relation):
    assert fast.schema.attributes == reference.schema.attributes
    assert list(fast.tuples) == list(reference.tuples)


class TestChunkingDifferential:
    """Every batch size produces the reference tuple sequence."""

    @settings(max_examples=60, deadline=None)
    @given(join_shaped_plans())
    def test_all_batch_sizes_match_reference(self, plan):
        reference = plan.evaluate(CONTEXT)
        for batch_size in BATCH_SIZES:
            assert_list_identical(run_stratum(plan, batch_size), reference)

    def test_join_heavy_workload_matches_reference(self, tuple_constructions):
        """EMPLOYEE ⋈T PROJECT on EmpName with a residual, projected and
        sorted, over the scaled paper workload (the shape the ledger's
        ``relational-exec`` workload times, at a scale the reference can
        evaluate) — a plan that lowers wholly to batch operators, so rows go
        in and rows come out: no ``Tuple`` is built at any batch size."""
        employees, projects = scaled_paper_workload(20)
        database = TemporalDatabase()
        database.register("EMPLOYEE", employees)
        database.register("PROJECT", projects)
        predicate = And(
            Comparison(
                ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
            ),
            Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Legal")),
        )
        join = TemporalJoin(
            predicate,
            BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
            BaseRelation("PROJECT", PROJECT_SCHEMA),
        )
        projected = Projection(["1.EmpName", "Dept", "Prj", "T1", "T2"], join)
        plan = Sort(OrderSpec.ascending("1.EmpName"), projected)
        reference = database.evaluate_reference(plan)
        assert len(reference) > 0
        for batch_size in (1, 2, 7, 64, 1024):
            executor = StratumExecutor(database.dbms, batch_size=batch_size)
            tuple_constructions.clear()
            result = executor.execute(plan)
            assert tuple_constructions == {}
            assert_list_identical(result, reference)


class TestAccountingParity:
    """Row counts and control ticks are chunking-independent."""

    def _session(self, batch_size):
        session = Session(options=ExecutionOptions(batch_size=batch_size))
        session.database.register("EMPLOYEE", employee_relation())
        session.database.register("PROJECT", project_relation())
        return session

    STATEMENT = (
        "SELECT DISTINCT EmpName FROM EMPLOYEE "
        "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
        "ORDER BY EmpName COALESCE"
    )

    def test_explain_analyze_actuals_agree_across_chunkings(self):
        # batch_size=1 is per-tuple cadence: every operator sees one row
        # per pull, so its counts are the chunking-free baseline.
        reference = self._session(1).explain(self.STATEMENT)
        expected = {line.path: line.actual_rows for line in reference.lines}
        assert any(count for count in expected.values())
        for batch_size in (7, 4096):
            report = self._session(batch_size).explain(self.STATEMENT)
            actuals = {line.path: line.actual_rows for line in report.lines}
            assert actuals == expected
            assert report.result_rows == reference.result_rows

    def test_explain_render_shows_the_batch_size(self):
        assert "batch size=7" in self._session(7).explain(self.STATEMENT).render()

    def test_plain_explain_shows_no_batch_size(self):
        report = self._session(7).explain(self.STATEMENT, analyze=False)
        assert report.batch_size is None
        assert "batch size" not in report.render()

    def test_tick_cadence_is_chunking_independent(self):
        rows = [("N%03d" % i, "Sales" if i % 3 else "Ads", 1, 5) for i in range(300)]
        plan = Selection(
            Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Ads")),
            LiteralRelation(Relation.from_rows(TEMPORAL_SCHEMA, rows)),
        )

        class CountingControl(ExecutionControl):
            def __init__(self):
                super().__init__()
                self.ticks = 0

            def tick(self, point):
                self.ticks += 1
                super().tick(point)

        def ticks(batch_size):
            control = CountingControl()
            executor = StratumExecutor(
                ConventionalDBMS(), control=control, batch_size=batch_size
            )
            executor.execute(plan)
            return control.ticks

        # Each operator ticks once at drain start and once per interval
        # boundary its output crosses: the source emits 300 rows, the
        # filter keeps the 200 non-"Ads" ones.
        interval = ExecutionControl().interval
        expected = (1 + 300 // interval) + (1 + 200 // interval)
        assert expected > 2  # the loops really tick beyond the start check
        for batch_size in (1, 7, 64, 4096):
            assert ticks(batch_size) == expected


class TestColumnBatch:
    """The container itself: a schema and value rows; permutation is
    normalised at ``from_tuples``."""

    SCHEMA = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)], name="C")

    def test_round_trips_tuples(self):
        tuples = [
            Tuple(self.SCHEMA, {"Name": "John", "Amount": 1}),
            Tuple(self.SCHEMA, {"Name": "Anna", "Amount": 2}),
        ]
        batch = ColumnBatch.from_tuples(self.SCHEMA, tuples)
        assert batch.length == 2
        assert list(batch.rows()) == [("John", 1), ("Anna", 2)]
        assert batch.to_tuples() == tuples

    def test_normalizes_permuted_tuples_at_the_boundary(self):
        permuted = RelationSchema.snapshot(
            [("Amount", INTEGER), ("Name", STRING)], name="C"
        )
        batch = ColumnBatch.from_tuples(
            self.SCHEMA, [Tuple(permuted, {"Amount": 3, "Name": "Mia"})]
        )
        assert list(batch.rows()) == [("Mia", 3)]
        (rebuilt,) = batch.to_tuples()
        assert rebuilt.schema.attributes == self.SCHEMA.attributes
        assert rebuilt["Name"] == "Mia" and rebuilt["Amount"] == 3
        empty = ColumnBatch.from_tuples(self.SCHEMA, ())
        assert empty.length == 0 and list(empty.rows()) == []

    def test_rows_are_kept_not_copied(self):
        rows = (("a", 1), ("b", 2), ("c", 3))
        batch = ColumnBatch.from_rows(self.SCHEMA, rows)
        assert batch.length == 3 and batch.rows() is rows
        assert ColumnBatch(self.SCHEMA, rows).rows() is rows

    def test_trusted_tuples_equal_validated_tuples(self):
        validated = Tuple(self.SCHEMA, {"Name": "John", "Amount": 1})
        trusted = Tuple.trusted(self.SCHEMA, ("John", 1))
        assert trusted == validated
        assert hash(trusted) == hash(validated)
        assert trusted["Amount"] == 1


class TestValueRowsEndToEnd:
    """A request builds no ``Tuple``: stored tables, ``TS``/``TD``, operator
    roots and the wire move value rows, and a ``Tuple`` is a view the result
    builds for the caller that asks for one (``tuple_constructions`` in
    ``conftest.py`` counts both constructors)."""

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_a_warm_ledger_statement_constructs_no_tuple(self, name, tuple_constructions):
        statement = STATEMENTS[name]
        session = build_database(CHECK_SCALE, 0).session()
        session.execute(statement.sql, statement.params[0])
        tuple_constructions.clear()
        relation = session.execute(statement.sql, statement.params[0]).relation
        assert tuple_constructions == {}
        assert len(relation) > 0
        # The first read of ``.tuples`` builds one view per row; the second none.
        tuples = relation.tuples
        assert tuple_constructions == {"trusted": len(relation)}
        assert relation.tuples is tuples and [t.values() for t in tuples] == list(relation.rows)
        assert tuple_constructions == {"trusted": len(relation)}

    def test_the_fused_hash_join_constructs_no_tuple(self, tuple_constructions):
        # ``tjoin``'s π runs inside its hash join's probe loop, and so does
        # a projection computing over the fresh intersection period.
        statement = STATEMENTS["tjoin"]
        session = build_database(CHECK_SCALE, 0).session()
        plan = session.execute(statement.sql, statement.params[0]).plan
        assert physical_choice(plan.subtree_at((0,)), STRATUM_ENGINE).folds_projection
        employees, projects = scaled_paper_workload(CHECK_SCALE, 0)
        span = Arithmetic(ArithmeticOperator.SUB, AttributeRef("T2"), AttributeRef("T1"))
        computed = Projection(
            ["1.EmpName", "Prj", ProjectionItem(span, "span"), "T1", "T2"],
            TemporalJoin(
                Comparison(ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")),
                LiteralRelation(employees),
                LiteralRelation(projects),
            ),
        )
        assert physical_choice(computed, STRATUM_ENGINE).folds_projection
        expected = computed.evaluate(CONTEXT)
        tuple_constructions.clear()
        relation = session.execute(statement.sql, statement.params[0]).relation
        result = run_stratum(computed, 1024)
        assert tuple_constructions == {}
        assert len(relation) > 0 and len(result) > 0
        assert result.rows == expected.rows

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_parameter_variants_share_their_compiled_kernels(self, name):
        # One miss per distinct kernel shape on the first pass over the
        # statement's parameter variants — the first variant's — and none
        # after: the generated source holds no value.
        statement = STATEMENTS[name]
        session = build_database(CHECK_SCALE, 0).session()
        compile_kernel.cache_clear()
        session.execute(statement.sql, statement.params[0])
        first = compile_kernel.cache_info()
        assert first.misses == first.currsize
        for _ in range(2):
            for params in statement.params:
                session.execute(statement.sql, params)
        assert compile_kernel.cache_info().misses == first.misses

    def test_a_served_request_constructs_no_tuple(self, tuple_constructions):
        statement = STATEMENTS["tjoin"]
        with Server(build_database(CHECK_SCALE, 0), max_concurrency=1) as server:
            expected = server.query(statement.sql, statement.params[0]).relation
            tuple_constructions.clear()
            response = server.query(statement.sql, statement.params[0])
            payload = response_to_wire(response)
        assert response.ok and response.cache_hit
        assert tuple_constructions == {}
        assert payload["rows"] == [list(row) for row in expected.rows] != []

    def test_the_reference_paths_do_build_views(self, tuple_constructions):
        # DBMS emulation of temporal operations (like degradation) runs the
        # reference semantics, which work on ``Tuple``s: the counters see
        # them.  The conventional multiset operations are operators now.
        stored = Relation.of_rows(EMPLOYEE_SCHEMA, employee_relation().rows)
        tuple_constructions.clear()
        assert len(run_stratum(DuplicateElimination(LiteralRelation(stored)), 2)) > 0
        assert tuple_constructions == {}
        emulated = TransferToStratum(TemporalDuplicateElimination(LiteralRelation(stored)))
        result = run_stratum(emulated, 2)
        assert tuple_constructions["trusted"] >= len(stored) and len(result) > 0


def tuples_alive(besides=()):
    """Every live ``Tuple`` except those of ``besides`` (other test modules
    keep relations of them in globals; the caller keeps ``besides`` alive, so
    no identity is reused)."""
    gc.collect()
    known = set(map(id, besides))
    return [
        found for found in gc.get_objects() if type(found) is Tuple and id(found) not in known
    ]


class TestTheCollectorsView:
    """What the cyclic collector has to walk: a registered table is rows, so
    no ``Tuple`` stays reachable from the database — count-based, by type,
    over ``gc.get_objects()``."""

    def test_a_database_holds_no_tuple_after_register_or_a_request(self):
        others = tuples_alive()
        relations = build_relations(CHECK_SCALE, 0)
        assert len(tuples_alive(others)) == sum(len(r) for r in relations.values())
        database = TemporalDatabase()
        for name in list(relations):
            database.register(name, relations.pop(name))
        assert tuples_alive(others) == []
        session = database.session()
        for statement in STATEMENTS.values():
            session.execute(statement.sql, statement.params[0])  # cold: searches, builds profiles
            result = session.execute(statement.sql, statement.params[0])
            assert len(result.relation) > 0
        del result
        assert tuples_alive(others) == []
        database.insert("EMPLOYEE", [("Zoe", "Legal", 3, 9)])
        assert tuples_alive(others) == []
        assert database.dbms.catalog.table("EMPLOYEE").relation.rows[-1] == ("Zoe", "Legal", 3, 9)
