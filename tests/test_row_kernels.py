"""Row kernels: generated source over value rows, checked against ``evaluate``.

``FilterOp``, ``ProjectOp`` and the join residual run one generated function
per expression shape (``repro.core.expressions.filter_kernel`` /
``projection_kernel``).  The contract pinned here:

* **differential** — on generated expression trees (missing attributes,
  mixed-type literals, every comparison and arithmetic operator, nested and
  zero-operand connectives) every operator yields, at every batch size, the
  values ``evaluate`` yields row by row, types included, or raises the
  exception it raises, type and message included;
* **safety** — no literal value, attribute name or user text reaches the
  generated source: it holds integer indexes, slot references and fixed
  tokens only;
* **one code object per shape** — parameter variants of a statement share
  their kernels, so a warm workload compiles nothing.
"""

from __future__ import annotations

import io
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads import CHECK_SCALE, WORKLOADS, build_database, warmup_ops

import repro.core.expressions as expressions
from repro.core.exceptions import AttributeNotFound
from repro.core.expressions import (
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    Not,
    Or,
    Parameter,
    ProjectionItem,
    RowSlots,
    compile_kernel,
)
from repro.core.joinsplit import JoinSplit
from repro.core.physical import FilterOp, HashJoinOp, ProjectOp, SourceOp
from repro.core.relation import Relation
from repro.core.schema import BOOLEAN, INTEGER, STRING, RelationSchema
from repro.core.tuples import Tuple

#: A name no Python source could spell as an identifier.
ODD = 'odd "name"]; e[0](row) #\n'

SCHEMA = RelationSchema.snapshot(
    [("Name", STRING), ("Amount", INTEGER), ("Flag", BOOLEAN), (ODD, INTEGER)], name="K"
)
RIGHT_SCHEMA = RelationSchema.snapshot([("Key", STRING), ("Other", INTEGER)], name="R")
JOINED_SCHEMA = RelationSchema.snapshot(
    [(name, SCHEMA.domain_of(name)) for name in SCHEMA.attributes]
    + [(name, RIGHT_SCHEMA.domain_of(name)) for name in RIGHT_SCHEMA.attributes]
)
NAMES = ("John", "Anna", "", "it's")
RIGHT = Relation.from_rows(
    RIGHT_SCHEMA, [("John", 1), ("Anna", 2), ("John", 3), ("it's", 0), ("Zoe", 4)]
)
BATCH_SIZES = (1, 2, 7, 1024)

#: The only names, keywords and constants generated source may contain.
KERNEL_NAMES = {"lambda", "rows", "row", "for", "in", "c", "e", "div", "if", "else",
                "and", "or", "not", "True", "False"}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

rows = st.lists(
    st.tuples(
        st.sampled_from(NAMES),
        st.integers(-3, 3),
        st.booleans(),
        st.integers(-2, 2),
    ),
    max_size=12,
)

leaves = st.one_of(
    st.sampled_from(["Name", "Amount", "Flag", ODD, "Other", "Missing"]).map(AttributeRef),
    st.one_of(st.integers(-3, 3), st.sampled_from(NAMES), st.booleans()).map(Literal),
    st.just(Parameter(0)),
)


def _compound(children):
    return st.one_of(
        st.builds(Comparison, st.sampled_from(list(ComparisonOperator)), children, children),
        st.builds(Arithmetic, st.sampled_from(list(ArithmeticOperator)), children, children),
        st.lists(children, max_size=3).map(lambda operands: And(*operands)),
        st.lists(children, max_size=3).map(lambda operands: Or(*operands)),
        st.builds(Not, children),
    )


trees = st.recursive(leaves, _compound, max_leaves=10)


# ---------------------------------------------------------------------------
# Running an operator and the reference
# ---------------------------------------------------------------------------


def typed(rows):
    """Rows with each value paired with its type (``True == 1`` must not pass)."""
    return [tuple((type(value), value) for value in row) for row in rows]


def outcome(compute):
    """The typed rows ``compute()`` returns, or the type and message it raises."""
    try:
        return "rows", typed(compute())
    except Exception as exc:  # the exception *is* the outcome
        return "raises", type(exc), str(exc)


def drained(root, batch_size):
    for operator in root.operators():
        operator.instrument("stratum.pull", batch_size)
    return list(root.to_relation().rows)


def views(schema, rows):
    return [Tuple.trusted(schema, row) for row in rows]


def joined_rows(left_rows):
    """The hash join's pre-residual sequence: left-major, right input order."""
    return [left + right for left in left_rows for right in RIGHT.rows if right[0] == left[0]]


def filter_op(expression, left):
    return FilterOp(expression, SourceOp(left))


def project_op(expression, left):
    items = (ProjectionItem(expression, "value"), ProjectionItem(AttributeRef("Name")))
    output = RelationSchema.snapshot([("value", INTEGER), ("Name", STRING)])
    return ProjectOp(items, output, SourceOp(left))


def join_op(expression, left):
    split = JoinSplit(
        temporal=False,
        equi_names=(("Name", "Key"),),
        equi_left_indexes=(0,),
        equi_right_indexes=(0,),
        overlap_names=None,
        overlap_indexes=None,
        residual=expression,
    )
    return HashJoinOp(split, JOINED_SCHEMA, SourceOp(left), SourceOp(RIGHT))


def references(expression, left_rows):
    """Per operator: the rows ``evaluate`` gives row by row."""
    joined = joined_rows(left_rows)
    return {
        filter_op: lambda: [
            view.values() for view in views(SCHEMA, left_rows) if expression.evaluate(view)
        ],
        project_op: lambda: [
            (expression.evaluate(view), view["Name"]) for view in views(SCHEMA, left_rows)
        ],
        join_op: lambda: [
            view.values() for view in views(JOINED_SCHEMA, joined) if expression.evaluate(view)
        ],
    }


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(trees, rows)
    def test_every_operator_agrees_with_evaluate_at_every_batch_size(self, expression, left_rows):
        left = Relation.of_rows(SCHEMA, tuple(left_rows))
        for build, reference in references(expression, left_rows).items():
            expected = outcome(reference)
            for batch_size in BATCH_SIZES:
                got = outcome(lambda: drained(build(expression, left), batch_size))
                assert got == expected, (build.__name__, batch_size, str(expression))

    def test_a_missing_attribute_raises_only_on_a_row_that_reaches_it(self):
        missing = Comparison(ComparisonOperator.EQ, AttributeRef("Missing"), Literal(1))
        empty = Relation.of_rows(SCHEMA, ())
        assert drained(filter_op(missing, empty), 7) == []
        guarded = And(Literal(False), missing)
        one = Relation.of_rows(SCHEMA, (("John", 1, True, 0),))
        assert drained(filter_op(guarded, one), 7) == []
        with pytest.raises(AttributeNotFound, match="'Missing' not found"):
            drained(filter_op(missing, one), 7)

    def test_connectives_yield_bools_like_all_and_any(self):
        one = Relation.of_rows(SCHEMA, (("John", 2, True, 0),))
        for expression, value in (
            (And(AttributeRef("Amount"), Literal("x")), True),
            (Or(Literal(0), AttributeRef("Name")), True),
            (And(), True),
            (Or(), False),
            (Not(AttributeRef("Amount")), False),
        ):
            ((got, _),) = drained(project_op(expression, one), 1)
            assert type(got) is bool and got is value


# ---------------------------------------------------------------------------
# Safety of the generated source
# ---------------------------------------------------------------------------


def assert_safe(source):
    """Only kernel names, integer literals and operator tokens."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in KERNEL_NAMES, (token.string, source)
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit(), (token.string, source)
        else:
            assert token.type in (tokenize.OP, tokenize.NEWLINE, tokenize.ENDMARKER), (
                token, source,
            )


HOSTILE = ("]; __import__('os')", "it's", '"""', "a\nb", "\\", "{0}")


@pytest.fixture
def compiled_sources(monkeypatch):
    """Every kernel source compiled while the fixture is active."""
    sources = []
    original = expressions.compile_kernel

    def spy(source):
        sources.append(source)
        return original(source)

    monkeypatch.setattr(expressions, "compile_kernel", spy)
    return sources


class TestGeneratedSource:
    PREDICATE = Or(
        *(Comparison(ComparisonOperator.EQ, AttributeRef("Name"), Literal(text)) for text in HOSTILE),
        Comparison(ComparisonOperator.GT, AttributeRef(ODD), Literal(0)),
    )

    def test_no_value_or_name_enters_the_source(self):
        slots = RowSlots(SCHEMA)
        source = self.PREDICATE.row_form(slots)
        assert_safe(source)
        for text in HOSTILE + (ODD,):
            assert text not in source
        assert slots.constants == [*HOSTILE, 0]
        assert "row[3]" in source  # ODD, by position

    def test_hostile_values_compare_as_data(self, compiled_sources):
        data = [(text, 0, False, 0) for text in HOSTILE] + [("John", 0, False, 0), ("x", 0, True, 5)]
        left = Relation.of_rows(SCHEMA, tuple(data))
        kept = drained(filter_op(self.PREDICATE, left), 2)
        assert kept == [row for row in data if row[0] in HOSTILE or row[3] > 0]
        projected = drained(project_op(Literal(HOSTILE[0]), left), 1024)
        assert {value for value, _ in projected} == {HOSTILE[0]}
        assert compiled_sources
        for source in compiled_sources:
            assert_safe(source)

    @settings(max_examples=100, deadline=None)
    @given(trees)
    def test_a_generated_tree_renders_safe_source(self, expression):
        assert_safe(expression.row_form(RowSlots(JOINED_SCHEMA)))


# ---------------------------------------------------------------------------
# One code object per shape
# ---------------------------------------------------------------------------


class TestShapeCache:
    def test_parameter_variants_share_one_kernel_per_shape(self):
        left = Relation.of_rows(SCHEMA, (("John", 1, True, 0), ("Anna", 2, False, 1)))
        compile_kernel.cache_clear()
        for value in ("John", "Anna", "it's", 3):
            predicate = And(
                Comparison(ComparisonOperator.NE, AttributeRef("Name"), Literal(value)),
                Comparison(ComparisonOperator.GE, AttributeRef("Amount"), Literal(1)),
            )
            drained(filter_op(predicate, left), 7)
        info = compile_kernel.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    def test_a_warm_workload_compiles_nothing(self, compiled_sources):
        """Every ``relational-exec`` parameter variant, twice: one miss per
        distinct shape on the first pass, none on the second."""
        session = build_database(CHECK_SCALE, 0).session()
        operations = warmup_ops(WORKLOADS["relational-exec"])
        compile_kernel.cache_clear()
        for op in operations:
            session.execute(op.text, op.params)
        first = compile_kernel.cache_info()
        assert first.misses == first.currsize == len(set(compiled_sources)) > 0
        for op in operations:
            session.execute(op.text, op.params)
        second = compile_kernel.cache_info()
        assert second.misses == first.misses
        assert second.hits - first.hits == len(compiled_sources) // 2
        for source in compiled_sources:
            assert_safe(source)
