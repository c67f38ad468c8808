"""Fuzzing TSQL text through the session: every failure is a typed error.

Hypothesis writes statements over the EMPLOYEE/PROJECT schemas from the
grammar — ``DISTINCT``, ``TEMPORAL`` and plain set operations, ``GROUP BY``
with aggregates, ``WHERE`` over ``?`` parameters, literals and arithmetic,
``AS``, ``ORDER BY``, ``COALESCE``, ``EXPLAIN [ANALYZE]`` — with names
that may not exist, types that may not fit and parameter lists of the wrong
length.  It also feeds raw token soup and arbitrary text.  Whatever arrives:

* :meth:`~repro.session.session.Session.execute` either answers or raises a
  :class:`~repro.core.exceptions.ReproError` whose ``error_code`` is not
  ``INTERNAL`` (an error the library did not type);
* the session still answers a valid statement afterwards.

Derandomized in tier-1 (``tests/conftest.py``'s ``default`` profile); the
``random`` profile draws fresh examples.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import EvaluationError, ReproError, error_code
from repro.stratum import TemporalDatabase
from repro.workloads import POINT_SQL, employee_relation, project_relation

#: Each table's attributes.  A block mostly names its own; now and then one
#: of the other table's, one that neither has, or an alias.
_TABLES = {"EMPLOYEE": ("EmpName", "Dept", "T1", "T2"), "PROJECT": ("EmpName", "Prj", "T1", "T2")}
_STRANGERS = ("Dept", "Prj", "Salary", "n")
_ATTRIBUTES = tuple(sorted({*_STRANGERS, *_TABLES["EMPLOYEE"], *_TABLES["PROJECT"]}))
_COMBINATORS = (
    "UNION",
    "UNION ALL",
    "UNION TEMPORAL",
    "EXCEPT",
    "EXCEPT ALL",
    "EXCEPT TEMPORAL",
)
_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
_LITERALS = ("0", "1", "7", "2.5", "'Sales'", "'Anna'", "''", "TRUE", "FALSE")


def _operands(attributes):
    return attributes | st.sampled_from(_LITERALS) | st.just("?")


@st.composite
def _arithmetic(draw, attributes, depth: int = 2) -> str:
    if depth == 0 or draw(st.booleans()):
        return draw(_operands(attributes))
    left = draw(_arithmetic(attributes, depth - 1))
    right = draw(_arithmetic(attributes, depth - 1))
    rendered = f"{left} {draw(st.sampled_from('+-*/'))} {right}"
    return f"({rendered})" if draw(st.booleans()) else rendered


@st.composite
def _predicate(draw, attributes, depth: int = 2) -> str:
    kind = draw(st.sampled_from(["comparison", "between", "not", "and", "or"]))
    if depth == 0 or kind == "comparison":
        operator = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        left, right = draw(_arithmetic(attributes, 1)), draw(_arithmetic(attributes, 1))
        return f"{left} {operator} {right}"
    if kind == "between":
        operands = _operands(attributes)
        return f"{draw(operands)} BETWEEN {draw(operands)} AND {draw(operands)}"
    if kind == "not":
        return f"NOT ({draw(_predicate(attributes, depth - 1))})"
    left, right = draw(_predicate(attributes, depth - 1)), draw(_predicate(attributes, depth - 1))
    return f"{left} {kind.upper()} {right}"


@st.composite
def _select_block(draw) -> str:
    table = draw(st.sampled_from(sorted(_TABLES)))
    # A product of both tables, one time in four.
    tables = [table] + sorted(set(_TABLES) - {table})[: not draw(st.integers(0, 3))]
    attributes = st.sampled_from(_TABLES[table] * 12 + _STRANGERS)
    parts = ["SELECT"]
    if draw(st.booleans()):
        parts.append("DISTINCT")
    grouped = draw(st.booleans())
    if grouped:
        keys = draw(st.lists(attributes, max_size=2, unique=True))
        items = list(keys)
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.sampled_from(_AGGREGATES))
            star = kind == "COUNT" or not draw(st.integers(min_value=0, max_value=9))
            argument = "*" if star and draw(st.booleans()) else draw(attributes)
            alias = draw(st.sampled_from(["", " AS n", " AS total"]))
            items.append(f"{kind}({argument}){alias}")
        parts.append(", ".join(items))
    elif draw(st.booleans()):
        parts.append("*")
    else:
        items = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            alias = draw(st.sampled_from(["", " AS a", " AS EmpName"]))
            items.append(draw(_arithmetic(attributes, 1)) + alias)
        parts.append(", ".join(items))
    parts.append("FROM " + ", ".join(tables))
    if draw(st.booleans()):
        parts.append("WHERE " + draw(_predicate(attributes)))
    if grouped and draw(st.integers(min_value=0, max_value=3)):
        parts.append("GROUP BY " + ", ".join(keys or [draw(attributes)]))
    return " ".join(parts)


@st.composite
def statements(draw) -> str:
    parts = [draw(_select_block())]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        parts.append(draw(st.sampled_from(_COMBINATORS)))
        parts.append(draw(_select_block()))
    order_by = ""
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(_ATTRIBUTES), min_size=1, max_size=2))
        order_by = "ORDER BY " + ", ".join(
            key + draw(st.sampled_from(["", " ASC", " DESC"])) for key in keys
        )
    coalesce = draw(st.booleans())
    # ORDER BY may stand on either side of COALESCE.
    if coalesce and order_by and draw(st.booleans()):
        parts += ["COALESCE", order_by]
    else:
        parts += [order_by, "COALESCE" if coalesce else ""]
    prefix = draw(st.sampled_from(["", "", "EXPLAIN ", "EXPLAIN ANALYZE "]))
    return prefix + " ".join(part for part in parts if part)


#: A parameter value: the kinds the tables hold and some they do not.
_VALUES = st.sampled_from(["Sales", "Anna", "", 0, 3, -1, 2.5, True, None])

_TOKENS = st.sampled_from(
    [
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC",
        "UNION", "EXCEPT", "ALL", "TEMPORAL", "COALESCE", "EXPLAIN", "ANALYZE", "AS",
        "AND", "OR", "NOT", "BETWEEN", "COUNT", "SUM", "MIN", "MAX", "AVG",
        *_TABLES, *_ATTRIBUTES, *_LITERALS,
        "?", "*", ",", "(", ")", "+", "-", "/", "=", "<>", "<", "<=", ">", ">=",
        "'", "''", ";", ".", "9" * 30, "1.", ".5",
    ]
)

#: Raw input: token soup, or any text at all.
SOUP = st.lists(_TOKENS, max_size=12).map(" ".join) | st.text(max_size=40)


@pytest.fixture(scope="module")
def session():
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database.session()


def assert_typed_or_answered(session, text: str, params) -> None:
    try:
        session.execute(text, params)
    except ReproError as exc:
        assert error_code(exc) != "INTERNAL", (text, params, exc)
    # Any other exception escapes and fails the test: it is untyped.
    answer = session.execute(POINT_SQL, ("Sales",))
    assert sorted({row["EmpName"] for row in answer.relation.tuples}) == ["Anna", "John"]


@settings(max_examples=200)
@given(text=statements(), data=st.data())
@example(text="SELECT EmpName FROM EMPLOYEE WHERE T1 / 0 > 1", data=None)
@example(text="SELECT SUM(EmpName) AS n FROM EMPLOYEE GROUP BY Dept", data=None)
@example(text="SELECT DISTINCT 0 + EmpName AS a FROM EMPLOYEE COALESCE", data=None)
def test_a_generated_statement_is_answered_or_fails_typed(session, text, data):
    count = text.count("?")
    params = (
        ("Sales",) * count
        if data is None
        else data.draw(st.lists(_VALUES, min_size=count, max_size=count) | st.lists(_VALUES))
    )
    assert_typed_or_answered(session, text, tuple(params))


@settings(max_examples=200)
@given(text=SOUP)
@example(text="SELECT EmpName FROM EMPLOYEE WHERE Dept = " + "(" * 200 + "1" + ")" * 200)
def test_token_soup_fails_typed(session, text):
    assert_typed_or_answered(session, text, ())


@pytest.mark.parametrize("sql", ["SELECT 0 + EmpName AS a FROM EMPLOYEE", "SELECT Dept / T1 AS q FROM EMPLOYEE"])
def test_arithmetic_on_a_string_is_an_evaluation_error(session, sql):
    with pytest.raises(EvaluationError, match="cannot evaluate"):
        session.execute(sql)
