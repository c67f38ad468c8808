"""Front-end round-trip properties and error-position assertions.

The unparser (:mod:`repro.tsql.unparse`) must be a structural inverse of
the parser: for any parseable text, ``unparse(parse(text))`` is itself
parseable and ``parse(unparse(parse(text)))`` equals ``parse(text)``.  The
statements are generated from the grammar with hypothesis, so the property
covers combinator chains, predicates, arithmetic, aggregates, parameters
and the outer modifiers together.

Malformed inputs must fail with a :class:`~repro.core.exceptions.ParseError`
carrying the character offset of the offending token (``position``), which
editors and error reporters rely on.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.exceptions import ParseError
from repro.tsql import parse_statement, unparse_statement

# -- grammar-directed statement generation -------------------------------------

_IDENTIFIERS = ("EmpName", "Dept", "Salary", "T1", "T2", "Prj")
_TABLES = ("EMPLOYEE", "PROJECT", "ACCOUNT")
_COMPARATORS = ("=", "<>", "<", "<=", ">", ">=")
_COMBINATORS = (
    "UNION ALL",
    "UNION",
    "UNION TEMPORAL",
    "EXCEPT",
    "EXCEPT ALL",
    "EXCEPT TEMPORAL",
)
_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")

_literals = st.one_of(
    st.integers(min_value=0, max_value=999).map(str),
    # Positional decimals from tiny to beyond a double's 17 digits, where
    # ``str(float)`` switches to an exponent the lexer does not read.
    st.from_regex(r"[0-9]{1,22}\.[0-9]{1,8}", fullmatch=True),
    st.sampled_from(["'Sales'", "'Ads'", "''", "'O''Hara'", "TRUE", "FALSE"]),
)

_operands = st.one_of(
    st.sampled_from(_IDENTIFIERS),
    _literals,
    st.just("?"),
)


@st.composite
def _arithmetic(draw, depth: int = 2) -> str:
    if depth == 0 or draw(st.booleans()):
        return draw(_operands)
    left = draw(_arithmetic(depth - 1))
    right = draw(_arithmetic(depth - 1))
    operator = draw(st.sampled_from(["+", "-", "*", "/"]))
    if draw(st.booleans()):
        return f"({left} {operator} {right})"
    return f"{left} {operator} {right}"


@st.composite
def _predicate(draw, depth: int = 2) -> str:
    if depth == 0:
        left = draw(_arithmetic(1))
        operator = draw(st.sampled_from(_COMPARATORS))
        right = draw(_arithmetic(1))
        return f"{left} {operator} {right}"
    kind = draw(st.sampled_from(["comparison", "and", "or", "not", "between", "paren"]))
    if kind == "comparison":
        return draw(_predicate(0))
    if kind == "between":
        attr = draw(st.sampled_from(_IDENTIFIERS))
        low = draw(st.integers(min_value=0, max_value=9))
        high = draw(st.integers(min_value=10, max_value=99))
        return f"{attr} BETWEEN {low} AND {high}"
    if kind == "not":
        return f"NOT {draw(_predicate(depth - 1))}"
    if kind == "paren":
        return f"({draw(_predicate(depth - 1))})"
    connective = "AND" if kind == "and" else "OR"
    return f"{draw(_predicate(depth - 1))} {connective} {draw(_predicate(depth - 1))}"


@st.composite
def _select_block(draw) -> str:
    parts = ["SELECT"]
    if draw(st.booleans()):
        parts.append("DISTINCT")
    grouped = draw(st.booleans())
    if grouped:
        group_attrs = draw(
            st.lists(st.sampled_from(_IDENTIFIERS), min_size=1, max_size=2, unique=True)
        )
        items = list(group_attrs)
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.sampled_from(_AGGREGATES))
            argument = "*" if kind == "COUNT" and draw(st.booleans()) else draw(
                st.sampled_from(_IDENTIFIERS)
            )
            alias = draw(st.sampled_from(["agg1", "agg2", "n"]))
            items.append(f"{kind}({argument}) AS {alias}")
        parts.append(", ".join(items))
    elif draw(st.booleans()):
        parts.append("*")
    else:
        items = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            expression = draw(_arithmetic(1))
            if draw(st.booleans()) or not expression[0].isalpha():
                items.append(f"{expression} AS a{len(items)}")
            else:
                items.append(expression)
        parts.append(", ".join(items))
    tables = draw(st.lists(st.sampled_from(_TABLES), min_size=1, max_size=2, unique=True))
    parts.append("FROM " + ", ".join(tables))
    if draw(st.booleans()):
        parts.append("WHERE " + draw(_predicate(2)))
    if grouped:
        parts.append("GROUP BY " + ", ".join(group_attrs))
    return " ".join(parts)


@st.composite
def statements(draw) -> str:
    parts = [draw(_select_block())]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        parts.append(draw(st.sampled_from(_COMBINATORS)))
        parts.append(draw(_select_block()))
    if draw(st.booleans()):
        keys = draw(
            st.lists(st.sampled_from(_IDENTIFIERS), min_size=1, max_size=2, unique=True)
        )
        rendered = [
            key + draw(st.sampled_from(["", " ASC", " DESC"])) for key in keys
        ]
        parts.append("ORDER BY " + ", ".join(rendered))
    if draw(st.booleans()):
        parts.append("COALESCE")
    if draw(st.booleans()):
        parts[0] = draw(st.sampled_from(["EXPLAIN ", "EXPLAIN ANALYZE "])) + parts[0]
    return " ".join(parts)


def typed(statement) -> str:
    """The parse with each literal's type: ``==`` reads ``1``, ``1.0`` and ``TRUE`` alike."""
    return repr(statement)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(statements())
    @example("SELECT * FROM EMPLOYEE WHERE Salary = 0.00001")
    @example("SELECT * FROM EMPLOYEE WHERE Salary = 1000000000000000000000.5")
    @example("SELECT * FROM EMPLOYEE WHERE Salary = 12345678901234567.0")
    def test_parse_unparse_parse_is_stable(self, text: str) -> None:
        first = parse_statement(text)
        rendered = unparse_statement(first)
        second = parse_statement(rendered)
        assert typed(second) == typed(first)
        # And the normal form is a fixed point of the round trip.
        assert unparse_statement(second) == rendered

    @settings(max_examples=150, deadline=None)
    @given(statements())
    def test_unparse_is_deterministic(self, text: str) -> None:
        statement = parse_statement(text)
        assert unparse_statement(statement) == unparse_statement(statement)

    def test_case_and_whitespace_normalize(self) -> None:
        a = parse_statement("select   distinct EmpName from EMPLOYEE\nwhere Dept='Sales'")
        b = parse_statement("SELECT DISTINCT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'")
        assert unparse_statement(a) == unparse_statement(b)

    def test_embedded_quotes_round_trip(self) -> None:
        statement = parse_statement(
            "SELECT * FROM EMPLOYEE WHERE EmpName = 'O''Hara'"
        )
        predicate = statement.first.where
        assert predicate.right.value == "O'Hara"
        rendered = unparse_statement(statement)
        assert "'O''Hara'" in rendered
        assert parse_statement(rendered) == statement

    def test_parameter_indexes_survive_the_round_trip(self) -> None:
        statement = parse_statement(
            "SELECT EmpName FROM EMPLOYEE WHERE Dept = ? AND Salary > ?"
        )
        assert statement.parameter_count == 2
        again = parse_statement(unparse_statement(statement))
        assert again.parameter_count == 2
        assert again == statement


class TestErrorPositions:
    @pytest.mark.parametrize(
        "text, offset",
        [
            # Missing select list: FROM where an expression must start.
            ("SELECT FROM EMPLOYEE", 7),
            # '=' with no right operand: error at end of input.
            ("SELECT * FROM EMPLOYEE WHERE Dept =", 35),
            # Unknown character.
            ("SELECT * FROM EMPLOYEE WHERE Dept = 'a' ; DROP", 40),
            # Unterminated string literal.
            ("SELECT * FROM EMPLOYEE WHERE Dept = 'oops", 36),
            # Trailing garbage after a complete statement.
            ("SELECT * FROM EMPLOYEE EMPLOYEE", 23),
            # Missing FROM keyword: error at the table name standing in its place.
            ("SELECT EmpName EMPLOYEE WHERE x = 1", 15),
        ],
    )
    def test_position_points_at_the_offending_token(self, text: str, offset: int) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_statement(text)
        assert excinfo.value.position == offset
        assert str(offset) in str(excinfo.value)

    def test_position_is_none_only_for_semantic_errors(self) -> None:
        # Lexical and syntactic errors always carry a position.
        for text in ["SELECT", "SELECT *", "SELECT * FROM", "(", "?"]:
            with pytest.raises(ParseError) as excinfo:
                parse_statement(text)
            assert excinfo.value.position is not None
