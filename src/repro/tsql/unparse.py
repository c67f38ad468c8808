"""Render parsed statements back to temporal SQL text.

The unparser is the inverse of :mod:`repro.tsql.parser` up to surface noise:
for every parseable text ``t``, ``parse(unparse(parse(t)))`` equals
``parse(t)`` structurally (the round-trip property the front-end test suite
checks).  Its text is a statement's *normal form* — keyword case, spacing
and redundant parentheses all canonicalize away through the parse → unparse
round trip — and so its identity: EXPLAIN prints it, and the plan cache
keys on its digest (:mod:`repro.session.fingerprint`).  Two statements share
a plan exactly when they render alike, which the round trip makes the same
as parsing alike.

Predicates parsed from ``BETWEEN`` render as the equivalent conjunction of
``>=`` / ``<=`` comparisons (the parser desugars ``BETWEEN`` immediately, so
the AST holds no trace of it).
"""

from __future__ import annotations

from decimal import Decimal
from typing import List

from ..core.expressions import (
    AggregateFunction,
    And,
    Arithmetic,
    AttributeRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    Parameter,
)
from ..core.order_spec import OrderSpec, SortDirection
from .ast import AggregateItem, SelectBlock, SelectItem, Statement

#: Binding strength, loosest first; parentheses appear exactly where a
#: subexpression binds no tighter than its context requires.
_PRECEDENCE_OR = 1
_PRECEDENCE_AND = 2
_PRECEDENCE_NOT = 3
_PRECEDENCE_COMPARISON = 4
_PRECEDENCE_ADDITIVE = 5
_PRECEDENCE_MULTIPLICATIVE = 6
_PRECEDENCE_PRIMARY = 7

_ADDITIVE = ("+", "-")


def unparse_statement(statement: Statement) -> str:
    """Render a :class:`~repro.tsql.ast.Statement` as parseable text."""
    parts: List[str] = []
    if statement.explain:
        parts.append("EXPLAIN ANALYZE" if statement.analyze else "EXPLAIN")
    parts.append(_unparse_block(statement.first))
    for combinator, block in statement.combined:
        parts.append(combinator.value)
        parts.append(_unparse_block(block))
    if statement.order_by:
        parts.append(_unparse_order_by(statement.order_by))
    if statement.coalesce:
        parts.append("COALESCE")
    return " ".join(parts)


def _unparse_block(block: SelectBlock) -> str:
    parts: List[str] = ["SELECT"]
    if block.distinct:
        parts.append("DISTINCT")
    if block.is_star:
        parts.append("*")
    else:
        items: List[str] = []
        for item in block.items:
            if isinstance(item, AggregateItem):
                items.append(_unparse_aggregate(item.function))
            else:
                assert isinstance(item, SelectItem)
                rendered = unparse_expression(item.expression)
                if item.alias is not None:
                    rendered += f" AS {item.alias}"
                items.append(rendered)
        parts.append(", ".join(items))
    parts.append("FROM")
    parts.append(", ".join(block.tables))
    if block.where is not None:
        parts.append("WHERE")
        parts.append(unparse_expression(block.where))
    if block.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(block.group_by))
    return " ".join(parts)


def _unparse_order_by(order: OrderSpec) -> str:
    keys = []
    for key in order.keys:
        rendered = key.attribute
        if key.direction is SortDirection.DESC:
            rendered += " DESC"
        keys.append(rendered)
    return "ORDER BY " + ", ".join(keys)


def _unparse_aggregate(function: AggregateFunction) -> str:
    argument = function.argument if function.argument is not None else "*"
    rendered = f"{function.kind.value}({argument})"
    if function.alias is not None:
        rendered += f" AS {function.alias}"
    return rendered


def _render_literal(expression: Literal) -> str:
    value = expression.value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        # Positional, with a point always: the lexer reads no exponent
        # (``str`` writes ``1e-05``), and an integral float must not read
        # back as an int.  ``repr`` is the shortest text that reads back.
        text = format(Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    return str(value)


def unparse_expression(expression: Expression) -> str:
    """Render an expression as parseable predicate/arithmetic text."""
    text, _ = _unparse(expression)
    return text


def _unparse(expression: Expression) -> "tuple[str, int]":
    """Render ``expression``; return the text and its binding strength."""
    if isinstance(expression, Literal):
        return _render_literal(expression), _PRECEDENCE_PRIMARY
    if isinstance(expression, Parameter):
        return "?", _PRECEDENCE_PRIMARY
    if isinstance(expression, AttributeRef):
        return expression.name, _PRECEDENCE_PRIMARY
    if isinstance(expression, And):
        rendered = " AND ".join(
            _wrap(operand, _PRECEDENCE_AND) for operand in expression.operands
        )
        return rendered, _PRECEDENCE_AND
    if isinstance(expression, Or):
        rendered = " OR ".join(
            _wrap(operand, _PRECEDENCE_OR) for operand in expression.operands
        )
        return rendered, _PRECEDENCE_OR
    if isinstance(expression, Not):
        return f"NOT {_wrap(expression.operand, _PRECEDENCE_NOT)}", _PRECEDENCE_NOT
    if isinstance(expression, Comparison):
        left = _wrap(expression.left, _PRECEDENCE_COMPARISON)
        right = _wrap(expression.right, _PRECEDENCE_COMPARISON)
        return f"{left} {expression.operator.value} {right}", _PRECEDENCE_COMPARISON
    if isinstance(expression, Arithmetic):
        precedence = (
            _PRECEDENCE_ADDITIVE
            if expression.operator.value in _ADDITIVE
            else _PRECEDENCE_MULTIPLICATIVE
        )
        # The parser is left-associative, so the right operand needs
        # parentheses already at equal precedence; the left only below it.
        left, left_precedence = _unparse(expression.left)
        if left_precedence < precedence:
            left = f"({left})"
        right, right_precedence = _unparse(expression.right)
        if right_precedence <= precedence:
            right = f"({right})"
        return f"{left} {expression.operator.value} {right}", precedence
    raise TypeError(f"cannot unparse expression of type {type(expression).__name__}")


def _wrap(expression: Expression, context: int) -> str:
    text, precedence = _unparse(expression)
    if precedence <= context and precedence is not _PRECEDENCE_PRIMARY:
        # Equal precedence is wrapped too: the grammar has no unparenthesised
        # nesting of AND in AND (the parser flattens), so a nested And/Or
        # operand must reparse as one unit.
        if precedence < context or _needs_wrap_at_equal(expression):
            return f"({text})"
    return text


def _needs_wrap_at_equal(expression: Expression) -> bool:
    return isinstance(expression, (And, Or))
