"""Scalar expressions: selection predicates, projection functions, aggregates.

The transformation rules of the paper need to *inspect* predicates and
projection lists — for example, rule C3 (commuting coalescing and selection)
requires that the selection predicate not mention the temporal attributes
(``T1 ∉ attr(P) ∧ T2 ∉ attr(P)``), and selection push-down over a product
requires the predicate's attributes to be contained in one argument's schema.
Expressions are therefore represented as small immutable syntax trees that
can report the attributes they use (the paper's ``attr`` function), be
evaluated against a tuple, and be rendered as SQL text when a plan fragment
is shipped to the conventional DBMS.

The physical operators do not walk the tree per row: each expression renders
a *row form* — one Python expression over a value row — and
:func:`filter_kernel` / :func:`projection_kernel` compile those into one
generated function per batch shape, with ``evaluate`` as the reference they
must agree with.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple as PyTuple

from .exceptions import AttributeNotFound, EvaluationError
from .tuples import Tuple


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Expression:
    """Base class of all scalar expressions."""

    def attributes(self) -> FrozenSet[str]:
        """The set of attribute names the expression reads (the paper's ``attr``)."""
        raise NotImplementedError

    def evaluate(self, tup: Tuple) -> Any:
        """Evaluate the expression against a single tuple."""
        raise NotImplementedError

    def row_form(self, slots: "RowSlots") -> str:
        """Render the expression as one Python expression over ``row``, a
        value row of ``slots.schema``, with the same value and the same
        exceptions as :meth:`evaluate` on a view of that row (a ``TypeError``
        excepted: see :func:`filter_kernel`).

        The text holds only integer indexes, slot references and tokens from
        fixed tables (never a value, an attribute name or user text).  This
        base form calls :meth:`evaluate` on a trusted view through a slot, so
        an expression class without a row form of its own is correct by
        default, merely not fast.
        """
        evaluate, schema, trusted = self.evaluate, slots.schema, Tuple.trusted
        return slots.call(lambda row: evaluate(trusted(schema, row)))

    def to_sql(self) -> str:
        """Render the expression as SQL text for the DBMS substrate."""
        raise NotImplementedError

    # Expressions are value objects: structural equality and hashing are
    # provided by the dataclass decorators on the concrete classes.


#: Anything with ``has_attribute``/``index_of`` (``RelationSchema`` — typed
#: loosely to keep this module free of an import cycle with ``schema``).
RelationSchemaLike = Any


@dataclass(frozen=True)
class AttributeRef(Expression):
    """A reference to an attribute of the input tuple."""

    name: str

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, tup: Tuple) -> Any:
        if not tup.schema.has_attribute(self.name):
            raise AttributeNotFound(
                f"attribute {self.name!r} not found in schema {tup.schema}"
            )
        return tup[self.name]

    def row_form(self, slots: "RowSlots") -> str:
        schema = slots.schema
        if not schema.has_attribute(self.name):
            return super().row_form(slots)  # raises AttributeNotFound per row reached
        return f"row[{schema.index_of(self.name):d}]"

    def to_sql(self) -> str:
        return _quote_identifier(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, tup: Tuple) -> Any:
        return self.value

    def row_form(self, slots: "RowSlots") -> str:
        return slots.constant(self.value)

    def to_sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional parameter marker (``?``) awaiting a constant.

    Parameters let textually different invocations of the same statement
    share one optimized plan: the plan cache fingerprints the statement with
    the markers in place, and :func:`repro.session.bind_parameters`
    substitutes :class:`Literal` values into the cached plan at execution
    time.  Evaluating an unbound parameter is an error by construction.
    """

    index: int

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, tup: Tuple) -> Any:
        raise EvaluationError(
            f"parameter ?{self.index + 1} is unbound; pass params=... when executing"
        )

    def to_sql(self) -> str:
        return "?"

    def __str__(self) -> str:
        return "?"


class ComparisonOperator(Enum):
    """Binary comparison operators usable in predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def apply(self, left: Any, right: Any) -> bool:
        return _COMPARISON_FUNCTIONS[self](left, right)


#: Comparison implementations, resolved once.
_COMPARISON_FUNCTIONS: Dict["ComparisonOperator", Callable[[Any, Any], bool]] = {
    ComparisonOperator.EQ: _operator.eq,
    ComparisonOperator.NE: _operator.ne,
    ComparisonOperator.LT: _operator.lt,
    ComparisonOperator.LE: _operator.le,
    ComparisonOperator.GT: _operator.gt,
    ComparisonOperator.GE: _operator.ge,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """``left op right`` for a comparison operator."""

    operator: ComparisonOperator
    left: Expression
    right: Expression

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def evaluate(self, tup: Tuple) -> bool:
        try:
            return self.operator.apply(self.left.evaluate(tup), self.right.evaluate(tup))
        except TypeError as exc:
            raise EvaluationError(f"cannot evaluate comparison {self}: {exc}") from exc

    def row_form(self, slots: "RowSlots") -> str:
        left = self.left.row_form(slots)
        return f"({left} {_COMPARISON_TOKENS[self.operator]} {self.right.row_form(slots)})"

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.operator.value} {self.right.to_sql()})"

    def __str__(self) -> str:
        return f"{self.left} {self.operator.value} {self.right}"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of one or more boolean expressions."""

    operands: PyTuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def attributes(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes()
        return result

    def evaluate(self, tup: Tuple) -> bool:
        return all(operand.evaluate(tup) for operand in self.operands)

    def row_form(self, slots: "RowSlots") -> str:
        return _connective(" and ", self.operands, slots, "True")

    def to_sql(self) -> str:
        return "(" + " AND ".join(op.to_sql() for op in self.operands) + ")"

    def __str__(self) -> str:
        return " AND ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of one or more boolean expressions."""

    operands: PyTuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def attributes(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for operand in self.operands:
            result |= operand.attributes()
        return result

    def evaluate(self, tup: Tuple) -> bool:
        return any(operand.evaluate(tup) for operand in self.operands)

    def row_form(self, slots: "RowSlots") -> str:
        return _connective(" or ", self.operands, slots, "False")

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"

    def __str__(self) -> str:
        return " OR ".join(f"({op})" for op in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Negation of a boolean expression."""

    operand: Expression

    def attributes(self) -> FrozenSet[str]:
        return self.operand.attributes()

    def evaluate(self, tup: Tuple) -> bool:
        return not self.operand.evaluate(tup)

    def row_form(self, slots: "RowSlots") -> str:
        return f"(not {self.operand.row_form(slots)})"

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


class ArithmeticOperator(Enum):
    """Binary arithmetic operators usable in projection functions."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    def apply(self, left: Any, right: Any) -> Any:
        return _ARITHMETIC_FUNCTIONS[self](left, right)


def _checked_divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise EvaluationError("division by zero in projection expression")
    return left / right


#: Arithmetic implementations, resolved once (as for comparisons).
_ARITHMETIC_FUNCTIONS: Dict["ArithmeticOperator", Callable[[Any, Any], Any]] = {
    ArithmeticOperator.ADD: _operator.add,
    ArithmeticOperator.SUB: _operator.sub,
    ArithmeticOperator.MUL: _operator.mul,
    ArithmeticOperator.DIV: _checked_divide,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left op right`` for an arithmetic operator."""

    operator: ArithmeticOperator
    left: Expression
    right: Expression

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def evaluate(self, tup: Tuple) -> Any:
        return self.operator.apply(self.left.evaluate(tup), self.right.evaluate(tup))

    def row_form(self, slots: "RowSlots") -> str:
        left, right = self.left.row_form(slots), self.right.row_form(slots)
        if self.operator is ArithmeticOperator.DIV:
            return f"div({left}, {right})"
        return f"({left} {_ARITHMETIC_TOKENS[self.operator]} {right})"

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.operator.value} {self.right.to_sql()})"

    def __str__(self) -> str:
        return f"({self.left} {self.operator.value} {self.right})"


#: The operator tokens of the row forms — the only operators generated
#: source spells; ``/`` is the checked ``div(...)`` instead.
_COMPARISON_TOKENS: Dict[ComparisonOperator, str] = {
    ComparisonOperator.EQ: "==",
    ComparisonOperator.NE: "!=",
    ComparisonOperator.LT: "<",
    ComparisonOperator.LE: "<=",
    ComparisonOperator.GT: ">",
    ComparisonOperator.GE: ">=",
}
_ARITHMETIC_TOKENS: Dict[ArithmeticOperator, str] = {
    ArithmeticOperator.ADD: "+",
    ArithmeticOperator.SUB: "-",
    ArithmeticOperator.MUL: "*",
}


def _connective(
    token: str, operands: Sequence[Expression], slots: "RowSlots", empty: str
) -> str:
    """``and``/``or`` over the operands' row forms, short-circuiting like
    ``all``/``any`` and, like them, yielding a ``bool``."""
    if not operands:
        return empty
    return f"(True if {token.join(operand.row_form(slots) for operand in operands)} else False)"


# ---------------------------------------------------------------------------
# Row kernels
# ---------------------------------------------------------------------------


class RowSlots:
    """What a row form refers to instead of spelling it out.

    Rendering over rows of ``schema`` appends each literal value to
    ``constants`` (read as ``c[k]``) and each callable of an expression
    without a row form to ``calls`` (called as ``e[k](row)``), in rendering
    order, so equal shapes render equal text whatever their values.
    """

    __slots__ = ("schema", "constants", "calls")

    def __init__(self, schema: RelationSchemaLike) -> None:
        self.schema = schema
        self.constants: List[Any] = []
        self.calls: List[Callable[[PyTuple], Any]] = []

    def constant(self, value: Any) -> str:
        self.constants.append(value)
        return f"c[{len(self.constants) - 1:d}]"

    def call(self, function: Callable[[PyTuple], Any]) -> str:
        self.calls.append(function)
        return f"e[{len(self.calls) - 1:d}](row)"


#: Kernels kept compiled, one per shape: the source is the cache key and
#: holds no values, so every parameter variant of a statement shares one.
KERNEL_CACHE_SIZE = 256

#: All the names generated source can reach besides its arguments.
_KERNEL_GLOBALS = {"__builtins__": {}, "div": _checked_divide}


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def compile_kernel(source: str) -> Callable:
    """The function ``lambda rows, c, e: …`` of a kernel source, compiled
    once per shape (``compile_kernel.cache_info()`` counts the misses)."""
    return eval(compile(source, "<row kernel>", "eval"), _KERNEL_GLOBALS)


RowKernel = Callable[[Sequence[PyTuple]], Sequence[PyTuple]]


def _bound(source: str, slots: RowSlots, reference: RowKernel) -> RowKernel:
    """The kernel of ``source`` with ``slots`` bound.

    A ``TypeError`` re-runs the batch through ``reference`` — ``evaluate`` on
    trusted views — so the caller gets the exception the reference raises
    (``Comparison.evaluate`` wraps a ``TypeError`` in an ``EvaluationError``
    naming the comparison).
    """
    kernel = compile_kernel(source)
    constants, calls = tuple(slots.constants), tuple(slots.calls)

    def run(rows: Sequence[PyTuple]) -> Sequence[PyTuple]:
        try:
            return kernel(rows, constants, calls)
        except TypeError:
            return reference(rows)

    return run


def filter_kernel(predicate: Expression, schema: RelationSchemaLike) -> RowKernel:
    """``rows → [row for row in rows if predicate]`` over rows of ``schema``:
    the rows ``predicate.evaluate`` accepts, in order, evaluated on exactly
    the rows and operands the reference reaches."""
    slots = RowSlots(schema)
    source = f"lambda rows, c, e: [row for row in rows if {predicate.row_form(slots)}]"
    evaluate, trusted = predicate.evaluate, Tuple.trusted

    def reference(rows: Sequence[PyTuple]) -> List[PyTuple]:
        return [row for row in rows if evaluate(trusted(schema, row))]

    return _bound(source, slots, reference)


def projection_kernel(
    expressions: Sequence[Expression], schema: RelationSchemaLike
) -> RowKernel:
    """``rows → [(E1, …, En) for row in rows]`` over rows of ``schema``.

    A list of attributes the schema has is a positional pick: the rows
    themselves when it picks every position in order, ``itemgetter`` when it
    picks several.
    """
    if all(
        isinstance(e, AttributeRef) and schema.has_attribute(e.name) for e in expressions
    ):
        indexes = [schema.index_of(e.name) for e in expressions]
        if indexes == list(range(len(schema.attributes))):
            return lambda rows: rows
        if len(indexes) > 1:
            pick = itemgetter(*indexes)
            return lambda rows: list(map(pick, rows))
    slots = RowSlots(schema)
    items = "".join(f"{e.row_form(slots)}, " for e in expressions)
    source = f"lambda rows, c, e: [({items}) for row in rows]"
    trusted = Tuple.trusted

    def reference(rows: Sequence[PyTuple]) -> List[PyTuple]:
        views = [trusted(schema, row) for row in rows]
        return [tuple(e.evaluate(view) for e in expressions) for view in views]

    return _bound(source, slots, reference)


# ---------------------------------------------------------------------------
# Convenience predicate constructors
# ---------------------------------------------------------------------------


def attribute(name: str) -> AttributeRef:
    """Shorthand for :class:`AttributeRef`."""
    return AttributeRef(name)


def literal(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def _as_expression(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def equals(attr: str, value: Any) -> Comparison:
    """``attr = value`` convenience predicate."""
    return Comparison(ComparisonOperator.EQ, AttributeRef(attr), _as_expression(value))


def not_equals(attr: str, value: Any) -> Comparison:
    """``attr <> value`` convenience predicate."""
    return Comparison(ComparisonOperator.NE, AttributeRef(attr), _as_expression(value))


def less_than(attr: str, value: Any) -> Comparison:
    """``attr < value`` convenience predicate."""
    return Comparison(ComparisonOperator.LT, AttributeRef(attr), _as_expression(value))


def greater_than(attr: str, value: Any) -> Comparison:
    """``attr > value`` convenience predicate."""
    return Comparison(ComparisonOperator.GT, AttributeRef(attr), _as_expression(value))


def between(attr: str, low: Any, high: Any) -> And:
    """``low <= attr <= high`` convenience predicate."""
    return And(
        Comparison(ComparisonOperator.GE, AttributeRef(attr), _as_expression(low)),
        Comparison(ComparisonOperator.LE, AttributeRef(attr), _as_expression(high)),
    )


TRUE: Expression = Literal(True)
"""The always-true predicate."""


# ---------------------------------------------------------------------------
# Projection items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionItem:
    """One output column of a projection: an expression with an output name.

    A bare attribute keeps its name unless an alias is given; computed
    expressions must be given an alias.
    """

    expression: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        """The attribute name of this item in the projection's output schema."""
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, AttributeRef):
            return self.expression.name
        raise AttributeNotFound(
            f"projection expression {self.expression} requires an alias"
        )

    def attributes(self) -> FrozenSet[str]:
        """Input attributes read by this item."""
        return self.expression.attributes()

    def is_plain_attribute(self) -> bool:
        """True if the item simply copies an input attribute."""
        return isinstance(self.expression, AttributeRef) and (
            self.alias is None or self.alias == self.expression.name
        )

    def to_sql(self) -> str:
        sql = self.expression.to_sql()
        if self.alias is not None and not (
            isinstance(self.expression, AttributeRef) and self.alias == self.expression.name
        ):
            sql += f" AS {_quote_identifier(self.alias)}"
        return sql

    def __str__(self) -> str:
        if self.is_plain_attribute():
            return self.output_name
        return f"{self.expression} AS {self.output_name}"


def projection_items(*specs: Any) -> PyTuple[ProjectionItem, ...]:
    """Build projection items from attribute names and/or ``ProjectionItem``s."""
    items = []
    for spec in specs:
        if isinstance(spec, ProjectionItem):
            items.append(spec)
        elif isinstance(spec, str):
            items.append(ProjectionItem(AttributeRef(spec)))
        elif isinstance(spec, Expression):
            items.append(ProjectionItem(spec))
        else:
            raise TypeError(f"cannot build a projection item from {spec!r}")
    return tuple(items)


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------


class AggregateKind(Enum):
    """The aggregate functions supported by (temporal) aggregation."""

    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"


@dataclass(frozen=True)
class AggregateFunction:
    """An aggregate function ``F`` of the aggregation operator.

    ``argument`` is the attribute aggregated over; ``None`` means ``COUNT(*)``.
    ``alias`` names the output attribute; a default of ``kind_argument`` (e.g.
    ``sum_Salary``) is used when omitted.
    """

    kind: AggregateKind
    argument: Optional[str] = None
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is not AggregateKind.COUNT and self.argument is None:
            raise AttributeNotFound(f"{self.kind.value} requires an argument attribute")

    @property
    def output_name(self) -> str:
        """The output attribute name of this aggregate."""
        if self.alias is not None:
            return self.alias
        if self.argument is None:
            return "count"
        return f"{self.kind.value.lower()}_{self.argument}"

    def attributes(self) -> FrozenSet[str]:
        """Input attributes read by the aggregate."""
        if self.argument is None:
            return frozenset()
        return frozenset({self.argument})

    def compute(self, tuples: Sequence[Tuple]) -> Any:
        """Compute the aggregate over a group of tuples."""
        argument = self.argument
        return self.reduce(tuples if argument is None else [tup[argument] for tup in tuples])

    def reduce(self, column: Sequence[Any]) -> Any:
        """Compute the aggregate over a group's argument values.

        ``column`` holds one entry per row of the group — the argument
        attribute's values (any per-row sequence for ``COUNT(*)``, which only
        counts rows).  The batch aggregate operator calls this on a column
        slice; :meth:`compute` on the values it pulls out of tuples.
        """
        if self.argument is None:
            return len(column)
        values = [value for value in column if value is not None]
        if self.kind is AggregateKind.COUNT:
            return len(values)
        if not values:
            return None
        if self.kind is AggregateKind.SUM:
            return sum(values)
        if self.kind is AggregateKind.MIN:
            return min(values)
        if self.kind is AggregateKind.MAX:
            return max(values)
        return sum(values) / len(values)

    def to_sql(self) -> str:
        argument = "*" if self.argument is None else _quote_identifier(self.argument)
        return f"{self.kind.value}({argument}) AS {_quote_identifier(self.output_name)}"

    def __str__(self) -> str:
        argument = "*" if self.argument is None else self.argument
        return f"{self.kind.value}({argument})"


def count(argument: Optional[str] = None, alias: Optional[str] = None) -> AggregateFunction:
    """``COUNT(argument)`` / ``COUNT(*)`` helper."""
    return AggregateFunction(AggregateKind.COUNT, argument, alias)


def agg_sum(argument: str, alias: Optional[str] = None) -> AggregateFunction:
    """``SUM(argument)`` helper."""
    return AggregateFunction(AggregateKind.SUM, argument, alias)


def agg_min(argument: str, alias: Optional[str] = None) -> AggregateFunction:
    """``MIN(argument)`` helper."""
    return AggregateFunction(AggregateKind.MIN, argument, alias)


def agg_max(argument: str, alias: Optional[str] = None) -> AggregateFunction:
    """``MAX(argument)`` helper."""
    return AggregateFunction(AggregateKind.MAX, argument, alias)


def agg_avg(argument: str, alias: Optional[str] = None) -> AggregateFunction:
    """``AVG(argument)`` helper."""
    return AggregateFunction(AggregateKind.AVG, argument, alias)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _quote_identifier(name: str) -> str:
    """Quote an identifier for SQL when it is not a plain name."""
    if name.isidentifier():
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'
