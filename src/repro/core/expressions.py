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
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple as PyTuple

from .exceptions import AttributeNotFound, EvaluationError
from .tuples import Tuple


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


#: A batch of columns: one value sequence per schema attribute, all of equal
#: length (the :class:`repro.core.columnar.ColumnBatch` layout).
BatchColumns = Sequence[Sequence[Any]]

#: A compiled batch kernel: ``kernel(columns, count)`` returns a sequence of
#: ``count`` results, one per row of the batch.
BatchKernel = Callable[[BatchColumns, int], Sequence[Any]]


class Expression:
    """Base class of all scalar expressions."""

    def attributes(self) -> FrozenSet[str]:
        """The set of attribute names the expression reads (the paper's ``attr``)."""
        raise NotImplementedError

    def evaluate(self, tup: Tuple) -> Any:
        """Evaluate the expression against a single tuple."""
        raise NotImplementedError

    def compile_batch(self, schema: "RelationSchemaLike") -> BatchKernel:
        """Compile the expression into a column-wise kernel.

        The kernel maps a batch of columns (in ``schema`` attribute order) to
        a sequence of per-row results — the same values, raising the same
        exceptions, as applying :meth:`evaluate` row by row.  Every concrete
        expression overrides this with a vectorized implementation; the base
        fallback calls :meth:`evaluate` on one trusted tuple per row so that
        any future expression class is batch-correct by default, merely not
        fast.
        """
        evaluate = self.evaluate
        trusted = Tuple.trusted

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            return [
                evaluate(trusted(schema, tuple(column[i] for column in columns)))
                for i in range(count)
            ]

        return kernel

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        if not schema.has_attribute(self.name):
            name, target = self.name, schema

            def missing(columns: BatchColumns, count: int) -> Sequence[Any]:
                raise AttributeNotFound(
                    f"attribute {name!r} not found in schema {target}"
                )

            return missing
        index = schema.index_of(self.name)
        return lambda columns, count: columns[index]

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        value = self.value
        return lambda columns, count: [value] * count

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        def unbound(columns: BatchColumns, count: int) -> Sequence[Any]:
            raise EvaluationError(
                f"parameter ?{self.index + 1} is unbound; pass params=... when executing"
            )

        return unbound

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


#: Comparison implementations, resolved once so batch kernels skip the
#: enum dispatch per row.
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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        left = self.left.compile_batch(schema)
        right = self.right.compile_batch(schema)
        compare = _COMPARISON_FUNCTIONS[self.operator]

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            left_values = left(columns, count)
            right_values = right(columns, count)
            try:
                return [compare(lv, rv) for lv, rv in zip(left_values, right_values)]
            except TypeError as exc:
                raise EvaluationError(f"cannot evaluate comparison {self}: {exc}") from exc

        return kernel

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        kernels = tuple(operand.compile_batch(schema) for operand in self.operands)

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            # Selection-vector short-circuit: later operands only see the rows
            # every earlier operand accepted, mirroring the per-tuple
            # short-circuit (including which rows ever get evaluated).
            active = None  # None means "all rows", avoiding a slice per level
            for operand in kernels:
                if active is None:
                    values = operand(columns, count)
                    active = [i for i in range(count) if values[i]]
                else:
                    sliced = [_gather(column, active) for column in columns]
                    values = operand(sliced, len(active))
                    active = [i for i, v in zip(active, values) if v]
                if not active:
                    break
            if active is None:  # zero operands: the empty conjunction is true
                return [True] * count
            result = [False] * count
            for i in active:
                result[i] = True
            return result

        return kernel

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        kernels = tuple(operand.compile_batch(schema) for operand in self.operands)

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            # Dual of the conjunction kernel: later operands only see the rows
            # every earlier operand rejected.
            pending = None
            result = [False] * count
            for operand in kernels:
                if pending is None:
                    values = operand(columns, count)
                    pending = []
                    for i in range(count):
                        if values[i]:
                            result[i] = True
                        else:
                            pending.append(i)
                else:
                    sliced = [_gather(column, pending) for column in columns]
                    values = operand(sliced, len(pending))
                    still_pending = []
                    for i, v in zip(pending, values):
                        if v:
                            result[i] = True
                        else:
                            still_pending.append(i)
                    pending = still_pending
                if not pending:
                    break
            return result

        return kernel

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        operand = self.operand.compile_batch(schema)

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            return [not v for v in operand(columns, count)]

        return kernel

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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        left = self.left.compile_batch(schema)
        right = self.right.compile_batch(schema)
        apply = _ARITHMETIC_FUNCTIONS[self.operator]

        def kernel(columns: BatchColumns, count: int) -> Sequence[Any]:
            return [
                apply(lv, rv) for lv, rv in zip(left(columns, count), right(columns, count))
            ]

        return kernel

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.operator.value} {self.right.to_sql()})"

    def __str__(self) -> str:
        return f"({self.left} {self.operator.value} {self.right})"


def _gather(column: Sequence[Any], indexes: Sequence[int]) -> Sequence[Any]:
    """Select ``column[i]`` for each selected row index, in order."""
    return [column[i] for i in indexes]


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

    def compile_batch(self, schema: RelationSchemaLike) -> BatchKernel:
        """Compile the item's expression column-wise (see :meth:`Expression.compile_batch`)."""
        return self.expression.compile_batch(schema)

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
