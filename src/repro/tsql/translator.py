"""Translation of parsed statements into initial algebra plans.

The translator realises the "straightforward mapping of the user-level query
to an initial algebra expression" of Section 2.1: the whole query is computed
in the DBMS and transferred to the stratum at the very end (a single ``TS``
at the root), leaving it to the optimizer to push the transfer down and move
temporal work into the stratum.  For the paper's motivating statement ::

    SELECT DISTINCT EmpName FROM EMPLOYEE
    EXCEPT TEMPORAL
    SELECT EmpName FROM PROJECT
    ORDER BY EmpName COALESCE

the produced plan is exactly Figure 2(a):
``TS(sort(coalT(rdupT(rdupT(π(EMPLOYEE)) \\T π(PROJECT)))))`` — with the inner
``rdupT`` inserted automatically because the temporal difference requires a
left argument without duplicates in snapshots.

Translation rules:

* every referenced table must exist in the supplied schema mapping;
* ``SELECT *`` keeps the input schema, a projection list becomes ``π``; for
  temporal statements the reserved ``T1``/``T2`` attributes are appended to
  the projection automatically (built-in temporal semantics);
* ``WHERE`` becomes a selection; multiple FROM tables become a (temporal)
  Cartesian product;
* ``GROUP BY`` / aggregates become (temporal) aggregation;
* combinators map to ``⊔``, ``∪``, ``∪T``, ``\\`` and ``\\T``;
* the outermost ``DISTINCT`` becomes ``rdupT`` (temporal statements) or
  ``rdup``; ``COALESCE`` becomes ``coalT``; ``ORDER BY`` becomes ``sort``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple as PyTuple

from ..core.analysis import guarantees_no_snapshot_duplicates
from ..core.exceptions import ParseError
from ..core.expressions import AggregateKind, AttributeRef, ProjectionItem
from ..core.operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToStratum,
    Union,
    UnionAll,
)
from ..core.period import T1, T2
from ..core.query import QueryResultSpec
from ..core.schema import FLOAT, INTEGER, TIME, RelationSchema
from .ast import AggregateItem, SelectBlock, SelectItem, SetCombinator, Statement
from .parser import parse_statement

#: The domains ``SUM`` and ``AVG`` accept: the numbers and the time domain.
NUMERIC = (INTEGER, FLOAT, TIME)


def translate_statement(
    statement_text: str, schemas: Mapping[str, RelationSchema]
) -> PyTuple[Operation, QueryResultSpec]:
    """Parse and translate a statement; return ``(initial plan, result spec)``."""
    statement = parse_statement(statement_text)
    return translate(statement, schemas)


def translate(
    statement: Statement, schemas: Mapping[str, RelationSchema]
) -> PyTuple[Operation, QueryResultSpec]:
    """Translate a parsed statement into an initial plan and its result spec."""
    translator = _Translator(schemas)
    plan = translator.translate(statement)
    spec = QueryResultSpec(
        distinct=statement.distinct,
        order_by=statement.order_by,
        coalesced=statement.coalesce,
    )
    return plan, spec


class _Translator:
    def __init__(self, schemas: Mapping[str, RelationSchema]) -> None:
        self._schemas = dict(schemas)

    # -- statement level -----------------------------------------------------------

    def translate(self, statement: Statement) -> Operation:
        temporal = self._statement_is_temporal(statement)
        plan = self._translate_block(statement.first, temporal)
        for combinator, block in statement.combined:
            right = self._translate_block(block, temporal)
            plan = self._combine(plan, right, combinator)
        if statement.distinct:
            plan = self._deduplicate(plan)
        if statement.coalesce:
            if not plan.output_schema().is_temporal:
                raise ParseError("COALESCE requires a temporal result")
            plan = Coalescing(plan)
        if statement.order_by:
            plan = Sort(statement.order_by, plan)
        return TransferToStratum(plan)

    def _statement_is_temporal(self, statement: Statement) -> bool:
        for block in statement.blocks:
            for table in block.tables:
                if self._schema_of(table).is_temporal:
                    return True
        return False

    # -- block level ------------------------------------------------------------------

    def _translate_block(self, block: SelectBlock, temporal_statement: bool) -> Operation:
        plan = self._translate_from(block, temporal_statement)
        if block.where is not None:
            missing = [
                attribute
                for attribute in sorted(block.where.attributes())
                if not plan.output_schema().has_attribute(attribute)
            ]
            if missing:
                raise ParseError(f"WHERE references unknown attribute(s): {missing}")
            plan = Selection(block.where, plan)
        if block.has_aggregation:
            plan = self._translate_aggregation(block, plan, temporal_statement)
        elif not block.is_star:
            plan = self._translate_projection(block, plan, temporal_statement)
        return plan

    def _translate_from(self, block: SelectBlock, temporal_statement: bool) -> Operation:
        sources: List[Operation] = []
        for table in block.tables:
            sources.append(BaseRelation(table, self._schema_of(table)))
        plan = sources[0]
        for source in sources[1:]:
            both_temporal = (
                plan.output_schema().is_temporal and source.output_schema().is_temporal
            )
            if temporal_statement and both_temporal:
                plan = TemporalCartesianProduct(plan, source)
            else:
                plan = CartesianProduct(plan, source)
        return plan

    def _translate_projection(
        self, block: SelectBlock, plan: Operation, temporal_statement: bool
    ) -> Operation:
        items: List[ProjectionItem] = []
        for entry in block.items:
            assert isinstance(entry, SelectItem)
            items.append(ProjectionItem(entry.expression, entry.alias))
        schema = plan.output_schema()
        names = [item.output_name for item in items]
        if temporal_statement and schema.is_temporal and T1 not in names and T2 not in names:
            # Built-in temporal semantics: the period attributes ride along.
            items.append(ProjectionItem(AttributeRef(T1)))
            items.append(ProjectionItem(AttributeRef(T2)))
        for item in items:
            for attribute in sorted(item.attributes()):
                if not schema.has_attribute(attribute):
                    raise ParseError(f"SELECT references unknown attribute {attribute!r}")
        return Projection(items, plan)

    def _translate_aggregation(
        self, block: SelectBlock, plan: Operation, temporal_statement: bool
    ) -> Operation:
        functions = block.aggregates
        grouping = list(block.group_by)
        schema = plan.output_schema()
        for attribute in grouping:
            if not schema.has_attribute(attribute):
                raise ParseError(f"GROUP BY references unknown attribute {attribute!r}")
        plain_items = [entry for entry in block.items if isinstance(entry, SelectItem)]
        for entry in plain_items:
            if not isinstance(entry.expression, AttributeRef):
                raise ParseError("non-aggregate SELECT items of a grouped query must be attributes")
            if entry.expression.name not in grouping:
                raise ParseError(
                    f"SELECT item {entry.expression.name!r} must appear in GROUP BY"
                )
        for function in functions:
            if function.argument is None:
                continue
            if not schema.has_attribute(function.argument):
                raise ParseError(f"{function} references unknown attribute {function.argument!r}")
            domain = schema.domain_of(function.argument)
            if function.kind in (AggregateKind.SUM, AggregateKind.AVG) and domain not in NUMERIC:
                raise ParseError(
                    f"{function} needs a numeric argument; {function.argument!r} is {domain}"
                )
        if temporal_statement and schema.is_temporal:
            return TemporalAggregation(grouping, functions, plan)
        return Aggregation(grouping, functions, plan)

    # -- combinators -----------------------------------------------------------------------

    def _combine(self, left: Operation, right: Operation, combinator: SetCombinator) -> Operation:
        if combinator is SetCombinator.UNION_ALL:
            return UnionAll(left, right)
        if combinator is SetCombinator.UNION:
            return Union(left, right)
        if combinator is SetCombinator.UNION_TEMPORAL:
            self._require_temporal(left, right, "UNION TEMPORAL")
            return TemporalUnion(left, right)
        if combinator in (SetCombinator.EXCEPT, SetCombinator.EXCEPT_ALL):
            return Difference(left, right)
        # EXCEPT TEMPORAL: the temporal difference requires its left argument
        # to be free of duplicates in snapshots (Section 2.1); insert the
        # temporal duplicate elimination unless it is provably unnecessary.
        self._require_temporal(left, right, "EXCEPT TEMPORAL")
        if not guarantees_no_snapshot_duplicates(left):
            left = TemporalDuplicateElimination(left)
        return TemporalDifference(left, right)

    def _deduplicate(self, plan: Operation) -> Operation:
        if plan.output_schema().is_temporal:
            return TemporalDuplicateElimination(plan)
        return DuplicateElimination(plan)

    # -- helpers ----------------------------------------------------------------------------

    def _schema_of(self, table: str) -> RelationSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise ParseError(f"unknown table {table!r}") from None

    @staticmethod
    def _require_temporal(left: Operation, right: Operation, combinator: str) -> None:
        if not (left.output_schema().is_temporal and right.output_schema().is_temporal):
            raise ParseError(f"{combinator} requires temporal operands on both sides")
