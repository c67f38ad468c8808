"""Tests for the temporal SQL front end: lexer, parser and translator."""

import pytest

from repro.core.exceptions import ParseError
from repro.core.expressions import And, Comparison, ComparisonOperator, Literal
from repro.core.operations import (
    Aggregation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
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
from repro.core.order_spec import OrderSpec, SortDirection
from repro.core.query import ResultKind
from repro.tsql import parse_predicate, parse_statement, tokenize, translate_statement
from repro.tsql.ast import SetCombinator
from repro.tsql.lexer import TokenType
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA
from repro.core.schema import INTEGER, RelationSchema, STRING

SCHEMAS = {
    "EMPLOYEE": EMPLOYEE_SCHEMA,
    "PROJECT": PROJECT_SCHEMA,
    "ACCOUNT": RelationSchema.snapshot(
        [("Owner", STRING), ("Balance", INTEGER)], name="ACCOUNT"
    ),
}


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT EmpName FROM employee")
        assert tokens[0].is_keyword("SELECT")
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[2].is_keyword("FROM")
        assert tokens[-1].type is TokenType.END

    def test_numbers_strings_symbols(self):
        tokens = tokenize("Balance >= 100 AND Owner = 'O''Hara'")
        values = [token.value for token in tokens[:-1]]
        assert ">=" in values
        assert "100" in values

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("WHERE Name = 'oops")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @ FROM t")


class TestParser:
    def test_simple_select(self):
        statement = parse_statement("SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales'")
        assert statement.first.tables == ["EMPLOYEE"]
        assert len(statement.first.items) == 2
        assert statement.first.where is not None
        assert not statement.distinct and not statement.coalesce

    def test_select_star(self):
        statement = parse_statement("SELECT * FROM EMPLOYEE")
        assert statement.first.is_star

    def test_distinct_order_by_coalesce(self):
        statement = parse_statement(
            "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName DESC, T1 COALESCE"
        )
        assert statement.distinct
        assert statement.coalesce
        assert statement.order_by.keys[0].direction is SortDirection.DESC
        assert statement.order_by.attributes == ("EmpName", "T1")

    def test_coalesce_before_order_by(self):
        statement = parse_statement("SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName")
        assert statement.coalesce
        assert statement.order_by.attributes == ("EmpName",)

    def test_combinators(self):
        statement = parse_statement(
            "SELECT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
            "UNION ALL SELECT EmpName FROM PROJECT"
        )
        combinators = [combinator for combinator, _ in statement.combined]
        assert combinators == [SetCombinator.EXCEPT_TEMPORAL, SetCombinator.UNION_ALL]

    def test_group_by_and_aggregates(self):
        statement = parse_statement(
            "SELECT Dept, COUNT(EmpName) AS n FROM EMPLOYEE GROUP BY Dept"
        )
        assert statement.first.group_by == ["Dept"]
        assert statement.first.aggregates[0].output_name == "n"

    def test_where_grammar(self):
        predicate = parse_predicate("(Dept = 'Sales' OR Dept = 'Ads') AND NOT T1 > 5")
        assert isinstance(predicate, And)

    def test_between(self):
        predicate = parse_predicate("T1 BETWEEN 2 AND 6")
        assert isinstance(predicate, And)

    def test_arithmetic_in_select(self):
        statement = parse_statement("SELECT Balance + 10 AS Credit FROM ACCOUNT")
        assert statement.first.items[0].alias == "Credit"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT EmpName FROM EMPLOYEE garbage garbage")

    def test_missing_from_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT EmpName WHERE Dept = 'Sales'")


class TestTranslator:
    def test_paper_statement_yields_figure2a(self, paper_statement):
        plan, spec = translate_statement(paper_statement, SCHEMAS)
        # Shape: TS(sort(coalT(rdupT(\T(rdupT(π(EMPLOYEE)), π(PROJECT))))))
        assert isinstance(plan, TransferToStratum)
        sort = plan.child
        assert isinstance(sort, Sort)
        coal = sort.child
        assert isinstance(coal, Coalescing)
        outer_dedup = coal.child
        assert isinstance(outer_dedup, TemporalDuplicateElimination)
        difference = outer_dedup.child
        assert isinstance(difference, TemporalDifference)
        assert isinstance(difference.left, TemporalDuplicateElimination)
        assert isinstance(difference.left.child, Projection)
        assert isinstance(difference.right, Projection)
        assert spec.kind is ResultKind.LIST
        assert spec.distinct and spec.coalesced

    def test_projection_appends_time_attributes_for_temporal_statements(self):
        plan, _ = translate_statement("SELECT EmpName FROM EMPLOYEE", SCHEMAS)
        projection = plan.child
        assert isinstance(projection, Projection)
        assert projection.output_attribute_names() == ("EmpName", "T1", "T2")

    def test_conventional_statement_is_left_alone(self):
        plan, spec = translate_statement(
            "SELECT DISTINCT Owner FROM ACCOUNT WHERE Balance > 100", SCHEMAS
        )
        dedup = plan.child
        assert isinstance(dedup, DuplicateElimination)
        assert isinstance(dedup.child, Projection)
        assert isinstance(dedup.child.child, Selection)
        assert spec.kind is ResultKind.SET

    def test_multiple_tables_become_a_product(self):
        plan, _ = translate_statement(
            "SELECT * FROM EMPLOYEE, PROJECT WHERE Dept = 'Sales'", SCHEMAS
        )
        selection = plan.child
        assert isinstance(selection, Selection)
        assert isinstance(selection.child, TemporalCartesianProduct)

    def test_mixed_temporal_and_snapshot_tables_use_regular_product(self):
        plan, _ = translate_statement("SELECT * FROM EMPLOYEE, ACCOUNT", SCHEMAS)
        assert isinstance(plan.child, CartesianProduct)

    def test_union_variants(self):
        plan, _ = translate_statement(
            "SELECT EmpName FROM EMPLOYEE UNION ALL SELECT EmpName FROM PROJECT", SCHEMAS
        )
        assert isinstance(plan.child, UnionAll)
        plan, _ = translate_statement(
            "SELECT EmpName FROM EMPLOYEE UNION TEMPORAL SELECT EmpName FROM PROJECT", SCHEMAS
        )
        assert isinstance(plan.child, TemporalUnion)
        plan, _ = translate_statement(
            "SELECT Owner FROM ACCOUNT UNION SELECT Owner FROM ACCOUNT", SCHEMAS
        )
        assert isinstance(plan.child, Union)

    def test_except_defaults_to_multiset_difference(self):
        plan, _ = translate_statement(
            "SELECT Owner FROM ACCOUNT EXCEPT SELECT Owner FROM ACCOUNT", SCHEMAS
        )
        assert isinstance(plan.child, Difference)

    def test_except_temporal_inserts_left_deduplication_only_when_needed(self):
        plan, _ = translate_statement(
            "SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT",
            SCHEMAS,
        )
        difference = plan.child.child  # below the outermost rdupT
        assert isinstance(difference, TemporalDifference)
        assert isinstance(difference.left, TemporalDuplicateElimination)

    def test_group_by_translates_to_temporal_aggregation(self):
        plan, _ = translate_statement(
            "SELECT Dept, COUNT(EmpName) AS n FROM EMPLOYEE GROUP BY Dept", SCHEMAS
        )
        assert isinstance(plan.child, TemporalAggregation)

    def test_group_by_on_snapshot_table_translates_to_aggregation(self):
        plan, _ = translate_statement(
            "SELECT Owner, SUM(Balance) AS total FROM ACCOUNT GROUP BY Owner", SCHEMAS
        )
        assert isinstance(plan.child, Aggregation)

    def test_unknown_table_rejected(self):
        with pytest.raises(ParseError):
            translate_statement("SELECT * FROM NOPE", SCHEMAS)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ParseError):
            translate_statement("SELECT Nope FROM EMPLOYEE", SCHEMAS)
        with pytest.raises(ParseError):
            translate_statement("SELECT EmpName FROM EMPLOYEE WHERE Nope = 1", SCHEMAS)
        with pytest.raises(ParseError, match="'Nope'"):
            translate_statement("SELECT MIN(Nope) FROM EMPLOYEE", SCHEMAS)

    def test_coalesce_requires_temporal_result(self):
        with pytest.raises(ParseError):
            translate_statement("SELECT Owner FROM ACCOUNT COALESCE", SCHEMAS)

    def test_temporal_combinator_requires_temporal_operands(self):
        with pytest.raises(ParseError):
            translate_statement(
                "SELECT Owner FROM ACCOUNT EXCEPT TEMPORAL SELECT Owner FROM ACCOUNT", SCHEMAS
            )

    def test_non_grouped_select_item_rejected(self):
        with pytest.raises(ParseError):
            translate_statement(
                "SELECT EmpName, COUNT(Dept) AS n FROM EMPLOYEE GROUP BY Dept", SCHEMAS
            )
