"""Core of the reproduction: the paper's algebra, equivalences, rules and optimizer.

The subpackage layout follows the paper's structure:

* data model (Section 2.3): :mod:`period`, :mod:`schema`, :mod:`tuples`,
  :mod:`relation`, :mod:`order_spec`, :mod:`expressions`;
* the extended algebra (Section 2.4–2.5, Table 1): :mod:`operations`;
* relation equivalences (Section 3): :mod:`equivalence`;
* transformation rules (Section 4, Figure 4): :mod:`rules`;
* applicability and operation properties (Section 5, Table 2):
  :mod:`properties`, :mod:`applicability`, :mod:`analysis`, :mod:`query`;
* plan enumeration (Section 6, Figure 5) and plan selection:
  :mod:`enumeration`, :mod:`cost`.
"""

from .analysis import (
    derive_cardinality_bounds,
    derive_order,
    guarantees_coalesced,
    guarantees_no_duplicates,
    guarantees_no_snapshot_duplicates,
)
from .applicability import (
    is_rule_applicable,
    results_acceptable,
    rule_application_allowed,
)
from .cost import CostModel, PlanCost, choose_best_plan, estimate_cardinality, estimate_cost
from .enumeration import EnumerationResult, EnumerationStatistics, enumerate_plans
from .equivalence import (
    EquivalenceType,
    equivalent,
    implies,
    list_equivalent,
    list_equivalent_on,
    multiset_equivalent,
    set_equivalent,
    snapshot_list_equivalent,
    snapshot_multiset_equivalent,
    snapshot_set_equivalent,
    strongest_equivalence,
)
from .exceptions import (
    RETRYABLE_CODES,
    AlgebraError,
    CancelledError,
    DataCorruptionError,
    DeadlineExceededError,
    EngineError,
    EnumerationError,
    InjectedFaultError,
    ParseError,
    PeriodError,
    ReproError,
    ResourceExhaustedError,
    SchemaError,
    TemporalSchemaError,
    error_code,
)
from .expressions import (
    AggregateFunction,
    AggregateKind,
    And,
    Arithmetic,
    ArithmeticOperator,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Expression,
    Literal,
    Not,
    Or,
    ProjectionItem,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    attribute,
    between,
    count,
    equals,
    greater_than,
    less_than,
    literal,
    not_equals,
    projection_items,
)
from .operations import *  # noqa: F401,F403 - re-export the operator classes
from .operations import __all__ as _operations_all
from .order_spec import ASC, DESC, OrderSpec, SortDirection, SortKey
from .period import Period, T1, T2, coalesce_periods, subtract_periods
from .properties import OperationProperties, PropertyMap, annotate, annotated_pretty
from .query import QueryResultSpec, ResultKind
from .relation import Relation
from .rules import (
    ALGEBRAIC_RULES,
    COALESCING_RULES,
    CONVENTIONAL_RULES,
    DEFAULT_RULES,
    DUPLICATE_RULES,
    SORTING_RULES,
    TRANSFER_RULES,
    TransformationRule,
    rules_by_name,
)
from .schema import BOOLEAN, BUILTIN_DOMAINS, Domain, FLOAT, INTEGER, RelationSchema, STRING, TIME
from .tuples import Tuple

__all__ = [
    # data model
    "ASC",
    "BOOLEAN",
    "BUILTIN_DOMAINS",
    "DESC",
    "Domain",
    "FLOAT",
    "INTEGER",
    "OrderSpec",
    "Period",
    "Relation",
    "RelationSchema",
    "STRING",
    "SortDirection",
    "SortKey",
    "T1",
    "T2",
    "TIME",
    "Tuple",
    "coalesce_periods",
    "subtract_periods",
    # expressions
    "AggregateFunction",
    "AggregateKind",
    "And",
    "Arithmetic",
    "ArithmeticOperator",
    "AttributeRef",
    "Comparison",
    "ComparisonOperator",
    "Expression",
    "Literal",
    "Not",
    "Or",
    "ProjectionItem",
    "agg_avg",
    "agg_max",
    "agg_min",
    "agg_sum",
    "attribute",
    "between",
    "count",
    "equals",
    "greater_than",
    "less_than",
    "literal",
    "not_equals",
    "projection_items",
    # equivalences
    "EquivalenceType",
    "equivalent",
    "implies",
    "list_equivalent",
    "list_equivalent_on",
    "multiset_equivalent",
    "set_equivalent",
    "snapshot_list_equivalent",
    "snapshot_multiset_equivalent",
    "snapshot_set_equivalent",
    "strongest_equivalence",
    # analysis / properties / applicability
    "OperationProperties",
    "PropertyMap",
    "QueryResultSpec",
    "ResultKind",
    "annotate",
    "annotated_pretty",
    "derive_cardinality_bounds",
    "derive_order",
    "guarantees_coalesced",
    "guarantees_no_duplicates",
    "guarantees_no_snapshot_duplicates",
    "is_rule_applicable",
    "results_acceptable",
    "rule_application_allowed",
    # rules and optimization
    "ALGEBRAIC_RULES",
    "COALESCING_RULES",
    "CONVENTIONAL_RULES",
    "CostModel",
    "DEFAULT_RULES",
    "DUPLICATE_RULES",
    "EnumerationResult",
    "EnumerationStatistics",
    "PlanCost",
    "SORTING_RULES",
    "TRANSFER_RULES",
    "TransformationRule",
    "choose_best_plan",
    "enumerate_plans",
    "estimate_cardinality",
    "estimate_cost",
    "rules_by_name",
    # exceptions
    "RETRYABLE_CODES",
    "AlgebraError",
    "CancelledError",
    "DataCorruptionError",
    "DeadlineExceededError",
    "EngineError",
    "EnumerationError",
    "InjectedFaultError",
    "ParseError",
    "PeriodError",
    "ReproError",
    "ResourceExhaustedError",
    "SchemaError",
    "TemporalSchemaError",
    "error_code",
] + list(_operations_all)
