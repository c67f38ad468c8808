"""Hypothesis strategies shared by the property-based tests.

The strategies generate *small* relations over fixed schemas: property-based
tests of the algebra and the transformation rules only need a handful of
tuples to exercise every interesting interaction (duplicates, adjacent
periods, overlapping periods, empty relations), and small sizes keep the
quadratic reference implementations fast.
"""

from __future__ import annotations

from typing import List, Optional, Tuple as PyTuple

from hypothesis import strategies as st

from repro.core.expressions import (
    AggregateFunction,
    AggregateKind,
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    agg_max,
    agg_sum,
    count,
)
from repro.core.operations import (
    Aggregation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
    Union,
    UnionAll,
)
from repro.core.period import T1, T2
from repro.core.order_spec import OrderSpec, SortKey, SortDirection
from repro.core.relation import Relation
from repro.core.schema import FLOAT, INTEGER, RelationSchema, STRING

#: Temporal schema used by most property tests: (Name, Dept, T1, T2).
TEMPORAL_SCHEMA = RelationSchema.temporal(
    [("Name", STRING), ("Dept", STRING)], name="R"
)

#: A second, union-compatible temporal schema (different relation name only).
TEMPORAL_SCHEMA_2 = RelationSchema.temporal(
    [("Name", STRING), ("Dept", STRING)], name="S"
)

#: Narrow temporal schema (Name, T1, T2), as in Figure 3.
NARROW_TEMPORAL_SCHEMA = RelationSchema.temporal([("Name", STRING)], name="N")

#: Snapshot (non-temporal) schema used by conventional-operation tests.
SNAPSHOT_SCHEMA = RelationSchema.snapshot(
    [("Name", STRING), ("Amount", INTEGER)], name="C"
)

#: Small alphabets so that duplicates and value-equivalent tuples are common.
NAMES = ("John", "Anna", "Mia")
DEPARTMENTS = ("Sales", "Ads")
AMOUNTS = (1, 2, 3)


@st.composite
def periods(draw, max_time: int = 10) -> PyTuple[int, int]:
    """A closed-open period within [1, max_time+1)."""
    start = draw(st.integers(min_value=1, max_value=max_time))
    length = draw(st.integers(min_value=1, max_value=4))
    return start, min(max_time + 1, start + length) if start + length > start else start + 1


@st.composite
def temporal_rows(draw) -> PyTuple[str, str, int, int]:
    name = draw(st.sampled_from(NAMES))
    dept = draw(st.sampled_from(DEPARTMENTS))
    start, end = draw(periods())
    return (name, dept, start, end)


@st.composite
def narrow_temporal_rows(draw) -> PyTuple[str, int, int]:
    name = draw(st.sampled_from(NAMES))
    start, end = draw(periods())
    return (name, start, end)


@st.composite
def snapshot_rows(draw) -> PyTuple[str, int]:
    return (draw(st.sampled_from(NAMES)), draw(st.sampled_from(AMOUNTS)))


@st.composite
def temporal_relations(draw, schema: RelationSchema = TEMPORAL_SCHEMA, max_size: int = 8) -> Relation:
    """A small temporal relation over ``schema`` (with duplicates and overlaps likely)."""
    rows = draw(st.lists(temporal_rows(), min_size=0, max_size=max_size))
    return Relation.from_rows(schema, rows)


@st.composite
def narrow_temporal_relations(draw, max_size: int = 8) -> Relation:
    """A small temporal relation over the (Name, T1, T2) schema."""
    rows = draw(st.lists(narrow_temporal_rows(), min_size=0, max_size=max_size))
    return Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows)


@st.composite
def snapshot_relations(draw, max_size: int = 8) -> Relation:
    """A small snapshot relation over the (Name, Amount) schema."""
    rows = draw(st.lists(snapshot_rows(), min_size=0, max_size=max_size))
    return Relation.from_rows(SNAPSHOT_SCHEMA, rows)


@st.composite
def value_columns(draw, max_size: int = 40) -> List[int]:
    """A non-empty multiset of small integers — one attribute's values.

    Drawn from a narrow alphabet so heavy duplication (the regime histograms
    summarise) is common; used by the histogram property tests.
    """
    return draw(
        st.lists(st.integers(min_value=-5, max_value=20), min_size=1, max_size=max_size)
    )


@st.composite
def period_columns(draw, max_size: int = 30, max_time: int = 20) -> List[PyTuple[int, int]]:
    """A non-empty multiset of closed-open periods for interval histograms."""
    return draw(st.lists(periods(max_time=max_time), min_size=1, max_size=max_size))


@st.composite
def profiled_relation_pairs(draw, max_size: int = 8):
    """Two temporal relations (the second non-empty) plus an estimator over them.

    The estimator is built from the relations' own profiles, so estimates are
    fully data-driven; the property tests check the output-cardinality bounds
    the cost model's branch-and-bound relies on.
    """
    from repro.stats import CardinalityEstimator

    left = draw(temporal_relations(max_size=max_size))
    right = draw(temporal_relations(schema=TEMPORAL_SCHEMA_2, max_size=max_size))
    estimator = CardinalityEstimator.from_relations({"R": left, "S": right})
    return left, right, estimator


#: Right-hand schema for join-shaped plans: ``Name`` clashes with the left
#: schema (so the product renames it to ``2.Name``), ``Code`` does not.
JOIN_RIGHT_SCHEMA = RelationSchema.temporal(
    [("Name", STRING), ("Code", STRING)], name="J"
)

CODES = ("X", "Y", "Z")


@st.composite
def join_right_rows(draw) -> PyTuple[str, str, int, int]:
    name = draw(st.sampled_from(NAMES))
    code = draw(st.sampled_from(CODES))
    start, end = draw(periods())
    return (name, code, start, end)


@st.composite
def join_right_relations(draw, max_size: int = 8) -> Relation:
    """A small temporal relation over the (Name, Code, T1, T2) schema."""
    rows = draw(st.lists(join_right_rows(), min_size=0, max_size=max_size))
    return Relation.from_rows(JOIN_RIGHT_SCHEMA, rows)


def _equi_conjunct() -> Comparison:
    return Comparison(ComparisonOperator.EQ, AttributeRef("1.Name"), AttributeRef("2.Name"))


def _overlap_conjuncts() -> PyTuple[Comparison, Comparison]:
    return (
        Comparison(ComparisonOperator.LT, AttributeRef("1.T1"), AttributeRef("2.T2")),
        Comparison(ComparisonOperator.LT, AttributeRef("2.T1"), AttributeRef("1.T2")),
    )


@st.composite
def join_predicates(draw, temporal: bool):
    """A predicate over the product of TEMPORAL_SCHEMA and JOIN_RIGHT_SCHEMA.

    Drawn so that every physical join algorithm comes up: with/without an
    equi-conjunct (hash vs. not), with/without the explicit overlap pair
    (interval join on conventional products), and with one-sided or fresh
    ``T1``/``T2`` residual conjuncts.
    """
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(_equi_conjunct())
    if not temporal and draw(st.booleans()):
        conjuncts.extend(_overlap_conjuncts())
    if draw(st.booleans()):
        conjuncts.append(
            Comparison(
                ComparisonOperator.EQ, AttributeRef("Dept"), Literal(draw(st.sampled_from(DEPARTMENTS)))
            )
        )
    if draw(st.booleans()):
        conjuncts.append(
            Comparison(
                ComparisonOperator.NE, AttributeRef("Code"), Literal(draw(st.sampled_from(CODES)))
            )
        )
    if temporal and draw(st.booleans()):
        # A conjunct over the fresh (intersection) period attributes: always
        # residual, never a join key.
        conjuncts.append(
            Comparison(ComparisonOperator.GT, AttributeRef("T2"), AttributeRef("T1"))
        )
    if not conjuncts:
        conjuncts.append(Literal(True))
    return conjuncts[0] if len(conjuncts) == 1 else And(*conjuncts)


@st.composite
def join_shaped_plans(draw, max_size: int = 6) -> Operation:
    """A small join-shaped plan over literal relations.

    Covers the shapes the stratum's physical layer lowers: the ``Join`` and
    ``TemporalJoin`` idioms, selections directly over (temporal) Cartesian
    products, and bare products — optionally wrapped in a projection, a
    selection, and/or a sort so that streaming operators stack on top.
    """
    left = LiteralRelation(draw(temporal_relations(max_size=max_size)))
    right = LiteralRelation(draw(join_right_relations(max_size=max_size)))
    shape = draw(
        st.sampled_from(
            ["join", "temporal-join", "select-product", "select-temporal-product", "product", "temporal-product"]
        )
    )
    temporal = shape in ("temporal-join", "select-temporal-product", "temporal-product")
    predicate = draw(join_predicates(temporal=temporal))
    if shape == "join":
        plan: Operation = Join(predicate, left, right)
    elif shape == "temporal-join":
        plan = TemporalJoin(predicate, left, right)
    elif shape == "select-product":
        plan = Selection(predicate, CartesianProduct(left, right))
    elif shape == "select-temporal-product":
        plan = Selection(predicate, TemporalCartesianProduct(left, right))
    elif shape == "product":
        plan = CartesianProduct(left, right)
    else:
        plan = TemporalCartesianProduct(left, right)
    if draw(st.booleans()):
        plan = Selection(
            Comparison(
                ComparisonOperator.NE, AttributeRef("Dept"), Literal(draw(st.sampled_from(DEPARTMENTS)))
            ),
            plan,
        )
    if draw(st.booleans()):
        plan = Projection(["1.Name", "Dept", "Code"], plan)
        if draw(st.booleans()):
            plan = Sort(OrderSpec.ascending("1.Name"), plan)
    elif draw(st.booleans()):
        plan = Sort(OrderSpec.ascending("Dept"), plan)
    return plan


@st.composite
def order_specs(draw, attributes: PyTuple[str, ...] = ("Name", "Dept")) -> OrderSpec:
    """A sort specification over a subset of ``attributes``."""
    chosen: List[str] = draw(
        st.lists(st.sampled_from(list(attributes)), unique=True, min_size=0, max_size=len(attributes))
    )
    keys = []
    for attribute in chosen:
        direction = draw(st.sampled_from([SortDirection.ASC, SortDirection.DESC]))
        keys.append(SortKey(attribute, direction))
    return OrderSpec(keys)


# ---------------------------------------------------------------------------
# Conventional plans: everything the DBMS's planner admits
# ---------------------------------------------------------------------------

#: ``SNAPSHOT_SCHEMA`` with the attribute order permuted — union-compatible
#: with it (schemas are attribute *sets*), so a set operation's right input
#: may arrive in this layout and must be aligned by name.
PERMUTED_SNAPSHOT_SCHEMA = RelationSchema.snapshot(
    [("Amount", INTEGER), ("Name", STRING)], name="P"
)


@st.composite
def _selection_over(draw, plan: Operation) -> Operation:
    schema = plan.output_schema()
    attribute = draw(st.sampled_from(schema.attributes))
    if schema.domain_of(attribute).name == STRING.name:
        value = draw(st.sampled_from(NAMES + DEPARTMENTS + CODES))
        operator = draw(st.sampled_from([ComparisonOperator.EQ, ComparisonOperator.NE]))
    else:
        value = draw(st.integers(min_value=1, max_value=6))
        operator = draw(st.sampled_from(list(ComparisonOperator)))
    return Selection(Comparison(operator, AttributeRef(attribute), Literal(value)), plan)


@st.composite
def _projection_over(draw, plan: Operation) -> Operation:
    attributes = plan.output_schema().attributes
    chosen = draw(st.lists(st.sampled_from(attributes), unique=True, min_size=1))
    if (T1 in chosen) != (T2 in chosen):  # a schema carries both or neither
        chosen = [a for a in chosen if a not in (T1, T2)] or list(attributes)
    return Projection(chosen, plan)


#: The fixed output names of :func:`aggregation`'s aggregates.
AGGREGATE_ALIASES = ("n", "total", "top")


def aggregation(plan: Operation, grouping, argument: Optional[str] = None) -> Aggregation:
    """γ counting rows as ``n`` and, given a numeric ``argument``, its ``total``/``top``."""
    functions = [count(alias="n")]
    if argument is not None:
        functions += [agg_sum(argument, alias="total"), agg_max(argument, alias="top")]
    return Aggregation(grouping, functions, plan)


def numeric_attributes(schema: RelationSchema) -> List[str]:
    return [a for a in schema.attributes if schema.domain_of(a).name != STRING.name]


@st.composite
def _aggregation_over(draw, plan: Operation) -> Operation:
    schema = plan.output_schema()
    grouping = draw(st.lists(st.sampled_from(schema.attributes), unique=True, max_size=2))
    numeric = numeric_attributes(schema)
    argument = draw(st.sampled_from(numeric)) if numeric and draw(st.booleans()) else None
    return aggregation(plan, grouping, argument)


def unary_step_kinds(plan: Operation) -> List[str]:
    """The steps :func:`_unary_stack` may put on top of ``plan``.

    γ's aliases are fixed, so it is refused while *any* of them is still in
    the schema: a π in between can drop ``n`` and keep ``total``, and a
    second γ grouping by that ``total`` would name two outputs alike.
    """
    kinds = ["select", "project", "sort", "rdup"]
    if not set(AGGREGATE_ALIASES) & set(plan.output_schema().attributes):
        kinds.append("aggregate")
    return kinds


@st.composite
def _unary_stack(draw, plan: Operation, max_depth: int = 3) -> Operation:
    """``plan`` under up to ``max_depth`` of σ, π, sort, rdup and γ."""
    for _ in range(draw(st.integers(min_value=0, max_value=max_depth))):
        kind = draw(st.sampled_from(unary_step_kinds(plan)))
        if kind == "select":
            plan = draw(_selection_over(plan))
        elif kind == "project":
            plan = draw(_projection_over(plan))
        elif kind == "sort":
            plan = Sort(draw(order_specs(plan.output_schema().attributes)), plan)
        elif kind == "rdup":
            plan = DuplicateElimination(plan)
        else:
            plan = draw(_aggregation_over(plan))
    return plan


@st.composite
def _permuted_snapshot_relations(draw, max_size: int = 8) -> Relation:
    rows = draw(st.lists(snapshot_rows(), min_size=0, max_size=max_size))
    return Relation.from_rows(PERMUTED_SNAPSHOT_SCHEMA, [(amount, name) for name, amount in rows])


@st.composite
def conventional_plans(draw, max_size: int = 8) -> Operation:
    """A plan over literal relations using only conventional operations.

    Covers every operation the DBMS's planner compiles natively — σ, π, sort
    (mixed ASC/DESC), rdup, γ, ×, ⋈, ∪ALL, ∪ and \\ — including the shapes
    that need a relabel: temporal inputs under rdup/\\/∪/γ (``T1`` becomes
    ``1.T1``) and a set operation whose right input lists the attributes in
    another order.  Join predicates come from :func:`join_predicates`, so a
    keyless ``ls < re ∧ rs < le`` overlap pair occurs.
    """
    shape = draw(st.sampled_from(["unary", "set", "join"]))
    if shape == "unary":
        leaf = draw(
            st.one_of(
                snapshot_relations(max_size),
                temporal_relations(max_size=max_size),
                _permuted_snapshot_relations(max_size),
            )
        )
        plan: Operation = LiteralRelation(leaf)
    elif shape == "set":
        if draw(st.booleans()):
            left = draw(snapshot_relations(max_size))
            right = draw(st.one_of(snapshot_relations(max_size), _permuted_snapshot_relations(max_size)))
        else:
            left = draw(temporal_relations(max_size=max_size))
            right = draw(temporal_relations(schema=TEMPORAL_SCHEMA_2, max_size=max_size))
        operation = draw(st.sampled_from([UnionAll, Union, Difference]))
        plan = operation(
            draw(_unary_stack(LiteralRelation(left), max_depth=1).filter(_keeps_schema(left))),
            draw(_unary_stack(LiteralRelation(right), max_depth=1).filter(_keeps_schema(right))),
        )
    else:
        left = LiteralRelation(draw(temporal_relations(max_size=max_size)))
        right = LiteralRelation(draw(join_right_relations(max_size=max_size)))
        if draw(st.booleans()):
            plan = CartesianProduct(left, right)
            if draw(st.booleans()):
                plan = Selection(draw(join_predicates(temporal=False)), plan)
        else:
            plan = Join(draw(join_predicates(temporal=False)), left, right)
    return draw(_unary_stack(plan))


def _keeps_schema(relation: Relation):
    """Filter: the plan still produces ``relation``'s attributes, in order."""
    attributes = relation.schema.attributes
    return lambda plan: plan.output_schema().attributes == attributes


# ---------------------------------------------------------------------------
# Temporal plans: rdupT and γT inside the stratum's pipelined regions
# ---------------------------------------------------------------------------

#: Temporal schema with a float attribute whose sums depend on the summation
#: order (``1e16`` swallows the small scores), so ``AVG``/``SUM`` pin the
#: order in which an aggregate sees a group's members.
SCORED_SCHEMA = RelationSchema.temporal([("Name", STRING), ("Score", FLOAT)], name="M")
SCORES = (0.1, 0.2, 0.3, 1e16, -1e16)


@st.composite
def scored_relations(draw, max_size: int = 8) -> Relation:
    """A small temporal relation over the (Name, Score, T1, T2) schema."""
    row = st.tuples(st.sampled_from(NAMES), st.sampled_from(SCORES), periods())
    rows = draw(st.lists(row, max_size=max_size))
    return Relation.from_rows(SCORED_SCHEMA, [(name, score, *period) for name, score, period in rows])


@st.composite
def _temporal_projection_over(draw, plan: Operation) -> Operation:
    """π keeping ``T1``/``T2`` — anywhere in the list, not only at its end."""
    values = plan.output_schema().nontemporal_attributes
    chosen = draw(st.lists(st.sampled_from(values), unique=True)) if values else []
    return Projection(draw(st.permutations(chosen + [T1, T2])), plan)


@st.composite
def _temporal_aggregation_over(draw, plan: Operation, tag: int) -> Operation:
    """γT with 0–2 grouping attributes and aggregates of every kind.

    ``COUNT`` takes ``*`` or any attribute; the numeric kinds take a numeric
    one (``T1``/``T2`` and earlier aggregates included).  ``tag`` keeps the
    output names of stacked aggregations apart.
    """
    schema = plan.output_schema()
    values = schema.nontemporal_attributes
    grouping = draw(st.lists(st.sampled_from(values), unique=True, max_size=2)) if values else []
    numeric = numeric_attributes(schema)
    functions = [count(alias=f"n{tag}")] if draw(st.booleans()) else []
    kinds = draw(st.lists(st.sampled_from(list(AggregateKind)), unique=True, min_size=not functions))
    for kind in kinds:
        arguments = schema.attributes if kind is AggregateKind.COUNT else numeric
        functions.append(
            AggregateFunction(kind, draw(st.sampled_from(arguments)), f"{kind.value.lower()}{tag}")
        )
    return TemporalAggregation(grouping, functions, plan)


_TEMPORAL_STEPS = ("select", "project", "sort", "rdupT", "γT", "coalT", "\\T", "∪T")
_STREAMING_STEPS = frozenset(_TEMPORAL_STEPS[:3])


@st.composite
def temporal_shaped_plans(draw, max_size: int = 6, max_depth: int = 4) -> Operation:
    """A stack of temporal and streaming operations over a literal relation.

    At least one of the five temporal operations the stratum runs as batch
    operators — ``rdupT``, ``γT``, ``coalT``, ``\\T``, ``∪T`` — over and under
    σ, π (possibly moving ``T1``/``T2`` off the trailing positions) and
    mixed-direction sorts.  The binary operations pair the plan with a
    selection of itself (union-compatible by construction), half the time with
    its attributes permuted: the selection is the right argument, or — for
    ``∪T``, where a right argument that is a subset of the left emits nothing
    — half the time the left one.
    """
    leaf = draw(st.one_of(temporal_relations(max_size=max_size), scored_relations(max_size)))
    plan: Operation = LiteralRelation(leaf)
    steps = draw(
        st.lists(st.sampled_from(_TEMPORAL_STEPS), min_size=1, max_size=max_depth).filter(
            lambda steps: not _STREAMING_STEPS.issuperset(steps)
        )
    )
    for tag, step in enumerate(steps):
        if step == "select":
            plan = draw(_selection_over(plan))
        elif step == "project":
            plan = draw(_temporal_projection_over(plan))
        elif step == "sort":
            plan = Sort(draw(order_specs(plan.output_schema().attributes)), plan)
        elif step == "rdupT":
            plan = TemporalDuplicateElimination(plan)
        elif step == "γT":
            plan = draw(_temporal_aggregation_over(plan, tag))
        elif step == "coalT":
            plan = Coalescing(plan)
        else:
            right = draw(_selection_over(plan))
            if draw(st.booleans()):
                right = Projection(draw(st.permutations(plan.output_schema().attributes)), right)
            if step == "\\T":
                plan = TemporalDifference(plan, right)
            elif draw(st.booleans()):
                plan = TemporalUnion(plan, right)
            else:  # the subset on the left: the right rows keep fragments
                plan = TemporalUnion(right, plan)
    return plan
