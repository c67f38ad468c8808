"""Property-based correctness of the entire rule catalogue.

For every transformation rule in the default rule set, a *scenario* builds a
plan over randomly generated relations whose root matches the rule's
left-hand side pattern.  The test applies the rule and checks that the
original and rewritten plans evaluate to relations equivalent at the rule's
*declared* equivalence type.  This is the executable counterpart of the
paper's claim that "all transformation rules can be verified formally" —
here they are verified empirically on thousands of random instances.
"""

from typing import Optional

from hypothesis import example, given, settings

from repro.core.equivalence import equivalent
from repro.core.expressions import count, equals
from repro.core.operations import (
    Aggregation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.core.relation import Relation
from repro.core.rules import DEFAULT_RULES
from repro.core.schema import RelationSchema, STRING

from .strategies import (
    NARROW_TEMPORAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    narrow_temporal_relations,
    snapshot_relations,
)

CONTEXT = EvaluationContext()

#: A second temporal schema for product scenarios (no attribute clashes).
DEPT_SCHEMA = RelationSchema.temporal([("Dept", STRING)], name="D")
#: A second snapshot schema for product scenarios.
PLAIN_DEPT_SCHEMA = RelationSchema.snapshot([("Dept", STRING)], name="DD")


def as_dept(relation: Relation, temporal: bool = True) -> Relation:
    """Re-key a narrow temporal relation onto the Dept schema (no name clashes)."""
    if temporal:
        rows = [(tup["Name"], tup["T1"], tup["T2"]) for tup in relation]
        return Relation.from_rows(DEPT_SCHEMA, rows)
    rows = [(tup["Name"],) for tup in relation]
    return Relation.from_rows(PLAIN_DEPT_SCHEMA, rows)


def scenarios(t1: Relation, t2: Relation, s1: Relation, s2: Relation):
    """Plans whose roots exercise every rule of the catalogue.

    ``t1``/``t2`` are narrow temporal relations, ``s1``/``s2`` snapshot
    relations.  Not every plan matches every rule — the driver simply tries
    every (rule, plan) pair and skips non-matches — but every rule matches at
    least one of these plans for at least some generated input.
    """
    lt1, lt2 = LiteralRelation(t1), LiteralRelation(t2)
    ls1, ls2 = LiteralRelation(s1), LiteralRelation(s2)
    dedup_t1 = TemporalDuplicateElimination(lt1)
    dedup_t2 = TemporalDuplicateElimination(lt2)
    dept = LiteralRelation(as_dept(t2))
    plain_dept = LiteralRelation(as_dept(t2, temporal=False))
    plain_dept_t1 = LiteralRelation(as_dept(t1, temporal=False))
    name_filter = equals("Name", "John")

    product = TemporalCartesianProduct(dedup_t1, TemporalDuplicateElimination(dept))
    c9_keep = [
        attribute
        for attribute in product.output_schema().attributes
        if attribute not in ("1.T1", "1.T2", "2.T1", "2.T2")
    ]

    plans = [
        # Duplicate elimination rules.
        DuplicateElimination(ls1),
        DuplicateElimination(DuplicateElimination(ls1)),
        TemporalDuplicateElimination(lt1),
        TemporalDuplicateElimination(dedup_t1),
        DuplicateElimination(Union(ls1, ls2)),
        TemporalDuplicateElimination(TemporalUnion(lt1, lt2)),
        # D1 over a product of an argument whose snapshots may repeat a
        # tuple: coalT and \T then return a row twice.
        DuplicateElimination(CartesianProduct(Coalescing(lt2), plain_dept_t1)),
        DuplicateElimination(CartesianProduct(TemporalDifference(lt2, lt1), plain_dept_t1)),
        # Coalescing rules.
        Coalescing(lt1),
        Coalescing(Coalescing(lt1)),
        Selection(name_filter, Coalescing(lt1)),
        Projection(["Name"], Coalescing(lt1)),
        Coalescing(UnionAll(Coalescing(lt1), Coalescing(lt2))),
        Coalescing(TemporalUnion(Coalescing(lt1), Coalescing(lt2))),
        Coalescing(TemporalUnion(Coalescing(dedup_t1), Coalescing(dedup_t2))),
        Coalescing(TemporalAggregation(["Name"], [count()], Coalescing(lt1))),
        Coalescing(Projection(["Name", "T1", "T2"], Coalescing(dedup_t1))),
        Coalescing(Projection(c9_keep, product)),
        Coalescing(TemporalDifference(dedup_t1, lt2)),
        # Sorting rules.
        Sort(OrderSpec.ascending("Name"), lt1),
        Sort(OrderSpec.ascending("Name"), Sort(OrderSpec.ascending("Name", "T1"), lt1)),
        Sort(OrderSpec.ascending("Name", "T1"), Sort(OrderSpec.ascending("Name"), lt1)),
        Sort(OrderSpec.ascending("Name"), Selection(name_filter, lt1)),
        Sort(OrderSpec.ascending("Name"), Projection(["Name", "T1", "T2"], lt1)),
        Sort(OrderSpec.ascending("Name"), DuplicateElimination(ls1)),
        Sort(OrderSpec.ascending("Name"), Coalescing(lt1)),
        Sort(OrderSpec.ascending("Name"), Difference(ls1, ls2)),
        Sort(OrderSpec.ascending("Name"), TemporalDifference(lt1, lt2)),
        # Conventional selection rules.
        Selection(name_filter, Selection(equals("Name", "Anna"), ls1)),
        Selection(name_filter, Projection(["Name"], ls1)),
        Selection(name_filter, Sort(OrderSpec.ascending("Amount"), ls1)),
        Selection(name_filter, DuplicateElimination(ls1)),
        Selection(name_filter, TemporalDuplicateElimination(lt1)),
        Selection(name_filter, CartesianProduct(ls1, plain_dept)),
        Selection(equals("Dept", "x"), CartesianProduct(ls1, plain_dept)),
        Selection(name_filter, TemporalCartesianProduct(lt1, dept)),
        Selection(equals("Dept", "x"), TemporalCartesianProduct(lt1, dept)),
        Selection(name_filter, UnionAll(ls1, ls2)),
        Selection(name_filter, Union(ls1, ls2)),
        Selection(name_filter, TemporalUnion(lt1, lt2)),
        Selection(name_filter, Difference(ls1, ls2)),
        Selection(name_filter, TemporalDifference(lt1, lt2)),
        Selection(name_filter, Aggregation(["Name"], [count()], ls1)),
        Selection(name_filter, TemporalAggregation(["Name"], [count()], lt1)),
        # Conventional projection / commutativity rules.
        Projection(["Name"], Projection(["Name", "Amount"], ls1)),
        Projection(["Name"], UnionAll(ls1, ls2)),
        CartesianProduct(ls1, plain_dept),
        UnionAll(ls1, ls2),
        Union(ls1, ls2),
        TemporalUnion(lt1, lt2),
        UnionAll(UnionAll(ls1, ls2), ls1),
        # Transfer rules.
        TransferToStratum(TransferToDBMS(lt1)),
        TransferToDBMS(TransferToStratum(lt1)),
        TransferToStratum(Coalescing(lt1)),
        TransferToStratum(Sort(OrderSpec.ascending("Name"), lt1)),
        TransferToStratum(TemporalDifference(lt1, lt2)),
        Selection(name_filter, TransferToStratum(ls1)),
        Sort(OrderSpec.ascending("Name"), TransferToStratum(lt1)),
        Difference(TransferToStratum(ls1), TransferToStratum(ls2)),
    ]
    return plans


def evaluate(plan: Operation) -> Relation:
    return plan.evaluate(CONTEXT)


def preserves_its_equivalence(rule, plan: Operation, evaluated=evaluate) -> Optional[bool]:
    """Does ``rule``'s rewrite of ``plan`` preserve the equivalence it declares?

    ``None`` when the rule does not apply at the root.  Two empty results
    pass at any type; ``evaluated`` may cache the plans' results.
    """
    application = rule.apply(plan)
    if application is None:
        return None
    original, rewritten = evaluated(plan), evaluated(application.replacement)
    return (original.is_empty() and rewritten.is_empty()) or equivalent(
        application.equivalence, original, rewritten
    )


def check_all_rules_on(plans) -> int:
    """Apply every rule to every plan root; verify the declared equivalence."""
    verified = 0
    for rule in DEFAULT_RULES:
        for plan in plans:
            preserved = preserves_its_equivalence(rule, plan)
            if preserved is None:
                continue
            assert preserved, f"rule {rule.name} does not preserve its equivalence on plan {plan}"
            verified += 1
    return verified


def narrow(*rows) -> Relation:
    return Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows)


NO_SNAPSHOT_ROWS = Relation.from_rows(SNAPSHOT_SCHEMA, [])


class TestRuleCatalogueCorrectness:
    @settings(max_examples=40, deadline=None)
    @given(
        narrow_temporal_relations(max_size=5),
        narrow_temporal_relations(max_size=4),
        snapshot_relations(max_size=5),
        snapshot_relations(max_size=4),
    )
    # C6 is ≡L only over arguments without snapshot duplicates: on these two,
    # which pairs coalT merges depends on the arrangement of t2's periods.
    @example(
        narrow(("John", 1, 2)),
        narrow(("John", 1, 2), ("John", 1, 3), ("John", 2, 4)),
        NO_SNAPSHOT_ROWS,
        NO_SNAPSHOT_ROWS,
    )
    @example(
        narrow(("John", 1, 5)),
        narrow(("John", 1, 4), ("John", 5, 6), ("John", 4, 7)),
        NO_SNAPSHOT_ROWS,
        NO_SNAPSHOT_ROWS,
    )
    def test_every_matching_rule_preserves_its_declared_equivalence(self, t1, t2, s1, s2):
        plans = scenarios(t1, t2, s1, s2)
        check_all_rules_on(plans)

    def test_every_rule_matches_at_least_one_scenario(self):
        """Guards against scenarios silently not exercising a rule at all."""
        t1 = Relation.from_rows(
            NARROW_TEMPORAL_SCHEMA,
            [("John", 1, 4), ("John", 3, 6), ("John", 6, 8), ("Anna", 2, 5)],
        )
        t2 = Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 2, 5), ("Mia", 1, 3)])
        s1 = Relation.from_rows(SNAPSHOT_SCHEMA, [("John", 1), ("John", 1), ("Anna", 2)])
        s2 = Relation.from_rows(SNAPSHOT_SCHEMA, [("John", 1), ("Mia", 3)])
        plans = scenarios(t1, t2, s1, s2)
        unmatched = []
        for rule in DEFAULT_RULES:
            if not any(rule.apply(plan) is not None for plan in plans):
                unmatched.append(rule.name)
        # S1 needs an argument with a known order, which the literal-based
        # scenarios only produce through nested sorts; it is exercised there.
        assert unmatched == [], f"rules never exercised: {unmatched}"

    def test_catalogue_is_nonempty_and_named_uniquely(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(names) == len(set(names))
        assert len(names) >= 50
