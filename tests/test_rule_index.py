"""The rule index and the incremental memo exploration, against their oracle.

The oracle is the same catalogue with every root erased: each rule wrapped
in a root-less :class:`LambdaRule` lands in the index's match-anything
bucket, so all three drivers try it at every operator — which is what they
did before rules declared their roots.  Everything except the count of
attempts must come out identical.
"""

import copy
import dataclasses
import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import enumerate_plans
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
from repro.core.order_spec import OrderSpec
from repro.core.properties import root_properties
from repro.core.query import QueryResultSpec
from repro.core.relation import Relation
from repro.core.rules import (
    CONVENTIONAL_OPERATIONS,
    DEFAULT_RULES,
    Rule,
    RuleApplication,
    RuleIndex,
    TransformationRule,
    rule_index,
    rules_by_name,
)
from repro.search import Memo, MemoSearch
from repro.search.memo import Group, binding_feature
from repro.search.tasks import (
    ApplyRules,
    ExplorationOptions,
    ExplorationState,
    ExplorationStatistics,
    OptimizeGroup,
    OptimizeInputs,
)
from repro.workloads import paper_query
from repro.workloads.queries import WORKLOAD_QUERIES

from .strategies import (
    NARROW_TEMPORAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    conventional_plans,
    join_shaped_plans,
    temporal_shaped_plans,
)
from .test_rules_property_based import scenarios

STATISTICS = {"EMPLOYEE": 60, "PROJECT": 96}


class LambdaRule(TransformationRule):
    """A rule's match and build with no declared root: the index files it
    under every operator type, so the memo and the enumerator try it
    everywhere."""

    def __init__(self, rule: TransformationRule) -> None:
        self.name, self.equivalence, self.promise = rule.name, rule.equivalence, rule.promise
        self.description, self.involved = rule.description, rule.involved
        self.match, self.build, self.equivalence_for = rule.match, rule.build, rule.equivalence_for


def erase_roots(rules):
    """The same rules, tried at every operator (the pre-index behaviour)."""
    return [LambdaRule(rule) for rule in rules]


ERASED_RULES = erase_roots(DEFAULT_RULES)


def fixed_scenarios():
    t1 = Relation.from_rows(
        NARROW_TEMPORAL_SCHEMA, [("John", 1, 4), ("John", 3, 6), ("John", 6, 8), ("Anna", 2, 5)]
    )
    t2 = Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 2, 5), ("Mia", 1, 3)])
    s1 = Relation.from_rows(SNAPSHOT_SCHEMA, [("John", 1), ("John", 1), ("Anna", 2)])
    s2 = Relation.from_rows(SNAPSHOT_SCHEMA, [("John", 1), ("Mia", 3)])
    return scenarios(t1, t2, s1, s2)


#: The operator every rule's hand-written leading ``isinstance`` guard tested
#: on the parent commit, transcribed mechanically from its source.  A
#: declaration narrower than its old guard would silently hide matches from
#: all three drivers; one wider only costs attempts.
PARENT_GUARDS = {
    Coalescing: "C1 C2 C5 C6 C7 C8 C9 C10",
    Selection: (
        "C3 σ-commute σ-below-π σ-below-sort σ-below-rdup σ-below-rdupT σ-into-×-left "
        "σ-into-×-right σ-into-×T-left σ-into-×T-right σ-below-⊔ σ-below-∪ σ-below-∪T "
        "σ-into-\\-left σ-into-\\T-left σ-below-γ σ-below-γT σ×→⋈ σ×T→⋈T"
    ),
    Projection: "C4 π-cascade π-below-⊔",
    CartesianProduct: "×-commute",
    UnionAll: "⊔-commute ⊔-assoc",
    Union: "∪-commute",
    TemporalUnion: "∪T-commute",
    DuplicateElimination: "D1 D3 D5 D-idem",
    TemporalDuplicateElimination: "D2 D4 D6 DT-idem",
    Sort: "S1 S2 S3 S-push-σ S-push-π S-push-rdup S-push-coal S-push-diff S-push-diffT",
    TransferToStratum: "T-roundtrip-SD T-to-stratum",
    TransferToDBMS: "T-roundtrip-DS",
    CONVENTIONAL_OPERATIONS: "T-to-dbms",
}


#: The operator the first hand-written ``isinstance`` test of each rule's
#: rewrite required of the root's first child (``child``/``left``), before
#: that test moved into the declared pattern — transcribed from the rewrites
#: it was deleted from.  Every other rule's pattern has a variable there.
PARENT_CHILD_GUARDS = {
    Coalescing: "C3 C4 S-push-coal",
    UnionAll: "C5 σ-below-⊔ π-below-⊔ ⊔-assoc",
    TemporalUnion: "C6 σ-below-∪T D6",
    TemporalAggregation: "C7 σ-below-γT",
    Projection: "C8 C9 σ-below-π π-cascade S-push-π",
    TemporalDifference: "C10 σ-into-\\T-left S-push-diffT",
    Selection: "σ-commute S-push-σ",
    Sort: "σ-below-sort S3",
    DuplicateElimination: "σ-below-rdup D-idem S-push-rdup",
    TemporalDuplicateElimination: "σ-below-rdupT DT-idem",
    CartesianProduct: "σ-into-×-left σ-into-×-right σ×→⋈",
    TemporalCartesianProduct: "σ-into-×T-left σ-into-×T-right σ×T→⋈T",
    Union: "σ-below-∪ D5",
    Difference: "σ-into-\\-left S-push-diff",
    Aggregation: "σ-below-γ",
    TransferToDBMS: "T-roundtrip-SD",
    TransferToStratum: "T-roundtrip-DS",
}


#: Rules whose premises and build read nothing of the root's parameters:
#: with the root's type erased from the pattern they "match" any operator of
#: that arity (D1 would drop a selection over a duplicate-free input), so for
#: these the declared root *is* the pattern and :data:`PARENT_GUARDS` is the
#: only pin.
ROOT_IS_THE_WHOLE_PATTERN = set(
    "C1 C2 C10 D1 D2 D3 D4 D5 D6 D-idem DT-idem S2 ⊔-commute ∪-commute ∪T-commute "
    "T-roundtrip-DS T-to-stratum T-to-dbms".split()
)


#: Each rule's hand-listed involved paths on the parent commit, by path set
#: (the arity-dependent transfer rules: the union over both arities).
PARENT_INVOLVED = {
    ((), (0,)): "D1 D2 D3 D4 C1 C2 S1 S2",
    ((), (0,), (0, 0)): (
        "T-roundtrip-SD T-roundtrip-DS D-idem DT-idem C3 C4 S3 S-push-σ S-push-π "
        "S-push-rdup S-push-coal σ-commute σ-below-π σ-below-sort σ-below-rdup "
        "σ-below-rdupT σ-below-γ σ-below-γT π-cascade"
    ),
    ((), (0,), (0, 0), (0, 1)): (
        "D5 D6 C10 S-push-diff S-push-diffT σ-into-×-left σ-into-×-right σ-into-×T-left "
        "σ-into-×T-right σ-below-⊔ σ-below-∪ σ-below-∪T σ-into-\\-left σ-into-\\T-left "
        "π-below-⊔ σ×→⋈ σ×T→⋈T T-to-stratum"
    ),
    ((), (0,), (0, 0), (0, 1), (0, 0, 0), (0, 1, 0)): "C5 C6",
    ((), (0,), (0, 0), (0, 0, 0)): "C7 C8",
    ((), (0,), (0, 0), (0, 0, 0), (0, 0, 1)): "C9",
    ((), (0,), (1,)): "×-commute ⊔-commute ∪-commute ∪T-commute T-to-dbms",
    ((), (0,), (1,), (0, 0), (0, 1)): "⊔-assoc",
}


def child_of(rule):
    """The operator the pattern requires of the root's first child
    (``Operation``: a variable there, or a transfer rule's hand-written bind)."""
    pattern = getattr(rule, "pattern", None)
    first = pattern.children[0] if pattern is not None and pattern.children else None
    return (first.kind if first else None) or Operation


def fits_child_pattern(rule, node):
    child = child_of(rule)
    return child is Operation or bool(node.children and isinstance(node.children[0], child))


def erase_root(rule):
    """The rule with its pattern's root type erased: anything of the arity."""
    erased = copy.copy(rule)
    if isinstance(rule, Rule):
        erased.bind = dataclasses.replace(rule.pattern, kind=Operation).binder()
    else:  # a transfer rule tests its root against its declaration
        erased.root = Operation
    return erased


def matches_outside_its_root(rule, node):
    """Does the root-erased pattern fire at a ``node`` the declared root
    excludes (but the declared child pattern admits)?"""
    roots = rule.root if isinstance(rule.root, tuple) else (rule.root,)
    if isinstance(node, roots) or node.arity not in {root.arity for root in roots}:
        return False
    if not fits_child_pattern(rule, node):
        return False
    try:
        return erase_root(rule).apply(node) is not None
    except (AttributeError, KeyError):  # it reads a parameter only its root operator has
        return False


class TestDeclaredRoots:
    def test_every_default_rule_declares_its_parent_guard_as_root(self):
        expected = {name: root for root, names in PARENT_GUARDS.items() for name in names.split()}
        assert {rule.name: rule.root for rule in DEFAULT_RULES} == expected
        assert Operation not in expected.values(), "no default rule matches anything"

    def test_apply_is_match_then_build(self):
        """Root, child, the rest of the pattern and the premises live in
        ``match``; ``build`` may assume all of them."""
        for plan in fixed_scenarios():
            for rule in DEFAULT_RULES:
                bindings = rule.match(plan, plan.children)
                if not isinstance(plan, rule.root) or not fits_child_pattern(rule, plan):
                    assert bindings is None
                if bindings is None:
                    assert rule.apply(plan) is None
                else:
                    assert rule.apply(plan) == RuleApplication(
                        rule.build(bindings), rule.involved, rule.equivalence_for(bindings)
                    )

    def test_every_rule_declares_its_old_child_test_as_its_child_pattern(self):
        expected = {
            name: child for child, names in PARENT_CHILD_GUARDS.items() for name in names.split()
        }
        declared = {rule.name: child_of(rule) for rule in DEFAULT_RULES}
        assert {name: kind for name, kind in declared.items() if kind is not Operation} == expected

    def test_the_root_is_the_patterns_first_level(self):
        declared = [rule for rule in DEFAULT_RULES if isinstance(rule, Rule)]
        assert {rule.name for rule in DEFAULT_RULES} - {rule.name for rule in declared} == {
            "T-to-stratum", "T-to-dbms"
        }, "only the variable-arity transfer rules are classes"
        for rule in declared:
            assert rule.root is rule.pattern.kind

    def test_involved_paths_are_the_parents(self):
        """Derived from each pattern: every node's path, as Figure 5 defines it.

        ``T-to-dbms`` alone differs: its hand-written paths left out the
        variables' roots below its ``TS`` children, which Figure 5 involves;
        no memo or enumeration pin moves with them in."""
        expected = {
            name: paths for paths, names in PARENT_INVOLVED.items() for name in names.split()
        }
        expected["T-to-dbms"] += ((0, 0), (1, 0))
        assert {rule.name: rule.involved for rule in DEFAULT_RULES} == expected
        for rule in DEFAULT_RULES:
            if isinstance(rule, Rule):
                assert set(rule.involved) == set(rule.pattern.paths())

    @settings(max_examples=40, deadline=None)
    @given(join_shaped_plans())
    def test_no_unguarded_rewrite_matches_outside_its_declared_root(self, plan):
        """A too-narrow declaration fails here, whatever PARENT_GUARDS says."""
        for _, node in TransferToStratum(plan).locations():
            for rule in DEFAULT_RULES:
                if rule.name not in ROOT_IS_THE_WHOLE_PATTERN:
                    assert not matches_outside_its_root(rule, node), (rule.name, node)

    def test_only_rules_that_read_nothing_but_children_are_exempt(self):
        plans = fixed_scenarios() + [query.build()[0] for query in WORKLOAD_QUERIES]
        nodes = [node for plan in plans for _, node in plan.locations()]
        outside = {
            rule.name
            for rule in DEFAULT_RULES
            if any(matches_outside_its_root(rule, node) for node in nodes)
        }
        assert outside == ROOT_IS_THE_WHOLE_PATTERN

    @settings(max_examples=40, deadline=None)
    @given(join_shaped_plans())
    def test_the_index_never_hides_a_match(self, plan):
        index = rule_index()
        for _, node in TransferToStratum(plan).locations():
            indexed = {rule.name for _, rule in index.matching(type(node))}
            for rule in DEFAULT_RULES:
                if rule.apply(node) is not None:
                    assert rule.name in indexed


def assert_every_admitted_binding_builds(plans):
    for plan in plans:
        for _, node in plan.locations():
            for rule in DEFAULT_RULES:
                bindings = rule.match(node, node.children)
                if bindings is not None:
                    replacement = rule.build(bindings)
                    assert isinstance(replacement, Operation), (rule.name, node)
                    replacement.output_schema()


class TestBuildOnlyBuilds:
    """Every binding a pattern and its premises admit builds an operation."""

    def test_scenarios_and_registry_plans(self):
        plans = fixed_scenarios() + [query.build()[0] for query in WORKLOAD_QUERIES]
        assert_every_admitted_binding_builds(TransferToStratum(plan) for plan in plans)

    @settings(max_examples=40, deadline=None)
    @given(join_shaped_plans())
    def test_join_shaped_plans(self, plan):
        assert_every_admitted_binding_builds([TransferToStratum(plan)])


class TestRuleIndex:
    def test_matching_is_promise_ordered_and_type_compatible(self):
        index = RuleIndex(DEFAULT_RULES)
        for plan in fixed_scenarios():
            found = index.matching(type(plan))
            assert found is index.matching(type(plan)), "computed once per type"
            promises = [rule.promise for _, rule in found]
            assert promises == sorted(promises, reverse=True)
            for tier in set(promises):
                positions = [p for p, rule in found if rule.promise == tier]
                assert positions == sorted(positions), "catalogue order within a tier"
            assert {rule.name for _, rule in found} == {
                rule.name for rule in DEFAULT_RULES if isinstance(plan, rule.root)
            }
            assert all(DEFAULT_RULES[position] is rule for position, rule in found)

    def test_rootless_rules_land_in_the_match_anything_bucket(self):
        index = RuleIndex(ERASED_RULES)
        for plan in fixed_scenarios():
            assert len(index.matching(type(plan))) == len(ERASED_RULES)

    def test_matches_keeps_rule_major_preorder(self):
        plan, _ = paper_query()
        expected = [
            (rule, location)
            for rule in DEFAULT_RULES
            for location, node in plan.locations()
            if isinstance(node, rule.root)
        ]
        found = rule_index().matches(plan)
        assert [(rule, location) for rule, location, _ in found] == expected
        assert all(plan.subtree_at(location) is node for _, location, node in found)

    def test_rule_index_shares_the_default_and_passes_an_index_through(self):
        assert rule_index() is rule_index(None)
        assert rule_index().rules == DEFAULT_RULES
        custom = RuleIndex(DEFAULT_RULES[:3])
        assert rule_index(custom) is custom
        assert rule_index(list(DEFAULT_RULES[:3])).rules == DEFAULT_RULES[:3]


def memo_fingerprint(result):
    statistics = result.statistics
    return {
        "groups": statistics.groups,
        "keys": set(result.memo._expression_index),
        "rule_usage": statistics.rule_usage,
        "sweeps": statistics.sweeps,
        "context_upgrades": statistics.context_upgrades,
        "merges": statistics.merges,
        "succeeded": statistics.applications_succeeded,
        "rejected": statistics.rejected_by_properties,
        "best_plan": result.best_plan.signature(),
        "best_cost": result.best_cost,
    }


def assert_same_memo(plan, spec, statistics=None):
    declared = MemoSearch().optimize(plan, spec, statistics)
    erased = MemoSearch(rules=ERASED_RULES).optimize(plan, spec, statistics)
    assert memo_fingerprint(declared) == memo_fingerprint(erased)
    return declared, erased


#: ``(applications_attempted, groups, expressions, applications_succeeded,
#: sweeps)`` of the memo search per registry query on the parent commit, before
#: rules declared roots and before the stamps (independent of the statistics
#: and of ``PYTHONHASHSEED``).
PRE_INDEX_MEMO = {
    "paper": (8456, 26, 55, 26, 4),
    "paper-multiset": (26320, 18, 52, 27, 4),
    "paper-set": (25928, 16, 50, 26, 4),
    "double-elimination": (11984, 26, 61, 30, 4),
    "selection": (3248, 16, 33, 17, 5),
    "snapshot-except": (3024, 20, 34, 14, 3),
    "union-all": (1792, 12, 19, 6, 3),
    "temporal-union": (1120, 12, 16, 4, 2),
    "equijoin": (784, 8, 12, 4, 3),
    "temporal-join": (784, 8, 12, 4, 3),
    "join-cascade": (8176, 26, 57, 31, 5),
    "chain-2": (9072, 26, 49, 22, 4),
    "chain-3": (3192, 28, 41, 13, 3),
    "chain-4": (8120, 34, 58, 22, 4),
    "chain-6": (8792, 38, 64, 24, 4),
}


#: ``(applications_attempted, merges)`` of the *declared* catalogue per
#: registry query, recorded on the commit before bindings were identified by
#: number and the analyses memoised on the node: neither may move either one
#: (a tree that changes number in a merge would be attempted again).
DECLARED_MEMO = {
    "paper": (494, 3),
    "paper-multiset": (2130, 7),
    "paper-set": (2264, 8),
    "double-elimination": (616, 5),
    "selection": (496, 0),
    "snapshot-except": (217, 0),
    "union-all": (99, 1),
    "temporal-union": (57, 0),
    "equijoin": (76, 0),
    "temporal-join": (70, 0),
    "join-cascade": (1292, 0),
    "chain-2": (512, 1),
    "chain-3": (191, 0),
    "chain-4": (487, 2),
    "chain-6": (496, 2),
}


class TestMemoOracle:
    @pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda query: query.name)
    def test_registry_query_explores_to_the_same_memo(self, query):
        plan, spec = query.build()
        declared, erased = assert_same_memo(plan, spec, STATISTICS)
        # The erased catalogue *is* the old driver (the stamps skip only runs
        # that would have found every binding already tried), and the
        # declared one closes the same memo in as many sweeps.
        statistics = declared.statistics
        assert (
            erased.statistics.applications_attempted, statistics.groups, statistics.expressions,
            statistics.applications_succeeded, statistics.sweeps,
        ) == PRE_INDEX_MEMO[query.name]
        assert (statistics.applications_attempted, statistics.merges) == DECLARED_MEMO[query.name]

    @settings(max_examples=25, deadline=None)
    @given(join_shaped_plans())
    def test_generated_plan_explores_to_the_same_memo(self, plan):
        declared, erased = assert_same_memo(TransferToStratum(plan), QueryResultSpec.multiset())
        assert (
            declared.statistics.applications_attempted < erased.statistics.applications_attempted
        )

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(conventional_plans(), temporal_shaped_plans()), st.booleans())
    def test_generated_plan_explores_to_the_same_memo_under_list_and_set(self, plan, as_list):
        """Declared roots and child patterns hide nothing under an order or DISTINCT either."""
        spec = (
            QueryResultSpec.list(OrderSpec.ascending(plan.output_schema().attributes[0]))
            if as_list
            else QueryResultSpec.set()
        )
        declared, erased = assert_same_memo(TransferToStratum(plan), spec)
        assert (
            declared.statistics.applications_attempted < erased.statistics.applications_attempted
        )


#: ``(rule tasks executed, bindings built by them)`` per registry query, the
#: search's work by count: on the parent commit, one task per (expression,
#: rule) built a binding for every attempt; with one task per expression and
#: the child patterns tested on the candidate first, ...
ONE_TASK_PER_RULE = {
    "paper": (820, 494),
    "paper-multiset": (1024, 2130),
    "paper-set": (1032, 2264),
    "double-elimination": (892, 616),
    "selection": (1294, 496),
    "snapshot-except": (398, 217),
    "union-all": (156, 99),
    "temporal-union": (92, 57),
    "equijoin": (161, 76),
    "temporal-join": (144, 70),
    "join-cascade": (2262, 1292),
    "chain-2": (588, 512),
    "chain-3": (406, 191),
    "chain-4": (660, 487),
    "chain-6": (684, 496),
}
#: ... the same searches do this much ...
ONE_TASK_PER_EXPRESSION = {
    "paper": (178, 170),
    "paper-multiset": (184, 786),
    "paper-set": (183, 856),
    "double-elimination": (201, 228),
    "selection": (160, 104),
    "snapshot-except": (101, 96),
    "union-all": (57, 54),
    "temporal-union": (32, 23),
    "equijoin": (33, 20),
    "temporal-join": (22, 14),
    "join-cascade": (233, 251),
    "chain-2": (179, 244),
    "chain-3": (112, 70),
    "chain-4": (212, 222),
    "chain-6": (230, 229),
}


#: ... and with each rule's whole pattern and its premises matched on the
#: candidates first, only a match is built as a binding: this many.
MATCHED_BINDINGS = {
    "paper": 102,
    "paper-multiset": 557,
    "paper-set": 627,
    "double-elimination": 149,
    "selection": 59,
    "snapshot-except": 47,
    "union-all": 22,
    "temporal-union": 14,
    "equijoin": 8,
    "temporal-join": 6,
    "join-cascade": 121,
    "chain-2": 163,
    "chain-3": 42,
    "chain-4": 140,
    "chain-6": 147,
}


class TestRuleWork:
    """Fewer rule tasks and fewer bindings built — counted, not timed."""

    @pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda query: query.name)
    def test_rule_tasks_and_bindings_built_per_registry_query(self, query, monkeypatch):
        counts = {"tasks": 0, "bindings": 0}
        execute, with_children = ApplyRules.execute, Operation.with_children

        def counted_execute(task, state):
            counts["tasks"] += 1
            return execute(task, state)

        def counted_with_children(node, children):
            # A binding is the one ``with_children`` the rule task itself
            # calls; rewrites (inside ``rule.apply``) build their own trees.
            if sys._getframe(1).f_code is ApplyRules.apply_rule.__code__:
                counts["bindings"] += 1
            return with_children(node, children)

        monkeypatch.setattr(ApplyRules, "execute", counted_execute)
        monkeypatch.setattr(Operation, "with_children", counted_with_children)
        plan, spec = query.build()
        statistics = MemoSearch().optimize(plan, spec, STATISTICS).statistics
        assert statistics.applications_attempted == DECLARED_MEMO[query.name][0]
        tasks, bindings = ONE_TASK_PER_EXPRESSION[query.name]
        assert (counts["tasks"], counts["bindings"]) == (tasks, MATCHED_BINDINGS[query.name])
        assert counts["bindings"] < bindings
        assert all(
            now < before
            for now, before in zip((tasks, bindings), ONE_TASK_PER_RULE[query.name])
        )


def run_stack(state, root, until=None):
    """One sweep's task loop; returns the last task executed."""
    state.push(OptimizeGroup(state.memo.find(root)))
    task = None
    while state.stack and not state.truncated:
        task = state.stack.pop()
        task.execute(state)
        if until is not None and until(task):
            break
    return task


def exploration_state(options=None, query=paper_query):
    plan, spec = query()
    memo = Memo()
    root = memo.copy_in(plan, root_properties(spec))
    state = ExplorationState(
        memo, rule_index(), options or ExplorationOptions(), ExplorationStatistics()
    )
    return state, root


class TestStamps:
    def test_completed_runs_are_stamped_and_skipped_until_a_child_changes(self, monkeypatch):
        state, root = exploration_state()
        run_stack(state, root)
        task = next(
            ApplyRules(group.id, expression, rules)
            for group in state.memo.groups.values()
            for expression in group.expressions
            if expression.children
            for rules in [state.index.matching(type(expression.shell))]
            if rules and all((expression.id, position) in state.stamps for position, _ in rules)
        )
        keys = [(task.expression.id, position) for position, _ in task.rules]
        reads = []
        original = Group.binding_candidates
        monkeypatch.setattr(
            Group, "binding_candidates",
            lambda group, limit: reads.append(group.id) or original(group, limit),
        )
        attempted = state.statistics.applications_attempted
        task.execute(state)
        assert reads == [], "unchanged stamps skip every rule before it reads anything"

        # A new binding candidate in a child group invalidates the stamps;
        # the rules of one task share one read while the memo stands still.
        child = state.memo.group(task.expression.children[0])
        stamps = [state.stamps[key] for key in keys]
        child.generation += 1
        task.execute(state)
        assert reads == [state.memo.find(c) for c in task.expression.children]
        assert all(state.stamps[key] != stamp for key, stamp in zip(keys, stamps))
        assert state.statistics.applications_attempted == attempted, "nothing new to try"

        # So does a merge that forwards the child to another group.
        stamp = state.stamps[keys[0]]
        other = next(
            group for group in state.memo.groups.values()
            if group.context == child.context and group.id != child.id
        )
        state.memo._merge(other.id, child.id)
        del reads[:]
        task.execute(state)
        assert reads and state.stamps[keys[0]] != stamp
        assert state.stamps[keys[0]][0][0] == other.id

    def test_a_truncated_run_records_no_stamp(self, monkeypatch):
        plan, spec = paper_query()
        seed_expressions = Memo()
        seed_expressions.copy_in(plan, root_properties(spec))
        budget = seed_expressions.expressions_created + 1
        applied = []
        apply_rule = ApplyRules.apply_rule

        def recorded(task, state, key, rule, candidate_lists):
            applied.append(key)
            return apply_rule(task, state, key, rule, candidate_lists)

        monkeypatch.setattr(ApplyRules, "apply_rule", recorded)
        state, root = exploration_state(ExplorationOptions(max_expressions=budget))
        last = run_stack(state, root)
        assert state.truncated and isinstance(last, ApplyRules)
        expression_id, position = applied[-1]  # the rule that ran out of budget
        assert expression_id == last.expression.id
        assert (expression_id, position) not in state.stamps
        positions = [p for p, _ in last.rules]
        later = positions[positions.index(position) + 1:]
        assert not any((expression_id, p) in state.stamps for p in later), "nor ran after it"
        assert state.stamps, "the runs that completed before it are stamped"

    def test_an_unchanged_input_stamp_skips_before_any_witness_is_read(self, monkeypatch):
        state, root = exploration_state()
        run_stack(state, root)
        memo = state.memo
        group, expression = next(
            (group, expression)
            for group in memo.groups.values()
            for expression in group.expressions
            if expression.id in state.input_stamps
        )
        task = OptimizeInputs(group.id, expression)
        reads = []
        original = Group.witness_or_canonical
        monkeypatch.setattr(
            Group, "witness_or_canonical", lambda group: reads.append(group.id) or original(group)
        )
        del state.stack[:]
        task.execute(state)
        assert reads == [], "an unchanged stamp skips the upgrade before it reads a witness"
        # ... but never the recursion into the child groups.
        assert [t.group_id for t in state.stack] == [memo.find(c) for c in expression.children]

        # A merge that forwards the first child re-opens it.
        stamp = state.input_stamps[expression.id]
        child = memo.group(expression.children[0])
        other = next(
            candidate for candidate in memo.groups.values()
            if candidate.context == child.context and candidate.id != child.id
        )
        memo._merge(other.id, child.id)
        task.execute(state)
        assert reads == [other.id]
        assert state.input_stamps[expression.id] != stamp
        assert state.input_stamps[expression.id][0] == (other.id, other.generation)

    def test_a_run_that_upgraded_a_context_records_no_stamp(self, monkeypatch):
        history = LiteralRelation(
            Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 1, 4), ("John", 3, 6)])
        )
        left = Projection(["Name", "T1", "T2"], history)
        plan = TemporalDifference(left, history)
        memo = Memo()
        root = memo.copy_in(plan, root_properties(QueryResultSpec.multiset()))
        state = ExplorationState(memo, rule_index(), ExplorationOptions(), ExplorationStatistics())
        expression = memo.group(root).expressions[0]
        task = OptimizeInputs(root, expression)
        task.execute(state)
        stamp = state.input_stamps[expression.id]
        # The left group learns a member with duplicate-free snapshots, so
        # duplicates in the right argument stop mattering: an upgrade.
        memo.add_expression(expression.children[0], TemporalDuplicateElimination(left), "test")
        task.execute(state)
        assert state.statistics.context_upgrades == 1
        assert state.input_stamps[expression.id] == stamp, "an upgrading run is not stamped"
        reads = []
        original = Group.witness_or_canonical
        monkeypatch.setattr(
            Group, "witness_or_canonical", lambda group: reads.append(group.id) or original(group)
        )
        task.execute(state)
        assert reads, "so the next run is not skipped"


class TestBindingNumbers:
    """A binding is a tuple of memo-wide tree numbers, stable across merges."""

    def explored(self):
        paper_set = next(query for query in WORKLOAD_QUERIES if query.name == "paper-set")
        state, root = exploration_state(query=paper_set.build)
        mutations = -1
        while state.memo.mutations != mutations:  # ``explore``'s loop, state kept
            mutations = state.memo.mutations
            state.visited_generation.clear()
            state.scheduled.clear()
            run_stack(state, root)
        assert state.memo.merges == DECLARED_MEMO["paper-set"][1] > 0
        return state, root

    def test_one_number_per_signature_across_the_whole_memo(self):
        state, _ = self.explored()
        by_number, by_signature = {}, {}
        for group in state.memo.groups.values():
            for number, tree in group.trees.items():
                assert by_number.setdefault(number, tree.signature()) == tree.signature()
                assert by_signature.setdefault(tree.signature(), number) == number
                assert state.memo._binding_numbers[tree] == number
        assert all(
            isinstance(number, int) for tried in state.tried.values()
            for numbers in tried for number in numbers
        )

    def test_a_tree_reinterned_by_a_merge_keeps_its_number(self):
        state, root = self.explored()
        memo = state.memo
        keep, merged = next(
            (a, b)
            for a in memo.groups.values() for b in memo.groups.values()
            if a.id < b.id and a.context == b.context
            and not set(map(binding_feature, b.trees.values())) <= set(a.features)
        )
        moving = {
            number: tree for number, tree in merged.trees.items()
            if binding_feature(tree) not in keep.features
        }
        memo._merge(keep.id, merged.id)
        assert moving and all(keep.trees[number] is tree for number, tree in moving.items())
        assert len(set(keep.trees)) == len({tree.signature() for tree in keep.trees.values()})

    def test_a_closed_memo_with_merges_attempts_nothing_on_another_sweep(self):
        """Every binding of the closure is in ``tried`` under the number it has *now*."""
        state, root = self.explored()
        attempted = state.statistics.applications_attempted
        assert attempted == DECLARED_MEMO["paper-set"][0]
        state.stamps.clear()  # no skipping by stamp: every task enumerates its bindings
        state.visited_generation.clear()
        state.scheduled.clear()
        run_stack(state, root)
        assert state.statistics.applications_attempted == attempted


def plan_digest(plans):
    return hashlib.sha256("\n".join(str(plan) for plan in plans).encode()).hexdigest()[:16]


#: ``(plans, digest of the plans in generation order, applications_attempted)``
#: of ``enumerate_plans`` on the parent commit, per fully enumerable registry
#: query (``paper`` is also the parsed Figure 5 statement's plan).
PRE_INDEX_ENUMERATION = {
    "paper": (126, "d83ef734e3b6b969", 72912),
    "paper-multiset": (165, "853d8cb71e57fff1", 93408),
    "paper-set": (165, "853d8cb71e57fff1", 93408),
    "double-elimination": (296, "0575c6b6db2476cf", 181104),
    "selection": (24, "42df0089efc59ce3", 6720),
    "snapshot-except": (30, "764c3e71c4f39741", 14560),
    "union-all": (12, "f593ae5c1731c3c0", 5152),
    "temporal-union": (6, "91dd7edb74ac6b25", 2576),
    "equijoin": (5, "d6699c18b21fe38a", 1400),
    "temporal-join": (5, "bced721552e90d23", 1400),
    "join-cascade": (106, "45a588973c47a45f", 46592),
    "chain-2": (276, "d08ab818cf1ae408", 230944),
    "chain-3": (68, "954cd51d1a76d5fe", 70112),
    "chain-4": (660, "ac539f5c0b762dbb", 851648),
}


class TestExhaustiveOraclesUnchanged:
    @pytest.mark.parametrize("name", PRE_INDEX_ENUMERATION)
    def test_enumeration_generates_the_same_plans_in_the_same_order(self, name):
        plans, digest, attempted = PRE_INDEX_ENUMERATION[name]
        plan, spec = next(query for query in WORKLOAD_QUERIES if query.name == name).build()
        declared = enumerate_plans(plan, spec)
        assert (len(declared), plan_digest(declared)) == (plans, digest)
        assert declared.statistics.applications_attempted < attempted
        if name == "chain-4":  # 850 000 rule applications: pinned above, not replayed
            return
        erased = enumerate_plans(plan, spec, rules=ERASED_RULES)
        assert erased.statistics.applications_attempted == attempted
        assert [p.signature() for p in erased] == [p.signature() for p in declared]
        assert erased.statistics.rule_usage == declared.statistics.rule_usage
        assert (
            erased.statistics.rejected_by_properties == declared.statistics.rejected_by_properties
        )

    def test_a_catalogue_subset_still_drives_all_three(self):
        """A caller-supplied rule list gets its own index (``rules=[D2]``)."""
        plan, spec = paper_query()
        only_d2 = [rules_by_name()["D2"]]
        assert len(enumerate_plans(plan, spec, rules=only_d2)) == 2
        result = MemoSearch(rules=only_d2).optimize(plan, spec, STATISTICS)
        assert result.statistics.rule_usage == {"D2": 1}
