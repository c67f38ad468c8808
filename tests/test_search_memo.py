"""Unit tests for the memo table and the task-driven exploration."""

from collections import Counter

import pytest

import repro.search.search as search_module
from repro.core.cost import CostModel
from repro.core.lowering import STRATUM_ENGINE
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    Projection,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.properties import root_properties
from repro.core.query import QueryResultSpec
from repro.core.rules import DEFAULT_RULES, RuleIndex, rules_by_name
from repro.search import Memo, MemoSearch, SearchStatistics
from repro.search.memo import binding_feature
from repro.search.tasks import explore
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, paper_query
from repro.workloads.queries import WORKLOAD_QUERIES

LIST_QUERY = QueryResultSpec.list(OrderSpec.ascending("EmpName"), distinct=True)


def employee_names():
    return Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))


def project_names():
    return Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))


class TestMemoInterning:
    def test_identical_subtrees_share_one_group(self):
        memo = Memo()
        context = root_properties(QueryResultSpec.multiset())
        first = memo.copy_in(employee_names(), context)
        second = memo.copy_in(employee_names(), context)
        assert first == second

    def test_interning_is_recursive(self):
        memo = Memo()
        context = root_properties(QueryResultSpec.multiset())
        memo.copy_in(TemporalDifference(employee_names(), project_names()), context)
        # Groups: difference, two projections, two base relations — the two
        # projection shapes differ (EMPLOYEE vs PROJECT), so nothing merges.
        assert len(memo.groups) == 5

    def test_contexts_separate_groups(self):
        memo = Memo()
        plan = TemporalDuplicateElimination(employee_names())
        context = root_properties(LIST_QUERY)
        memo.copy_in(plan, context)
        # The projection below the rdupT lives in a duplicates-irrelevant
        # context; interning the same subtree at root context adds groups.
        before = len(memo.groups)
        memo.copy_in(employee_names(), context)
        assert len(memo.groups) > before

    def test_witnesses_recorded(self):
        memo = Memo()
        context = root_properties(LIST_QUERY)
        root_id = memo.copy_in(TemporalDuplicateElimination(employee_names()), context)
        root_group = memo.group(root_id)
        assert root_group.no_snapshot_duplicates_witness is not None
        assert root_group.no_duplicates_witness is not None  # rdupT eliminates
        child_group = memo.group(root_group.expressions[0].children[0])
        assert child_group.no_duplicates_witness is None  # π over a base relation
        assert child_group.no_snapshot_duplicates_witness is None

    def test_rewrite_lands_in_the_same_group(self):
        memo = Memo()
        plan = TemporalDuplicateElimination(TemporalDuplicateElimination(employee_names()))
        context = root_properties(LIST_QUERY)
        root = memo.copy_in(plan, context)
        explore(memo, root, RuleIndex([rules_by_name()["DT-idem"]]))
        group = memo.group(root)
        assert len(group.expressions) == 2
        shells = {type(expression.shell).__name__ for expression in group.expressions}
        assert shells == {"TemporalDuplicateElimination"}

    def test_binding_feature_distinguishes_guarantees(self):
        plain = employee_names()
        deduplicated = TemporalDuplicateElimination(plain)
        assert binding_feature(plain) != binding_feature(deduplicated)


class TestExplorationSharing:
    def test_shared_subplan_rewritten_once(self):
        plan, spec = paper_query()
        result = MemoSearch().optimize(plan, spec, {"EMPLOYEE": 5, "PROJECT": 8})
        statistics = result.statistics
        # The memo considers far fewer fragments than the exhaustive space
        # holds plans (126 for this query), yet finds its minimum cost.
        assert statistics.plans_considered < 126
        assert statistics.groups > 5
        assert statistics.applications_succeeded > 0
        assert not statistics.truncated

    def test_statistics_mirror_enumeration_statistics(self):
        plan, spec = paper_query()
        result = MemoSearch().optimize(plan, spec, {"EMPLOYEE": 5, "PROJECT": 8})
        statistics = result.statistics
        assert statistics.applications_attempted >= statistics.applications_succeeded
        assert statistics.rejected_by_properties > 0
        assert statistics.rule_usage
        assert statistics.sweeps >= 1

    def test_rule_order_does_not_change_the_best_cost(self):
        plan, spec = paper_query()
        stats = {"EMPLOYEE": 5, "PROJECT": 8}
        forward = MemoSearch(rules=list(DEFAULT_RULES)).optimize(plan, spec, stats)
        backward = MemoSearch(rules=list(reversed(DEFAULT_RULES))).optimize(plan, spec, stats)
        assert forward.best_cost.total == backward.best_cost.total

    def test_truncation_budget_respected(self):
        from repro.search import SearchOptions

        plan, spec = paper_query()
        result = MemoSearch(options=SearchOptions(max_expressions=12)).optimize(
            plan, spec, {"EMPLOYEE": 5, "PROJECT": 8}
        )
        assert result.statistics.truncated
        # A truncated search still returns a valid plan, no worse than the seed.
        seed_result = MemoSearch(rules=[]).optimize(plan, spec, {"EMPLOYEE": 5, "PROJECT": 8})
        assert result.best_cost.total <= seed_result.best_cost.total


class TestSearchDeterminism:
    def test_same_inputs_same_plan(self):
        plan, spec = paper_query()
        stats = {"EMPLOYEE": 5, "PROJECT": 8}
        first = MemoSearch().optimize(plan, spec, stats)
        second = MemoSearch().optimize(plan, spec, stats)
        assert first.best_plan == second.best_plan
        assert first.best_cost.total == second.best_cost.total


STATISTICS = {"EMPLOYEE": 60, "PROJECT": 96}


def extracted(query):
    """An extractor run over the query's explored memo, as ``extract`` runs one."""
    plan, spec = query.build()
    exploration = MemoSearch().explore(plan, spec)
    extractor = search_module._Extractor(
        exploration.memo, STATISTICS, CostModel(), SearchStatistics(), float("inf")
    )
    extractor.frontier(exploration.root, STRATUM_ENGINE)
    return exploration, extractor


class TestTheExtractorComputesOnce:
    @pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda query: query.name)
    def test_a_remembered_bound_is_what_asking_again_computes(self, query):
        """Only a bound no cycle cut reached is remembered, so none is stale."""
        exploration, extractor = extracted(query)
        remembered = dict(extractor._expression_bounds)
        expressions = {
            expression.id: expression
            for group in exploration.memo.groups.values()
            for expression in group.expressions
        }
        assert remembered
        for expression_id, bound in remembered.items():
            del extractor._expression_bounds[expression_id]
            assert extractor.bounds_for(expressions[expression_id]) == bound

    @pytest.mark.parametrize("query", WORKLOAD_QUERIES, ids=lambda query: query.name)
    def test_each_estimate_is_computed_once_per_input_cardinalities(self, query, monkeypatch):
        seen = []
        real = search_module.operator_cardinality

        def counted(node, cards, *args, **kwargs):
            seen.append((id(node), tuple(cards)))
            return real(node, cards, *args, **kwargs)

        monkeypatch.setattr(search_module, "operator_cardinality", counted)
        exploration, _ = extracted(query)
        # A tree interned under two contexts is the shell of two expressions.
        shells = Counter(
            id(expression.shell)
            for group in exploration.memo.groups.values()
            for expression in group.expressions
        )
        assert seen
        assert all(calls <= shells[key[0]] for key, calls in Counter(seen).items())
