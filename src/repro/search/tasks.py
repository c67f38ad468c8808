"""The exploration task stack: rule application per group expression.

Exploration drives the rule catalogue over the memo with an explicit stack
of small tasks, in the Cascades style:

``OptimizeGroup``
    entry point for a group: schedules an ``ExploreGroup`` whenever the
    group changed since it was last visited.

``ExploreGroup``
    schedules, for every expression of the group, an ``ApplyRule`` task per
    catalogue rule whose declared root admits the expression's operator —
    highest :attr:`~repro.core.rules.base.TransformationRule.promise` first —
    plus an ``OptimizeInputs`` task.

``ApplyRule``
    binds a rule's pattern against an expression: the expression's shell is
    materialized over concrete member trees of its child groups, the rule's
    ``apply`` runs on each binding, and admitted replacements (per the same
    Figure 5 ``rule_application_allowed`` / involved-properties check the
    exhaustive enumerator performs) are interned back into the expression's
    group.  A task whose child groups are unchanged since its last completed
    run is skipped: it could only re-enumerate bindings it has already tried.

``OptimizeInputs``
    recurses into the child groups, and performs *context upgrades*: when a
    sibling's newly discovered guarantee weakens the property context a
    child must respect (e.g. the left argument of a temporal difference is
    now known to have duplicate-free snapshots, making duplicates in the
    right argument irrelevant), the child is re-interned under the weaker
    context and a variant expression referencing the relaxed group is added.

A *sweep* runs the stack to exhaustion; sweeps repeat until the memo stops
changing (new trees discovered in one sweep become binding candidates and
witnesses in the next), so exploration reaches the same closure the
exhaustive enumerator computes — without ever materializing whole plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from ..core.applicability import rule_application_allowed
from ..core.operations import Operation
from ..core.operations.base import PlanPath
from ..core.properties import OperationProperties, child_properties
from ..core.rules.base import RuleIndex, TransformationRule
from .memo import Context, GroupExpression, Memo


def properties_along_path(
    tree: Operation, context: Context, path: PlanPath
) -> Optional[OperationProperties]:
    """The Table 2 properties at ``path`` of a concrete tree rooted at ``context``."""
    properties = context
    node = tree
    for index in path:
        if index >= len(node.children):
            return None
        properties = child_properties(node, index, properties)
        node = node.children[index]
    return properties


def involved_properties_for_binding(
    tree: Operation, context: Context, involved: Sequence[PlanPath]
) -> List[OperationProperties]:
    """Properties of the operations a rule application involves.

    The memo-side counterpart of :func:`repro.core.applicability.involved_properties`:
    the location's context plays the role of the plan-wide property map, and
    paths outside the binding are ignored defensively, as in the original.
    """
    found = []
    for path in involved:
        properties = properties_along_path(tree, context, path)
        if properties is not None:
            found.append(properties)
    return found


def _weakens(new: OperationProperties, old: OperationProperties) -> bool:
    """True if ``new`` requires strictly less than ``old`` (clears properties)."""
    return (
        new != old
        and new.order_required <= old.order_required
        and new.duplicates_relevant <= old.duplicates_relevant
        and new.period_preserving <= old.period_preserving
    )


@dataclass
class ExplorationStatistics:
    """Counters the exploration phase contributes to ``SearchStatistics``."""

    applications_attempted: int = 0
    applications_succeeded: int = 0
    rejected_by_properties: int = 0
    bindings_truncated: int = 0
    context_upgrades: int = 0
    sweeps: int = 0
    truncated: bool = False
    rule_usage: Dict[str, int] = field(default_factory=dict)

    def record_use(self, rule: TransformationRule) -> None:
        self.rule_usage[rule.name] = self.rule_usage.get(rule.name, 0) + 1


@dataclass
class ExplorationOptions:
    """Budgets bounding one exploration run."""

    max_expressions: int = 20000
    max_sweeps: int = 10
    max_candidates_per_child: int = 24
    max_binding_combinations: int = 256
    max_context_seeds: int = 24


class _Task:
    def execute(self, state: "ExplorationState") -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class OptimizeGroup(_Task):
    group_id: int

    def execute(self, state: "ExplorationState") -> None:
        group = state.memo.group(self.group_id)
        if state.visited_generation.get(group.id) == group.generation:
            return
        state.visited_generation[group.id] = group.generation
        state.push(ExploreGroup(group.id))


@dataclass
class ExploreGroup(_Task):
    group_id: int

    def execute(self, state: "ExplorationState") -> None:
        group = state.memo.group(self.group_id)
        for expression in list(group.expressions):
            state.schedule_expression(group.id, expression)


@dataclass
class OptimizeInputs(_Task):
    group_id: int
    expression: GroupExpression

    def execute(self, state: "ExplorationState") -> None:
        memo = state.memo
        group = memo.group(self.group_id)
        expression = self.expression
        for child_id in expression.children:
            state.push(OptimizeGroup(memo.find(child_id)))
        if not expression.children:
            return
        # Context upgrade: re-derive the child contexts assuming the most
        # guaranteeing member each child group can provide.  Where that
        # clears a property the original per-tree derivation could not, the
        # child's alternatives remain valid under the weaker context (any
        # member substitutes for any other), so the child group is reseeded
        # there and a variant expression adopts it.
        witness_children = [
            memo.group(child_id).witness_or_canonical() for child_id in expression.children
        ]
        witness_tree = expression.shell.with_children(witness_children)
        upgraded_ids: List[int] = []
        changed = False
        for index, child_id in enumerate(expression.children):
            child_group = memo.group(child_id)
            upgraded = child_properties(witness_tree, index, group.context)
            if _weakens(upgraded, child_group.context):
                seeds = list(child_group.trees.values())[: state.options.max_context_seeds]
                # All seeds are mutually substitutable, so they belong to ONE
                # group under the weaker context: intern the first, then fold
                # the rest in as expressions of that same group (merging any
                # group copy_in would otherwise scatter them into).
                new_id = memo.copy_in(seeds[0], upgraded)
                for seed in seeds[1:]:
                    memo.add_expression(new_id, seed, "context-upgrade")
                upgraded_ids.append(memo.find(new_id))
                changed = True
            else:
                upgraded_ids.append(child_group.id)
        if changed:
            added = memo.add_expression_parts(
                group.id, expression.source, tuple(upgraded_ids), "context-upgrade"
            )
            if added is not None:
                state.statistics.context_upgrades += 1
                state.schedule_expression(group.id, added)


@dataclass
class ApplyRule(_Task):
    group_id: int
    expression: GroupExpression
    position: int
    rule: TransformationRule

    def execute(self, state: "ExplorationState") -> None:
        memo = state.memo
        statistics = state.statistics
        options = state.options
        expression = self.expression
        rule = self.rule
        key = (expression.id, self.position)
        child_groups = [memo.group(child_id) for child_id in expression.children]
        # All this task reads of the memo (apply is pure, the context fixed):
        # unchanged since its last completed run, every binding is in ``tried``.
        stamp = tuple((child.id, child.generation) for child in child_groups)
        if state.stamps.get(key) == stamp:
            return
        group = memo.group(self.group_id)
        candidate_lists = [
            child.binding_candidates(options.max_candidates_per_child)
            for child in child_groups
        ]
        tried = state.tried.setdefault(key, set())
        combinations = 0
        for combo in itertools.product(*candidate_lists):
            if combinations >= options.max_binding_combinations:
                statistics.bindings_truncated += 1
                break
            combinations += 1
            numbers = tuple(number for number, _ in combo)
            if numbers in tried:
                continue
            tried.add(numbers)
            binding = (
                expression.shell.with_children([tree for _, tree in combo])
                if combo
                else expression.shell
            )
            statistics.applications_attempted += 1
            application = rule.apply(binding)
            if application is None:
                continue
            equivalence = application.equivalence or rule.equivalence
            involved = involved_properties_for_binding(
                binding, group.context, application.involved
            )
            if not rule_application_allowed(equivalence, involved):
                statistics.rejected_by_properties += 1
                continue
            if memo.expressions_created >= options.max_expressions:
                statistics.truncated = True
                return
            added = memo.add_expression(group.id, application.replacement, rule.name)
            if added is not None:
                statistics.applications_succeeded += 1
                statistics.record_use(rule)
                state.schedule_expression(memo.find(group.id), added)
        state.stamps[key] = stamp


class ExplorationState:
    """Mutable state shared by the tasks of one exploration run."""

    def __init__(
        self,
        memo: Memo,
        index: RuleIndex,
        options: ExplorationOptions,
        statistics: ExplorationStatistics,
    ) -> None:
        self.memo = memo
        self.index = index
        self.options = options
        self.statistics = statistics
        self.stack: List[_Task] = []
        self.visited_generation: Dict[int, int] = {}
        self.scheduled: Set[int] = set()
        # Both per (expression id, rule position): the bindings already
        # applied (each a tuple of its trees' memo-wide binding numbers), and
        # the child groups' ``(canonical id, generation)`` at the start of the
        # last *completed* run.
        self.tried: Dict[PyTuple[int, int], Set[PyTuple[int, ...]]] = {}
        self.stamps: Dict[PyTuple[int, int], PyTuple] = {}

    def push(self, task: _Task) -> None:
        self.stack.append(task)

    def schedule_expression(self, group_id: int, expression: GroupExpression) -> None:
        """Queue the per-expression tasks (once per sweep per expression)."""
        if expression.id in self.scheduled:
            return
        self.scheduled.add(expression.id)
        self.push(OptimizeInputs(group_id, expression))
        # Pushed in reverse so the highest-promise rule is applied first.
        for position, rule in reversed(self.index.matching(type(expression.shell))):
            self.push(ApplyRule(group_id, expression, position, rule))

    @property
    def truncated(self) -> bool:
        return self.statistics.truncated


def explore(
    memo: Memo,
    root_group: int,
    index: RuleIndex,
    options: Optional[ExplorationOptions] = None,
) -> ExplorationStatistics:
    """Run exploration sweeps until the memo reaches its closure (or a budget).

    Returns the exploration counters; the memo is mutated in place.
    """
    options = options or ExplorationOptions()
    statistics = ExplorationStatistics()
    state = ExplorationState(memo, index, options, statistics)
    while statistics.sweeps < options.max_sweeps and not state.truncated:
        statistics.sweeps += 1
        mutations_before = memo.mutations
        state.visited_generation.clear()
        state.scheduled.clear()
        state.push(OptimizeGroup(memo.find(root_group)))
        while state.stack and not state.truncated:
            state.stack.pop().execute(state)
        if memo.mutations == mutations_before:
            break
    return statistics
