"""The exploration task stack: rule application per group expression.

Exploration drives the rule catalogue over the memo with an explicit stack
of small tasks, in the Cascades style:

``OptimizeGroup``
    entry point for a group: schedules an ``ExploreGroup`` whenever the
    group changed since it was last visited.

``ExploreGroup``
    schedules, for every expression of the group, one ``ApplyRules`` task
    over the catalogue rules whose declared root admits the expression's
    operator, plus an ``OptimizeInputs`` task.  A rule whose equivalence is
    static and which Figure 5 already refuses on the group's own context is
    left out for good: path ``()`` is involved in every application, and a
    group's context never changes.

``ApplyRules``
    binds each of those rules' patterns against the expression, highest
    :attr:`~repro.core.rules.base.TransformationRule.promise` first, over
    concrete member trees of its child groups — at a child where the
    pattern names an operator type, only the candidates of that type.  Each
    such type-compatible combination counts as an attempt: the rule's
    ``match`` tests its whole pattern and its premises on the shell over
    the trees, and a match gets the same Figure 5
    ``rule_application_allowed`` / involved-properties test the exhaustive
    enumerator performs, its properties walked through the shell and the
    trees (no binding tree is built); an admitted one is built and interned
    back into the expression's group.  A rule whose child groups are
    unchanged since its last completed run is skipped: it could only
    re-enumerate bindings it has already tried.  When a rule schedules new
    expressions, the rest of the rule list is pushed back *beneath* their
    tasks, so they run before the next rule exactly as they would with one
    task per rule.

``OptimizeInputs``
    recurses into the child groups, and performs *context upgrades*: when a
    sibling's newly discovered guarantee weakens the property context a
    child must respect (e.g. the left argument of a temporal difference is
    now known to have duplicate-free snapshots, making duplicates in the
    right argument irrelevant), the child is re-interned under the weaker
    context and a variant expression referencing the relaxed group is added.
    A run that upgraded nothing is stamped like a rule's, and skipped while
    the child groups stay unchanged.

A *sweep* runs the stack to exhaustion; sweeps repeat until the memo stops
changing (new trees discovered in one sweep become binding candidates and
witnesses in the next), so exploration reaches the same closure the
exhaustive enumerator computes — without ever materializing whole plans.
A request's cancellation token is checked before every task and every rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..core.applicability import rule_application_allowed
from ..core.operations import Operation
from ..core.operations.base import PlanPath
from ..core.properties import OperationProperties, child_properties
from ..core.rules.base import RuleIndex, TransformationRule
from .memo import Context, GroupExpression, Memo


def binding_properties(
    shell: Operation,
    trees: Sequence[Operation],
    context: Context,
    paths: Sequence[PlanPath],
) -> Iterator[OperationProperties]:
    """The Table 2 properties at ``paths`` of the binding ``shell(trees)`` at ``context``.

    The memo-side counterpart of :func:`repro.core.applicability.involved_properties`:
    each path is walked through the shell (a step reads no child but the
    first, so ``trees[0]`` stands in for it) and then down the trees, so the
    binding itself is never built.  Paths the binding lacks are skipped, as
    in the original; lazily, so a refusal stops the walk.
    """
    for path in paths:
        if not path:
            yield context
            continue
        index = path[0]
        if index >= len(trees):
            continue
        properties = child_properties(shell, index, context, trees[0])
        node = trees[index]
        for index in path[1:]:
            if index >= len(node.children):
                break
            properties = child_properties(node, index, properties)
            node = node.children[index]
        else:
            yield properties


def refused_by_context(rule: TransformationRule, context: Context) -> bool:
    """Does Figure 5 refuse every application of ``rule`` at a location of ``context``?

    Exact for a rule with a static equivalence: path ``()`` is involved in
    every application, so the location's own properties alone can refuse it.
    """
    return rule.static_equivalence and not rule_application_allowed(rule.equivalence, (context,))


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


#: The child groups' ``(canonical id, generation)``: all a stamped task reads.
Stamp = PyTuple[PyTuple[int, int], ...]


def _stamp(groups) -> Stamp:
    return tuple((group.id, group.generation) for group in groups)


class _Task:
    __slots__ = ()

    def execute(self, state: "ExplorationState") -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(slots=True)
class OptimizeGroup(_Task):
    group_id: int

    def execute(self, state: "ExplorationState") -> None:
        group = state.memo.group(self.group_id)
        if state.visited_generation.get(group.id) == group.generation:
            return
        state.visited_generation[group.id] = group.generation
        state.push(ExploreGroup(group.id))


@dataclass(slots=True)
class ExploreGroup(_Task):
    group_id: int

    def execute(self, state: "ExplorationState") -> None:
        group = state.memo.group(self.group_id)
        for expression in list(group.expressions):
            state.schedule_expression(group.id, expression)


@dataclass(slots=True)
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
        # The upgrade reads only the child groups (the context is fixed):
        # unchanged since a run that upgraded nothing, it upgrades nothing.
        stamp = _stamp([memo.group(child_id) for child_id in expression.children])
        if state.input_stamps.get(expression.id) == stamp:
            return
        # Context upgrade: re-derive the child contexts assuming the most
        # guaranteeing member each child group can provide.  Where that
        # clears a property the original per-tree derivation could not, the
        # child's alternatives remain valid under the weaker context (any
        # member substitutes for any other), so the child group is reseeded
        # there and a variant expression adopts it.  A step reads no child
        # but the first, so only its witness is looked up.
        witness = memo.group(expression.children[0]).witness_or_canonical()
        upgraded_ids: List[int] = []
        changed = False
        for index, child_id in enumerate(expression.children):
            child_group = memo.group(child_id)
            upgraded = child_properties(expression.shell, index, group.context, witness)
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
        if not changed:
            state.input_stamps[expression.id] = stamp
            return
        added = memo.add_expression_parts(
            group.id, expression.source, tuple(upgraded_ids), "context-upgrade"
        )
        if added is not None:
            state.statistics.context_upgrades += 1
            state.schedule_expression(group.id, added)


@dataclass(slots=True)
class ApplyRules(_Task):
    group_id: int
    expression: GroupExpression
    #: ``(catalogue position, rule)`` in firing order (``RuleIndex.matching``).
    rules: PyTuple[PyTuple[int, TransformationRule], ...]
    #: Where in ``rules`` this run starts: a continuation resumes there.
    start: int = 0

    def execute(self, state: "ExplorationState") -> None:
        memo = state.memo
        stack = state.stack
        token = state.token
        expression = self.expression
        rules = self.rules
        below = len(stack)
        mutations = -1
        for index in range(self.start, len(rules)):
            if token is not None:
                token.check()
            if memo.mutations != mutations:
                # A rule's application reads nothing but the child groups
                # (``match`` and ``build`` are pure, the context fixed): the
                # stamp and the candidates hold until the memo changes.
                mutations = memo.mutations
                child_groups = [memo.group(child_id) for child_id in expression.children]
                stamp = _stamp(child_groups)
                candidate_lists = None
            position, rule = rules[index]
            key = (expression.id, position)
            if state.stamps.get(key) == stamp:
                continue
            if candidate_lists is None:
                limit = state.options.max_candidates_per_child
                candidate_lists = [child.binding_candidates(limit) for child in child_groups]
                # Per (child index, operator type): the candidates of that type.
                of_kind: Dict[PyTuple[int, type], List[PyTuple[int, Operation]]] = {}
            lists = candidate_lists
            if rule.child_kinds:
                lists = [
                    candidates if kind is None else _of_kind(of_kind, candidates, child, kind)
                    for child, (candidates, kind) in enumerate(zip(candidate_lists, rule.child_kinds))
                ]
            if not self.apply_rule(state, key, rule, lists):
                return
            state.stamps[key] = stamp
            if len(stack) > below:
                # The rule scheduled new expressions: their tasks run before
                # the next rule, as they would with one task per rule.
                stack.insert(below, ApplyRules(self.group_id, expression, rules, index + 1))
                return

    def apply_rule(
        self,
        state: "ExplorationState",
        key: PyTuple[int, int],
        rule: TransformationRule,
        candidate_lists: List[List[PyTuple[int, Operation]]],
    ) -> bool:
        """Apply ``rule`` to every binding not yet tried; False once the budget is spent."""
        memo = state.memo
        statistics = state.statistics
        options = state.options
        shell = self.expression.shell
        group = memo.group(self.group_id)
        context = group.context
        tried = state.tried.setdefault(key, set())
        combinations = 0
        for combo in itertools.product(*candidate_lists):
            if combinations >= options.max_binding_combinations:
                statistics.bindings_truncated += 1
                break
            combinations += 1
            numbers = tuple([number for number, _ in combo])
            if numbers in tried:
                continue
            tried.add(numbers)
            statistics.applications_attempted += 1
            trees = [tree for _, tree in combo]
            bindings = rule.match(shell, trees)
            if bindings is None:
                continue  # pattern or premises fail
            involved = binding_properties(shell, trees, context, rule.involved)
            if not rule_application_allowed(rule.equivalence_for(bindings), involved):
                statistics.rejected_by_properties += 1
                continue
            if memo.expressions_created >= options.max_expressions:
                statistics.truncated = True
                return False
            added = memo.add_expression(group.id, rule.build(bindings), rule.name)
            if added is not None:
                statistics.applications_succeeded += 1
                statistics.record_use(rule)
                state.schedule_expression(memo.find(group.id), added)
        return True


def _of_kind(
    of_kind: Dict[PyTuple[int, type], List[PyTuple[int, Operation]]],
    candidates: List[PyTuple[int, Operation]],
    child: int,
    kind: type,
) -> List[PyTuple[int, Operation]]:
    """The ``(binding number, tree)`` candidates of ``child`` that are a ``kind``, in order."""
    found = of_kind.get((child, kind))
    if found is None:
        found = of_kind[child, kind] = [pair for pair in candidates if isinstance(pair[1], kind)]
    return found


class ExplorationState:
    """Mutable state shared by the tasks of one exploration run."""

    def __init__(
        self,
        memo: Memo,
        index: RuleIndex,
        options: ExplorationOptions,
        statistics: ExplorationStatistics,
        token=None,
    ) -> None:
        self.memo = memo
        self.index = index
        self.options = options
        self.statistics = statistics
        #: The request's cancellation token, if any.
        self.token = token
        self.stack: List[_Task] = []
        self.visited_generation: Dict[int, int] = {}
        self.scheduled: Set[int] = set()
        # Both per (expression id, rule position): the bindings already
        # applied (each a tuple of its trees' memo-wide binding numbers), and
        # the child groups' stamp at the start of the last *completed* run.
        self.tried: Dict[PyTuple[int, int], Set[PyTuple[int, ...]]] = {}
        self.stamps: Dict[PyTuple[int, int], Stamp] = {}
        #: Per expression id: the stamp of its last ``OptimizeInputs`` run
        #: that upgraded nothing.
        self.input_stamps: Dict[int, Stamp] = {}
        #: Per (operator type, context): the index's rules for the type
        #: that the context does not refuse (:func:`refused_by_context`).
        self.admitted: Dict[PyTuple[type, Context], PyTuple[PyTuple[int, TransformationRule], ...]] = {}

    def push(self, task: _Task) -> None:
        self.stack.append(task)

    def schedule_expression(self, group_id: int, expression: GroupExpression) -> None:
        """Queue the per-expression tasks (once per sweep per expression)."""
        if expression.id in self.scheduled:
            return
        self.scheduled.add(expression.id)
        self.push(OptimizeInputs(group_id, expression))
        rules = self.rules_for(type(expression.shell), self.memo.group(group_id).context)
        if rules:
            # Above ``OptimizeInputs``: the rules are applied first.
            self.push(ApplyRules(group_id, expression, rules))

    def rules_for(
        self, operator_type: type, context: Context
    ) -> PyTuple[PyTuple[int, TransformationRule], ...]:
        """``(catalogue position, rule)`` to apply to an expression of the
        type in a group of the context, in firing order."""
        key = (operator_type, context)
        rules = self.admitted.get(key)
        if rules is None:
            rules = self.admitted[key] = tuple(
                pair
                for pair in self.index.matching(operator_type)
                if not refused_by_context(pair[1], context)
            )
        return rules

    @property
    def truncated(self) -> bool:
        return self.statistics.truncated


def explore(
    memo: Memo,
    root_group: int,
    index: RuleIndex,
    options: Optional[ExplorationOptions] = None,
    token=None,
) -> ExplorationStatistics:
    """Run exploration sweeps until the memo reaches its closure (or a budget).

    Returns the exploration counters; the memo is mutated in place.  A
    cancelled or expired ``token`` raises its typed error from inside the
    run, before the next task or rule.
    """
    options = options or ExplorationOptions()
    statistics = ExplorationStatistics()
    state = ExplorationState(memo, index, options, statistics, token)
    stack = state.stack
    while statistics.sweeps < options.max_sweeps and not state.truncated:
        statistics.sweeps += 1
        mutations_before = memo.mutations
        state.visited_generation.clear()
        state.scheduled.clear()
        state.push(OptimizeGroup(memo.find(root_group)))
        while stack and not state.truncated:
            if token is not None:
                token.check()
            stack.pop().execute(state)
        if memo.mutations == mutations_before:
            break
    return statistics
