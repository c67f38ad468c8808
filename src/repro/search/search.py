"""Cost-guided best-plan extraction over the memo (branch and bound).

After exploration has closed the memo over the rule catalogue, the cheapest
plan is extracted *without materializing the plan space*: a dynamic program
walks the AND/OR graph bottom-up, computing per ``(group, engine)`` a
frontier holding, for every achievable output-cardinality estimate, the
cheapest ``(cost, cardinality)`` alternative.  A parent's cost depends on
its children only through their costs (additively) and their cardinality
estimates, so per-cardinality minimization is exact — the minimum cost at
the root equals the minimum of :func:`repro.core.cost.estimate_cost` over
every plan the memo represents.  (Plain cost-dominance would not be: the
conventional difference's cardinality estimate *decreases* in its right
input, so a pricier, larger-cardinality alternative can still win upstream.)

Two admissible bounds prune the extraction:

* an **upper bound** — the seed plan's own cost: any fragment already more
  expensive than the whole seed plan cannot occur in a better plan (operator
  work is non-negative), so its frontier entry is dropped;
* a cheap per-group cost **lower bound** — each operator's work at its
  cheapest engine placement (work formula *and* engine factor: the join
  idiom nodes price differently per engine) over lower-bounded input
  cardinalities (operator work is monotone in its inputs even where the
  cardinality estimate is not): an expression whose bound already exceeds
  the upper bound is cut without ever combining its children.

A search is two pure steps (:meth:`MemoSearch.optimize` is their
composition): :meth:`MemoSearch.explore` builds the memo and reads no
statistics — the plan space depends only on the query and its result
specification — and :meth:`MemoSearch.extract` makes the choice above and
only reads the memo.  An :class:`Exploration` can therefore be kept (an
:class:`ExplorationStore`) and re-costed whenever the statistics move.

``SearchStatistics`` mirrors ``EnumerationStatistics``; its
``plans_considered`` counts the plan alternatives the search actually
examined — the seed plan plus one per group expression derived during
exploration — which the perf benchmark compares against the exhaustive
enumerator's count on workloads where the latter truncates.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Set,
    Tuple as PyTuple,
    Union,
)

from ..core.cost import (
    CostModel,
    PlanCost,
    estimate_cost,
    minimal_operator_work,
    operator_cardinality,
    operator_work,
)
from ..core.lowering import STRATUM_ENGINE, Engine, child_engine, physical_choice
from ..core.operations import Difference, Operation
from ..core.properties import root_properties
from ..core.query import QueryResultSpec
from ..core.rules import RuleIndex, TransformationRule, rule_index
from .enforcers import ensure_output_properties
from .memo import Group, GroupExpression, Memo
from .tasks import ExplorationOptions, ExplorationStatistics, explore


@dataclass
class SearchStatistics:
    """Bookkeeping about one memo-search run (cf. ``EnumerationStatistics``)."""

    groups: int = 0
    expressions: int = 0
    initial_expressions: int = 0
    plans_considered: int = 0
    applications_attempted: int = 0
    applications_succeeded: int = 0
    rejected_by_properties: int = 0
    #: Rule runs that stopped at ``max_binding_combinations``.
    bindings_truncated: int = 0
    rule_usage: Dict[str, int] = field(default_factory=dict)
    truncated: bool = False
    sweeps: int = 0
    context_upgrades: int = 0
    merges: int = 0
    expressions_pruned: int = 0
    frontier_entries: int = 0
    #: The explored memo came from an :class:`ExplorationStore` — every
    #: counter above ``expressions_pruned`` is then the storing search's,
    #: which is what a fresh exploration would have counted.
    exploration_reused: bool = False

    def absorb(self, exploration: ExplorationStatistics) -> None:
        self.applications_attempted = exploration.applications_attempted
        self.applications_succeeded = exploration.applications_succeeded
        self.rejected_by_properties = exploration.rejected_by_properties
        self.bindings_truncated = exploration.bindings_truncated
        self.rule_usage = dict(exploration.rule_usage)
        self.truncated = exploration.truncated
        self.sweeps = exploration.sweeps
        self.context_upgrades = exploration.context_upgrades

    def as_span_attributes(self) -> Dict[str, object]:
        """The counters as flat attributes for a request trace's optimize span.

        ``memo.tasks`` counts the rule applications attempted — the memo
        search's unit of work, the analogue of Cascades' task count.  Only
        type-compatible rules are ever tried (the rule index), over
        candidates of the types their patterns name, and never a rule the
        group's context refuses, so it counts real match attempts, once per
        ``rule.match`` call.
        """
        return {
            "memo.groups": self.groups,
            "memo.expressions": self.expressions,
            "memo.tasks": self.applications_attempted,
            "memo.tasks_succeeded": self.applications_succeeded,
            "memo.plans_considered": self.plans_considered,
            "memo.sweeps": self.sweeps,
            "memo.rule_firings": sum(self.rule_usage.values()),
            "memo.truncated": self.truncated,
            "memo.exploration_reused": self.exploration_reused,
        }


@dataclass
class SearchOptions:
    """Budgets and knobs for one search run."""

    max_expressions: int = 20000
    max_sweeps: int = 10
    max_candidates_per_child: int = 24
    max_binding_combinations: int = 256
    max_context_seeds: int = 24
    #: Safety margin multiplied onto the upper bound before pruning, so
    #: floating-point summation-order differences never cut the optimum.
    upper_bound_slack: float = 1.0 + 1e-9

    def exploration_options(self) -> ExplorationOptions:
        return ExplorationOptions(
            max_expressions=self.max_expressions,
            max_sweeps=self.max_sweeps,
            max_candidates_per_child=self.max_candidates_per_child,
            max_binding_combinations=self.max_binding_combinations,
            max_context_seeds=self.max_context_seeds,
        )


@dataclass
class SearchResult:
    """The outcome of one memo-search run."""

    initial_plan: Operation
    best_plan: Operation
    best_cost: PlanCost
    statistics: SearchStatistics
    memo: Memo
    #: Rule names that derived the chosen plan's expressions (with
    #: multiplicity, pre-order); empty when the seed plan itself won.
    rules_applied: PyTuple[str, ...] = ()


@dataclass(frozen=True)
class Exploration:
    """A memo closed over the rule catalogue: the part of a search that reads no statistics.

    A function of the rule index, the exploration budgets, the root property
    context and the seed plan — the key :meth:`MemoSearch.explore` stores it
    under.  **Frozen**: once ``explore`` has returned nothing writes the memo
    again, so any number of extractions (other epochs, other workers, other
    snapshots) may read one exploration at the same time.
    """

    initial_plan: Operation
    #: ``initial_plan`` under the output enforcers its query needs.
    seed: Operation
    memo: Memo
    root: int
    #: The exploration's counters; each extraction fills in a copy.
    statistics: SearchStatistics
    #: Served from a store instead of explored by this search.
    reused: bool = False


class ExplorationStore(Protocol):
    """Where a search may look up and leave explorations (the session's plan cache)."""

    def exploration(self, key: Hashable) -> Optional[Exploration]: ...

    def remember_exploration(self, key: Hashable, exploration: Exploration) -> None: ...


@dataclass
class _Entry:
    """One Pareto-frontier alternative of a ``(group, engine)`` pair."""

    cost: float
    cardinality: float
    expression: GroupExpression
    children: PyTuple["_Entry", ...]

    def build(self) -> Operation:
        return self.expression.shell.with_children(
            [child.build() for child in self.children]
        )

    def rules(self) -> List[str]:
        """Names of the rules that derived the expressions of this plan.

        Pre-order over the entry tree; expressions interned directly from
        the seed plan (``rule_name is None``) contribute nothing.  This is
        the chosen plan's *provenance* — the part of the catalogue that
        actually produced it — surfaced by ``EXPLAIN``.
        """
        names: List[str] = []
        if self.expression.rule_name is not None:
            names.append(self.expression.rule_name)
        for child in self.children:
            names.extend(child.rules())
        return names


class _Extractor:
    """Bottom-up per-cardinality DP over the memo with branch-and-bound."""

    def __init__(
        self,
        memo: Memo,
        statistics_map: Mapping[str, int],
        model: CostModel,
        search_statistics: SearchStatistics,
        upper_bound: float,
        estimator=None,
    ) -> None:
        self.memo = memo
        self.statistics_map = statistics_map
        self.model = model
        self.estimator = estimator
        self.stats = search_statistics
        self.upper_bound = upper_bound
        self._frontiers: Dict[PyTuple[int, Engine], List[_Entry]] = {}
        self._bounds: Dict[int, PyTuple[float, float]] = {}
        #: Per expression id, ``bounds_for`` as computed with no child group's
        #: bound in progress (see there).
        self._expression_bounds: Dict[int, PyTuple[float, float]] = {}
        self._bounds_on_stack: Set[int] = set()
        #: Per group id: its expressions ranked by lower bound (``ranked``).
        self._ranked: Dict[int, List[PyTuple[PyTuple[float, float], GroupExpression]]] = {}
        self._cycle_cuts = 0
        #: Per (expression id, input cardinalities): the output estimate; per
        #: (expression id, engine, input cardinalities): with the work.  The
        #: bounds and every frontier combination of every engine ask again.
        self._outputs: Dict[PyTuple, float] = {}
        self._costs: Dict[PyTuple, PyTuple[float, float]] = {}

    # -- per-operator estimates ---------------------------------------------------

    def output(self, expression: GroupExpression, cards: PyTuple[float, ...]) -> float:
        """The expression's output-cardinality estimate over ``cards``."""
        key = (expression.id, cards)
        output = self._outputs.get(key)
        if output is None:
            output = self._outputs[key] = operator_cardinality(
                expression.shell, cards, self.statistics_map, self.model,
                estimator=self.estimator,
            )
        return output

    def costed(
        self, expression: GroupExpression, engine: Engine, cards: PyTuple[float, ...]
    ) -> PyTuple[float, float]:
        """``(output estimate, work)`` of the expression run by ``engine`` over ``cards``."""
        key = (expression.id, engine, cards)
        found = self._costs.get(key)
        if found is None:
            output = self.output(expression, cards)
            found = self._costs[key] = (
                output, operator_work(expression.shell, cards, output, engine, self.model)
            )
        return found

    # -- admissible lower bounds ------------------------------------------------

    def bounds(self, group_id: int) -> PyTuple[float, float]:
        """``(cost, cardinality)`` lower bounds over all plans of a group."""
        group_id = self.memo.find(group_id)
        cached = self._bounds.get(group_id)
        if cached is not None:
            return cached
        if group_id in self._bounds_on_stack:
            return (0.0, 0.0)
        self._bounds_on_stack.add(group_id)
        best_cost = float("inf")
        best_card = float("inf")
        for expression in self.memo.group(group_id).expressions:
            cost, card = self.bounds_for(expression)
            best_cost = min(best_cost, cost)
            best_card = min(best_card, card)
        self._bounds_on_stack.discard(group_id)
        result = (best_cost, best_card)
        self._bounds[group_id] = result
        return result

    def bounds_for(self, expression: GroupExpression) -> PyTuple[float, float]:
        """``(cost, cardinality)`` lower bounds over the expression's plans.

        Pure for fixed statistics, and asked by its group's bound and once
        per ``(group, engine)`` frontier, so remembered per expression — but
        only a value computed with none of its child groups' bounds in
        progress: such a child answers the cycle cut's ``(0, 0)``.  A
        remembered value is right anywhere, since computing it left every
        child group's bound cached.
        """
        cached = self._expression_bounds.get(expression.id)
        if cached is not None:
            return cached
        find, on_stack = self.memo.find, self._bounds_on_stack
        cut = any(find(child) in on_stack for child in expression.children)
        child_bounds = [self.bounds(child) for child in expression.children]
        child_cost = sum(bound[0] for bound in child_bounds)
        child_cards = tuple(bound[1] for bound in child_bounds)
        output = self.output(expression, child_cards)
        # Operator *work* is monotone in the input cardinalities even where
        # the cardinality estimate is not, so under-estimated inputs give an
        # admissible work bound.  The output estimate itself is only a valid
        # lower bound for monotone estimators — the conventional difference
        # shrinks with its right input, so its bound degrades to zero.
        # The work bound minimises over both engine placements, which for
        # the join idiom nodes also minimises over the per-engine *work*
        # formulas (the stratum's interval join and the DBMS's emulated
        # product bound are not related by a constant factor).
        card = 0.0 if isinstance(expression.shell, Difference) else output
        work = minimal_operator_work(
            expression.shell, child_cards, output, self.model
        )
        result = (child_cost + work, card)
        if not cut:
            self._expression_bounds[expression.id] = result
        return result

    # -- frontiers ---------------------------------------------------------------

    def ranked(self, group_id: int) -> List[PyTuple[PyTuple[float, float], GroupExpression]]:
        """The group's expressions by lower bound, cheapest first: once per
        group, for every engine's frontier (no bound is in progress here, so
        each ``bounds_for`` is the remembered one)."""
        ranked = self._ranked.get(group_id)
        if ranked is None:
            ranked = self._ranked[group_id] = sorted(
                (
                    (self.bounds_for(expression), expression)
                    for expression in self.memo.group(group_id).expressions
                ),
                key=lambda pair: (pair[0], pair[1].id),
            )
        return ranked

    def frontier(
        self, group_id: int, engine: Engine, on_stack: Optional[Set[PyTuple[int, Engine]]] = None
    ) -> List[_Entry]:
        group_id = self.memo.find(group_id)
        key = (group_id, engine)
        cached = self._frontiers.get(key)
        if cached is not None:
            return cached
        on_stack = on_stack if on_stack is not None else set()
        if key in on_stack:
            # A recursive reference (possible after group merges) stands for
            # plans that contain themselves; no finite plan comes from it.
            self._cycle_cuts += 1
            return []
        on_stack.add(key)
        cuts_before = self._cycle_cuts
        best_by_card: Dict[float, _Entry] = {}
        for (bound_cost, _), expression in self.ranked(group_id):
            if bound_cost > self.upper_bound:
                self.stats.expressions_pruned += 1
                continue
            below = child_engine(expression.shell, engine)
            child_frontiers = [
                self.frontier(child, below, on_stack)
                for child in expression.children
            ]
            if any(not frontier for frontier in child_frontiers):
                continue
            for combo in _combinations(child_frontiers):
                output, work = self.costed(
                    expression, engine, tuple(entry.cardinality for entry in combo)
                )
                cost = sum(entry.cost for entry in combo) + work
                if cost > self.upper_bound:
                    continue
                holder = best_by_card.get(output)
                if holder is None or cost < holder.cost:
                    best_by_card[output] = _Entry(cost, output, expression, tuple(combo))
        entries = sorted(
            best_by_card.values(),
            key=lambda entry: (entry.cost, entry.cardinality, entry.expression.id),
        )
        on_stack.discard(key)
        # A frontier computed across a cycle cut is incomplete for contexts
        # where the cut group is *not* an ancestor — recompute there instead
        # of caching the truncated result.
        if self._cycle_cuts == cuts_before:
            self._frontiers[key] = entries
            self.stats.frontier_entries += len(entries)
        return entries


def _fuses_a_product(node: Operation, engine: Engine) -> bool:
    """Does whole-plan costing price a σ-over-product pair of ``node`` as one join?"""
    if physical_choice(node, engine).fuses_product:
        return True
    below = child_engine(node, engine)
    return any(_fuses_a_product(child, below) for child in node.children)


def _combinations(frontiers: List[List[_Entry]]) -> List[PyTuple[_Entry, ...]]:
    combos: List[PyTuple[_Entry, ...]] = [()]
    for frontier in frontiers:
        combos = [combo + (entry,) for combo in combos for entry in frontier]
    return combos


class MemoSearch:
    """Memo-based, cost-guided optimizer over the paper's rule catalogue.

    Holds immutable configuration only — the rule index, the cost model,
    the budgets and the root engine.  Everything a request brings (the
    statistics, the estimator, the exploration store, the token) is an
    argument, so one instance serves every session and worker at once.
    """

    def __init__(
        self,
        rules: Optional[Union[RuleIndex, Iterable[TransformationRule]]] = None,
        cost_model: Optional[CostModel] = None,
        options: Optional[SearchOptions] = None,
        root_engine: Engine = STRATUM_ENGINE,
    ) -> None:
        self.index = rule_index(rules)
        self.cost_model = cost_model or CostModel()
        self.options = options or SearchOptions()
        #: Engine executing the plan root — the stratum for whole queries,
        #: the DBMS when optimizing a fragment on the DBMS's behalf.
        self.root_engine = root_engine

    def optimize(
        self,
        initial_plan: Operation,
        query: QueryResultSpec,
        statistics: Optional[Mapping[str, int]] = None,
        estimator=None,
        explorations: Optional[ExplorationStore] = None,
        token=None,
    ) -> SearchResult:
        """Find the cheapest plan equivalent to ``initial_plan`` for ``query``.

        ``extract(explore(...))``, for every caller; ``explorations`` only
        lets the first step be looked up instead of run.
        """
        return self.extract(
            self.explore(initial_plan, query, explorations, token), statistics, estimator
        )

    def explore(
        self,
        initial_plan: Operation,
        query: QueryResultSpec,
        explorations: Optional[ExplorationStore] = None,
        token=None,
    ) -> Exploration:
        """Close a memo of the seed plan over the rule catalogue.

        Reads no statistics, estimator, cost model or root engine: the result
        depends on the rule index, the exploration budgets, the root context
        and the seed alone, and with a store that is the key it is looked up
        and left under — compared (the index by identity, the seed
        structurally), never assumed from where the plan came.  Stored only
        once exploration has returned; a budget-truncated one is
        deterministic and stored like any other, while one a cancelled or
        expired ``token`` stops raises its typed error and leaves nothing.
        """
        seed = ensure_output_properties(initial_plan, query)
        context = root_properties(query)
        options = self.options.exploration_options()
        key = (self.index, astuple(options), context, seed)
        if explorations is not None:
            found = explorations.exploration(key)
            if found is not None:
                return replace(found, initial_plan=initial_plan, reused=True)

        memo = Memo()
        root = memo.copy_in(seed, context)
        search_statistics = SearchStatistics()
        search_statistics.initial_expressions = memo.expressions_created

        search_statistics.absorb(explore(memo, root, self.index, options, token))
        search_statistics.groups = len(memo.groups)
        search_statistics.expressions = memo.expressions_created
        search_statistics.merges = memo.merges
        # The seed plan plus every alternative fragment derived once — each
        # would be a distinct whole plan (or more) in the exhaustive space.
        search_statistics.plans_considered = 1 + (
            memo.expressions_created - search_statistics.initial_expressions
        )
        exploration = Exploration(initial_plan, seed, memo, memo.find(root), search_statistics)
        if explorations is not None:
            explorations.remember_exploration(key, exploration)
        return exploration

    def extract(
        self,
        exploration: Exploration,
        statistics: Optional[Mapping[str, int]] = None,
        estimator=None,
    ) -> SearchResult:
        """Choose the cheapest plan of an explored memo under ``statistics``.

        Everything that reads cardinalities: the bounds, the frontiers, the
        chosen plan and its cost.  Only reads the memo.  An ``estimator``
        (see :mod:`repro.stats`) replaces the fixed selectivity/overlap
        constants wherever it can resolve a predicate or operator.
        """
        statistics_map = dict(statistics or {})
        seed, memo = exploration.seed, exploration.memo
        search_statistics = replace(
            exploration.statistics,
            rule_usage=dict(exploration.statistics.rule_usage),
            exploration_reused=exploration.reused,
        )

        seed_cost = estimate_cost(
            seed, statistics_map, self.cost_model, engine=self.root_engine,
            estimator=estimator,
        )
        # The upper bound must be *attainable by the seed's own expressions*,
        # which the extraction prices shell-wise: whole-plan costing charges
        # a fused σ-over-product pair the physical join price, but the memo
        # only reaches that price through the σ(×) → ⋈ rewrite, which the
        # caller's rule set may not contain.  Bound with the unfused seed
        # price (never below the fused estimate), so the seed always
        # survives its own bound and restricted rule sets keep optimizing.
        # With no such pair in the seed the two prices are one walk's.
        seed_shell_total = seed_cost.total
        if _fuses_a_product(seed, self.root_engine):
            seed_shell_total = estimate_cost(
                seed, statistics_map, self.cost_model, engine=self.root_engine,
                estimator=estimator, physical_fusion=False,
            ).total
        upper_bound = seed_shell_total * self.options.upper_bound_slack + 1e-9
        extractor = _Extractor(
            memo, statistics_map, self.cost_model, search_statistics, upper_bound,
            estimator=estimator,
        )
        frontier = extractor.frontier(exploration.root, self.root_engine)
        rules_applied: PyTuple[str, ...] = ()
        if frontier:
            best_plan = frontier[0].build()
            best_cost = seed_cost if best_plan == seed else estimate_cost(
                best_plan, statistics_map, self.cost_model, engine=self.root_engine,
                estimator=estimator,
            )
            rules_applied = tuple(frontier[0].rules())
            if best_cost.total > seed_cost.total:
                best_plan, best_cost = seed, seed_cost
                rules_applied = ()
        else:  # pragma: no cover - the seed always survives its own bound
            best_plan, best_cost = seed, seed_cost
        return SearchResult(
            initial_plan=exploration.initial_plan,
            best_plan=best_plan,
            best_cost=best_cost,
            statistics=search_statistics,
            memo=memo,
            rules_applied=rules_applied,
        )
