"""The conventional DBMS's own optimizer.

The paper's layered architecture leaves the optimization of DBMS-side plan
fragments to the DBMS itself ("these are expressed in the language supported
by the DBMS ... which will perform its own optimization").  This module plays
that role for the substrate: a small, heuristic, multiset-semantics rewriter
that (1) pushes selections toward the leaves, (2) removes redundant duplicate
eliminations and sorts that are not outermost, (3) merges projection
cascades, and (4) leaves everything else alone.  It deliberately reuses the
core rule catalogue — restricted to ≡L and ≡M rules, which are always safe
for an engine that only promises multisets — applying rules greedily to a
fixpoint rather than enumerating alternatives.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

from ..core.analysis import derive_order
from ..core.cost import CostModel
from ..core.equivalence import EquivalenceType
from ..core.operations import Operation, Sort
from ..core.query import QueryResultSpec
from ..core.rules import CONVENTIONAL_RULES, DUPLICATE_RULES, JOIN_RULES, SORTING_RULES
from ..core.rules.base import RuleIndex, TransformationRule

#: Rule names that push work toward the leaves or remove redundant work.
_HEURISTIC_RULE_NAMES = {
    "σ-below-π",
    "σ-below-sort",
    "σ-below-rdup",
    "σ-into-×-left",
    "σ-into-×-right",
    "σ-below-⊔",
    "σ-into-\\-left",
    "σ-below-γ",
    "π-cascade",
    "D1",
    "D-idem",
    "S1",
    "S3",
}


#: The full conventional-side catalogue, restricted to ≡L / ≡M rules: an
#: engine that only promises multisets may apply list and multiset
#: equivalences freely; set-level rules (D3, C4, ...) would change the
#: duplicate structure it must preserve.  Both default catalogues are built
#: once, at import — a pinned snapshot (one per server request) constructs an
#: optimizer without filtering or indexing them again.
_MULTISET_SAFE_INDEX = RuleIndex(
    rule
    for rule in CONVENTIONAL_RULES + DUPLICATE_RULES + SORTING_RULES + JOIN_RULES
    if rule.equivalence in (EquivalenceType.LIST, EquivalenceType.MULTISET)
)
_HEURISTIC_INDEX = RuleIndex(
    rule for rule in _MULTISET_SAFE_INDEX.rules if rule.name in _HEURISTIC_RULE_NAMES
)


class ConventionalOptimizer:
    """Greedy, fixpoint-based rewriter for DBMS-side plan fragments."""

    def __init__(self, rules: Optional[Sequence[TransformationRule]] = None, max_passes: int = 25) -> None:
        self._index = RuleIndex(rules) if rules is not None else _HEURISTIC_INDEX
        self._max_passes = max_passes
        #: Instrumentation for the most recent :meth:`optimize` call.
        self.last_run_passes: int = 0
        self.last_run_rewrites: int = 0

    @property
    def rules(self) -> Sequence[TransformationRule]:
        """The rewrite rules the optimizer applies."""
        return self._index.rules

    def optimize(self, plan: Operation) -> Operation:
        """Rewrite ``plan`` to a fixpoint (or until the pass budget runs out).

        The engine only promises multisets, so interior sorts that feed
        order-insensitive conventional operations could also be dropped; the
        optimizer keeps them, however, because the stratum may rely on the
        order of what it receives (rule S2 is the stratum optimizer's call to
        make, not the DBMS's).
        """
        current = plan
        self.last_run_passes = 0
        self.last_run_rewrites = 0
        for _ in range(self._max_passes):
            rewritten = self._single_pass(current)
            if rewritten is None:
                return current
            self.last_run_passes += 1
            current = rewritten
        return current

    def _single_pass(self, plan: Operation) -> Optional[Operation]:
        """Apply every non-overlapping match of every rule once, in one pass.

        Rules are tried in catalogue order; locations within a rule in
        pre-order (only where the rule's root operator can match).  A
        location is skipped when it lies inside a region some earlier rewrite
        of this pass already replaced (the paths below a rewritten location
        address the *new* subtree and are revisited on the next pass), so
        all rewrites of one pass touch disjoint subtrees and the pre-pass
        matches — locations and the nodes found there — stay valid throughout.
        """
        current = plan
        applied: List = []
        for rule, location, node in self._index.matches(plan):
            if any(
                location[: len(done)] == done or done[: len(location)] == location
                for done in applied
            ):
                continue
            result = rule.apply(node)
            if result is None:
                continue
            replacement = current.replace_at(location, result.replacement)
            if replacement == current:
                continue
            current = replacement
            applied.append(location)
            self.last_run_rewrites += 1
        return current if applied else None


class CostGuidedConventionalOptimizer:
    """Cost-guided fragment optimizer backed by the memo search.

    Plays the same role as :class:`ConventionalOptimizer` — the DBMS's "own
    optimization" of the plan fragments the stratum ships down — but picks
    the cheapest fragment under the cost model instead of applying
    heuristics to a fixpoint.  The fragment's delivered order is protected:
    when the fragment's result is ordered, the search runs under a LIST
    result specification for exactly that order (the stratum may rely on
    what it receives), otherwise under a multiset specification.
    """

    def __init__(
        self,
        rules: Optional[Sequence[TransformationRule]] = None,
        cost_model: Optional[CostModel] = None,
        statistics_provider: Optional[Callable[[], Mapping[str, int]]] = None,
        estimator_provider: Optional[Callable[[], object]] = None,
    ) -> None:
        self._index = RuleIndex(rules) if rules is not None else _MULTISET_SAFE_INDEX
        self._cost_model = cost_model or CostModel()
        self._statistics_provider = statistics_provider
        #: Optional zero-argument callable producing a
        #: :class:`repro.stats.estimator.CardinalityEstimator` over the
        #: engine's *current* catalog contents — called per optimization so
        #: fragment costing always sees fresh histograms.
        self._estimator_provider = estimator_provider

    @property
    def rules(self) -> Sequence[TransformationRule]:
        """The rewrite rules the optimizer may apply."""
        return self._index.rules

    def optimize(self, plan: Operation) -> Operation:
        """Return the cheapest fragment plan the rule set can reach."""
        from ..core.cost import Engine
        from ..search import MemoSearch, SearchOptions

        order = derive_order(plan)
        specification = (
            QueryResultSpec.list(order) if order else QueryResultSpec.multiset()
        )
        statistics = self._statistics_provider() if self._statistics_provider else None
        estimator = self._estimator_provider() if self._estimator_provider else None
        search = MemoSearch(
            rules=self._index,
            cost_model=self._cost_model,
            options=SearchOptions(max_expressions=600, max_sweeps=6),
            root_engine=Engine.DBMS,
            estimator=estimator,
        ).optimize(plan, specification, statistics)
        return search.best_plan
