"""The conventional DBMS's own optimizer.

The paper's layered architecture leaves the optimization of DBMS-side plan
fragments to the DBMS itself ("these are expressed in the language supported
by the DBMS ... which will perform its own optimization").  This module plays
that role for the substrate: :class:`CostGuidedConventionalOptimizer`, a
cost-guided memo search over the core rule catalogue restricted to ≡L and ≡M
rules — always safe for an engine that only promises multisets.

It runs only for plans handed to the DBMS directly
(``ConventionalDBMS.search/optimize/explain/sql_for`` and ``execute`` with
its default ``optimize=True``).  A statement's ``TS`` fragments never reach
it: the stratum's own search has already explored below every ``TS`` with
these very rule objects and priced the fragment with the same cost model at
the DBMS's rates, so on a plan the stratum chose this search could only
return the fragment it was given (``tests/test_stratum_layer.py`` holds the
argument as checks; ``docs/architecture.md``, "Who optimizes a fragment, and
when", spells it out).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from ..core.analysis import derive_order
from ..core.cost import CostModel
from ..core.equivalence import EquivalenceType
from ..core.lowering import DBMS_ENGINE
from ..core.operations import Operation
from ..core.query import QueryResultSpec
from ..core.rules import CONVENTIONAL_RULES, DUPLICATE_RULES, JOIN_RULES, SORTING_RULES
from ..core.rules.base import RuleIndex, TransformationRule
from ..search import MemoSearch, SearchOptions, SearchResult

#: The full conventional-side catalogue, restricted to ≡L / ≡M rules: an
#: engine that only promises multisets may apply list and multiset
#: equivalences freely; set-level rules (D3, C4, ...) would change the
#: duplicate structure it must preserve.  Built once, at import.
_MULTISET_SAFE_INDEX = RuleIndex(
    rule
    for rule in CONVENTIONAL_RULES + DUPLICATE_RULES + SORTING_RULES + JOIN_RULES
    if rule.equivalence in (EquivalenceType.LIST, EquivalenceType.MULTISET)
)


class CostGuidedConventionalOptimizer:
    """Cost-guided fragment optimizer backed by the memo search.

    The DBMS's "own optimization" of a plan fragment: the cheapest fragment
    the multiset-safe rules reach under the cost model.  The fragment's
    delivered order is protected: when the fragment's result is ordered, the
    search runs under a LIST result specification for exactly that order
    (the caller may rely on what it receives — rule S2 is the stratum
    optimizer's call to make, not the DBMS's), otherwise under a multiset
    specification.
    """

    def __init__(
        self,
        rules: Optional[Sequence[TransformationRule]] = None,
        cost_model: Optional[CostModel] = None,
        statistics_provider: Optional[Callable[[], Mapping[str, int]]] = None,
        estimator_provider: Optional[Callable[[], object]] = None,
    ) -> None:
        self._index = RuleIndex(rules) if rules is not None else _MULTISET_SAFE_INDEX
        self.cost_model = cost_model or CostModel()
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

    def search(self, plan: Operation) -> SearchResult:
        """Search the fragment's alternatives; the result carries the counters.

        Nothing is kept on the optimizer — the live engine's is shared by
        every thread that plans against it.
        """
        order = derive_order(plan)
        specification = (
            QueryResultSpec.list(order) if order else QueryResultSpec.multiset()
        )
        statistics = self._statistics_provider() if self._statistics_provider else None
        estimator = self._estimator_provider() if self._estimator_provider else None
        return MemoSearch(
            rules=self._index,
            cost_model=self.cost_model,
            options=SearchOptions(max_expressions=600, max_sweeps=6),
            root_engine=DBMS_ENGINE,
            estimator=estimator,
        ).optimize(plan, specification, statistics)

    def optimize(self, plan: Operation) -> Operation:
        """Return the cheapest fragment plan the rule set can reach."""
        return self.search(plan).best_plan
