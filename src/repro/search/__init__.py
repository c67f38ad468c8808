"""Memo-based, cost-guided plan search (the optimizer the paper defers).

The paper's Section 6 enumeration materializes every reachable plan and
leaves "heuristics and cost estimation techniques" to future work; this
package supplies that missing optimizer in the Volcano/Cascades tradition:

* :mod:`repro.search.memo` — a memo table of *equivalence groups* and *group
  expressions* with signature-based deduplication, so a sub-plan rewritten
  once is shared by every plan containing it;
* :mod:`repro.search.tasks` — an explicit task stack (``OptimizeGroup`` /
  ``ExploreGroup`` / ``ApplyRules`` / ``OptimizeInputs``) driving rule
  application per group expression instead of per whole plan, gated by the
  same ``rule_application_allowed`` / ``involved_properties`` machinery the
  exhaustive enumerator uses, so Definition 5.1 correctness is preserved;
* :mod:`repro.search.enforcers` — property enforcers that inject ``sort`` /
  ``rdup``/``rdupT`` / ``coalT`` only where the required output specification
  demands them;
* :mod:`repro.search.search` — branch-and-bound extraction of the cheapest
  plan with admissible per-group lower bounds and Pareto (cost, cardinality)
  frontiers, plus a :class:`SearchStatistics` record mirroring
  :class:`repro.core.enumeration.EnumerationStatistics`.

The exhaustive enumerator remains available (and is the oracle the agreement
tests compare against); a :class:`MemoSearch` is the one optimizer a
:class:`repro.stratum.TemporalDatabase` holds, and
``MemoSearch(rules=, cost_model=, options=).optimize(plan, spec, statistics,
estimator=)`` is the one-shot search.
"""

from .enforcers import ensure_output_properties, missing_output_enforcers
from .memo import Group, GroupExpression, Memo
from .search import (
    Exploration,
    ExplorationStore,
    MemoSearch,
    SearchOptions,
    SearchResult,
    SearchStatistics,
)

__all__ = [
    "Exploration",
    "ExplorationStore",
    "Group",
    "GroupExpression",
    "Memo",
    "MemoSearch",
    "SearchOptions",
    "SearchResult",
    "SearchStatistics",
    "ensure_output_properties",
    "missing_output_enforcers",
]
