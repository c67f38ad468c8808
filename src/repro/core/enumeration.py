"""Query plan enumeration (Section 6, Figure 5).

The algorithm maintains a set of plans, initially containing the plan handed
over by the query-language front end, and exhaustively applies every rule of
the configured rule set at every matching location of every plan, subject to
the applicability conditions of Figure 5 (local preconditions plus the
Table 2 property checks).  Newly produced plans are added to the set and
processed in turn; the result is every plan reachable with the given rules.

Properties of the implementation:

* **Deterministic** — plans are processed in insertion (FIFO) order, rules in
  catalogue order, and locations in pre-order, and the output is a set keyed
  on structural plan identity, so the same inputs always yield the same set
  of plans (Section 6 proves the analogous statement for the paper's
  algorithm).  The rule index drops only pairs whose root cannot match.
* **Terminating** — with the default rule set (which never introduces new
  operations) the reachable plan space is finite; an explicit ``max_plans``
  budget additionally guards against rule sets that are not size-bounded,
  which the paper handles by restricting the rule set heuristically.
* **Correct** — every applied rewrite preserved the equivalence demanded by
  Definition 5.1 at its location (Theorem 6.1); the integration tests
  re-verify this by evaluating enumerated plans and comparing results with
  :func:`repro.core.applicability.results_acceptable`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple as PyTuple, Union

from .applicability import involved_properties, rule_application_allowed
from .exceptions import EnumerationError
from .operations import Operation
from .properties import annotate
from .query import QueryResultSpec
from .rules import RuleIndex, TransformationRule, rule_index


@dataclass
class EnumerationStatistics:
    """Bookkeeping about one enumeration run."""

    plans_generated: int = 0
    plans_considered: int = 0
    applications_attempted: int = 0
    applications_succeeded: int = 0
    rejected_by_properties: int = 0
    rule_usage: Dict[str, int] = field(default_factory=dict)
    truncated: bool = False

    def record_use(self, rule: TransformationRule) -> None:
        self.rule_usage[rule.name] = self.rule_usage.get(rule.name, 0) + 1


@dataclass
class EnumerationResult:
    """The plans produced by one enumeration run, in generation order."""

    plans: List[Operation]
    statistics: EnumerationStatistics
    _signatures: Set[PyTuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._signatures = {plan.signature() for plan in self.plans}

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def __contains__(self, plan: Operation) -> bool:
        return plan.signature() in self._signatures


def enumerate_plans(
    initial_plan: Operation,
    query: QueryResultSpec,
    rules: Optional[Union[RuleIndex, Iterable[TransformationRule]]] = None,
    max_plans: int = 5000,
) -> EnumerationResult:
    """Generate every query plan reachable from ``initial_plan``.

    Parameters
    ----------
    initial_plan:
        The plan produced by the front end; it is assumed to compute the
        query correctly and to use the order-sensitive operations only where
        they preserve multiset equivalence (Section 6).
    query:
        The outermost DISTINCT / ORDER BY specification (Definition 5.1).
    rules:
        The rule set (or a prebuilt index over it); defaults to
        :data:`repro.core.rules.DEFAULT_RULES`.
    max_plans:
        Safety budget; exceeding it marks the result as truncated instead of
        looping forever on a non-terminating rule set.
    """
    if max_plans < 1:
        raise EnumerationError("max_plans must be at least 1")
    index = rule_index(rules)

    statistics = EnumerationStatistics()
    plans: "OrderedDict[PyTuple, Operation]" = OrderedDict()
    plans[initial_plan.signature()] = initial_plan
    queue: Deque[Operation] = deque([initial_plan])
    statistics.plans_generated = 1

    while queue:
        plan = queue.popleft()
        statistics.plans_considered += 1
        properties = annotate(plan, query)
        for rule, location, node in index.matches(plan):
            statistics.applications_attempted += 1
            application = rule.apply(node)
            if application is None:
                continue
            equivalence = application.equivalence or rule.equivalence
            if not rule_application_allowed(
                equivalence, involved_properties(properties, location, application)
            ):
                statistics.rejected_by_properties += 1
                continue
            new_plan = plan.replace_at(location, application.replacement)
            signature = new_plan.signature()
            if signature in plans:
                continue
            statistics.applications_succeeded += 1
            statistics.record_use(rule)
            plans[signature] = new_plan
            statistics.plans_generated += 1
            if len(plans) >= max_plans:
                statistics.truncated = True
                return EnumerationResult(list(plans.values()), statistics)
            queue.append(new_plan)
    return EnumerationResult(list(plans.values()), statistics)
