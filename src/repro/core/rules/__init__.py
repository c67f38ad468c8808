"""The transformation-rule catalogue (Section 4).

Rules are grouped the way Figure 4 groups them — duplicate elimination (D),
coalescing (C), sorting (S) — plus the conventional rules of Section 4.1 and
the transfer rules of Section 4.5.  ``DEFAULT_RULES`` is the terminating rule
set used by the plan enumeration algorithm: every rule in it either removes
operations, pushes an operation toward the leaves, or swaps arguments, so the
reachable plan space is finite.  Rules that *introduce* operations (e.g.
``r → rdup(r)``) are deliberately excluded, following the Section 6
heuristics.
"""

from typing import Iterable, Union

from .base import LambdaRule, RuleApplication, RuleIndex, TransformationRule, application
from .coalescing_rules import COALESCING_RULES
from .conventional_rules import CONVENTIONAL_RULES
from .duplicate_rules import DUPLICATE_RULES
from .join_rules import JOIN_RULES
from .sorting_rules import SORTING_RULES
from .transfer_rules import CONVENTIONAL_OPERATIONS, TRANSFER_RULES

#: Rules operating purely on the logical algebra (no transfer operations).
ALGEBRAIC_RULES = (
    DUPLICATE_RULES + COALESCING_RULES + SORTING_RULES + CONVENTIONAL_RULES + JOIN_RULES
)

#: The default, terminating rule set used by plan enumeration.
DEFAULT_RULES = ALGEBRAIC_RULES + TRANSFER_RULES

_DEFAULT_INDEX = RuleIndex(DEFAULT_RULES)


def rule_index(rules: Union[RuleIndex, Iterable[TransformationRule], None] = None) -> RuleIndex:
    """The shared :data:`DEFAULT_RULES` index for ``None``, ``rules`` itself when
    it already is an index, else a new index over the collection."""
    if rules is None:
        return _DEFAULT_INDEX
    return rules if isinstance(rules, RuleIndex) else RuleIndex(rules)


def rules_by_name() -> dict:
    """Map rule names (``"D2"``, ``"C10"``, ...) to rule objects."""
    return {rule.name: rule for rule in DEFAULT_RULES}


__all__ = [
    "ALGEBRAIC_RULES",
    "COALESCING_RULES",
    "CONVENTIONAL_OPERATIONS",
    "CONVENTIONAL_RULES",
    "DEFAULT_RULES",
    "DUPLICATE_RULES",
    "JOIN_RULES",
    "LambdaRule",
    "RuleApplication",
    "RuleIndex",
    "SORTING_RULES",
    "TRANSFER_RULES",
    "TransformationRule",
    "application",
    "rule_index",
    "rules_by_name",
]
