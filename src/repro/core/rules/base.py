"""The transformation-rule framework (Section 4).

A transformation rule rewrites the subtree rooted at a matching location of a
query plan into an equivalent subtree and is tagged with the *strongest*
equivalence type (Section 3) that the rewrite preserves.  An algebraic
equivalence in the paper denotes both a left-to-right and a right-to-left
rule; here every directed rewrite is its own :class:`TransformationRule`
object, because the enumeration algorithm needs a terminating rule set and
therefore typically includes only one direction (Section 6 heuristics).

Besides the replacement subtree, an application reports which operations of
the matched region are *involved* — the operations explicitly mentioned on
the rule's left-hand side plus the root operations of the subtrees bound to
its variables.  The enumeration algorithm (Figure 5) consults the Table 2
properties of exactly these operations when deciding whether a rule of a
given equivalence type may fire at the location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple as PyTuple, Union

from ..equivalence import EquivalenceType
from ..operations import Operation
from ..operations.base import PlanPath


@dataclass(frozen=True)
class RuleApplication:
    """The outcome of matching a rule at one location.

    ``replacement`` is the new subtree for that location; ``involved`` lists
    the paths, *relative to the location*, of the operations whose Table 2
    properties govern applicability (Figure 5).  ``equivalence`` optionally
    overrides the rule's declared equivalence type for this particular
    application (used by the transfer rules, which are ≡L when the moved
    operation is a sort and ≡M otherwise).
    """

    replacement: Operation
    involved: PyTuple[PlanPath, ...] = ((),)
    equivalence: Optional[EquivalenceType] = None


class TransformationRule:
    """A single directed rewrite with a declared equivalence type.

    Subclasses declare :attr:`root` (and, where the pattern names it,
    :attr:`child`) and implement :meth:`rewrite`, returning ``None`` when the
    rest of the rule's syntactic pattern or its local (pre-)conditions do not
    hold at the given subtree root, and a :class:`RuleApplication`
    otherwise.  ``rewrite`` must be pure: it may inspect the subtree but
    never mutate it.
    """

    #: Short identifier, e.g. ``"D2"`` or ``"push-selection-below-product"``.
    name: str = "rule"
    #: The strongest equivalence type the rewrite preserves.
    equivalence: EquivalenceType = EquivalenceType.LIST
    #: One-line human-readable statement of the rule.
    description: str = ""
    #: Ordering hint for cost-guided search (higher fires first): rules that
    #: remove work outrank structural rearrangements, so the memo search
    #: reaches cheap plans (tight upper bounds) early.  Exhaustive
    #: enumeration ignores it — the reachable plan set is order independent.
    promise: float = 1.0
    #: The operator type(s) the pattern's root must be an instance of
    #: (``Operation``: anything); drivers consult it through a :class:`RuleIndex`.
    root: Union[type, PyTuple[type, ...]] = Operation
    #: The operator type(s) the root's first child must be an instance of
    #: (``Operation``: anything) — the pattern one level down.  The memo
    #: search tests it on a candidate child before building a binding.
    child: Union[type, PyTuple[type, ...]] = Operation

    def apply(self, node: Operation) -> Optional[RuleApplication]:
        """Try to rewrite the subtree rooted at ``node``."""
        if not isinstance(node, self.root):
            return None
        if self.child is not Operation and not (
            node.children and isinstance(node.children[0], self.child)
        ):
            return None
        return self.rewrite(node)

    def rewrite(self, node: Operation) -> Optional[RuleApplication]:
        """The rewrite of a subtree already known to fit :attr:`root` and :attr:`child`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name} ({self.equivalence})>"

    def __str__(self) -> str:
        return f"{self.name} [{self.equivalence}]: {self.description}"


class LambdaRule(TransformationRule):
    """A rule defined by a plain rewrite function.

    Convenient for the many rules whose pattern match is a couple of
    ``isinstance`` checks; larger rules get their own classes.  Without a
    ``root`` the rule is tried at every operator.
    """

    def __init__(
        self,
        name: str,
        equivalence: EquivalenceType,
        description: str,
        rewrite: Callable[[Operation], Optional[RuleApplication]],
        root: Union[type, PyTuple[type, ...]] = Operation,
        promise: float = 1.0,
    ) -> None:
        self.name = name
        self.equivalence = equivalence
        self.description = description
        self.rewrite = rewrite  # type: ignore[method-assign]
        self.root = root
        self.promise = promise


class RuleIndex:
    """A rule set indexed by the concrete operator types its rules can match.

    Built once per catalogue, not per optimisation: module-level singletons for
    the default catalogues, in the optimizer's constructor for a caller's list.
    """

    def __init__(self, rules: Iterable[TransformationRule]) -> None:
        #: The rules in catalogue order.
        self.rules: PyTuple[TransformationRule, ...] = tuple(rules)
        # Stable sort: highest promise first, catalogue order within a tier.
        self._by_promise = sorted(enumerate(self.rules), key=lambda pair: -pair[1].promise)
        self._matching: Dict[type, PyTuple[PyTuple[int, TransformationRule], ...]] = {}

    def matching(self, operator_type: type) -> PyTuple[PyTuple[int, TransformationRule], ...]:
        """``(catalogue position, rule)`` of the rules whose root admits the type,
        in the memo search's firing order: highest promise first."""
        found = self._matching.get(operator_type)
        if found is None:
            found = self._matching[operator_type] = tuple(
                pair for pair in self._by_promise if issubclass(operator_type, pair[1].root)
            )
        return found

    def matches(self, plan: Operation) -> List[PyTuple[TransformationRule, PlanPath, Operation]]:
        """Every type-compatible ``(rule, location, node)`` of ``plan``, in the
        exhaustive enumerator's order: catalogue order, pre-order within a rule."""
        found = [
            (position, order, rule, location, node)
            for order, (location, node) in enumerate(plan.locations())
            for position, rule in self.matching(type(node))
        ]
        found.sort(key=lambda match: match[:2])
        return [match[2:] for match in found]


def application(
    replacement: Operation,
    *involved: PlanPath,
    equivalence: Optional[EquivalenceType] = None,
) -> RuleApplication:
    """Build a :class:`RuleApplication`; the location itself is always involved."""
    paths: List[PlanPath] = [()]
    for path in involved:
        if path not in paths:
            paths.append(path)
    return RuleApplication(
        replacement=replacement, involved=tuple(paths), equivalence=equivalence
    )
