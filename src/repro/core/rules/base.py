"""The transformation-rule framework (Section 4).

A transformation rule rewrites the subtree rooted at a matching location of a
query plan into an equivalent subtree and is tagged with the *strongest*
equivalence type (Section 3) that the rewrite preserves.  An algebraic
equivalence in the paper denotes both a left-to-right and a right-to-left
rule; here every directed rewrite is its own :class:`TransformationRule`
object, because the enumeration algorithm needs a terminating rule set and
therefore typically includes only one direction (Section 6 heuristics).

Figure 4 states each rule as a left-hand side plus side conditions, and a
:class:`Rule` declares exactly that: a :class:`Pattern` (``"σ(coalT(r))"``,
operator symbols over named variables), its :mod:`premises
<repro.core.rules.premises>`, and a ``build`` that only constructs the
right-hand side.  Matching is one compiled closure per rule, shared by
:meth:`TransformationRule.apply`, the memo search and the exhaustive
enumerator.

Besides the replacement subtree, an application reports which operations of
the matched region are *involved* — the operations explicitly mentioned on
the rule's left-hand side plus the root operations of the subtrees bound to
its variables.  That is every node of the pattern, so a declared rule
derives it once from its pattern.  The enumeration algorithm (Figure 5)
consults the Table 2 properties of exactly these operations when deciding
whether a rule of a given equivalence type may fire at the location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple as PyTuple, Union

from ..equivalence import EquivalenceType
from ..operations import ALL_OPERATION_TYPES, IDIOM_TYPES, Operation
from ..operations.base import PlanPath

#: What a match binds: each name of the pattern to the node it matched.
Bindings = Dict[str, Operation]


@dataclass(frozen=True)
class RuleApplication:
    """The outcome of matching a rule at one location.

    ``replacement`` is the new subtree for that location; ``involved`` lists
    the paths, *relative to the location*, of the operations whose Table 2
    properties govern applicability (Figure 5); ``equivalence`` is the type
    this application preserves (the transfer rules' is ≡L when the moved
    operation is a sort and ≡M otherwise).
    """

    replacement: Operation
    involved: PyTuple[PlanPath, ...]
    equivalence: EquivalenceType


@dataclass(frozen=True)
class Premise:
    """A named side condition over a match's bindings (``coalesced(r)``)."""

    name: str
    holds: Callable[[Bindings], bool]


class TransformationRule:
    """A single directed rewrite with a declared equivalence type.

    :meth:`bind` matches the left-hand side's shape, :attr:`premises` are its
    side conditions and :meth:`build` constructs the right-hand side from the
    bindings; ``build`` never fails on bindings that :meth:`match` admitted.
    In the memo search the root is bound to a group expression's *shell*, so
    premises and ``build`` read a root through its parameters only.
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
    #: Paths, relative to the location, of the operations whose Table 2
    #: properties govern applicability; paths a binding lacks are skipped.
    involved: PyTuple[PlanPath, ...] = ((),)
    #: Side conditions over the bindings, tested in order after the shape.
    premises: PyTuple[Premise, ...] = ()
    #: Per child of the root, the operator type the pattern requires there
    #: (``None``: a variable); empty when no child is constrained.  The memo
    #: search binds only candidates of that type.
    child_kinds: PyTuple[Optional[type], ...] = ()

    def bind(self, node: Operation, children: Sequence[Operation]) -> Optional[Bindings]:
        """The left-hand side's shape at ``node`` over ``children``, premises aside."""
        raise NotImplementedError

    def build(self, bindings: Bindings) -> Operation:
        """The right-hand side for bindings :meth:`match` admitted."""
        raise NotImplementedError

    def equivalence_for(self, bindings: Bindings) -> EquivalenceType:
        """The equivalence type one application preserves."""
        return self.equivalence

    @property
    def static_equivalence(self) -> bool:
        """Every application preserves :attr:`equivalence` (``equivalence_for``
        is not overridden), so a location's own properties can refuse the
        rule before any binding is formed."""
        return getattr(self.equivalence_for, "__func__", None) is TransformationRule.equivalence_for

    def match(self, node: Operation, children: Sequence[Operation]) -> Optional[Bindings]:
        """Shape and premises at ``node`` over ``children`` (``node``'s own are
        ignored, so the memo tests a binding before it builds one)."""
        bindings = self.bind(node, children)
        if bindings is None:
            return None
        for premise in self.premises:
            if not premise.holds(bindings):
                return None
        return bindings

    def apply(self, node: Operation) -> Optional[RuleApplication]:
        """Try to rewrite the subtree rooted at ``node``."""
        bindings = self.match(node, node.children)
        if bindings is None:
            return None
        return RuleApplication(self.build(bindings), self.involved, self.equivalence_for(bindings))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.name} ({self.equivalence})>"

    def __str__(self) -> str:
        return f"{self.name} [{self.equivalence}]: {self.description}"


#: Operator types by their display symbol: the vocabulary of patterns.
_SYMBOLS: Dict[str, type] = {
    kind.symbol: kind for kind in ALL_OPERATION_TYPES + IDIOM_TYPES
}

_TOKEN = re.compile(r"\s*([(),]|[^\s(),]+)")


@dataclass(frozen=True)
class Pattern:
    """A left-hand side: an operator type over sub-patterns, or a variable.

    Written the way Figure 4 writes it, in prefix form over the operators'
    symbols: ``"coalT(∪T(coalT1(r1), coalT2(r2)))"``.  An operator is bound
    under its token (a digit suffix tells two of a kind apart), a variable
    (a token with no argument list) under its name; no name binds twice.
    """

    name: str
    kind: Optional[type] = None  # None: a variable
    children: PyTuple["Pattern", ...] = ()

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        pattern, rest = cls._parse(_TOKEN.findall(text))
        if rest:
            raise ValueError(f"unexpected {rest[0]!r} in pattern {text!r}")
        names = [node.name for node in pattern.nodes()]
        if len(set(names)) != len(names):
            raise ValueError(f"pattern {text!r} binds a name twice")
        return pattern

    @classmethod
    def _parse(cls, tokens: List[str]) -> PyTuple["Pattern", List[str]]:
        name, rest = tokens[0], tokens[1:]
        if not rest or rest[0] != "(":
            return cls(name), rest
        kind = _SYMBOLS[name.rstrip("0123456789")]
        children = []
        while rest[0] != ")":
            child, rest = cls._parse(rest[1:])
            children.append(child)
        if len(children) != kind.arity:
            raise ValueError(f"{name} takes {kind.arity} argument(s), not {len(children)}")
        return cls(name, kind, tuple(children)), rest[1:]

    def nodes(self) -> List["Pattern"]:
        """Every node of the pattern, pre-order."""
        return [self] + [node for child in self.children for node in child.nodes()]

    def paths(self, prefix: PlanPath = ()) -> List[PlanPath]:
        """Every node's path: Figure 5's involved operations."""
        found = [prefix]
        for index, child in enumerate(self.children):
            found.extend(child.paths(prefix + (index,)))
        return found

    def binder(self) -> Callable[[Operation, Sequence[Operation]], Optional[Bindings]]:
        """The pattern compiled once: ``bind(node, children)``."""
        matches = self._matcher()

        def bind(node: Operation, children: Sequence[Operation]) -> Optional[Bindings]:
            bindings: Bindings = {}
            return bindings if matches(node, children, bindings) else None

        return bind

    def _matcher(self) -> Callable[[Operation, Sequence[Operation], Bindings], bool]:
        """``matches(node, children, bindings)``: the root is matched over the
        children it is given, every node below it over its own."""
        kind, name = self.kind, self.name
        if kind is None:

            def variable(
                node: Operation, children: Sequence[Operation], bindings: Bindings
            ) -> bool:
                bindings[name] = node
                return True

            return variable
        below = tuple(enumerate(child._matcher() for child in self.children))

        def operator(node: Operation, children: Sequence[Operation], bindings: Bindings) -> bool:
            if not isinstance(node, kind):
                return False
            bindings[name] = node
            for index, matches in below:
                child = children[index]
                if not matches(child, child.children, bindings):
                    return False
            return True

        return operator


class Rule(TransformationRule):
    """A rule declared by its pattern, premises and build (Figure 4's form)."""

    def __init__(
        self,
        name: str,
        equivalence: EquivalenceType,
        pattern: str,
        build: Callable[[Bindings], Operation],
        *premises: Premise,
        description: str,
        promise: float = 1.0,
    ) -> None:
        self.name = name
        self.equivalence = equivalence
        self.pattern = Pattern.parse(pattern)
        self.build = build  # type: ignore[method-assign]
        self.premises = premises
        self.description = description
        self.promise = promise
        self.bind = self.pattern.binder()  # type: ignore[method-assign]
        self.root = self.pattern.kind
        kinds = tuple(child.kind for child in self.pattern.children)
        self.child_kinds = kinds if any(kinds) else ()
        self.involved = tuple(sorted(self.pattern.paths(), key=lambda path: (len(path), path)))


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
