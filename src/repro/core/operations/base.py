"""Base classes for the logical algebra: operator nodes and plan trees.

Every algebra operation of Table 1 (plus the transfer operations of the
stratum architecture) is a node class deriving from :class:`Operation`.  A
*query plan* is simply the root node of an operator tree; trees are
immutable, structurally comparable and hashable, which the rule engine and
the plan enumeration algorithm rely on for plan de-duplication.

Each node knows four things, mirroring the columns of Table 1:

* its **output schema**, derived from the children's schemas,
* the **order** of its result, derived from the children's orders
  (``Order(r)``, ``Prefix``, ``Order(r) \\ TimePairs``),
* its behaviour with respect to **regular duplicates**
  (retains / generates / eliminates),
* its behaviour with respect to **coalescing**
  (retains / destroys / enforces, or not applicable for operations whose
  result is a snapshot relation).

Nodes also provide reference evaluation over :class:`~repro.core.relation.Relation`
lists — the executable counterpart of the paper's λ-calculus definitions —
used to validate transformation rules and the physical engines.
"""

from __future__ import annotations

from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from ..exceptions import ArityError, EvaluationError
from ..order_spec import OrderSpec
from ..relation import Relation
from ..schema import RelationSchema


class DuplicateBehavior(Enum):
    """How an operation treats regular duplicates (Table 1, column 4)."""

    RETAINS = "retains"
    GENERATES = "generates"
    ELIMINATES = "eliminates"


class CoalescingBehavior(Enum):
    """How an operation treats coalescing (Table 1, column 5).

    ``NOT_APPLICABLE`` corresponds to the "—" entries: the operation's result
    is a snapshot relation, for which coalescing is undefined.
    """

    RETAINS = "retains"
    DESTROYS = "destroys"
    ENFORCES = "enforces"
    NOT_APPLICABLE = "—"


#: A location within a plan tree: the sequence of child indexes from the root.
PlanPath = PyTuple[int, ...]

ROOT_PATH: PlanPath = ()


class EvaluationContext:
    """Named base relations available to reference evaluation.

    The context doubles as a tiny catalog: leaves of a plan (``BaseRelation``)
    look their data up by name here.  The stratum and DBMS engines use richer
    catalogs; this one exists so the logical algebra can be executed on its
    own, exactly as specified.
    """

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None) -> None:
        self._relations: Dict[str, Relation] = dict(relations or {})

    def bind(self, name: str, relation: Relation) -> "EvaluationContext":
        """Return a new context with ``name`` bound to ``relation``."""
        updated = dict(self._relations)
        updated[name] = relation
        return EvaluationContext(updated)

    def lookup(self, name: str) -> Relation:
        """Look up a base relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(f"base relation {name!r} is not bound in the context") from None

    def names(self) -> List[str]:
        """The names bound in this context."""
        return sorted(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations


class Operation:
    """A node of a logical query plan.

    Subclasses define:

    * ``symbol`` — the operator's display symbol (``σ``, ``π``, ``rdupT`` ...),
    * ``arity`` — the number of children,
    * ``duplicate_behavior`` / ``coalescing_behavior`` — Table 1 metadata,
    * ``order_sensitive`` — True for the operations Section 6 calls
      order-sensitive (``rdupT``, ``coalT``, ``\\T``, ``∪T``): applied to
      arguments that are equivalent only as multisets they may produce results
      that are not equivalent as multisets,
    * ``params()`` — the node's own parameters (predicate, projection list,
      sort order, ...), used for structural equality, hashing and copying,
    * ``output_schema()`` — result schema from child schemas,
    * ``result_order(child_orders)`` — the ``Order(result)`` column of Table 1,
    * ``cardinality_bounds(child_cards)`` — the ``n(result)`` column,
    * ``_evaluate(child_results)`` — reference evaluation.
    """

    #: Display symbol of the operator.
    symbol: str = "?"
    #: Number of child operations.
    arity: int = 1
    #: Table 1: behaviour with respect to regular duplicates.
    duplicate_behavior: DuplicateBehavior = DuplicateBehavior.RETAINS
    #: Table 1: behaviour with respect to coalescing.
    coalescing_behavior: CoalescingBehavior = CoalescingBehavior.RETAINS
    #: Section 6: order-sensitive operations.
    order_sensitive: bool = False
    #: True for the temporal counterparts (evaluated conceptually per time point).
    is_temporal_operator: bool = False
    #: Table 1 textual descriptions (used by the Table 1 benchmark).
    paper_order: str = ""
    paper_cardinality: str = ""

    __slots__ = (
        "children", "_signature", "_hash", "_order", "_guarantees", "_feature",
        "_period_transparent",
    )

    def __init__(self, *children: "Operation") -> None:
        if len(children) != self.arity:
            raise ArityError(
                f"{type(self).__name__} expects {self.arity} child(ren), got {len(children)}"
            )
        self.children: PyTuple["Operation", ...] = tuple(children)
        #: Computed once each (nodes are immutable; a copy is a new node with
        #: empty caches): :meth:`signature`, :meth:`__hash__`; filled by
        #: :mod:`repro.core.analysis`, ``derive_order`` and ``static_guarantees``;
        #: by the memo (:func:`repro.search.memo.binding_feature`), what a rule
        #: can observe of the node as a binding's child; and by the property
        #: step table (:func:`repro.core.properties.child_properties`), whether
        #: a σ's, ⋈T's or π's parameters leave the periods alone.
        self._signature: Optional[PyTuple[Any, ...]] = None
        self._hash: Optional[int] = None
        self._order: Optional[OrderSpec] = None
        self._guarantees: Optional[PyTuple[bool, bool, bool]] = None
        self._feature: Optional[PyTuple[Any, ...]] = None
        self._period_transparent: Optional[bool] = None

    # -- parameters and copying -------------------------------------------------

    def params(self) -> PyTuple[Any, ...]:
        """The node's non-child parameters (empty by default)."""
        return ()

    def with_children(self, children: Sequence["Operation"]) -> "Operation":
        """Return a copy of this node with new children and the same parameters."""
        return type(self)(*self.params(), *children)  # type: ignore[arg-type]

    # -- Table 1 metadata ----------------------------------------------------------

    def output_schema(self) -> RelationSchema:
        """The schema of the operation's result."""
        raise NotImplementedError

    def result_order(self, child_orders: Sequence[OrderSpec]) -> OrderSpec:
        """``Order(result)`` derived from the children's orders."""
        if child_orders:
            return child_orders[0]
        return OrderSpec.unordered()

    def cardinality_bounds(
        self, child_cards: Sequence[PyTuple[int, int]]
    ) -> PyTuple[int, int]:
        """Bounds ``(low, high)`` on the result cardinality.

        ``child_cards`` holds the bounds of the children.  The default
        passes the first child's bounds through (identity-sized operations).
        """
        if child_cards:
            return child_cards[0]
        return (0, 0)

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, context: EvaluationContext) -> Relation:
        """Reference-evaluate the subtree rooted at this node."""
        child_results = [child.evaluate(context) for child in self.children]
        result = self._evaluate(child_results, context)
        derived_order = self.result_order([relation.order for relation in child_results])
        return result.with_order(derived_order)

    def _evaluate(self, child_results: Sequence[Relation], context: EvaluationContext) -> Relation:
        raise NotImplementedError

    # -- tree navigation -----------------------------------------------------------------

    def locations(self, prefix: PlanPath = ROOT_PATH) -> Iterator[PyTuple[PlanPath, "Operation"]]:
        """Yield ``(path, node)`` for every node of the subtree, pre-order."""
        yield prefix, self
        for index, child in enumerate(self.children):
            yield from child.locations(prefix + (index,))

    def subtree_at(self, path: PlanPath) -> "Operation":
        """Return the node at ``path`` (a sequence of child indexes)."""
        node: Operation = self
        for index in path:
            node = node.children[index]
        return node

    def replace_at(self, path: PlanPath, replacement: "Operation") -> "Operation":
        """Return a new tree with the subtree at ``path`` replaced."""
        if not path:
            return replacement
        index = path[0]
        new_children = list(self.children)
        new_children[index] = self.children[index].replace_at(path[1:], replacement)
        return self.with_children(new_children)

    def nodes(self) -> List["Operation"]:
        """All nodes of the subtree in pre-order."""
        return [node for _, node in self.locations()]

    def size(self) -> int:
        """Number of nodes in the subtree."""
        return len(self.nodes())

    def contains_operator(self, operator_type: type) -> bool:
        """True if any node of the subtree is an instance of ``operator_type``."""
        return any(isinstance(node, operator_type) for node in self.nodes())

    # -- structural identity ----------------------------------------------------------------

    def signature(self) -> PyTuple[Any, ...]:
        """A hashable structural signature of the subtree."""
        signature = self._signature
        if signature is None:
            signature = self._signature = (
                type(self).__name__,
                self.params(),
                tuple(child.signature() for child in self.children),
            )
        return signature

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        # Structural like :meth:`signature`, but over the children's cached
        # hashes: a new root over shared children hashes only its own parameters.
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (type(self).__name__, self.params(), tuple(map(hash, self.children)))
            )
        return value

    # -- presentation -----------------------------------------------------------------------------

    def label(self) -> str:
        """A one-line label for the node (symbol plus parameters)."""
        return self.symbol

    def pretty(self, label: Optional[Callable[[PlanPath, "Operation"], str]] = None) -> str:
        """Render the subtree as an indented text diagram, one line per node:
        ``label(path, node)``, by default the node's :meth:`label`."""
        lines: List[str] = []

        def render(
            node: "Operation", path: PlanPath, prefix: str, connector: str, child_prefix: str
        ) -> None:
            text = node.label() if label is None else label(path, node)
            lines.append(prefix + connector + text)
            for index, child in enumerate(node.children):
                is_last = index == len(node.children) - 1
                render(
                    child,
                    path + (index,),
                    child_prefix,
                    "└─ " if is_last else "├─ ",
                    child_prefix + ("   " if is_last else "│  "),
                )

        render(self, ROOT_PATH, "", "", "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"

    def __str__(self) -> str:
        if not self.children:
            return self.label()
        inner = ", ".join(str(child) for child in self.children)
        return f"{self.label()}({inner})"


class UnaryOperation(Operation):
    """Convenience base class for single-child operations."""

    arity = 1
    __slots__ = ()

    @property
    def child(self) -> Operation:
        """The single child operation."""
        return self.children[0]


class BinaryOperation(Operation):
    """Convenience base class for two-child operations."""

    arity = 2
    __slots__ = ()

    @property
    def left(self) -> Operation:
        """The left child operation."""
        return self.children[0]

    @property
    def right(self) -> Operation:
        """The right child operation."""
        return self.children[1]
