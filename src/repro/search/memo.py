"""The memo table: equivalence groups and group expressions.

A *group* collects sub-plans that are mutually substitutable at one place of
a query plan: they produce results equivalent under the Table 2 property
context of that place (Section 5), so any member can stand in for any other
without violating Definition 5.1.  A *group expression* is one operator
shell whose children are references to other groups — the AND node of the
classic AND/OR plan graph.  A sub-plan rewritten once is therefore shared by
every plan that contains it, which is what lets the search consider far
fewer plans than the exhaustive enumerator.

Because the applicability machinery of Figure 5 is context sensitive —
whether a rule may fire below some operator depends on the properties the
operators *above* induce — groups here are keyed by ``(expression signature,
property context)``.  The same structural sub-plan appearing below a
``rdupT`` (duplicates irrelevant) and at a plan root (duplicates relevant)
lands in two distinct groups that are explored independently, exactly
mirroring how the exhaustive enumerator admits different rewrites at the two
places.

Rules of the catalogue pattern-match on *concrete* operator trees (their
preconditions run static analyses over whole subtrees), so every group also
interns the concrete trees that produced or joined it.  These trees double
as the rule-binding candidates during exploration and as witnesses for the
semantic guarantees (duplicate freedom, snapshot-duplicate freedom,
coalescedness) that both rule preconditions and the property propagation of
Table 2 consult.

Trees are immutable and remember their own hash, derived order and static
guarantees (:mod:`repro.core.analysis`), so interning one costs a look at
its new root.  Each structurally distinct tree is also given one small
**binding number**, memo-wide (:meth:`Memo._intern_tree`): ``Group.trees``
maps number to tree, and exploration identifies a rule binding by the tuple
of its trees' numbers instead of hashing whole plans.  The number belongs to
the tree, not to the group holding it — a tree that a merge re-interns into
the keeping group is the binding it was, so it is not applied again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple as PyTuple

from ..core.analysis import derive_order, static_guarantees
from ..core.operations import Operation
from ..core.properties import OperationProperties, child_properties

#: A property context: the Table 2 properties holding at a group's location.
Context = OperationProperties

#: Hashable identity of a group expression: operator type, parameters and
#: (canonical) child group ids.
ExpressionSignature = PyTuple[Any, ...]


def _node_feature(node: Operation) -> PyTuple[Any, ...]:
    return (type(node).__name__, node.params())


def binding_feature(tree: Operation) -> PyTuple[Any, ...]:
    """What the rule catalogue can observe about a binding-candidate tree.

    The catalogue's patterns inspect at most three levels of structure
    (operator types and parameters), whole-subtree static guarantees
    (duplicate freedom, snapshot-duplicate freedom, coalescedness) at the
    top two levels, and the derived result order.  Candidates with equal
    features are therefore interchangeable for every rule; each group keeps
    one representative per feature, which is what keeps the binding space
    (and thus the number of fragments the search considers) small.  A rule
    inspecting deeper structure must extend this key.
    """
    return _child_feature(tree)[:3] + (tuple(map(_child_feature, tree.children)),)


def _child_feature(node: Operation) -> PyTuple[Any, ...]:
    """What :func:`binding_feature` observes of ``node`` as a child: once per node."""
    feature = node._feature
    if feature is None:
        feature = node._feature = (
            _node_feature(node),
            static_guarantees(node),
            derive_order(node),
            tuple(
                (_node_feature(grandchild), static_guarantees(grandchild))
                for grandchild in node.children
            ),
        )
    return feature


@dataclass
class GroupExpression:
    """One operator shell over child groups — an AND node of the plan graph.

    ``shell`` carries the operator's type and parameters; its own children
    are irrelevant (rules match it over candidate trees of the child groups,
    and extraction rebuilds concrete trees with ``with_children``).
    ``source`` is the concrete tree this expression was first derived from —
    the tree rule bindings and witness analyses run on.
    """

    id: int
    shell: Operation
    children: PyTuple[int, ...]
    source: Operation
    rule_name: Optional[str] = None

    @property
    def arity(self) -> int:
        return len(self.children)


@dataclass
class Group:
    """An equivalence group: interchangeable sub-plans under one context."""

    id: int
    context: Context
    expressions: List[GroupExpression] = field(default_factory=list)
    #: Concrete member trees, one representative per binding feature (see
    #: :func:`binding_feature`), by binding number (:meth:`Memo._intern_tree`).
    trees: Dict[int, Operation] = field(default_factory=dict)
    #: Binding features already covered by a representative in ``trees``.
    features: Dict[PyTuple, Operation] = field(default_factory=dict)
    #: Concrete witnesses for the static guarantees (None until discovered).
    no_duplicates_witness: Optional[Operation] = None
    no_snapshot_duplicates_witness: Optional[Operation] = None
    coalesced_witness: Optional[Operation] = None
    #: Bumped whenever the group gains an expression, tree or witness, so
    #: exploration knows to revisit it.
    generation: int = 0
    _candidates_cache: Optional[PyTuple[int, int, List]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def canonical_tree(self) -> Operation:
        """The first concrete tree interned for this group."""
        return self.expressions[0].source

    def witness_or_canonical(self) -> Operation:
        """A member tree carrying as many guarantees as any member does.

        Used when re-deriving child property contexts: substituting this
        tree for a child reproduces, through the core analyses, exactly the
        guarantees *some* member of the group can provide.
        """
        for witness in (
            self.no_snapshot_duplicates_witness,
            self.no_duplicates_witness,
            self.coalesced_witness,
        ):
            if witness is not None:
                return witness
        return self.canonical_tree

    def binding_candidates(self, limit: int) -> List[PyTuple[int, Operation]]:
        """``(binding number, tree)`` pairs to bind a rule pattern against.

        One representative per binding feature; the numbers let callers
        deduplicate whole bindings without rebuilding (or hashing) trees.
        Cached until the group changes.
        """
        cache = self._candidates_cache
        if cache is not None and cache[0] == self.generation and cache[1] >= limit:
            return cache[2][:limit]
        candidates = list(self.trees.items())[:limit]
        self._candidates_cache = (self.generation, limit, candidates)
        return candidates


class Memo:
    """The memo table: groups, expressions, their indexes and the binding numbers."""

    def __init__(self) -> None:
        self.groups: Dict[int, Group] = {}
        self._next_group_id = 0
        self._next_expression_id = 0
        #: (context, expression signature) -> group id
        self._expression_index: Dict[PyTuple, int] = {}
        #: (context, concrete tree) -> group id
        self._tree_index: Dict[PyTuple, int] = {}
        #: Concrete tree -> its binding number: one small integer per
        #: structural signature, memo-wide, so a tree that moves between
        #: groups in a merge is still the binding it was.
        self._binding_numbers: Dict[Operation, int] = {}
        #: Union-find forwarding map for merged groups.
        self._forward: Dict[int, int] = {}
        #: Bumped on every mutation; sweeps run until this stops moving.
        self.mutations = 0
        self.expressions_created = 0
        self.merges = 0

    # -- group identity ---------------------------------------------------------

    def find(self, group_id: int) -> int:
        """Canonical id of a (possibly merged) group."""
        while group_id in self._forward:
            group_id = self._forward[group_id]
        return group_id

    def group(self, group_id: int) -> Group:
        # A merged group leaves ``groups``, so an id found there is canonical.
        group = self.groups.get(group_id)
        return group if group is not None else self.groups[self.find(group_id)]

    def __len__(self) -> int:
        return len(self.groups)

    # -- interning --------------------------------------------------------------

    def copy_in(self, tree: Operation, context: Context) -> int:
        """Intern a concrete tree (recursively) and return its group id.

        Child contexts are derived with the same top-down propagation the
        exhaustive enumerator's :func:`repro.core.properties.annotate` uses,
        so a rule admitted at some location of a concrete plan is admitted at
        the corresponding (group, context) of the memo.
        """
        tree_key = (context, tree)
        existing = self._tree_index.get(tree_key)
        if existing is not None:
            return self.find(existing)
        child_ids = tuple(
            self.copy_in(child, child_properties(tree, index, context))
            for index, child in enumerate(tree.children)
        )
        group_id = self._intern_expression(tree, child_ids, context, rule_name=None)
        self._tree_index[tree_key] = group_id
        return group_id

    def add_expression(
        self,
        group_id: int,
        replacement: Operation,
        rule_name: str,
    ) -> Optional[GroupExpression]:
        """Record that ``replacement`` is equivalent to ``group_id``'s members.

        Returns the new :class:`GroupExpression` when the replacement's shape
        was unknown to the group, ``None`` when it only added a concrete-tree
        variant (or nothing at all).  If the replacement's expression already
        belongs to a *different* group of the same context, the two groups
        have been proven equivalent and are merged.
        """
        group = self.group(group_id)
        context = group.context
        child_ids = tuple(
            self.copy_in(child, child_properties(replacement, index, context))
            for index, child in enumerate(replacement.children)
        )
        return self.add_expression_parts(group_id, replacement, child_ids, rule_name)

    def add_expression_parts(
        self,
        group_id: int,
        source: Operation,
        child_ids: PyTuple[int, ...],
        rule_name: Optional[str],
    ) -> Optional[GroupExpression]:
        """Add an expression with explicitly chosen child groups.

        Used by :meth:`add_expression` and by the context-upgrade step of
        ``OptimizeInputs``, which re-parents a child onto a weaker-context
        group that :meth:`copy_in`'s per-tree analysis could not see.
        """
        group = self.group(group_id)
        signature = self._expression_signature(source, child_ids)
        key = (group.context, signature)
        existing = self._expression_index.get(key)
        if existing is not None:
            existing = self.find(existing)
            if existing != group.id:
                self._merge(group.id, existing)
                group = self.group(group_id)
            self._intern_tree(group, source)
            return None
        expression = GroupExpression(
            id=self._next_expression_id,
            shell=source,
            children=child_ids,
            source=source,
            rule_name=rule_name,
        )
        self._next_expression_id += 1
        self.expressions_created += 1
        group.expressions.append(expression)
        group.generation += 1
        self.mutations += 1
        self._expression_index[key] = group.id
        self._intern_tree(group, source)
        self._tree_index.setdefault((group.context, source), group.id)
        return expression

    # -- internals --------------------------------------------------------------

    def _expression_signature(
        self, node: Operation, child_ids: PyTuple[int, ...]
    ) -> ExpressionSignature:
        return (
            type(node).__name__,
            node.params(),
            tuple(self.find(child) for child in child_ids),
        )

    def _intern_expression(
        self,
        tree: Operation,
        child_ids: PyTuple[int, ...],
        context: Context,
        rule_name: Optional[str],
    ) -> int:
        signature = self._expression_signature(tree, child_ids)
        key = (context, signature)
        group_id = self._expression_index.get(key)
        if group_id is None:
            group = Group(id=self._next_group_id, context=context)
            self._next_group_id += 1
            self.groups[group.id] = group
            group_id = group.id
            self._expression_index[key] = group_id
            expression = GroupExpression(
                id=self._next_expression_id,
                shell=tree,
                children=child_ids,
                source=tree,
                rule_name=rule_name,
            )
            self._next_expression_id += 1
            self.expressions_created += 1
            group.expressions.append(expression)
            group.generation += 1
            self.mutations += 1
        group = self.group(group_id)
        self._intern_tree(group, tree)
        return group.id

    def _intern_tree(self, group: Group, tree: Operation) -> None:
        feature = binding_feature(tree)
        if feature in group.features:
            return
        group.features[feature] = tree
        numbers = self._binding_numbers
        group.trees[numbers.setdefault(tree, len(numbers))] = tree
        group.generation += 1
        self.mutations += 1
        no_duplicates, no_snapshot_duplicates, coalesced = feature[1]
        if group.no_duplicates_witness is None and no_duplicates:
            group.no_duplicates_witness = tree
        if group.no_snapshot_duplicates_witness is None and no_snapshot_duplicates:
            group.no_snapshot_duplicates_witness = tree
        if group.coalesced_witness is None and coalesced:
            group.coalesced_witness = tree

    def _merge(self, keep_id: int, merge_id: int) -> None:
        """Fold ``merge_id``'s members into ``keep_id`` (proven equivalent)."""
        keep = self.groups[keep_id]
        merged = self.groups.pop(merge_id)
        self._forward[merge_id] = keep_id
        known = {
            self._expression_signature(expr.shell, expr.children)
            for expr in keep.expressions
        }
        for expression in merged.expressions:
            signature = self._expression_signature(expression.shell, expression.children)
            if signature not in known:
                known.add(signature)
                keep.expressions.append(expression)
        for tree in merged.trees.values():
            self._intern_tree(keep, tree)
        keep.generation += 1
        self.mutations += 1
        self.merges += 1
