"""Splitting join predicates for physical join-algorithm selection.

Section 2.4 keeps the join idioms out of the fundamental algebra but notes
that "an implementation should include them for efficiency".  The physical
engines act on that: a ``Join``/``TemporalJoin`` node — or a selection
directly over a (temporal) Cartesian product, the expanded form every
transformation rule works on — is executed by a join algorithm picked from
the *shape of the predicate*:

* **equi-conjuncts** (``left attribute = right attribute``) select a hash
  join: build on the right input, probe with the left;
* **overlap conjuncts** (the pair ``ls < re ∧ rs < le`` between one side's
  interval and the other's — and, implicitly, the period overlap of ``×T``)
  select a sort-merge interval join over the right input ordered by
  interval start;
* everything else stays behind as a **residual filter** evaluated on the
  joined tuple, or falls back to a streaming nested loop.

This module only computes the split.  Which engine fuses what, and which
operator finally runs, is decided once, by
:func:`repro.core.lowering.physical_choice` — the only caller of the
``split_for_*`` functions outside this module; the lowering builds what it
says, :mod:`repro.core.cost` prices it and EXPLAIN prints its description.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from .expressions import And, AttributeRef, Comparison, ComparisonOperator, Expression
from .operations import (
    CartesianProduct,
    Join,
    Operation,
    Selection,
    TemporalCartesianProduct,
    TemporalJoin,
)
from .operations.product import _disambiguated_pairs
from .schema import RelationSchema

#: The two product node types a selection can fuse with.
PRODUCT_TYPES = (CartesianProduct, TemporalCartesianProduct)


@dataclass(frozen=True)
class JoinSplit:
    """One join predicate, split for physical execution.

    Attribute names are the ones of the product's *output* schema (after the
    ``1.``/``2.`` disambiguation); the index tuples give the corresponding
    value positions in the left/right *child* tuples, which is what the
    operators hash and merge on.
    """

    temporal: bool
    """True for ``×T``-shaped joins: periods must overlap, the result tuple
    carries their intersection in fresh ``T1``/``T2``."""
    equi_names: PyTuple[PyTuple[str, str], ...]
    equi_left_indexes: PyTuple[int, ...]
    equi_right_indexes: PyTuple[int, ...]
    overlap_names: Optional[PyTuple[str, str, str, str]]
    """``(left_start, left_end, right_start, right_end)`` output names of an
    extracted ``ls < re ∧ rs < le`` conjunct pair, if any."""
    overlap_indexes: Optional[PyTuple[int, int, int, int]]
    residual: Optional[Expression]

    @property
    def algorithm(self) -> str:
        """The physical algorithm this split selects."""
        if self.equi_left_indexes:
            return "hash"
        if self.temporal or self.overlap_indexes is not None:
            return "interval"
        return "nested-loop"

    def describe(self) -> str:
        """Human-readable algorithm description, as EXPLAIN prints it."""
        if self.algorithm == "hash":
            keys = ", ".join(f"{l}={r}" for l, r in self.equi_names)
            detail = f"hash: {keys}"
            if self.temporal:
                detail += " ∧ overlap"
        elif self.algorithm == "interval":
            if self.overlap_names is not None:
                ls, le, rs, re = self.overlap_names
                detail = f"interval: {ls}<{re} ∧ {rs}<{le}"
            else:
                detail = "interval: period overlap"
        else:
            detail = "nested-loop"
        if self.residual is not None:
            detail += f", residual: {self.residual}"
        return detail


def flatten_conjuncts(predicate: Expression) -> List[Expression]:
    """The conjuncts of a predicate, with nested ``And`` nodes flattened."""
    if isinstance(predicate, And):
        flattened: List[Expression] = []
        for operand in predicate.operands:
            flattened.extend(flatten_conjuncts(operand))
        return flattened
    return [predicate]


def _conjoin(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(*conjuncts)


def split_product_predicate(
    predicate: Optional[Expression],
    left_names: Sequence[str],
    right_names: Sequence[str],
    temporal: bool,
) -> JoinSplit:
    """Split ``predicate`` over a product of two inputs.

    ``left_names``/``right_names`` are the product's output attribute names
    contributed by each child, in child value order (for a temporal product
    the fresh ``T1``/``T2`` belong to neither side and always stay in the
    residual).  ``predicate`` may be ``None`` for a bare product.
    """
    left_positions = {name: i for i, name in enumerate(left_names)}
    right_positions = {name: i for i, name in enumerate(right_names)}

    equi_names: List[PyTuple[str, str]] = []
    equi_left: List[int] = []
    equi_right: List[int] = []
    lt_pairs: List[PyTuple[int, str, str]] = []  # (conjunct index, smaller, larger)
    residual: List[Expression] = []

    conjuncts = flatten_conjuncts(predicate) if predicate is not None else []
    consumed: set = set()
    for index, conjunct in enumerate(conjuncts):
        if not (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, AttributeRef)
            and isinstance(conjunct.right, AttributeRef)
        ):
            continue
        a, b = conjunct.left.name, conjunct.right.name
        crosses = (a in left_positions and b in right_positions) or (
            b in left_positions and a in right_positions
        )
        if not crosses:
            continue
        if conjunct.operator is ComparisonOperator.EQ:
            if a in left_positions:
                equi_names.append((a, b))
                equi_left.append(left_positions[a])
                equi_right.append(right_positions[b])
            else:
                equi_names.append((b, a))
                equi_left.append(left_positions[b])
                equi_right.append(right_positions[a])
            consumed.add(index)
        elif conjunct.operator is ComparisonOperator.LT:
            lt_pairs.append((index, a, b))
        elif conjunct.operator is ComparisonOperator.GT:
            lt_pairs.append((index, b, a))

    overlap_names: Optional[PyTuple[str, str, str, str]] = None
    overlap_indexes: Optional[PyTuple[int, int, int, int]] = None
    if not equi_left and not temporal:
        # Look for the canonical overlap pattern ls < re ∧ rs < le (one
        # strict inequality in each direction); the hash path subsumes it as
        # a residual, so it is only extracted when there are no equi keys.
        for i, a1, b1 in lt_pairs:
            if a1 not in left_positions:
                continue
            for j, a2, b2 in lt_pairs:
                if i == j or a2 not in right_positions:
                    continue
                overlap_names = (a1, b2, a2, b1)
                overlap_indexes = (
                    left_positions[a1],
                    left_positions[b2],
                    right_positions[a2],
                    right_positions[b1],
                )
                consumed.add(i)
                consumed.add(j)
                break
            if overlap_names is not None:
                break

    residual = [c for index, c in enumerate(conjuncts) if index not in consumed]
    return JoinSplit(
        temporal=temporal,
        equi_names=tuple(equi_names),
        equi_left_indexes=tuple(equi_left),
        equi_right_indexes=tuple(equi_right),
        overlap_names=overlap_names,
        overlap_indexes=overlap_indexes,
        residual=_conjoin(residual),
    )


def _product_sides(product: Operation) -> PyTuple[List[str], List[str]]:
    """The output names each child contributes to a product, in child order."""
    schema = product.output_schema()
    left_width = len(product.children[0].output_schema().attributes)
    right_width = len(product.children[1].output_schema().attributes)
    attributes = schema.attributes
    return (
        list(attributes[:left_width]),
        list(attributes[left_width : left_width + right_width]),
    )


def _schema_side_names(
    left_schema: RelationSchema, right_schema: RelationSchema
) -> PyTuple[List[str], List[str]]:
    """The per-side output names a product of the two schemas would carry.

    Exactly the names ``(Temporal)CartesianProduct.output_schema`` derives
    (the same renaming helper runs underneath), without building operation
    nodes — which lets callers key split caches on the schemas alone.
    """
    left = [name for name, _ in _disambiguated_pairs(left_schema, right_schema, "1.", True)]
    right = [name for name, _ in _disambiguated_pairs(right_schema, left_schema, "2.", True)]
    return left, right


def split_for_join_schemas(
    predicate: Optional[Expression],
    left_schema: RelationSchema,
    right_schema: RelationSchema,
    temporal: bool,
) -> JoinSplit:
    """The split of a join with the given predicate over the two schemas.

    The schema-level form of :func:`split_for_join`: everything the split
    depends on is passed explicitly, so the cost model can memoise on it.
    """
    left_names, right_names = _schema_side_names(left_schema, right_schema)
    return split_product_predicate(predicate, left_names, right_names, temporal)


@lru_cache(maxsize=4096)
def _cached_split(
    temporal: bool,
    predicate: Optional[Expression],
    left_schema: RelationSchema,
    right_schema: RelationSchema,
) -> JoinSplit:
    # Keyed on exactly what the split depends on: retains only predicates
    # and schemas (both small and cheaply hashable), never plan subtrees —
    # a node-keyed cache would pin whole child trees, including
    # LiteralRelation payloads, for the process lifetime.
    return split_for_join_schemas(predicate, left_schema, right_schema, temporal)


def split_for_join(node: Operation) -> Optional[JoinSplit]:
    """The split of a ``Join``/``TemporalJoin`` idiom node (memoised)."""
    if not isinstance(node, (Join, TemporalJoin)):
        return None
    return _cached_split(
        isinstance(node, TemporalJoin),
        node.predicate,
        node.children[0].output_schema(),
        node.children[1].output_schema(),
    )


def split_for_selection(node: Operation) -> Optional[PyTuple[JoinSplit, Operation]]:
    """The split of a selection directly over a product, if it is one.

    Returns ``(split, product)``: the split the two logical nodes run with
    when their engine fuses them into one join operator — the stratum fuses
    every such pair (in the worst case the whole predicate is the residual
    of a streaming nested loop, which still avoids materialising the
    product), the DBMS only a hash join.
    """
    if not isinstance(node, Selection) or not isinstance(node.child, PRODUCT_TYPES):
        return None
    product = node.child
    left_names, right_names = _product_sides(product)
    split = split_product_predicate(
        node.predicate,
        left_names,
        right_names,
        isinstance(product, TemporalCartesianProduct),
    )
    return split, product


def split_for_product(node: Operation) -> Optional[JoinSplit]:
    """The (predicate-free) split of a bare product node."""
    if not isinstance(node, PRODUCT_TYPES):
        return None
    left_names, right_names = _product_sides(node)
    return split_product_predicate(
        None, left_names, right_names, isinstance(node, TemporalCartesianProduct)
    )
