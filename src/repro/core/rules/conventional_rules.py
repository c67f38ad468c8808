"""Conventional transformation rules lifted to lists and temporal operations.

Section 4.1: most of the classical multiset rules (selection push-down,
cascades, commutativity, ...) remain valid for list-based relations and have
counterparts for the temporal operations; commutativity rules, however, only
preserve ≡M because swapping the arguments changes the order of the result,
and rules touching the unions may be weaker still.  The concrete catalogue
below covers:

* selection: cascade commutation, push-down below projection, sort,
  duplicate eliminations, coalescing (rule C3 lives with the coalescing
  rules), products, differences, union ALL and the unions, and grouping-
  attribute push-down below (temporal) aggregation;
* projection: cascade merging and push-down below union ALL;
* commutativity of the products and unions;
* associativity of union ALL.

Every rule declares the premises under which it fires; each follows the
corresponding requirement of the paper (e.g. a predicate pushed through a
temporal operation must not mention ``T1``/``T2`` because those operations
rewrite the period attributes, and one pushed below ``rdup``, ``∪`` or ``\\``
needs a snapshot argument because over a temporal one they demote the time
attributes, so the predicate's names would not resolve below them).

Two equivalences are weaker than they look.  Pushing a grouping-attribute
selection below a temporal aggregation is only ≡SM: removing other groups'
tuples changes how the surviving groups' result periods are fragmented, but
not any snapshot.  The temporal union commutes only as snapshot sets: it
keeps its left argument's tuples (duplicates included) verbatim and adds
only the uncovered fragments of the right argument, so swapping the
arguments can change both period packaging and snapshot duplicate counts —
one of the union rules the paper notes have "equivalence types weaker than
≡M" (Section 4.1).  The Cartesian product commutes only without name
clashes and over snapshot arguments: otherwise it renames attributes with
the ``1.`` / ``2.`` prefixes, and swapping the arguments would change the
result schema.
"""

from __future__ import annotations

from ..equivalence import EquivalenceType as E
from ..operations import (
    Aggregation,
    CartesianProduct,
    Difference,
    DuplicateElimination,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    Union,
    UnionAll,
)
from .base import Rule
from .premises import (
    avoids_time,
    disjoint,
    passes_through,
    plain,
    reads_grouping,
    selects_from,
    snapshot,
)


def _selected(bindings, argument: str) -> Selection:
    return Selection(bindings["σ"].predicate, bindings[argument])


CONVENTIONAL_RULES = (
    # Selection rules.
    Rule(
        "σ-commute", E.LIST, "σ(σ2(r))",
        lambda b: Selection(b["σ2"].predicate, _selected(b, "r")),
        description="adjacent selections commute",
    ),
    Rule(
        "σ-below-π", E.LIST, "σ(π(r))", lambda b: Projection(b["π"].items, _selected(b, "r")),
        passes_through("π", "σ"),
        description="push selection below projection",
    ),
    Rule(
        "σ-below-sort", E.LIST, "σ(sort(r))",
        lambda b: Sort(b["sort"].sort_order, _selected(b, "r")),
        description="push selection below sort",
    ),
    Rule(
        "σ-below-rdup", E.LIST, "σ(rdup(r))", lambda b: DuplicateElimination(_selected(b, "r")),
        snapshot("r"),
        description="push selection below duplicate elimination",
    ),
    Rule(
        "σ-below-rdupT", E.LIST, "σ(rdupT(r))",
        lambda b: TemporalDuplicateElimination(_selected(b, "r")), avoids_time("σ"),
        description="push selection below temporal duplicate elimination",
    ),
    Rule(
        "σ-into-×-left", E.LIST, "σ(×(r1, r2))",
        lambda b: CartesianProduct(_selected(b, "r1"), b["r2"]), selects_from("σ", "r1", "×"),
        description="push selection into the left argument of a product",
    ),
    Rule(
        "σ-into-×-right", E.LIST, "σ(×(r1, r2))",
        lambda b: CartesianProduct(b["r1"], _selected(b, "r2")), selects_from("σ", "r2", "×"),
        description="push selection into the right argument of a product",
    ),
    # The temporal product computes its fresh T1/T2 (the period intersection)
    # itself, so a predicate mentioning them cannot be pushed.
    Rule(
        "σ-into-×T-left", E.LIST, "σ(×T(r1, r2))",
        lambda b: TemporalCartesianProduct(_selected(b, "r1"), b["r2"]),
        avoids_time("σ"), selects_from("σ", "r1", "×T"),
        description="push selection into the left argument of a temporal product",
    ),
    Rule(
        "σ-into-×T-right", E.LIST, "σ(×T(r1, r2))",
        lambda b: TemporalCartesianProduct(b["r1"], _selected(b, "r2")),
        avoids_time("σ"), selects_from("σ", "r2", "×T"),
        description="push selection into the right argument of a temporal product",
    ),
    Rule(
        "σ-below-⊔", E.LIST, "σ(⊔(r1, r2))",
        lambda b: UnionAll(_selected(b, "r1"), _selected(b, "r2")),
        description="push selection below union ALL",
    ),
    Rule(
        "σ-below-∪", E.MULTISET, "σ(∪(r1, r2))",
        lambda b: Union(_selected(b, "r1"), _selected(b, "r2")), snapshot("r1"),
        description="push selection below multiset union",
    ),
    Rule(
        "σ-below-∪T", E.MULTISET, "σ(∪T(r1, r2))",
        lambda b: TemporalUnion(_selected(b, "r1"), _selected(b, "r2")), avoids_time("σ"),
        description="push selection below temporal union",
    ),
    Rule(
        "σ-into-\\-left", E.LIST, r"σ(\(r1, r2))",
        lambda b: Difference(_selected(b, "r1"), b["r2"]), snapshot("r1"),
        description="push selection into the left argument of a difference",
    ),
    Rule(
        "σ-into-\\T-left", E.LIST, r"σ(\T(r1, r2))",
        lambda b: TemporalDifference(_selected(b, "r1"), b["r2"]), avoids_time("σ"),
        description="push selection into the left argument of a temporal difference",
    ),
    # Grouping on T1/T2 renames the output attributes, so only a non-temporal
    # grouping lets the selection through.
    Rule(
        "σ-below-γ", E.LIST, "σ(γ(r))",
        lambda b: Aggregation(b["γ"].grouping, b["γ"].functions, _selected(b, "r")),
        reads_grouping("σ", "γ"), avoids_time("γ"),
        description="push a grouping-attribute selection below aggregation",
    ),
    Rule(
        "σ-below-γT", E.SNAPSHOT_MULTISET, "σ(γT(r))",
        lambda b: TemporalAggregation(b["γT"].grouping, b["γT"].functions, _selected(b, "r")),
        reads_grouping("σ", "γT"),
        description="push a grouping-attribute selection below temporal aggregation",
    ),
    # Projection rules.
    Rule(
        "π-cascade", E.LIST, "π(π2(r))", lambda b: Projection(b["π"].items, b["r"]),
        plain("π2"), passes_through("π2", "π"),
        description="merge consecutive projections",
    ),
    Rule(
        "π-below-⊔", E.LIST, "π(⊔(r1, r2))",
        lambda b: UnionAll(Projection(b["π"].items, b["r1"]), Projection(b["π"].items, b["r2"])),
        description="push projection below union ALL",
    ),
    # Commutativity and associativity.
    Rule(
        "×-commute", E.MULTISET, "×(r1, r2)", lambda b: CartesianProduct(b["r2"], b["r1"]),
        snapshot("r1"), snapshot("r2"), disjoint("r1", "r2"),
        description="Cartesian product commutes (as multisets)",
    ),
    Rule(
        "⊔-commute", E.MULTISET, "⊔(r1, r2)", lambda b: UnionAll(b["r2"], b["r1"]),
        description="union ALL commutes (as multisets)",
    ),
    Rule(
        "∪-commute", E.MULTISET, "∪(r1, r2)", lambda b: Union(b["r2"], b["r1"]),
        description="multiset union commutes",
    ),
    Rule(
        "∪T-commute", E.SNAPSHOT_SET, "∪T(r1, r2)", lambda b: TemporalUnion(b["r2"], b["r1"]),
        description="temporal union commutes as snapshot sets",
    ),
    Rule(
        "⊔-assoc", E.LIST, "⊔(⊔2(r1, r2), r3)",
        lambda b: UnionAll(b["r1"], UnionAll(b["r2"], b["r3"])),
        description="union ALL is associative",
    ),
)
"""The conventional rule catalogue (Section 4.1)."""
