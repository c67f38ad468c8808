"""Coalescing transformation rules C1–C10 (Figure 4).

C1   coalT(r) ≡L r                                        if r is coalesced
C2   coalT(r) ≡SM r
C3   coalT(σP(r)) ≡L σP(coalT(r))                         if T1,T2 ∉ attr(P)
C4   π_{f1..fn}(coalT(r)) ≡S π_{f1..fn}(r)                if T1,T2 ∉ attr(f1..fn)
C5   coalT(coalT(r1) ⊔ coalT(r2)) ≡L coalT(r1 ⊔ r2)
C6   coalT(coalT(r1) ∪T coalT(r2)) ≡L coalT(r1 ∪T r2)       if r1, r2 have no snapshot duplicates
C7   coalT(γT(coalT(r))) ≡L coalT(γT(r))
C8   coalT(π_{f,T1,T2}(coalT(r))) ≡L coalT(π_{f,T1,T2}(r)) if r has no snapshot duplicates
C9   coalT(πA(r1 ×T r2)) ≡L πA(coalT(r1) ×T coalT(r2))     if r1, r2 have no snapshot duplicates,
                                                           A = Ω(r1 ×T r2) \\ {1.T1,1.T2,2.T1,2.T2}
C10  coalT(r1 \\T r2) ≡M coalT(r1) \\T coalT(r2)            if r1 has no snapshot duplicates

Each equivalence is realised as a directed rewrite.  For C3 the implemented
direction pushes the selection *below* the coalescing
(``σP(coalT(r)) → coalT(σP(r))``), matching the "selections as early as
possible" heuristic the paper proposes for the enumeration algorithm; the
other direction is the same equivalence read right-to-left and can be added
to a rule set explicitly when needed.
"""

from __future__ import annotations

from ..equivalence import EquivalenceType as E
from ..operations import (
    Coalescing,
    Projection,
    Selection,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalUnion,
    UnionAll,
)
from .base import Rule
from .premises import (
    avoids_time,
    coalesced,
    drops_lineage,
    keeps_time,
    no_snapshot_duplicates,
    plain,
)

COALESCING_RULES = (
    Rule(
        "C1", E.LIST, "coalT(r)", lambda b: b["r"], coalesced("r"),
        description="coalT(r) = r when r is coalesced", promise=2.0,
    ),
    Rule(
        "C2", E.SNAPSHOT_MULTISET, "coalT(r)", lambda b: b["r"],
        description="coalT(r) = r as snapshot multisets", promise=2.0,
    ),
    Rule(
        "C3", E.LIST, "σ(coalT(r))",
        lambda b: Coalescing(Selection(b["σ"].predicate, b["r"])), avoids_time("σ"),
        description="selection and coalescing commute when the predicate is non-temporal",
    ),
    Rule(
        "C4", E.SET, "π(coalT(r))", lambda b: Projection(b["π"].items, b["r"]), avoids_time("π"),
        description="coalescing below a non-temporal projection is unnecessary for sets",
        promise=1.5,
    ),
    # C5 is ≡SM, not the paper's ≡L.  Under this library's operational
    # coalescing (earliest-pair-first merging of adjacent periods), the two
    # sides can differ as lists — and even as multisets — when the
    # concatenation contains duplicates in snapshots, because coalescing is
    # then sensitive to how the argument's periods are packaged
    # (``docs/architecture.md``, "Where coalT departs from the paper").
    Rule(
        "C5", E.SNAPSHOT_MULTISET, "coalT(⊔(coalT1(r1), coalT2(r2)))",
        lambda b: Coalescing(UnionAll(b["r1"], b["r2"])),
        description="inner coalescings below union ALL are redundant (snapshot multisets)",
    ),
    # C6 requires both arguments to have duplicate-free snapshots, a premise
    # the paper does not state.  Then every ``coalT`` on either side sees
    # disjoint periods within each value class, so it merges exactly the
    # chains of adjacent periods, and both sides emit each maximal interval
    # of a class's union on the earliest row that contributes to it.  Without
    # the premise which adjacent pairs ``coalT`` merges depends on the
    # arrangement, and the two sides are only snapshot-equivalent.
    Rule(
        "C6", E.LIST, "coalT(∪T(coalT1(r1), coalT2(r2)))",
        lambda b: Coalescing(TemporalUnion(b["r1"], b["r2"])),
        no_snapshot_duplicates("r1"), no_snapshot_duplicates("r2"),
        description="inner coalescings below temporal union are redundant",
    ),
    Rule(
        "C7", E.LIST, "coalT(γT(coalT2(r)))",
        lambda b: Coalescing(TemporalAggregation(b["γT"].grouping, b["γT"].functions, b["r"])),
        description="coalescing the argument of a temporal aggregation is redundant",
    ),
    Rule(
        "C8", E.LIST, "coalT(π(coalT2(r)))",
        lambda b: Coalescing(Projection(b["π"].items, b["r"])),
        keeps_time("π"), no_snapshot_duplicates("r"),
        description="coalescing the argument of a time-preserving projection is redundant",
    ),
    # C9: ``A`` must be exactly the product's attributes minus the retained
    # argument timestamps.  The paper states C9 as ≡L; with this library's
    # operational coalescing the two sides can emit the same tuples in a
    # different order (the left side's coalescing repositions merged
    # tuples), so the rule is ≡M — the strongest level that provably holds.
    Rule(
        "C9", E.MULTISET, "coalT(π(×T(r1, r2)))",
        lambda b: Projection(
            b["π"].items, TemporalCartesianProduct(Coalescing(b["r1"]), Coalescing(b["r2"]))
        ),
        plain("π"), drops_lineage("π", "×T"),
        no_snapshot_duplicates("r1"), no_snapshot_duplicates("r2"),
        description="coalesce the arguments of a temporal product instead of its projection",
    ),
    # C10 is only ≡M: the temporal difference is sensitive to how
    # value-equivalent periods are distributed in its left argument.
    Rule(
        "C10", E.MULTISET, r"coalT(\T(r1, r2))",
        lambda b: TemporalDifference(Coalescing(b["r1"]), Coalescing(b["r2"])),
        no_snapshot_duplicates("r1"),
        description="push coalescing below temporal difference",
    ),
)
"""All coalescing rules, in Figure 4 order."""
