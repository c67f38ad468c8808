"""Sorting transformation rules S1–S3 (Figure 4) and sort push-down rules.

S1  sortA(r) ≡L r                      if IsPrefixOf(A, Order(r))
S2  sortA(r) ≡M r
S3  sortA(sortB(r)) ≡L sortA(r)        if IsPrefixOf(B, A)

(When ``A`` is a prefix of ``B`` in S3 the outer sort is removed by S1 instead.)

Section 4.4 additionally observes that sorting the result of an operation can
instead be performed on the operation's (first) argument whenever the
operation does not destroy the ordering.  Because the paper's list-based
algebra allows sorting anywhere in a plan — the motivation for departing from
multiset algebras — these push-down rules are what let the optimizer move an
outermost ``ORDER BY`` deep into the plan (and, combined with the transfer
rules, into the DBMS, which "sorts faster than the stratum").  The push-down
rules below are ≡L and carry premises ensuring the pushed sort's keys
survive the operation unchanged: selection, ``rdup`` and the left argument
of a difference keep the order, a projection must pass the keys through, and
``coalT`` and ``\\T`` must not be sorted on the time attributes they rewrite.
"""

from __future__ import annotations

from ..equivalence import EquivalenceType as E
from ..operations import (
    Coalescing,
    Difference,
    DuplicateElimination,
    Projection,
    Selection,
    Sort,
    TemporalDifference,
)
from .base import Rule
from .premises import avoids_time, key_prefix, ordered_by, passes_through, snapshot

SORTING_RULES = (
    Rule(
        "S1", E.LIST, "sort(r)", lambda b: b["r"], ordered_by("r", "sort"),
        description="drop a sort whose order the argument already satisfies", promise=2.0,
    ),
    Rule(
        "S2", E.MULTISET, "sort(r)", lambda b: b["r"],
        description="drop a sort when only the multiset matters", promise=2.0,
    ),
    Rule(
        "S3", E.LIST, "sort(sort2(r))", lambda b: Sort(b["sort"].sort_order, b["r"]),
        key_prefix("sort2", "sort"),
        description="collapse consecutive sorts", promise=2.0,
    ),
    Rule(
        "S-push-σ", E.LIST, "sort(σ(r))",
        lambda b: Selection(b["σ"].predicate, Sort(b["sort"].sort_order, b["r"])),
        description="push sort below selection",
    ),
    Rule(
        "S-push-π", E.LIST, "sort(π(r))",
        lambda b: Projection(b["π"].items, Sort(b["sort"].sort_order, b["r"])),
        passes_through("π", "sort"),
        description="push sort below projection",
    ),
    Rule(
        "S-push-rdup", E.LIST, "sort(rdup(r))",
        lambda b: DuplicateElimination(Sort(b["sort"].sort_order, b["r"])), snapshot("r"),
        description="push sort below duplicate elimination",
    ),
    Rule(
        "S-push-coal", E.LIST, "sort(coalT(r))",
        lambda b: Coalescing(Sort(b["sort"].sort_order, b["r"])), avoids_time("sort"),
        description="push sort below coalescing",
    ),
    Rule(
        "S-push-diff", E.LIST, r"sort(\(r1, r2))",
        lambda b: Difference(Sort(b["sort"].sort_order, b["r1"]), b["r2"]), snapshot("r1"),
        description="push sort into the left argument of a difference",
    ),
    Rule(
        "S-push-diffT", E.LIST, r"sort(\T(r1, r2))",
        lambda b: TemporalDifference(Sort(b["sort"].sort_order, b["r1"]), b["r2"]),
        avoids_time("sort"),
        description="push sort into the left argument of a temporal difference",
    ),
)
"""All sorting rules: S1–S3 plus the Section 4.4 push-down rules."""
