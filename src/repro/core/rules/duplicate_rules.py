"""Duplicate-elimination transformation rules D1–D6 (Figure 4).

D1  rdup(r)  ≡L r                        if r has no duplicates
D2  rdupT(r) ≡L r                        if r has no duplicates in snapshots
D3  rdup(r)  ≡S r
D4  rdupT(r) ≡SS r
D5  rdup(r1 ∪ r2)   ≡L rdup(r1) ∪ rdup(r2)
D6  rdupT(r1 ∪T r2) ≡L rdupT(r1) ∪T rdupT(r2)

The semantic preconditions of D1/D2 are discharged with the conservative
static analysis of :mod:`repro.core.analysis`.  D1 and D3 additionally
require the argument to be a snapshot relation: applied to a temporal
argument, ``rdup`` demotes the reserved time attributes (Figure 3), so its
result schema differs from the argument's and the equivalence as stated
cannot hold.

Two idempotence rules (``rdup(rdup(r)) ≡L rdup(r)`` and its temporal
counterpart) are included as well; they follow from D1/D2 but are cheap to
match directly and keep the enumeration's plan space small.  D5 is valid
because the multiset union (unlike SQL's UNION ALL) does not generate new
duplicates when its arguments are duplicate free.
"""

from __future__ import annotations

from ..equivalence import EquivalenceType as E
from ..operations import DuplicateElimination, TemporalDuplicateElimination, TemporalUnion, Union
from .base import Rule
from .premises import no_duplicates, no_snapshot_duplicates, snapshot

DUPLICATE_RULES = (
    Rule(
        "D1", E.LIST, "rdup(r)", lambda b: b["r"], snapshot("r"), no_duplicates("r"),
        description="rdup(r) = r when r has no duplicates", promise=2.0,
    ),
    Rule(
        "D2", E.LIST, "rdupT(r)", lambda b: b["r"], no_snapshot_duplicates("r"),
        description="rdupT(r) = r when r has no duplicates in snapshots", promise=2.0,
    ),
    Rule(
        "D3", E.SET, "rdup(r)", lambda b: b["r"], snapshot("r"),
        description="rdup(r) = r as sets", promise=2.0,
    ),
    Rule(
        "D4", E.SNAPSHOT_SET, "rdupT(r)", lambda b: b["r"],
        description="rdupT(r) = r as snapshot sets", promise=2.0,
    ),
    Rule(
        "D5", E.LIST, "rdup(∪(r1, r2))",
        lambda b: Union(DuplicateElimination(b["r1"]), DuplicateElimination(b["r2"])),
        description="push rdup below multiset union",
    ),
    Rule(
        "D6", E.LIST, "rdupT(∪T(r1, r2))",
        lambda b: TemporalUnion(
            TemporalDuplicateElimination(b["r1"]), TemporalDuplicateElimination(b["r2"])
        ),
        description="push rdupT below temporal union",
    ),
    Rule(
        "D-idem", E.LIST, "rdup(rdup2(r))", lambda b: b["rdup2"],
        description="rdup is idempotent", promise=2.0,
    ),
    Rule(
        "DT-idem", E.LIST, "rdupT(rdupT2(r))", lambda b: b["rdupT2"],
        description="rdupT is idempotent", promise=2.0,
    ),
)
"""All duplicate-elimination rules, in Figure 4 order."""
