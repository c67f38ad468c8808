"""Join-idiom introduction rules: ``σP(r1 × r2) ≡L r1 ⋈P r2``.

Section 2.4 keeps the join idioms out of the fundamental algebra — every
transformation rule of the catalogue works on the expanded
selection-over-product form — but notes that "an implementation should
include them for efficiency".  The physical engines took that advice long
ago (:mod:`repro.core.lowering` fuses a selection directly over a product
into one join operator of :mod:`repro.core.physical`); these rules let the *optimizer* take it
too: they rewrite the expanded form into an explicit :class:`Join` /
:class:`TemporalJoin` idiom node, which the cost model prices from the
physical algorithm its predicate selects (:mod:`repro.core.joinsplit`)
instead of from full product materialisation.

Without them the memo search cannot see the fusion: it costs operator
shells one at a time, so a selection's fusion with the product below it is
invisible, and every join-shaped plan is ranked by ``|r1|·|r2|`` work the
executor never performs.  With them the fused form is an explicit,
separately-costed alternative in the plan space — reached by an ordinary
rewrite, not a parent-context special case.

Both rules are ≡L: the idiom nodes are *defined* by their expansion
(:meth:`Join.expand`) and evaluate to the identical tuple sequence, so the
rewrite is valid at every location regardless of the Table 2 properties.
The rules are also size-decreasing (two operations become one), keeping the
default rule set terminating.  Only the fusing direction is included — the
expanded form the rules consume is the seed shape every front-end plan and
every other catalogue rule produces, so the memo always holds both forms.
"""

from __future__ import annotations

from ..equivalence import EquivalenceType as E
from ..operations import Join, TemporalJoin
from .base import Rule

JOIN_RULES = (
    # Removing the materialised product is the catalogue's biggest win: fire
    # early so the memo search gets tight upper bounds fast.
    Rule(
        "σ×→⋈", E.LIST, "σ(×(r1, r2))", lambda b: Join(b["σ"].predicate, b["r1"], b["r2"]),
        description="fuse a selection over a Cartesian product into a join", promise=2.0,
    ),
    Rule(
        "σ×T→⋈T", E.LIST, "σ(×T(r1, r2))",
        lambda b: TemporalJoin(b["σ"].predicate, b["r1"], b["r2"]),
        description="fuse a selection over a temporal product into a temporal join",
        promise=2.0,
    ),
)
"""The join-idiom introduction rules (Section 2.4 made explicit)."""
