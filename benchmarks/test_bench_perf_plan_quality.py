"""Perf-Q — plan quality under the algorithm-based join cost model.

PR 4 taught the *executor* to run joins with hash/interval algorithms, but
the optimizer kept pricing every join shape as full product materialisation
(``|r1|·|r2|``), so the memo ranked join-bearing plans by work the executor
no longer performs.  This experiment shows the consequence, and the fix, on
a reservation-vs-maintenance **interval-overlap join** — a keyless join the
stratum executes near-linearly (sort-merge interval join) while the
conventional DBMS substrate, which has no interval join, can only stream
the full product through a filter:

* under the **product-cost baseline** (the PR-4 rule set, without the
  σ(×) → ⋈ rewrite) the optimizer believes the join costs ``|R|·|M|``
  wherever it runs, so the DBMS's cheaper engine factor wins and the whole
  query is pushed below the transfer — onto the one engine that really is
  quadratic here;
* with the rewrite and the **algorithm-based cost model** the memo reaches
  the explicit ``⋈`` idiom node, prices it per engine (interval join in the
  stratum, product bound in the DBMS), and keeps the join in the stratum.

The chosen plan flips, and the flipped plan must cost at least **2× less
at the actual cardinalities** (:func:`repro.core.cost.measure_cost`, the
cost model evaluated at each operator's observed input and output sizes; it
reads ~12× here, 300 tuples per side, i.e. 90 000 candidate pairs for the
product plan); both plans must produce the same multiset (the transfer moves
are ≡M), and at the same scale the memo's chosen cost must still equal the
exhaustive enumeration's minimum.
"""

import random

from repro.core.cost import choose_best_plan, measure_cost
from repro.core.enumeration import enumerate_plans
from repro.core.expressions import And, AttributeRef, Comparison, ComparisonOperator
from repro.core.operations import (
    BaseRelation,
    CartesianProduct,
    Join,
    Selection,
    TemporalJoin,
    TransferToStratum,
)
from repro.core.query import QueryResultSpec
from repro.core.relation import Relation
from repro.core.rules import DEFAULT_RULES, JOIN_RULES
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.search import MemoSearch
from repro.stratum import TemporalDatabase

from .conftest import banner

SCALE = 300

RESERVATION_SCHEMA = RelationSchema.snapshot(
    [("Res", STRING), ("RS", INTEGER), ("RE", INTEGER)], name="RESERVATION"
)
MAINTENANCE_SCHEMA = RelationSchema.snapshot(
    [("Crew", STRING), ("MS", INTEGER), ("ME", INTEGER)], name="MAINTENANCE"
)

#: The rule set before this PR: everything except the σ(×) → ⋈ rewrite.
BASELINE_RULES = tuple(rule for rule in DEFAULT_RULES if rule not in JOIN_RULES)


def _interval_rows(count: int, prefix: str, rng: random.Random):
    # The time span scales with the tuple count so the expected number of
    # overlapping pairs stays proportional to it.
    span = max(200, 67 * count)
    rows = []
    for index in range(count):
        start = rng.randrange(1, span)
        rows.append((f"{prefix}{index}", start, start + rng.randrange(1, 30)))
    return rows


def make_database() -> TemporalDatabase:
    rng = random.Random(5)
    reservations = Relation.from_rows(
        RESERVATION_SCHEMA, _interval_rows(SCALE, "r", rng)
    )
    maintenance = Relation.from_rows(
        MAINTENANCE_SCHEMA, _interval_rows(SCALE, "m", rng)
    )
    database = TemporalDatabase()
    database.register("RESERVATION", reservations)
    database.register("MAINTENANCE", maintenance)
    return database


def overlap_join_seed():
    """``σ[RS<ME ∧ MS<RE](RESERVATION × MAINTENANCE)``, computed in the DBMS.

    The front-end shape: everything below a single transfer, the expanded
    σ-over-product form every catalogue rule works on.
    """
    predicate = And(
        Comparison(ComparisonOperator.LT, AttributeRef("RS"), AttributeRef("ME")),
        Comparison(ComparisonOperator.LT, AttributeRef("MS"), AttributeRef("RE")),
    )
    body = Selection(
        predicate,
        CartesianProduct(
            BaseRelation("RESERVATION", RESERVATION_SCHEMA),
            BaseRelation("MAINTENANCE", MAINTENANCE_SCHEMA),
        ),
    )
    return TransferToStratum(body), QueryResultSpec.multiset()


def _multiset(relation: Relation):
    # Canonicalize by attribute name: the ≡M rewrites include ×-commute,
    # which permutes the result schema's attribute order.
    names = sorted(relation.schema.attributes)
    return sorted(tuple(tup[name] for name in names) for tup in relation.tuples)


def _contains_idiom(plan) -> bool:
    return any(isinstance(node, (Join, TemporalJoin)) for _, node in plan.locations())


def test_perf_plan_flip_is_cheaper_by_measured_cost():
    database = make_database()
    seed, spec = overlap_join_seed()
    statistics = database.statistics()

    baseline = MemoSearch(rules=BASELINE_RULES).optimize(seed, spec, statistics)
    current = MemoSearch(rules=DEFAULT_RULES).optimize(seed, spec, statistics)

    # The chosen plan flips: the baseline leaves the keyless overlap join in
    # the DBMS (it looks 4× cheaper at product cost), the algorithm-based
    # model keeps it in the stratum as an explicit interval ⋈.
    assert baseline.best_plan.signature() != current.best_plan.signature()
    assert not _contains_idiom(baseline.best_plan), baseline.best_plan.pretty()
    assert _contains_idiom(current.best_plan), current.best_plan.pretty()

    baseline_relation = database.run_plan(baseline.best_plan)
    current_relation = database.run_plan(current.best_plan)

    # ≡M: the transfer moves promise multisets, and both plans must agree
    # with the reference evaluation of the seed plan.
    reference = database.evaluate_reference(seed)
    assert _multiset(baseline_relation) == _multiset(reference)
    assert _multiset(current_relation) == _multiset(reference)

    context = database.evaluation_context()
    baseline_measured = measure_cost(baseline.best_plan, context).total
    current_measured = measure_cost(current.best_plan, context).total
    ratio = baseline_measured / current_measured
    print(banner(f"Perf-Q — plan quality under physical-aware join costing (scale {SCALE})"))
    print(
        f"workload: RESERVATION={SCALE} × MAINTENANCE={SCALE} tuples, "
        f"result rows={len(current_relation)}"
    )
    print("baseline plan (product cost):")
    print(baseline.best_plan.pretty())
    print("chosen plan (algorithm cost):")
    print(current.best_plan.pretty())
    print(
        f"measured cost: baseline={baseline_measured:,.1f} "
        f"current={current_measured:,.1f} ({ratio:,.1f}x)"
    )
    assert len(current_relation) > 0
    assert ratio >= 2.0, (
        f"the flipped plan must cost >=2x less at the actual cardinalities, got {ratio:.2f}x"
    )


def test_memo_agrees_with_exhaustive_on_the_flip_workload():
    """The new costing must not cost the memo its exactness."""
    database = make_database()
    seed, spec = overlap_join_seed()
    statistics = database.statistics()
    enumeration = enumerate_plans(seed, spec, max_plans=60000)
    assert not enumeration.statistics.truncated
    _, exhaustive_cost = choose_best_plan(enumeration.plans, statistics)
    memo = MemoSearch(rules=DEFAULT_RULES).optimize(seed, spec, statistics)
    assert abs(memo.best_cost.total - exhaustive_cost.total) <= 1e-9 * max(
        1.0, exhaustive_cost.total
    )
