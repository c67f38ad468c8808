"""Perf-Q — plan quality under the algorithm-based join cost model.

PR 4 taught the *executor* to run joins with hash/interval algorithms, but
the optimizer kept pricing every join shape as full product materialisation
(``|r1|·|r2|``), so the memo ranked join-bearing plans by work the executor
no longer performs.  This benchmark shows the consequence, and the fix, on
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

The chosen plan flips, and the flipped plan must be at least **2× faster
end to end** (it measures >50× here); both plans must produce the same
multiset (the transfer moves are ≡M), and at the same scale the memo's
chosen cost must still equal the exhaustive enumeration's minimum.

``PLAN_QUALITY_SCALE`` shrinks the workload for CI smoke runs (default 300
tuples per side, i.e. 90 000 candidate pairs for the product plan; keep it
≥ ~120 — below that, fixed per-plan overheads swamp the quadratic term the
2× gate measures).  The time span scales with the tuple count, so the join
result stays non-empty at every scale.  The measurements land in the file
``PLAN_QUALITY_JSON`` names, when set, so CI can archive them next to the
other benchmark artifacts; a local run writes nothing.
"""

import os
import random
import time

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

from .conftest import archive_results, banner

SCALE = int(os.environ.get("PLAN_QUALITY_SCALE", "300"))

#: Shared between the tests of this module and flushed to JSON at the end.
RESULTS: dict = {"scale": SCALE}

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
    # overlapping pairs stays proportional to count at every smoke scale
    # (a fixed span would leave tiny scales with an empty join result).
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
    RESULTS["reservation_tuples"] = len(reservations)
    RESULTS["maintenance_tuples"] = len(maintenance)
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


def _timed_run(database: TemporalDatabase, plan, rounds: int = 3):
    best = float("inf")
    relation = None
    for _ in range(rounds):
        started = time.perf_counter()
        relation = database.run_plan(plan)
        best = min(best, time.perf_counter() - started)
    return relation, best


def _multiset(relation: Relation):
    # Canonicalize by attribute name: the ≡M rewrites include ×-commute,
    # which permutes the result schema's attribute order.
    names = sorted(relation.schema.attributes)
    return sorted(tuple(tup[name] for name in names) for tup in relation.tuples)


def _contains_idiom(plan) -> bool:
    return any(isinstance(node, (Join, TemporalJoin)) for _, node in plan.locations())


def test_perf_plan_flip_speedup(benchmark):
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

    def run_both():
        baseline_relation, baseline_seconds = _timed_run(database, baseline.best_plan)
        current_relation, current_seconds = _timed_run(database, current.best_plan)
        return baseline_relation, baseline_seconds, current_relation, current_seconds

    baseline_relation, baseline_seconds, current_relation, current_seconds = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    # ≡M: the transfer moves promise multisets, and both plans must agree
    # with the reference evaluation of the seed plan.
    reference = database.evaluate_reference(seed)
    assert _multiset(baseline_relation) == _multiset(reference)
    assert _multiset(current_relation) == _multiset(reference)

    context = database.evaluation_context()
    speedup = baseline_seconds / current_seconds
    RESULTS.update(
        {
            "result_rows": len(current_relation),
            "baseline_plan": baseline.best_plan.pretty(),
            "current_plan": current.best_plan.pretty(),
            "baseline_estimated_cost": baseline.best_cost.total,
            "current_estimated_cost": current.best_cost.total,
            "baseline_measured_cost": measure_cost(baseline.best_plan, context).total,
            "current_measured_cost": measure_cost(current.best_plan, context).total,
            "baseline_seconds": baseline_seconds,
            "current_seconds": current_seconds,
            "speedup": speedup,
        }
    )
    print(banner(f"Perf-Q — plan quality under physical-aware join costing (scale {SCALE})"))
    print(
        f"workload: RESERVATION={RESULTS['reservation_tuples']} × "
        f"MAINTENANCE={RESULTS['maintenance_tuples']} tuples, "
        f"result rows={len(current_relation)}"
    )
    print("baseline plan (product cost):")
    print(baseline.best_plan.pretty())
    print("chosen plan (algorithm cost):")
    print(current.best_plan.pretty())
    print(
        f"baseline={baseline_seconds * 1000:.1f}ms "
        f"current={current_seconds * 1000:.1f}ms speedup={speedup:,.1f}x"
    )
    assert len(current_relation) > 0
    assert speedup >= 2.0, (
        f"the flipped plan must be >=2x faster end to end, got {speedup:.2f}x"
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
    agreement = abs(memo.best_cost.total - exhaustive_cost.total) <= 1e-9 * max(
        1.0, exhaustive_cost.total
    )
    RESULTS.update(
        {
            "exhaustive_plans": len(enumeration),
            "exhaustive_best_cost": exhaustive_cost.total,
            "memo_best_cost": memo.best_cost.total,
            "memo_exhaustive_agreement": agreement,
        }
    )
    assert agreement


def test_write_benchmark_json():
    """Check the module's measurements; archive them when ``PLAN_QUALITY_JSON`` names a file."""
    assert "speedup" in RESULTS
    assert RESULTS["memo_exhaustive_agreement"] is True
    archive_results("PLAN_QUALITY_JSON", RESULTS, "Perf-Q")
