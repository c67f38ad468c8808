"""Ablation — sensitivity of plan selection to the cost-model parameters.

DESIGN.md models the paper's engine-speed asymmetry ("the DBMS sorts faster
than the stratum", temporal operations are expensive to emulate in the DBMS)
with two cost-model knobs: ``dbms_speed`` and ``dbms_temporal_penalty``, plus
a per-tuple ``transfer_cost``.  This ablation sweeps those knobs for the
motivating query and reports how the chosen plan's engine split changes —
showing that the optimizer's placements are driven by the modelled asymmetry
rather than hard-coded.
"""

from repro.core.cost import CostModel
from repro.search import MemoSearch
from repro.stratum import partition_plan
from repro.stratum.partition import DBMS, STRATUM

from .conftest import PAPER_STATEMENT, banner, make_paper_database

CONFIGURATIONS = [
    ("paper-like (fast DBMS, costly emulation)", CostModel(dbms_speed=0.25, dbms_temporal_penalty=5.0, transfer_cost=0.5)),
    ("free transfers", CostModel(dbms_speed=0.25, dbms_temporal_penalty=5.0, transfer_cost=0.0)),
    ("slow DBMS", CostModel(dbms_speed=2.0, dbms_temporal_penalty=5.0, transfer_cost=0.5)),
    ("DBMS great at temporal work", CostModel(dbms_speed=0.25, dbms_temporal_penalty=0.2, transfer_cost=2.0)),
]


def sweep():
    database = make_paper_database()
    plan, spec = database.parse(PAPER_STATEMENT)
    statistics = database.statistics()
    rows = []
    for label, model in CONFIGURATIONS:
        result = MemoSearch(cost_model=model).optimize(plan, spec, statistics)
        partition = partition_plan(result.best_plan)
        counts = partition.operator_counts()
        rows.append(
            (
                label,
                counts[STRATUM],
                counts[DBMS],
                partition.transfer_count,
                result.best_cost.total,
            )
        )
    return rows


def test_ablation_cost_model_sensitivity():
    rows = sweep()
    print(banner("Ablation — cost-model sensitivity of the chosen plan"))
    print(f"{'configuration':<42} {'stratum ops':>11} {'dbms ops':>9} {'transfers':>10} {'est. cost':>12}")
    for label, stratum_ops, dbms_ops, transfers, cost in rows:
        print(f"{label:<42} {stratum_ops:>11} {dbms_ops:>9} {transfers:>10} {cost:>12,.1f}")
    by_label = {row[0]: row for row in rows}
    # When the DBMS handles temporal work well and transfers are expensive,
    # the optimizer leaves more of the plan in the DBMS than in the
    # paper-like configuration.
    paper_like_dbms_ops = by_label["paper-like (fast DBMS, costly emulation)"][2]
    temporal_dbms_ops = by_label["DBMS great at temporal work"][2]
    assert temporal_dbms_ops >= paper_like_dbms_ops
    # Every configuration still produces a correct plan (same enumeration),
    # only the placement changes; at least one configuration must differ from
    # the paper-like choice to demonstrate sensitivity.
    splits = {(row[1], row[2]) for row in rows}
    assert len(splits) >= 2
