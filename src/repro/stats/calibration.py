"""Fitting the cost model's constants from measured executor timings.

The :class:`repro.core.cost.CostModel` constants — how much faster the DBMS
runs conventional work (``dbms_speed``), how badly it emulates temporal
operations (``dbms_temporal_penalty``), and what a cross-engine shipment
costs per tuple (``transfer_cost``) — were seeded with plausible round
numbers.  This module replaces guessing with measurement: it times the
stratum's reference/fast-path executors and the DBMS substrate's physical
executor on the *same* generated workloads and fits each constant as a
ratio of medians.  The fitted values are clamped to sane ranges so a noisy
timer can never produce a degenerate model (e.g. a DBMS "faster" at
temporal work than the stratum's purpose-built algorithms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple as PyTuple

from ..core.cost import CostModel
from ..core.operations import (
    BaseRelation,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from ..core.expressions import greater_than
from ..core.order_spec import OrderSpec
from ..core.relation import Relation

#: Clamp ranges keeping a fitted model physically meaningful.
SPEED_RANGE = (0.02, 1.0)
PENALTY_RANGE = (1.0, 50.0)
TRANSFER_RANGE = (0.01, 10.0)


@dataclass(frozen=True)
class CalibrationMeasurement:
    """One timed micro-experiment: what ran where, over how many tuples."""

    name: str
    engine: str
    tuples: int
    seconds: float


@dataclass
class CalibrationResult:
    """A fitted cost model plus the raw measurements behind it."""

    model: CostModel
    measurements: List[CalibrationMeasurement] = field(default_factory=list)
    ratios: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable summary of the fit."""
        lines = [
            f"dbms_speed            = {self.model.dbms_speed:.3f}",
            f"dbms_temporal_penalty = {self.model.dbms_temporal_penalty:.3f}",
            f"transfer_cost         = {self.model.transfer_cost:.3f}",
        ]
        for measurement in self.measurements:
            lines.append(
                f"  {measurement.name:24} {measurement.engine:8} "
                f"{measurement.tuples:>8} tuples  {measurement.seconds * 1e3:8.3f} ms"
            )
        return "\n".join(lines)


def _time_best_of(action: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` runs (robust against scheduler noise)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return max(best, 1e-9)


def _clamp(value: float, bounds: PyTuple[float, float]) -> float:
    low, high = bounds
    return min(high, max(low, value))


def calibrate_cost_model(
    tuples: int = 1500,
    repeats: int = 3,
    seed: int = 17,
    base_model: Optional[CostModel] = None,
    relation: Optional[Relation] = None,
) -> CalibrationResult:
    """Fit ``dbms_speed``, ``dbms_temporal_penalty`` and ``transfer_cost``.

    The protocol runs each probe operation through both engines over one
    generated valid-time history (or the ``relation`` provided):

    * conventional probe — a selection and a sort; ``dbms_speed`` is the
      median DBMS/stratum time ratio;
    * temporal probe — temporal duplicate elimination; the DBMS emulates it
      with the reference semantics while the stratum runs its batch operator,
      and the ratio (relative to conventional speed) gives the penalty;
    * transfer probe — executing ``TS(relation)`` via the stratum executor;
      its per-tuple time relative to the stratum's per-tuple streaming time
      gives ``transfer_cost``.

    Selectivity/overlap defaults are left untouched: those belong to the
    :class:`repro.stats.estimator.CardinalityEstimator`, not the engine
    constants.
    """
    from ..dbms.engine import ConventionalDBMS
    from ..stratum.executor import StratumExecutor
    from ..workloads.generator import generate_assignment_history

    base_model = base_model or CostModel()
    if relation is None:
        relation = generate_assignment_history(
            tuples, entities=max(10, tuples // 20), seed=seed, overlap_ratio=0.2
        )
    n = len(relation)
    dbms = ConventionalDBMS()
    dbms.create_table("CALIBRATION", relation.schema, relation)
    base = BaseRelation("CALIBRATION", relation.schema)
    measurements: List[CalibrationMeasurement] = []

    def measure(name: str, engine: str, action: Callable[[], object]) -> float:
        seconds = _time_best_of(action, repeats)
        measurements.append(CalibrationMeasurement(name, engine, n, seconds))
        return seconds

    # Conventional probes: the same logical work in both engines.
    predicate = greater_than("T1", 0)
    selection = Selection(predicate, base)
    sort = Sort(OrderSpec.ascending("Entity"), base)
    context_relation = relation

    stratum_selection = measure(
        "selection",
        "stratum",
        lambda: [tup for tup in context_relation if predicate.evaluate(tup)],
    )
    dbms_selection = measure("selection", "dbms", lambda: dbms.execute(selection))
    stratum_sort = measure(
        "sort", "stratum", lambda: context_relation.sorted_by(OrderSpec.ascending("Entity"))
    )
    dbms_sort = measure("sort", "dbms", lambda: dbms.execute(sort))

    speed = median([dbms_selection / stratum_selection, dbms_sort / stratum_sort])
    dbms_speed = _clamp(speed, SPEED_RANGE)

    # Temporal probe: the stratum's batch operator vs. the DBMS's emulation.
    executor = StratumExecutor(dbms)
    rdupt = TemporalDuplicateElimination(base)
    stratum_temporal = measure("rdupT", "stratum", lambda: executor.execute(rdupt))
    dbms_temporal = measure("rdupT", "dbms", lambda: dbms.execute(rdupt))
    penalty = _clamp(dbms_temporal / stratum_temporal, PENALTY_RANGE)

    # Transfer probe: shipping the whole relation across the boundary,
    # normalized by the stratum's per-tuple streaming cost.
    transfer_seconds = measure(
        "transfer", "boundary", lambda: executor.execute(TransferToStratum(base))
    )
    streaming_unit = stratum_selection / max(1, 2 * n)  # n consumed + ~n produced
    transfer_cost = _clamp((transfer_seconds / max(1, n)) / streaming_unit, TRANSFER_RANGE)

    model = CostModel(
        selectivity=base_model.selectivity,
        overlap_fraction=base_model.overlap_fraction,
        dbms_speed=dbms_speed,
        dbms_temporal_penalty=penalty,
        transfer_cost=transfer_cost,
        default_base_cardinality=base_model.default_base_cardinality,
    )
    return CalibrationResult(
        model=model,
        measurements=measurements,
        ratios={
            "selection_speed": dbms_selection / stratum_selection,
            "sort_speed": dbms_sort / stratum_sort,
            "temporal_penalty": dbms_temporal / stratum_temporal,
            "transfer_per_tuple": transfer_seconds / max(1, n),
        },
    )
