"""Cardinality estimation and a cost model for plan selection.

The paper stops at generating equivalent plans and explicitly defers
"heuristics and cost estimation techniques" to future work (Section 7); this
module supplies that missing piece so that the library can actually *pick* a
plan, and so that the stratum-vs-DBMS trade-offs the running example argues
about qualitatively ("the sort operation was pushed down because the DBMS
sorts faster than the stratum", "coalescing is performed before difference
because the left argument is expected to be smaller") can be explored
quantitatively in the benchmarks.

The model is deliberately simple and transparent:

* cardinalities are estimated bottom-up, one formula per operator type
  (:data:`_OPERATORS`), from catalog statistics and fixed constants — or,
  when an *estimator* from :mod:`repro.stats` is supplied, from its answers
  about the data (histogram selectivities, interval-histogram overlap,
  pooled shrink ratios, group counts), with the constants as fallback;
* each operator contributes work proportional to the tuples it consumes and
  produces, with an ``n log n`` term for sorting and pairwise terms for the
  products and the value-matching temporal operations;
* where an operator's price depends on how it runs, it reads
  :func:`repro.core.lowering.physical_choice` — the same decision the
  lowering builds from and EXPLAIN prints.  The join idiom nodes are priced
  from the algorithm their choice selects — hash build+probe, sort-merge
  interval join, or the nested-loop product bound — per engine: the
  conventional DBMS only implements the hash equi-join natively, so keyless
  and temporal joins keep the product bound there.  Whole-plan costing
  additionally prices a σ directly over a product that the choice fuses
  (every one in the stratum, the hash equi-join in the DBMS) as that join,
  never above the expanded two-node form (which keeps the memo search's
  per-shell costing exact);
* operators executing in the DBMS (below a ``TS`` transfer in the plan) are
  scaled by an engine speed factor — the DBMS is faster for conventional
  operations, while temporal operations it would have to emulate are
  penalised;
* every transfer contributes a per-tuple shipping cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple as PyTuple

from .joinsplit import JoinSplit
from .lowering import DBMS_ENGINE, STRATUM_ENGINE, Engine, child_engine, physical_choice
from .operations import (
    Aggregation,
    BaseRelation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    Join,
    LiteralRelation,
    Operation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalJoin,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)

#: Default selectivity assumed for selections and join predicates.
DEFAULT_SELECTIVITY = 0.33
#: Default fraction of tuple pairs whose periods overlap in temporal products.
DEFAULT_OVERLAP_FRACTION = 0.1
#: Default cardinality assumed for base relations missing from the statistics.
DEFAULT_BASE_CARDINALITY = 1000.0


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the cost model.

    ``dbms_speed`` < 1 makes conventional work cheaper in the DBMS than in
    the stratum (the paper's assumption); ``dbms_temporal_penalty`` > 1
    models the inefficiency of emulating temporal operations in a
    conventional engine; ``transfer_cost`` is the per-tuple cost of a
    ``TS``/``TD`` shipment between the engines.  These three engine
    constants can be *fitted from measured executor timings* with
    :func:`repro.stats.calibrate_cost_model` instead of guessed.

    ``selectivity``, ``overlap_fraction`` and ``default_base_cardinality``
    are the only fallbacks of the estimates.  Pass a
    :class:`repro.stats.estimator.CardinalityEstimator` to any costing entry
    point and its answers replace them where the profiles know one — a
    histogram selectivity per conjunct, the pooled temporal overlap, a
    profiled table's cardinality; each constant still applies wherever the
    profiles say nothing (a conjunct the histograms cannot resolve, no
    temporal profile, a table neither profiled nor in the statistics).
    """

    selectivity: float = DEFAULT_SELECTIVITY
    overlap_fraction: float = DEFAULT_OVERLAP_FRACTION
    dbms_speed: float = 0.25
    dbms_temporal_penalty: float = 5.0
    transfer_cost: float = 0.5
    default_base_cardinality: float = DEFAULT_BASE_CARDINALITY
    #: Per-tuple weight of the hash join's *build* side (the right input)
    #: relative to the probe side.  Building the table — allocating buckets,
    #: hashing and chaining every tuple — costs more than streaming a probe,
    #: and with a weight > 1 the formula is asymmetric in its inputs, so the
    #: optimizer prefers plans that build on the smaller input.
    hash_build_weight: float = 2.0


@dataclass
class PlanCost:
    """The estimated cost of a plan, with a per-operator breakdown."""

    total: float
    output_cardinality: float
    breakdown: List[PyTuple[str, str, float]] = field(default_factory=list)
    """``(operator label, engine, cost)`` per node in pre-order."""

    def __float__(self) -> float:
        return self.total


# Every costing entry point accepts an optional *estimator* — duck-typed so
# this module stays free of a dependency on :mod:`repro.stats`.  It answers
# about the data only; each :data:`_OPERATORS` output entry turns an answer
# into an estimate, and a ``None`` answer (nothing profiled) into the
# :class:`CostModel` constant:
#
# ``base_cardinality(name) -> Optional[float]``
#     the profiled cardinality of a base relation;
# ``selectivity(predicate, fallback) -> float``
#     a predicate's selectivity, ``fallback`` for each conjunct the
#     histograms cannot resolve;
# ``overlap_fraction``, ``rdup_ratio``, ``tdup_ratio``, ``coal_ratio``
#     pooled temporal overlap and ``rdup``/``rdupT``/``coalT`` shrink ratios;
# ``group_count(grouping) -> Optional[float]``
#     the number of groups of those attributes.
#
# The answers are pooled over every profiled table, never about one subtree:
# the memo search costs operator shells, so an estimate may depend only on
# the node's own parameters and its input cardinalities, and must be
# monotone in the latter (the branch-and-bound lower bounds rely on it).


def estimate_cardinality(
    plan: Operation,
    statistics: Optional[Mapping[str, int]] = None,
    model: Optional[CostModel] = None,
    estimator=None,
) -> float:
    """Estimate the result cardinality of ``plan`` from base-table statistics:
    the root's :func:`cost_annotations` output."""
    annotations = cost_annotations(
        plan, statistics, model, estimator=estimator, physical_fusion=False
    )
    return annotations[()].output_cardinality


def _join_algorithm_work(
    split: JoinSplit, inputs: Sequence[float], output: float, model: CostModel
) -> float:
    """Work of one pipelined physical join, by the algorithm its split selects.

    The formulas mirror :mod:`repro.core.physical` operator for operator
    and are monotone in both input cardinalities (the branch-and-bound lower
    bounds of the memo search require that):

    * **hash** — build the right input (weighted by
      :attr:`CostModel.hash_build_weight`: inserting into the table costs
      more than streaming a probe, which makes the formula asymmetric and
      lets the optimizer prefer building on the smaller input), probe with
      the left, emit the matches (the probe·average-chain term *is* the
      output term).  Capped at the nested-loop product bound so the weighted
      build can never price the algorithm above the naive fallback at tiny
      cardinalities — the min of two monotone formulas stays monotone;
    * **interval** — sort the right input by interval start, binary-search a
      probe prefix per left tuple, emit the matches;
    * **nested-loop** — the old product bound: every pair is considered.
    """
    if split.algorithm == "hash":
        return min(
            inputs[0] + model.hash_build_weight * inputs[1] + output,
            inputs[0] * inputs[1] + output,
        )
    if split.algorithm == "interval":
        sorted_side = max(2.0, inputs[1])
        return (inputs[0] + inputs[1]) * math.log2(sorted_side) + output
    return inputs[0] * inputs[1] + output


def _join_work(
    node: Operation, inputs: Sequence[float], output: float, model: CostModel, engine: Engine
) -> float:
    """Work of a ``Join``/``TemporalJoin`` idiom node, as ``engine`` runs it.

    The algorithm its :func:`~repro.core.lowering.physical_choice` selects:
    in the stratum the split's; in the DBMS a hash equi-join, a keyless
    join as a nested loop (the product bound), and a temporal join emulated
    at product cost (the temporal-penalty engine factor comes on top, as for
    every emulated temporal operation).
    """
    split = physical_choice(node, engine).split
    if split is None:
        return inputs[0] * inputs[1] + output
    return _join_algorithm_work(split, inputs, output, model)


def _operator_work(
    node: Operation,
    inputs: Sequence[float],
    output: float,
    model: CostModel,
    engine: Engine = STRATUM_ENGINE,
) -> float:
    """CPU work of one operator, in abstract per-tuple units: its :data:`_OPERATORS` entry.

    ``engine`` only matters for the join idiom nodes, whose physical
    algorithm (and therefore work) differs between the engines; every other
    operator's work is engine independent, with placement entering solely
    through :func:`_engine_factor`.
    """
    return _OPERATORS[type(node)][1](node, inputs, output, model, engine)


class _NoStatistics:
    """The estimator when none is given: it knows nothing about the data."""

    overlap_fraction = rdup_ratio = tdup_ratio = coal_ratio = None

    def base_cardinality(self, name: str) -> None:
        return None

    def selectivity(self, predicate, fallback: float) -> float:
        return fallback

    def group_count(self, grouping) -> None:
        return None


_NO_STATISTICS = _NoStatistics()


def _known(answer: Optional[float], fallback: float) -> float:
    """The estimator's answer where it knows one, else the model's constant."""
    return fallback if answer is None else answer


def _base_relation_output(node, inputs, statistics, model, estimator) -> float:
    name = node.relation_name
    known = statistics.get(name, model.default_base_cardinality)
    return float(_known(estimator.base_cardinality(name), known))


def _literal_relation_output(node, inputs, statistics, model, estimator) -> float:
    return float(len(node.relation))


def _selection_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * estimator.selectivity(node.predicate, model.selectivity)


def _join_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * inputs[1] * estimator.selectivity(node.predicate, model.selectivity)


def _temporal_join_output(node, inputs, statistics, model, estimator) -> float:
    # σ's selectivity times ×T's overlap, so the idiom and its expansion agree.
    return (
        _join_output(node, inputs, statistics, model, estimator)
        * _known(estimator.overlap_fraction, model.overlap_fraction)
    )


def _temporal_product_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * inputs[1] * _known(estimator.overlap_fraction, model.overlap_fraction)


def _keeps_size(node, inputs, statistics, model, estimator) -> float:
    return inputs[0]


def _aggregation_output(node, inputs, statistics, model, estimator) -> float:
    groups = estimator.group_count(node.grouping)
    return max(1.0, inputs[0] * 0.2) if groups is None else min(inputs[0], groups)


def _temporal_aggregation_output(node, inputs, statistics, model, estimator) -> float:
    # γ's constant: the profiles have no γT answer yet.
    return max(1.0, inputs[0] * 0.2)


def _duplicate_elimination_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * _known(estimator.rdup_ratio, 0.8)


def _temporal_duplicate_elimination_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * _known(estimator.tdup_ratio, 1.0)


def _coalescing_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * _known(estimator.coal_ratio, 0.7)


def _union_all_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] + inputs[1]


def _product_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * inputs[1]


def _difference_output(node, inputs, statistics, model, estimator) -> float:
    return max(0.0, inputs[0] - 0.5 * inputs[1])


def _temporal_difference_output(node, inputs, statistics, model, estimator) -> float:
    return inputs[0] * 0.6


def _merges(node, inputs, statistics, model, estimator) -> float:
    return max(inputs) + 0.5 * min(inputs)


def _scan_work(node, inputs, output, model, engine) -> float:
    return output


def _streaming_work(node, inputs, output, model, engine) -> float:
    return sum(inputs) + output


def _sort_work(node, inputs, output, model, engine) -> float:
    size = max(2.0, inputs[0])
    return size * math.log2(size)


def _sort_and_sweep_work(node, inputs, output, model, engine) -> float:
    return _sort_work(node, inputs, output, model, engine) + output


def _product_work(node, inputs, output, model, engine) -> float:
    return inputs[0] * inputs[1] + output


def _value_matching_work(node, inputs, output, model, engine) -> float:
    # Value matching between the two inputs (hash partitioning by value
    # part) plus fragment construction.
    return sum(inputs) + output + inputs[0] * model.overlap_fraction * inputs[1]


def _transfer_work(node, inputs, output, model, engine) -> float:
    return model.transfer_cost * inputs[0]


#: Operator type → ``(output cardinality, work)``, with the signatures
#: ``(node, child estimates, statistics, model, estimator)`` and ``(node,
#: inputs, output, model, engine)``.  The only table of either: an output
#: entry reads the estimator's answer where it has one and the model's
#: constant otherwise.
_OPERATORS = {
    BaseRelation: (_base_relation_output, _scan_work),
    LiteralRelation: (_literal_relation_output, _scan_work),
    Selection: (_selection_output, _streaming_work),
    Projection: (_keeps_size, _streaming_work),
    UnionAll: (_union_all_output, _streaming_work),
    CartesianProduct: (_product_output, _product_work),
    Difference: (_difference_output, _streaming_work),
    Aggregation: (_aggregation_output, _streaming_work),
    DuplicateElimination: (_duplicate_elimination_output, _streaming_work),
    TemporalCartesianProduct: (_temporal_product_output, _product_work),
    TemporalDifference: (_temporal_difference_output, _value_matching_work),
    TemporalAggregation: (_temporal_aggregation_output, _streaming_work),
    TemporalDuplicateElimination: (_temporal_duplicate_elimination_output, _sort_and_sweep_work),
    Union: (_merges, _streaming_work),
    TemporalUnion: (_merges, _value_matching_work),
    Sort: (_keeps_size, _sort_work),
    Coalescing: (_coalescing_output, _sort_and_sweep_work),
    TransferToStratum: (_keeps_size, _transfer_work),
    TransferToDBMS: (_keeps_size, _transfer_work),
    Join: (_join_output, _join_work),
    TemporalJoin: (_temporal_join_output, _join_work),
}


def _engine_factor(node: Operation, engine: Engine, model: CostModel) -> float:
    if engine is STRATUM_ENGINE:
        return 1.0
    if node.is_temporal_operator:
        return model.dbms_temporal_penalty
    return model.dbms_speed


# ---------------------------------------------------------------------------
# Public per-operator entry points (used by the memo search in repro.search)
# ---------------------------------------------------------------------------


def operator_cardinality(
    node: Operation,
    child_cardinalities: Sequence[float],
    statistics: Optional[Mapping[str, int]] = None,
    model: Optional[CostModel] = None,
    estimator=None,
) -> float:
    """Estimated output cardinality of one operator given its input estimates:
    its :data:`_OPERATORS` entry."""
    return _OPERATORS[type(node)][0](
        node,
        child_cardinalities,
        statistics or {},
        model or CostModel(),
        _NO_STATISTICS if estimator is None else estimator,
    )


def operator_work(
    node: Operation,
    child_cardinalities: Sequence[float],
    output_cardinality: float,
    engine: Engine,
    model: Optional[CostModel] = None,
) -> float:
    """The work one operator contributes when executed by ``engine``."""
    model = model or CostModel()
    return _operator_work(
        node, child_cardinalities, output_cardinality, model, engine
    ) * _engine_factor(node, engine, model)


def minimal_operator_work(
    node: Operation,
    child_cardinalities: Sequence[float],
    output_cardinality: float,
    model: Optional[CostModel] = None,
) -> float:
    """The cheapest work any engine placement could give this operator.

    An admissible per-operator lower bound for branch-and-bound.  For most
    operators this is work at the minimal engine factor; the join idiom
    nodes additionally have engine-*dependent work* (the DBMS lacks the
    interval join, the stratum never pays the emulation product bound), so
    the bound takes the true minimum over both placements.
    """
    model = model or CostModel()
    return min(
        _operator_work(node, child_cardinalities, output_cardinality, model, engine)
        * _engine_factor(node, engine, model)
        for engine in (STRATUM_ENGINE, DBMS_ENGINE)
    )


def estimate_cost(
    plan: Operation,
    statistics: Optional[Mapping[str, int]] = None,
    model: Optional[CostModel] = None,
    engine: Engine = STRATUM_ENGINE,
    estimator=None,
    physical_fusion: bool = True,
) -> PlanCost:
    """Estimate the execution cost of ``plan``.

    The engine executing each node is derived from the transfer operations in
    the plan: the root runs in ``engine`` (the stratum unless the plan is a
    DBMS-side fragment), everything below a ``TS`` runs in the DBMS, and a
    ``TD`` below that switches back to the stratum.

    Implemented as the sum over :func:`cost_annotations` — one walk, one
    source of truth, so EXPLAIN's per-operator numbers always add up to the
    totals the optimizer compares.
    """
    annotations = cost_annotations(
        plan, statistics, model, engine, estimator, physical_fusion=physical_fusion
    )
    entries = list(annotations.values())  # post-order (children before parents)
    return PlanCost(
        total=sum(annotation.work for annotation in entries),
        output_cardinality=annotations[()].output_cardinality,
        breakdown=[
            (annotation.label, annotation.engine, annotation.work)
            for annotation in reversed(entries)
        ],
    )


@dataclass(frozen=True)
class OperatorCostAnnotation:
    """Per-node costing detail for one operator of a plan.

    Produced by :func:`cost_annotations` and consumed by the EXPLAIN
    rendering of :mod:`repro.session`: estimated input/output cardinalities,
    the name of the engine the transfer operations assign, the operator's
    own work contribution (engine factor applied), and the description of
    its :func:`~repro.core.lowering.physical_choice` — the operator the
    lowering builds — so EXPLAIN shows e.g. ``⋈ [hash: id=id, residual: v>3]``.
    """

    label: str
    engine: str
    input_cardinalities: PyTuple[float, ...]
    output_cardinality: float
    work: float
    physical: Optional[str] = None


def cost_annotations(
    plan: Operation,
    statistics: Optional[Mapping[str, int]] = None,
    model: Optional[CostModel] = None,
    engine: Engine = STRATUM_ENGINE,
    estimator=None,
    physical_fusion: bool = True,
) -> Dict[PyTuple[int, ...], OperatorCostAnnotation]:
    """Per-node cost annotations of ``plan``, keyed by plan path.

    The estimates are exactly the ones :func:`estimate_cost` computes — the
    same bottom-up walk, recorded per node instead of summed — so the sum of
    all ``work`` entries equals ``estimate_cost(...).total``.

    With ``physical_fusion=False`` every node is priced as its own shell
    (no σ-over-product pair pricing, no physical annotations) — the price
    the memo search's extraction charges the plan's own expressions, used
    for its branch-and-bound upper bound.
    """
    model = model or CostModel()
    statistics = statistics or {}
    annotations: Dict[PyTuple[int, ...], OperatorCostAnnotation] = {}

    def visit(
        node: Operation,
        engine: Engine,
        path: PyTuple[int, ...],
        fused: bool = False,
        absorber: Optional[str] = None,
    ) -> float:
        choice = physical_choice(node, engine) if physical_fusion and not fused else None
        fuses_product = choice is not None and choice.fuses_product
        # An rdupT the operator above runs itself is priced as its own node.
        absorbs = None if choice is None or fuses_product else choice.absorbs
        below = child_engine(node, engine)
        child_cards = [
            visit(
                child,
                below,
                path + (index,),
                fused=fuses_product and index == 0,
                absorber=node.symbol if index == absorbs else None,
            )
            for index, child in enumerate(node.children)
        ]
        output = operator_cardinality(node, child_cards, statistics, model, estimator)
        if fused:
            # A product consumed by the selection above it never
            # materialises; the whole pair's work is charged to the σ line.
            work = 0.0
        else:
            work = _operator_work(node, child_cards, output, model, engine) * _engine_factor(
                node, engine, model
            )
            if fuses_product:
                # σ directly over a product its engine fuses: price the pair
                # as the cheaper of the split algorithm and the expanded
                # two-node form — never *above* the expanded form, so
                # whole-plan costing agrees exactly with the memo search,
                # which prices the expanded shells separately and reaches
                # the algorithm price through the explicit σ(×) → ⋈ rewrite.
                product = node.children[0]
                product_cards = annotations[path + (0,)].input_cardinalities
                unfused = _operator_work(
                    product, product_cards, child_cards[0], model, engine
                ) * _engine_factor(product, engine, model) + work
                fused_work = _join_algorithm_work(
                    choice.split, product_cards, output, model
                ) * _engine_factor(node, engine, model)
                work = min(fused_work, unfused)
        if absorber is not None:
            physical = f"absorbed into {absorber}"
        elif choice is not None:
            physical = choice.describe()
        else:
            physical = "fused into σ" if fused else None
        annotations[path] = OperatorCostAnnotation(
            label=node.label(),
            engine=engine.name,
            input_cardinalities=tuple(child_cards),
            output_cardinality=output,
            work=work,
            physical=physical,
        )
        return output

    visit(plan, engine, ())
    return annotations


def measure_cost(
    plan: Operation,
    context,
    model: Optional[CostModel] = None,
    engine: Engine = STRATUM_ENGINE,
) -> PlanCost:
    """The cost model evaluated at the plan's *actual* cardinalities.

    Each subtree is evaluated once (bottom-up, sharing child results) against
    ``context`` — an :class:`~repro.core.operations.base.EvaluationContext`
    binding the base relations — and every operator is charged
    :func:`_operator_work` at the true input/output sizes with its engine
    factor; a σ-over-product pair the executor fuses (every stratum-side
    one, the DBMS-side hash equi-join) is charged its fused physical join —
    the algorithm that actually runs — and the product itself nothing.
    This is the deterministic "measured executor cost" the q-error and
    plan-quality benchmarks compare estimates and plan choices against;
    unlike wall-clock timings it is stable across machines and runs.
    """
    model = model or CostModel()
    breakdown: List[PyTuple[str, str, float]] = []

    def visit(node: Operation, engine: Engine) -> PyTuple[float, "object"]:
        choice = physical_choice(node, engine)
        if choice.fuses_product:
            # The executor runs this σ-over-product pair as one fused
            # physical join: charge the split algorithm's work at the true
            # input/output sizes and nothing for the product, exactly
            # mirroring what runs.
            product_node = node.children[0]
            grand_costs: List[float] = []
            grand_results = []
            for grandchild in product_node.children:
                cost, result = visit(grandchild, engine)
                grand_costs.append(cost)
                grand_results.append(result)
            product_result = product_node._evaluate(grand_results, context)
            result = node._evaluate([product_result], context)
            inputs = [float(len(relation)) for relation in grand_results]
            work = _join_algorithm_work(
                choice.split, inputs, float(len(result)), model
            ) * _engine_factor(node, engine, model)
            breakdown.append((product_node.label(), engine.name, 0.0))
            breakdown.append((node.label(), engine.name, work))
            return sum(grand_costs) + work, result
        below = child_engine(node, engine)
        child_costs: List[float] = []
        child_results = []
        for child in node.children:
            cost, result = visit(child, below)
            child_costs.append(cost)
            child_results.append(result)
        result = node._evaluate(child_results, context)
        inputs = [float(len(child)) for child in child_results]
        output = float(len(result))
        work = _operator_work(node, inputs, output, model, engine) * _engine_factor(
            node, engine, model
        )
        breakdown.append((node.label(), engine.name, work))
        return sum(child_costs) + work, result

    total, result = visit(plan, engine)
    return PlanCost(
        total=total,
        output_cardinality=float(len(result)),
        breakdown=list(reversed(breakdown)),
    )


def choose_best_plan(
    plans: Iterable[Operation],
    statistics: Optional[Mapping[str, int]] = None,
    model: Optional[CostModel] = None,
    estimator=None,
) -> PyTuple[Operation, PlanCost]:
    """Pick the cheapest plan among ``plans`` under the cost model.

    Ties are broken by plan size (fewer operators first) and then by the
    plan's structural signature, keeping selection deterministic.
    """
    best: Optional[PyTuple[Operation, PlanCost]] = None
    for plan in plans:
        cost = estimate_cost(plan, statistics, model, estimator=estimator)
        if best is None:
            best = (plan, cost)
            continue
        current_key = (cost.total, plan.size(), repr(plan.signature()))
        best_key = (best[1].total, best[0].size(), repr(best[0].signature()))
        if current_key < best_key:
            best = (plan, cost)
    if best is None:
        raise ValueError("choose_best_plan requires at least one plan")
    return best
