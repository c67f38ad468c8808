"""Table profiles and what they answer about the data.

:class:`TableProfile` summarises one stored relation: per-attribute
equi-depth histograms and distinct counts, an interval histogram over the
valid-time periods, and the shrink ratios duplicate elimination and
coalescing would achieve on it.  :class:`CardinalityEstimator` pools the
profiles of all base tables and answers questions about the data — a
profiled table's cardinality, a predicate's selectivity, the temporal
overlap fraction, the ``rdup``/``rdupT``/``coalT`` shrink ratios, a group
count — and ``None`` where the profiles know nothing.  It holds no
operator formula and no fallback constant: each operator type's estimate is
one entry of :data:`repro.core.cost._OPERATORS`, which reads these answers
and falls back to the :class:`~repro.core.cost.CostModel` constants
(a selectivity's fallback is passed in, per conjunct).

The answers come from *pooled* (table-independent) summaries: the memo
search costs operator shells whose children are equivalence groups, not
concrete subtrees, so a per-node estimate may depend only on the operator's
own parameters and its input cardinalities.  That restriction is what keeps
the memo search's costing in exact agreement with costing whole plans — the
agreement tests run with a histogram-backed estimator to pin that down.

Selectivities and ratios are clamped to ``[0, 1]`` and combined
multiplicatively, and group counts enter through ``min``, so every estimate
built from them is monotone in the input cardinalities, which the memo
search's branch-and-bound lower bounds require for admissibility.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple as PyTuple

from ..core.expressions import (
    And,
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Expression,
    Literal,
    Not,
    Or,
)
from ..core.operations.coalesce import coalesce_tuples
from ..core.operations.duplicates import temporal_duplicate_elimination
from ..core.period import T1, T2
from ..core.relation import Relation
from ..core.tuples import Tuple
from .distinct import estimate_distinct
from .histograms import DEFAULT_BUCKETS, EquiDepthHistogram, PeriodHistogram

#: Prefixes added by product schemas to disambiguate clashes ("1.", "2.", ...).
_CLASH_PREFIX = re.compile(r"^(\d+\.)+")


@dataclass(frozen=True)
class AttributeStatistics:
    """Summary of one attribute: value histogram plus distinct count."""

    histogram: EquiDepthHistogram
    distinct: float


@dataclass(frozen=True)
class TableProfile:
    """The collected statistics of one stored relation."""

    name: str
    cardinality: int
    attributes: Mapping[str, AttributeStatistics]
    period: Optional[PeriodHistogram]
    #: ``distinct full rows / cardinality`` — what ``rdup`` would keep.
    row_distinct_ratio: float
    #: ``distinct non-temporal value parts / cardinality``.
    value_distinct_ratio: float
    #: Fraction of tuples surviving coalescing (``coalT``: merging of
    #: value-equivalent *adjacent* periods only, the paper's minimal form).
    coalesced_fraction: float
    #: Fraction of tuples surviving temporal duplicate elimination
    #: (``rdupT``: snapshots made duplicate-free).
    tdup_fraction: float

    @classmethod
    def from_relation(
        cls, name: str, relation: Relation, buckets: int = DEFAULT_BUCKETS
    ) -> "TableProfile":
        """Profile a relation instance (exactly for small, sampled for large)."""
        schema = relation.schema
        rows = relation.rows
        n = len(rows)
        columns = list(zip(*rows)) if rows else [()] * len(schema.attributes)
        attributes: Dict[str, AttributeStatistics] = {}
        for attribute, values in zip(schema.attributes, columns):
            attributes[attribute] = AttributeStatistics(
                histogram=EquiDepthHistogram.build(values, buckets=buckets),
                distinct=estimate_distinct(values),
            )
        period = None
        if schema.is_temporal and n:
            period = PeriodHistogram.build(
                list(zip(columns[schema.index_of(T1)], columns[schema.index_of(T2)])),
                buckets=buckets,
            )
        value_indexes = schema.value_indexes()
        value_parts = (
            list(zip(*[columns[i] for i in value_indexes])) if value_indexes else [()] * n
        )
        coalesced_fraction, tdup_fraction = _temporal_shrink_fractions(relation, value_parts)
        return cls(
            name=name,
            cardinality=n,
            attributes=attributes,
            period=period,
            row_distinct_ratio=_ratio(estimate_distinct(rows), n),
            value_distinct_ratio=_ratio(estimate_distinct(value_parts), n),
            coalesced_fraction=coalesced_fraction,
            tdup_fraction=tdup_fraction,
        )


def _ratio(distinct: float, total: int) -> float:
    if total <= 0:
        return 1.0
    return min(1.0, max(0.0, distinct / total))


#: Value groups larger than this are approximated instead of run through the
#: reference operators (which are quadratic within a group).
_EXACT_GROUP_LIMIT = 256


def _temporal_shrink_fractions(
    relation: Relation, value_parts: Sequence[PyTuple[Any, ...]]
) -> PyTuple[float, float]:
    """``(coalT output / n, rdupT output / n)`` for a stored relation whose
    rows have the non-temporal values ``value_parts``, position by position.

    Both operators only interact *within* a value-equivalence class, so the
    reference implementations are applied per group — exact, and near-linear
    for realistic group sizes.  Oversized groups fall back to interval-sweep
    approximations (adjacency-chain merging for ``coalT``, the merged period
    union as a lower bound on ``rdupT`` fragments).
    """
    n = len(relation)
    schema = relation.schema
    if n == 0 or not schema.is_temporal:
        return 1.0, 1.0
    first, last = schema.index_of(T1), schema.index_of(T2)
    groups: Dict[PyTuple[Any, ...], List[PyTuple[Any, ...]]] = {}
    for key, row in zip(value_parts, relation.rows):
        groups.setdefault(key, []).append(row)
    coalesced = 0
    deduplicated = 0
    for members in groups.values():
        if len(members) <= _EXACT_GROUP_LIMIT:
            # The reference operators work on ``Tuple``s: views of this
            # group's rows alone, dropped again — none is left on ``relation``.
            tuples = [Tuple.trusted(schema, row) for row in members]
            coalesced += len(coalesce_tuples(tuples))
            deduplicated += len(temporal_duplicate_elimination(tuples))
        else:
            periods = sorted((row[first], row[last]) for row in members)
            coalesced += _adjacency_chain_count(periods)
            deduplicated += _merged_union_count(periods)
    return _ratio(float(coalesced), n), _ratio(float(deduplicated), n)


def _adjacency_chain_count(periods: Sequence[PyTuple[int, int]]) -> int:
    """Surviving tuples when only exactly adjacent periods merge."""
    open_ends: Dict[int, int] = {}
    count = 0
    for start, end in periods:
        if open_ends.get(start, 0) > 0:
            open_ends[start] -= 1
        else:
            count += 1
        open_ends[end] = open_ends.get(end, 0) + 1
    return count


def _merged_union_count(periods: Sequence[PyTuple[int, int]]) -> int:
    """Number of maximal intervals in the union of (sorted) periods."""
    count = 0
    current_end: Optional[int] = None
    for start, end in periods:
        if current_end is None or start > current_end:
            count += 1
            current_end = end
        else:
            current_end = max(current_end, end)
    return count


class CardinalityEstimator:
    """What the pooled table profiles answer about the data.

    Every costing entry point of :mod:`repro.core.cost` takes an optional
    ``estimator``; each operator's output entry there reads these answers,
    and an answer of ``None`` leaves the cost model's constant in force.
    """

    def __init__(self, profiles: Mapping[str, TableProfile]) -> None:
        self.profiles: Dict[str, TableProfile] = dict(profiles)
        total = float(sum(profile.cardinality for profile in self.profiles.values()))
        self._attribute_pool: Dict[str, List[PyTuple[float, AttributeStatistics]]] = {}
        for profile in self.profiles.values():
            weight = profile.cardinality / total if total else 0.0
            for attribute, stats in profile.attributes.items():
                self._attribute_pool.setdefault(attribute, []).append((weight, stats))
        #: Pooled ``rdup``/``rdupT``/``coalT`` shrink ratios, and the pooled
        #: temporal overlap fraction (``None``: no profiled rows, or no
        #: temporal profile).
        self.rdup_ratio = self._pooled_ratio(lambda p: p.row_distinct_ratio)
        self.tdup_ratio = self._pooled_ratio(lambda p: p.tdup_fraction)
        self.coal_ratio = self._pooled_ratio(lambda p: p.coalesced_fraction)
        self.overlap_fraction = self._pooled_overlap()

    @classmethod
    def from_relations(cls, relations: Mapping[str, Relation]) -> "CardinalityEstimator":
        """Profile every relation and build an estimator over the profiles."""
        return cls(
            {
                name: TableProfile.from_relation(name, relation)
                for name, relation in relations.items()
            }
        )

    # -- pooled summaries --------------------------------------------------------

    def _pooled_ratio(self, extract) -> Optional[float]:
        weighted = [
            (profile.cardinality, extract(profile))
            for profile in self.profiles.values()
            if profile.cardinality
        ]
        total = sum(weight for weight, _ in weighted)
        if not total:
            return None
        return sum(weight * value for weight, value in weighted) / total

    def _pooled_overlap(self) -> Optional[float]:
        """Cardinality-weighted pairwise overlap fraction across all tables."""
        temporal = [
            profile
            for profile in self.profiles.values()
            if profile.period is not None and profile.cardinality
        ]
        if not temporal:
            return None
        numerator = 0.0
        denominator = 0.0
        for left in temporal:
            for right in temporal:
                weight = float(left.cardinality) * float(right.cardinality)
                numerator += weight * left.period.overlap_fraction(right.period)
                denominator += weight
        return numerator / denominator if denominator else None

    def base_cardinality(self, name: str) -> Optional[float]:
        """A profiled table's cardinality; ``None`` for a table not profiled."""
        profile = self.profiles.get(name)
        return None if profile is None else float(profile.cardinality)

    def group_count(self, grouping: Sequence[str]) -> Optional[float]:
        """The number of groups of ``grouping``: the product of the pooled
        distinct counts (one group without attributes); ``None`` when an
        attribute is not profiled."""
        groups = 1.0
        for attribute in grouping:
            distinct = self._pooled_distinct(attribute)
            if distinct is None:
                return None
            groups *= max(1.0, distinct)
        return groups

    # -- selectivities ----------------------------------------------------------

    def selectivity(self, predicate: Expression, fallback: float) -> float:
        """Selectivity of a predicate in ``[0, 1]``; ``fallback`` stands in
        for each conjunct (or other operand) the histograms cannot resolve."""
        estimate = self._selectivity(predicate, fallback)
        if estimate is None:
            estimate = fallback
        return min(1.0, max(0.0, estimate))

    def _selectivity(self, predicate: Expression, fallback: float) -> Optional[float]:
        if isinstance(predicate, Literal):
            if predicate.value is True:
                return 1.0
            if predicate.value is False:
                return 0.0
            return None
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self.selectivity(operand, fallback)
            return result
        if isinstance(predicate, Or):
            result = 1.0
            for operand in predicate.operands:
                result *= 1.0 - self.selectivity(operand, fallback)
            return 1.0 - result
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.operand, fallback)
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        return None

    def _comparison_selectivity(self, comparison: Comparison) -> Optional[float]:
        left, right = comparison.left, comparison.right
        if isinstance(left, AttributeRef) and isinstance(right, Literal):
            return self._attribute_vs_literal(comparison.operator, left.name, right.value)
        if isinstance(left, Literal) and isinstance(right, AttributeRef):
            return self._attribute_vs_literal(
                _mirror(comparison.operator), right.name, left.value
            )
        if isinstance(left, AttributeRef) and isinstance(right, AttributeRef):
            if comparison.operator is ComparisonOperator.EQ:
                return self._equijoin_selectivity(left.name, right.name)
            return None
        return None

    def _attribute_vs_literal(
        self, operator: ComparisonOperator, attribute: str, value: Any
    ) -> Optional[float]:
        pool = self._attribute_pool.get(_strip_clash_prefix(attribute))
        if not pool:
            return None
        total_weight = sum(weight for weight, _ in pool)
        if not total_weight:
            return None
        weighted = 0.0
        for weight, stats in pool:
            histogram = stats.histogram
            if operator is ComparisonOperator.EQ:
                selectivity = histogram.selectivity_equals(value)
            elif operator is ComparisonOperator.NE:
                selectivity = 1.0 - histogram.selectivity_equals(value)
            elif operator is ComparisonOperator.LT:
                selectivity = histogram.selectivity_range(high=value, high_inclusive=False)
            elif operator is ComparisonOperator.LE:
                selectivity = histogram.selectivity_range(high=value, high_inclusive=True)
            elif operator is ComparisonOperator.GT:
                selectivity = histogram.selectivity_range(low=value, low_inclusive=False)
            else:
                selectivity = histogram.selectivity_range(low=value, low_inclusive=True)
            weighted += weight * selectivity
        return weighted / total_weight

    def _equijoin_selectivity(self, left: str, right: str) -> Optional[float]:
        """``P(l = r)`` for random values of the two attributes.

        The end-biased dot product: the histograms' exactly-kept heads match
        head-to-head, a head value on one side matches the other side's
        uniform tail, and the two tails match under the classic ``1 /
        max(d_l, d_r)`` uniformity assumption.  Under skew this is far above
        ``1/d`` — matching the truth, since frequent values join with
        frequent values quadratically often.
        """
        left_head = self._pooled_head(left)
        right_head = self._pooled_head(right)
        if left_head is None or right_head is None:
            return None
        left_probabilities, left_tail_mass, left_tail_distinct = left_head
        right_probabilities, right_tail_mass, right_tail_distinct = right_head
        left_tail_each = left_tail_mass / left_tail_distinct if left_tail_distinct else 0.0
        right_tail_each = right_tail_mass / right_tail_distinct if right_tail_distinct else 0.0
        selectivity = 0.0
        for value, probability in left_probabilities.items():
            selectivity += probability * right_probabilities.get(value, right_tail_each)
        for value, probability in right_probabilities.items():
            if value not in left_probabilities:
                selectivity += probability * left_tail_each
        if left_tail_distinct and right_tail_distinct:
            selectivity += (
                left_tail_mass
                * right_tail_mass
                / max(left_tail_distinct, right_tail_distinct)
            )
        return min(1.0, selectivity)

    def _pooled_head(
        self, attribute: str
    ) -> Optional[PyTuple[Dict[Any, float], float, float]]:
        """``(head value -> probability, tail mass, tail distinct)`` for one attribute."""
        pool = self._attribute_pool.get(_strip_clash_prefix(attribute))
        if not pool:
            return None
        total_weight = sum(weight for weight, _ in pool)
        if not total_weight:
            return None
        probabilities: Dict[Any, float] = {}
        for weight, stats in pool:
            histogram = stats.histogram
            if not histogram.total:
                continue
            for value, count in histogram.common:
                share = (weight / total_weight) * (count / histogram.total)
                probabilities[value] = probabilities.get(value, 0.0) + share
        tail_mass = max(0.0, 1.0 - sum(probabilities.values()))
        distinct = self._pooled_distinct(attribute) or 1.0
        tail_distinct = max(0.0, distinct - len(probabilities))
        if tail_distinct == 0.0 and tail_mass > 0.0:
            tail_distinct = 1.0
        return probabilities, tail_mass, tail_distinct

    def _pooled_distinct(self, attribute: str) -> Optional[float]:
        pool = self._attribute_pool.get(_strip_clash_prefix(attribute))
        if not pool:
            return None
        return max(stats.distinct for _, stats in pool)


def _strip_clash_prefix(attribute: str) -> str:
    return _CLASH_PREFIX.sub("", attribute)


def _mirror(operator: ComparisonOperator) -> ComparisonOperator:
    """``lit op attr`` rewritten as ``attr op' lit``."""
    mirrored = {
        ComparisonOperator.LT: ComparisonOperator.GT,
        ComparisonOperator.LE: ComparisonOperator.GE,
        ComparisonOperator.GT: ComparisonOperator.LT,
        ComparisonOperator.GE: ComparisonOperator.LE,
    }
    return mirrored.get(operator, operator)
