"""Histograms over attribute values and valid-time periods.

The paper defers "heuristics and cost estimation techniques" to future work
(Section 7); this module supplies the summaries those techniques need.  Two
histogram kinds are provided:

* :class:`EquiDepthHistogram` — an equi-depth (equal-frequency) histogram
  over the values of one attribute, with the most frequent values kept
  exactly (an "end-biased" histogram in the literature).  It answers
  equality and range selectivity queries; on skewed (Zipf) data the exact
  head makes equality estimates far better than any fixed constant.
* :class:`PeriodHistogram` — an interval histogram over valid-time periods
  ``[T1, T2)``: the time span is cut into equal-width buckets and per bucket
  the histogram records how many periods *start* there, how many *end*
  there, how many are *active* (overlap the bucket), and the summed duration
  of the periods starting there.  It answers time-range selectivity and the
  pairwise *overlap fraction* the temporal products and joins need.

Both classes are immutable value objects: building them sorts their inputs,
so a histogram depends only on the multiset of observed values — the
incremental-maintenance regression tests rely on that.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple as PyTuple

#: Default number of buckets for both histogram kinds.
DEFAULT_BUCKETS = 16
#: Default number of most-frequent values kept exactly.
DEFAULT_COMMON_VALUES = 8


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Bucket:
    """One equi-depth bucket: the closed value range it covers and counts."""

    low: Any
    high: Any
    count: int
    distinct: int

    def fraction_below(self, value: Any, inclusive: bool) -> float:
        """Estimated fraction of the bucket's values ``<= value`` (or ``<``)."""
        if value < self.low or (value == self.low and not inclusive):
            return 0.0
        if value > self.high or (value == self.high and inclusive):
            return 1.0
        # Remaining cases sit strictly inside (low, high) or on an excluded
        # boundary of a degenerate single-value bucket.
        if not self.high > self.low:
            return 0.0
        if _is_numeric(self.low) and _is_numeric(self.high):
            fraction = (value - self.low) / (self.high - self.low)
            return min(1.0, max(0.0, float(fraction)))
        # Non-numeric domains: no interpolation possible, assume the median.
        return 0.5


class EquiDepthHistogram:
    """End-biased equi-depth histogram over one attribute's values."""

    __slots__ = ("total", "distinct", "minimum", "maximum", "common", "buckets")

    def __init__(
        self,
        total: int,
        distinct: int,
        minimum: Any,
        maximum: Any,
        common: PyTuple[PyTuple[Any, int], ...],
        buckets: PyTuple[Bucket, ...],
    ) -> None:
        self.total = total
        self.distinct = distinct
        self.minimum = minimum
        self.maximum = maximum
        self.common = common
        self.buckets = buckets

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        values: Iterable[Any],
        buckets: int = DEFAULT_BUCKETS,
        common_values: int = DEFAULT_COMMON_VALUES,
    ) -> "EquiDepthHistogram":
        """Build a histogram from a multiset of (mutually comparable) values."""
        counts = Counter(v for v in values if v is not None)
        total = sum(counts.values())
        if total == 0:
            return cls(0, 0, None, None, (), ())
        ordered = sorted(counts)
        minimum, maximum = ordered[0], ordered[-1]
        # Keep the heaviest values exactly (ties broken by value for
        # determinism); everything else goes into the equi-depth buckets.
        head = sorted(
            counts.items(), key=lambda item: (-item[1], _sort_key(item[0]))
        )[: max(0, common_values)]
        head = tuple((value, count) for value, count in head if count > 1)
        head_values = {value for value, _ in head}
        rest: List[Any] = []
        for value in ordered:
            if value not in head_values:
                rest.extend([value] * counts[value])
        return cls(
            total=total,
            distinct=len(counts),
            minimum=minimum,
            maximum=maximum,
            common=tuple(sorted(head, key=lambda item: _sort_key(item[0]))),
            buckets=_equi_depth_buckets(rest, buckets),
        )

    # -- selectivities ----------------------------------------------------------

    def selectivity_equals(self, value: Any) -> float:
        """Estimated fraction of rows whose attribute equals ``value``."""
        if self.total == 0:
            return 0.0
        for common_value, count in self.common:
            if common_value == value:
                return count / self.total
        if self.minimum is not None:
            try:
                if value < self.minimum or value > self.maximum:
                    return 0.0
            except TypeError:
                return 1.0 / max(1, self.distinct)
        for bucket in self.buckets:
            if bucket.low <= value <= bucket.high:
                return (bucket.count / max(1, bucket.distinct)) / self.total
        # In the value range but between buckets and not a common value.
        return 1.0 / max(1, self.distinct) if self.distinct else 0.0

    def selectivity_range(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows with ``low (<|<=) value (<|<=) high``.

        ``None`` bounds are open ends; a full-range query returns exactly 1.0
        and an empty range (``low > high``) exactly 0.0.
        """
        if self.total == 0:
            return 0.0
        if low is not None and high is not None:
            try:
                if low > high or (low == high and not (low_inclusive and high_inclusive)):
                    return 0.0
            except TypeError:
                return 1.0
        matched = 0.0
        for value, count in self.common:
            if _in_range(value, low, high, low_inclusive, high_inclusive):
                matched += count
        try:
            for bucket in self.buckets:
                matched += bucket.count * _bucket_coverage(
                    bucket, low, high, low_inclusive, high_inclusive
                )
        except TypeError:
            # Bounds not comparable with the bucketed values (mixed-type
            # column or mistyped literal): no information, match everything —
            # the same stance _in_range takes.
            return 1.0
        return min(1.0, max(0.0, matched / self.total))

    def merged_with(self, other: "EquiDepthHistogram") -> "EquiDepthHistogram":
        """An approximate union histogram (used to pool stats across tables)."""
        values: List[Any] = []
        for histogram in (self, other):
            for value, count in histogram.common:
                values.extend([value] * count)
            for bucket in histogram.buckets:
                # Represent the bucket by its boundary values, weight-split.
                half = bucket.count // 2
                values.extend([bucket.low] * half)
                values.extend([bucket.high] * (bucket.count - half))
        size = max(len(self.buckets), len(other.buckets), 1)
        return EquiDepthHistogram.build(values, buckets=size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquiDepthHistogram):
            return NotImplemented
        return (
            self.total == other.total
            and self.distinct == other.distinct
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self.common == other.common
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EquiDepthHistogram(total={self.total}, distinct={self.distinct}, "
            f"common={len(self.common)}, buckets={len(self.buckets)})"
        )


def _sort_key(value: Any) -> PyTuple[str, Any]:
    return (type(value).__name__, value)


def _equi_depth_buckets(ordered_values: Sequence[Any], buckets: int) -> PyTuple[Bucket, ...]:
    """Cut a sorted multiset into ~equal-frequency buckets."""
    n = len(ordered_values)
    if n == 0:
        return ()
    buckets = max(1, min(buckets, n))
    depth = n / buckets
    result: List[Bucket] = []
    start = 0
    for index in range(buckets):
        end = n if index == buckets - 1 else int(round((index + 1) * depth))
        end = max(end, start + 1)
        # Never split a run of equal values across buckets: extend to the end
        # of the run so equality estimates stay consistent.
        while end < n and ordered_values[end - 1] == ordered_values[end]:
            end += 1
        if start >= n:
            break
        chunk = ordered_values[start:end]
        result.append(
            Bucket(
                low=chunk[0],
                high=chunk[-1],
                count=len(chunk),
                distinct=len(set(chunk)),
            )
        )
        start = end
    return tuple(result)


def _in_range(
    value: Any,
    low: Optional[Any],
    high: Optional[Any],
    low_inclusive: bool,
    high_inclusive: bool,
) -> bool:
    try:
        if low is not None and (value < low or (value == low and not low_inclusive)):
            return False
        if high is not None and (value > high or (value == high and not high_inclusive)):
            return False
    except TypeError:
        return True
    return True


def _bucket_coverage(
    bucket: Bucket,
    low: Optional[Any],
    high: Optional[Any],
    low_inclusive: bool,
    high_inclusive: bool,
) -> float:
    """Fraction of a bucket's rows falling inside the query range."""
    upper = 1.0 if high is None else bucket.fraction_below(high, high_inclusive)
    lower = 0.0 if low is None else bucket.fraction_below(low, not low_inclusive)
    return max(0.0, upper - lower)


# ---------------------------------------------------------------------------
# Interval histogram over valid-time periods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodBucket:
    """One time slice: periods starting/ending/active there, summed duration."""

    low: int
    high: int
    starts: int
    ends: int
    active: int
    duration_sum: int


class PeriodHistogram:
    """Interval histogram over closed-open periods ``[T1, T2)``."""

    __slots__ = ("count", "span_low", "span_high", "mean_duration", "buckets")

    def __init__(
        self,
        count: int,
        span_low: int,
        span_high: int,
        mean_duration: float,
        buckets: PyTuple[PeriodBucket, ...],
    ) -> None:
        self.count = count
        self.span_low = span_low
        self.span_high = span_high
        self.mean_duration = mean_duration
        self.buckets = buckets

    @classmethod
    def build(
        cls, periods: Iterable[PyTuple[int, int]], buckets: int = DEFAULT_BUCKETS
    ) -> "PeriodHistogram":
        """Build from an iterable of ``(start, end)`` pairs with start < end."""
        ordered = sorted(periods)
        if not ordered:
            return cls(0, 0, 0, 0.0, ())
        span_low = min(start for start, _ in ordered)
        span_high = max(end for _, end in ordered)
        width = max(1, span_high - span_low)
        buckets = max(1, min(buckets, width))
        edges = [span_low + round(index * width / buckets) for index in range(buckets + 1)]
        edges[-1] = span_high
        result: List[PeriodBucket] = []
        starts_list = [start for start, _ in ordered]
        for index in range(buckets):
            low, high = edges[index], edges[index + 1]
            if high <= low:
                continue
            first = bisect.bisect_left(starts_list, low)
            last = bisect.bisect_left(starts_list, high)
            starting = ordered[first:last]
            result.append(
                PeriodBucket(
                    low=low,
                    high=high,
                    starts=len(starting),
                    ends=sum(1 for _, end in ordered if low < end <= high),
                    active=sum(1 for start, end in ordered if start < high and end > low),
                    duration_sum=sum(end - start for start, end in starting),
                )
            )
        total_duration = sum(end - start for start, end in ordered)
        return cls(
            count=len(ordered),
            span_low=span_low,
            span_high=span_high,
            mean_duration=total_duration / len(ordered),
            buckets=tuple(result),
        )

    def overlap_fraction(self, other: "PeriodHistogram") -> float:
        """Estimated probability that random periods from self/other overlap.

        Each histogram is summarised as a distribution of period starts over
        its buckets, with the per-bucket mean duration; two periods overlap
        iff each starts before the other ends, which is evaluated on the
        bucket representatives.  Clustered periods therefore estimate high,
        uniformly spread short periods low — the knob the cost model's fixed
        ``DEFAULT_OVERLAP_FRACTION`` cannot see.
        """
        if self.count == 0 or other.count == 0:
            return 0.0
        probability = 0.0
        for mine in self.buckets:
            if mine.starts == 0:
                continue
            my_start = (mine.low + mine.high) / 2.0
            my_end = my_start + max(1.0, mine.duration_sum / mine.starts)
            weight_mine = mine.starts / self.count
            for theirs in other.buckets:
                if theirs.starts == 0:
                    continue
                their_start = (theirs.low + theirs.high) / 2.0
                their_end = their_start + max(1.0, theirs.duration_sum / theirs.starts)
                if my_start < their_end and their_start < my_end:
                    probability += weight_mine * (theirs.starts / other.count)
        return min(1.0, max(0.0, probability))

    def merged_with(self, other: "PeriodHistogram") -> "PeriodHistogram":
        """An approximate union histogram over both period multisets."""
        periods: List[PyTuple[int, int]] = []
        for histogram in (self, other):
            for bucket in histogram.buckets:
                if bucket.starts == 0:
                    continue
                start = (bucket.low + bucket.high) // 2
                duration = max(1, round(bucket.duration_sum / bucket.starts))
                periods.extend([(start, start + duration)] * bucket.starts)
        size = max(len(self.buckets), len(other.buckets), 1)
        return PeriodHistogram.build(periods, buckets=size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodHistogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.span_low == other.span_low
            and self.span_high == other.span_high
            and self.mean_duration == other.mean_duration
            and self.buckets == other.buckets
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PeriodHistogram(count={self.count}, span=[{self.span_low}, "
            f"{self.span_high}), buckets={len(self.buckets)})"
        )
