"""Tests for the equi-depth and period histograms of ``repro.stats``."""

import pytest
from hypothesis import given

from repro.stats import EquiDepthHistogram, PeriodHistogram

from .strategies import period_columns, value_columns


class TestEquiDepthHistogram:
    def test_empty(self):
        histogram = EquiDepthHistogram.build([])
        assert histogram.total == 0
        assert histogram.selectivity_equals(1) == 0.0
        assert histogram.selectivity_range(0, 10) == 0.0

    def test_common_values_are_exact(self):
        values = ["a"] * 70 + ["b"] * 20 + ["c"] * 10
        histogram = EquiDepthHistogram.build(values)
        assert histogram.selectivity_equals("a") == pytest.approx(0.70)
        assert histogram.selectivity_equals("b") == pytest.approx(0.20)
        assert histogram.selectivity_equals("c") == pytest.approx(0.10)
        assert histogram.selectivity_equals("zzz") == 0.0

    def test_distinct_and_extremes(self):
        histogram = EquiDepthHistogram.build([5, 1, 3, 3, 9])
        assert histogram.total == 5
        assert histogram.distinct == 4
        assert histogram.minimum == 1
        assert histogram.maximum == 9

    def test_range_interpolation_on_uniform_integers(self):
        histogram = EquiDepthHistogram.build(list(range(100)), buckets=10)
        estimate = histogram.selectivity_range(low=20, high=39)
        assert estimate == pytest.approx(0.20, abs=0.05)

    def test_open_bounds(self):
        histogram = EquiDepthHistogram.build(list(range(10)))
        assert histogram.selectivity_range() == 1.0
        below = histogram.selectivity_range(high=4)
        assert 0.3 <= below <= 0.7

    def test_nulls_are_ignored(self):
        histogram = EquiDepthHistogram.build([1, None, 2, None])
        assert histogram.total == 2

    def test_depends_only_on_the_multiset(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        assert EquiDepthHistogram.build(values) == EquiDepthHistogram.build(
            list(reversed(values))
        )

    def test_merged_preserves_total(self):
        left = EquiDepthHistogram.build([1, 2, 3, 4])
        right = EquiDepthHistogram.build([10, 11])
        merged = left.merged_with(right)
        assert merged.total == 6
        assert merged.minimum == 1
        assert merged.maximum == 11

    @given(values=value_columns())
    def test_full_range_is_one_and_empty_range_is_zero(self, values):
        histogram = EquiDepthHistogram.build(values)
        full = histogram.selectivity_range(histogram.minimum, histogram.maximum)
        assert full == pytest.approx(1.0)
        assert histogram.selectivity_range() == 1.0
        assert histogram.selectivity_range(histogram.maximum + 1, histogram.minimum - 1) == 0.0
        assert (
            histogram.selectivity_range(5, 5, low_inclusive=True, high_inclusive=False)
            == 0.0
        )

    @given(values=value_columns())
    def test_selectivities_stay_in_unit_interval(self, values):
        histogram = EquiDepthHistogram.build(values)
        for probe in (-10, 0, 3, 99):
            assert 0.0 <= histogram.selectivity_equals(probe) <= 1.0
            assert 0.0 <= histogram.selectivity_range(low=probe) <= 1.0
            assert 0.0 <= histogram.selectivity_range(high=probe) <= 1.0


class TestPeriodHistogram:
    def test_empty(self):
        histogram = PeriodHistogram.build([])
        assert histogram.count == 0

    def test_span_and_mean_duration(self):
        histogram = PeriodHistogram.build([(1, 5), (10, 12)])
        assert histogram.count == 2
        assert histogram.span_low == 1
        assert histogram.span_high == 12
        assert histogram.mean_duration == pytest.approx(3.0)

    def test_clustered_periods_overlap_more_than_spread_ones(self):
        clustered = PeriodHistogram.build([(10, 14 + i % 3) for i in range(40)])
        spread = PeriodHistogram.build([(5 * i, 5 * i + 2) for i in range(40)])
        assert clustered.overlap_fraction(clustered) > spread.overlap_fraction(spread)

    def test_overlap_fraction_bounds(self):
        left = PeriodHistogram.build([(1, 10), (2, 8)])
        right = PeriodHistogram.build([(100, 110)])
        assert left.overlap_fraction(right) == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= left.overlap_fraction(left) <= 1.0

    def test_depends_only_on_the_multiset(self):
        periods = [(1, 5), (3, 9), (8, 12), (1, 5)]
        assert PeriodHistogram.build(periods) == PeriodHistogram.build(
            list(reversed(periods))
        )

    def test_merged_preserves_count_and_span(self):
        left = PeriodHistogram.build([(1, 5), (2, 6), (4, 9)])
        right = PeriodHistogram.build([(50, 55)])
        merged = left.merged_with(right)
        assert merged.count == 4
        assert merged.span_low >= 1
        assert merged.span_high <= 60
        assert 0.0 <= merged.overlap_fraction(merged) <= 1.0

    @given(periods=period_columns())
    def test_selectivities_stay_in_unit_interval(self, periods):
        histogram = PeriodHistogram.build(periods)
        assert 0.0 <= histogram.overlap_fraction(histogram) <= 1.0
