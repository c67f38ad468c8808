"""Statistics collection and cardinality estimation (``repro.stats``).

The layer the paper defers to future work ("heuristics and cost estimation
techniques", Section 7): equi-depth and interval histograms over stored
relations, exact/sampled distinct counting, a plan-walking cardinality
estimator that feeds the optimizer, and a calibration harness fitting the
cost model's engine constants from measured timings.
"""

from .calibration import (
    CalibrationMeasurement,
    CalibrationResult,
    calibrate_cost_model,
)
from .distinct import distinct_ratio, estimate_distinct, exact_distinct
from .estimator import (
    AttributeStatistics,
    CardinalityEstimate,
    CardinalityEstimator,
    TableProfile,
)
from .histograms import (
    Bucket,
    EquiDepthHistogram,
    PeriodBucket,
    PeriodHistogram,
)

__all__ = [
    "AttributeStatistics",
    "Bucket",
    "CalibrationMeasurement",
    "CalibrationResult",
    "CardinalityEstimate",
    "CardinalityEstimator",
    "EquiDepthHistogram",
    "PeriodBucket",
    "PeriodHistogram",
    "TableProfile",
    "calibrate_cost_model",
    "distinct_ratio",
    "estimate_distinct",
    "exact_distinct",
]
