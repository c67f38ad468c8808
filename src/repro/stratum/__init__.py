"""The temporal layer (stratum) on top of the conventional DBMS substrate."""

from .executor import StratumExecutionReport, StratumExecutor
from .layer import (
    OptimizationOutcome,
    QueryOutcome,
    TemporalDatabase,
    TemporalQueryOptimizer,
)
from .partition import DBMS, PlanPartition, STRATUM, describe_partition, partition_plan
from .physical import (
    HashJoinOp,
    IntervalJoinOp,
    NestedLoopJoinOp,
    lower_plan,
)

__all__ = [
    "DBMS",
    "HashJoinOp",
    "IntervalJoinOp",
    "NestedLoopJoinOp",
    "OptimizationOutcome",
    "PlanPartition",
    "QueryOutcome",
    "STRATUM",
    "StratumExecutionReport",
    "StratumExecutor",
    "TemporalDatabase",
    "TemporalQueryOptimizer",
    "describe_partition",
    "lower_plan",
    "partition_plan",
]
