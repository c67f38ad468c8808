"""The temporal layer (stratum) on top of the conventional DBMS substrate."""

from .executor import StratumExecutor
from .layer import OptimizationOutcome, TemporalDatabase
from .partition import DBMS, PlanPartition, STRATUM, partition_plan

__all__ = [
    "DBMS",
    "OptimizationOutcome",
    "PlanPartition",
    "STRATUM",
    "StratumExecutor",
    "TemporalDatabase",
    "partition_plan",
]
