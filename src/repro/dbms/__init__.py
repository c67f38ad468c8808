"""The conventional DBMS substrate (the engine below the stratum)."""

from .catalog import Catalog, Table, TableStatistics
from .engine import ConventionalDBMS, DBMSResult
from .optimizer import CostGuidedConventionalOptimizer
from .sqlgen import to_sql

__all__ = [
    "Catalog",
    "ConventionalDBMS",
    "CostGuidedConventionalOptimizer",
    "DBMSResult",
    "Table",
    "TableStatistics",
    "to_sql",
]
