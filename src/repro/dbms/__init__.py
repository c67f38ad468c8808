"""The conventional DBMS substrate (the engine below the stratum)."""

from .catalog import Catalog, Table, TableStatistics
from .engine import ConventionalDBMS, DBMSResult

__all__ = [
    "Catalog",
    "ConventionalDBMS",
    "DBMSResult",
    "Table",
    "TableStatistics",
]
