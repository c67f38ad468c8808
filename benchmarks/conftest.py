"""Shared fixtures and helpers for the paper's reproductions.

A ``test_bench_table*``/``test_bench_figure*`` test regenerates the table or
figure of the paper its file name gives and asserts that the regenerated
content matches the paper.  The other ``test_bench_*`` files pin the
extension experiments by what they count (plans, rows, searches, estimated
and measured costs), never by a wall clock: the performance ledger
(``benchmarks/ledger``) is the one harness that times anything.
"""

from __future__ import annotations

import sys
from typing import Optional

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))

from repro.search import MemoSearch
from repro.stratum import TemporalDatabase
from repro.workloads import (
    PAPER_SQL,
    employee_relation,
    project_relation,
    scaled_paper_workload,
)
from tests.conftest import planning_work  # noqa: F401 - a fixture, counts searches

#: The motivating query of the paper, in the front end's dialect (the
#: canonical text lives with the ``concurrent-mix`` workload definitions).
PAPER_STATEMENT = PAPER_SQL


def make_paper_database() -> TemporalDatabase:
    """A TemporalDatabase loaded with the Figure 1 relations."""
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    return database


def make_scaled_database(scale: int, optimizer: Optional[MemoSearch] = None) -> TemporalDatabase:
    """A TemporalDatabase loaded with a scaled EMPLOYEE/PROJECT workload.

    ``optimizer`` defaults to the database's own ``MemoSearch()``;
    ``MemoSearch(rules=[])`` runs the translated plan as it is.
    """
    employees, projects = scaled_paper_workload(scale)
    database = TemporalDatabase(optimizer=optimizer)
    database.register("EMPLOYEE", employees)
    database.register("PROJECT", projects)
    return database


def banner(title: str) -> str:
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"

