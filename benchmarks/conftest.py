"""Shared fixtures and helpers for the benchmark harness.

A ``test_bench_table*``/``test_bench_figure*`` benchmark regenerates the
table or figure of the paper its file name gives and — where the paper's
"result" is a worked example rather than a measurement — asserts that the
regenerated content matches the paper before timing the code path that
produces it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))

from repro.search import MemoSearch
from repro.stratum import TemporalDatabase
from repro.workloads import (
    PAPER_SQL,
    employee_relation,
    project_relation,
    scaled_paper_workload,
)

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


@pytest.fixture
def paper_db():
    return make_paper_database()


@pytest.fixture
def paper_statement():
    return PAPER_STATEMENT


def banner(title: str) -> str:
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"


def archive_results(variable: str, results: dict, title: str) -> None:
    """Write ``results`` to the file the environment variable ``variable`` names.

    CI sets the variable and uploads the file.  A local run does not, and
    the calling ``test_write_benchmark_json`` skips here instead of
    rewriting a committed ``.benchmarks/*.json`` with fresh timing noise —
    so a caller with assertions over ``results`` makes them *before* this
    call.  (Perf-F fills ``results`` from a ``timing_gate`` test tier-1
    deselects; for it the skip also means there is nothing to check.)
    """
    path = os.environ.get(variable)
    if path is None:
        pytest.skip(f"{variable} is not set: nothing to archive")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(results, indent=2, sort_keys=True))
    print(banner(f"{title} — results written to {path}"))
