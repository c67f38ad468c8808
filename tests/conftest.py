"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import pytest

import repro.session.fingerprint
import repro.tsql.parser
from repro.core.operations import BaseRelation
from repro.core.operations.base import EvaluationContext
from repro.dbms import ConventionalDBMS
from repro.search import MemoSearch
from repro.stratum import TemporalDatabase
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PROJECT_SCHEMA,
    employee_relation,
    expected_result_relation,
    figure3_r1,
    figure3_r3,
    project_relation,
)

@pytest.fixture(autouse=True)
def _reset_faults():
    """Disarm any fault left armed by a test — fault state is process-wide."""
    yield
    from repro.faults import FAULTS

    if FAULTS.active:
        FAULTS.reset()


@pytest.fixture
def planning_work(monkeypatch):
    """Counts the work a request may do once per (statement text, epoch).

    A :class:`~collections.Counter` over ``"searches"`` (every
    ``MemoSearch.optimize`` — the statement's and the DBMS fragments'),
    ``"tokenize"`` and ``"fingerprint"``, spied where the session's code
    looks the functions up.  ``clear()`` it between requests; a request that
    did none of the three leaves it empty.
    """
    counts: Counter = Counter()

    def spy(owner, name: str, key: str) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(MemoSearch, "optimize", "searches")
    spy(repro.tsql.parser, "tokenize", "tokenize")
    spy(repro.session.fingerprint, "structural_fingerprint", "fingerprint")
    return counts


#: The paper's motivating statement, in the front end's temporal SQL dialect.
PAPER_STATEMENT = (
    "SELECT DISTINCT EmpName FROM EMPLOYEE "
    "EXCEPT TEMPORAL SELECT EmpName FROM PROJECT "
    "ORDER BY EmpName COALESCE"
)


@pytest.fixture
def employee():
    """The EMPLOYEE relation of Figure 1."""
    return employee_relation()


@pytest.fixture
def project():
    """The PROJECT relation of Figure 1."""
    return project_relation()


@pytest.fixture
def expected_result():
    """The Result relation of Figure 1."""
    return expected_result_relation()


@pytest.fixture
def r1():
    """Relation R1 of Figure 3."""
    return figure3_r1()


@pytest.fixture
def r3():
    """Relation R3 of Figure 3 (rdupT(R1))."""
    return figure3_r3()


@pytest.fixture
def paper_context(employee, project):
    """Reference-evaluation context binding EMPLOYEE and PROJECT."""
    return EvaluationContext({"EMPLOYEE": employee, "PROJECT": project})


@pytest.fixture
def employee_scan():
    """A BaseRelation leaf for EMPLOYEE."""
    return BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)


@pytest.fixture
def project_scan():
    """A BaseRelation leaf for PROJECT."""
    return BaseRelation("PROJECT", PROJECT_SCHEMA)


@pytest.fixture
def dbms(employee, project):
    """A conventional DBMS holding the paper's base tables."""
    engine = ConventionalDBMS()
    engine.load_relation("EMPLOYEE", employee)
    engine.load_relation("PROJECT", project)
    return engine


@pytest.fixture
def temporal_db(employee, project):
    """A TemporalDatabase holding the paper's base tables."""
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee)
    database.register("PROJECT", project)
    return database


@pytest.fixture
def paper_statement():
    """The motivating query as a temporal SQL statement."""
    return PAPER_STATEMENT
