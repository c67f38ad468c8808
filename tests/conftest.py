"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

import repro.core.expressions
import repro.search.search
import repro.session.fingerprint
import repro.tsql.parser
from repro.core.operations import BaseRelation
from repro.core.operations.base import EvaluationContext
from repro.core.tuples import Tuple
from repro.dbms import ConventionalDBMS
from repro.search import MemoSearch
from repro.session import Session
from repro.session.cache import PlanCache
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

# Tier-1 draws the same examples on every run (seeded from each test's
# source) and keeps no example database, so two runs are the same test.
# Fresh draws run under ``--hypothesis-profile=random`` in their own CI job;
# a failure there is committed as an ``@example`` of the test that found it.
# A test's own ``@settings`` (most set ``max_examples``) take precedence.
# No draw is judged by the wall clock (no deadline, no too-slow health
# check), so a loaded runner passes what a quiet one does.  Loaded
# explicitly: under ``CI=true`` hypothesis starts on its own "ci" profile,
# and the plugin applies ``--hypothesis-profile`` after this file.
settings.register_profile(
    "default",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "random", derandomize=False, max_examples=300, print_blob=True, database=None
)
settings.load_profile("default")


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
    ``MemoSearch.optimize`` — one per planned statement), ``"explorations"``
    (the searches among them that ran ``repro.search.tasks.explore`` instead
    of re-costing a remembered memo — at most once per statement, whatever
    the epoch),
    ``"tokenize"`` and ``"fingerprint"`` (``unparse_statement`` as the
    fingerprint module calls it: rendering the normalized text the key
    hashes), spied where the session's and the search's code look the
    functions up.  ``clear()`` it between requests; a request that did none
    of the four leaves it empty.
    """
    counts: Counter = Counter()

    def spy(owner, name: str, key: str) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(MemoSearch, "optimize", "searches")
    spy(repro.search.search, "explore", "explorations")
    spy(repro.tsql.parser, "tokenize", "tokenize")
    spy(repro.session.fingerprint, "unparse_statement", "fingerprint")
    return counts


@pytest.fixture
def tuple_constructions(monkeypatch):
    """Counts every ``Tuple`` object built, by constructor.

    A :class:`~collections.Counter` over ``"validated"`` (``Tuple.__init__``:
    the checking constructor and everything that goes through it —
    ``from_sequence``, ``project``, ``replace``, ``concat``) and ``"trusted"``
    (``Tuple.trusted``: the views a relation builds over its rows).  Execution
    works on value rows, so a request served by the batch operators leaves it
    empty — ``clear()`` it after set-up; the reference semantics (the
    conventional multiset operations in the stratum, DBMS emulation of
    temporal operations, degradation) legitimately build views.
    """
    counts: Counter = Counter()
    validating, trusted = Tuple.__init__, Tuple.trusted.__func__

    def counted_init(self, *args, **kwargs):
        counts["validated"] += 1
        validating(self, *args, **kwargs)

    def counted_trusted(cls, schema, values):
        counts["trusted"] += 1
        return trusted(cls, schema, values)

    monkeypatch.setattr(Tuple, "__init__", counted_init)
    monkeypatch.setattr(Tuple, "trusted", classmethod(counted_trusted))
    return counts


@pytest.fixture
def compiled_sources(monkeypatch):
    """Every row-kernel source compiled while the fixture is active, in
    order (a spy on the module attribute ``compile_kernel``, where every
    kernel helper looks it up)."""
    sources = []
    original = repro.core.expressions.compile_kernel

    def spy(source):
        sources.append(source)
        return original(source)

    monkeypatch.setattr(repro.core.expressions, "compile_kernel", spy)
    return sources


@pytest.fixture
def records(monkeypatch):
    """Every request record the sessions finish, failed ones included."""
    seen: list = []
    real_observe = Session._observe

    def observe(self, record):
        seen.append(record)
        real_observe(self, record)

    monkeypatch.setattr(Session, "_observe", observe)
    return seen


class ParkedCall:
    """A callable whose *first* call parks on an event; every other call runs through.

    ``entered`` is set once the first call is parked; it blocks until the
    test sets ``release``, then runs ``original`` — or raises ``then_raise``.
    ``calls`` counts every call made.
    """

    def __init__(self, original, then_raise=None) -> None:
        self.original, self.then_raise = original, then_raise
        self.entered, self.release = threading.Event(), threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            self.entered.set()
            assert self.release.wait(timeout=30.0), "test never released the parked call"
            if self.then_raise is not None:
                raise self.then_raise
        return self.original(*args, **kwargs)


@pytest.fixture
def park_first_call(monkeypatch):
    """``park_first_call(owner, name, then_raise=None)`` patches in a :class:`ParkedCall`.

    Patch after :func:`planning_work` to have the spy count the parked call
    when it finally runs.  Whatever is still parked at teardown is released.
    """
    gates = []

    def park(owner, name: str, then_raise=None) -> ParkedCall:
        gate = ParkedCall(getattr(owner, name), then_raise)
        gates.append(gate)
        # A plain function, so that a patched method still binds ``self``.
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: gate(*args, **kwargs))
        return gate

    yield park
    for gate in gates:
        gate.release.set()


def flight_waiters(cache: PlanCache) -> int:
    """Threads blocked on one of ``cache``'s flights right now.

    Read off the interpreter's frames (``Event.wait`` called directly from
    ``cache.get_or_plan``), so a test can hold the leader parked until every
    other request has *become* a waiter — by observation, with no hook in
    the cache and no sleep standing in for "probably there".
    """
    wait, lookup = threading.Event.wait.__code__, PlanCache.get_or_plan.__code__
    waiting = 0
    for frame in sys._current_frames().values():
        while frame.f_back is not None:
            caller = frame.f_back
            if frame.f_code is wait and caller.f_code is lookup:
                waiting += caller.f_locals["self"] is cache
                break
            frame = caller
    return waiting


def wait_until(predicate, timeout: float = 10.0) -> None:
    """Poll until ``predicate()`` holds; fail the test if it never does."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


def in_threads(*targets, timeout: float = 30.0):
    """Start one thread per callable; ``join()`` returns their outcomes in order.

    An outcome is the callable's return value, or the exception it raised
    (``BaseException`` included — a ``KeyboardInterrupt`` must not reach the
    thread's excepthook).  Every join is bounded and asserted.
    """
    outcomes = [None] * len(targets)

    def run(index: int, target) -> None:
        try:
            outcomes[index] = target()
        except BaseException as exc:  # noqa: BLE001 - the outcome *is* the exception
            outcomes[index] = exc

    threads = [
        threading.Thread(target=run, args=(index, target), daemon=True)
        for index, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()

    def join():
        for thread in threads:
            thread.join(timeout=timeout)
            assert not thread.is_alive(), "a request never returned"
        return outcomes

    return join


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
    engine.create_table("EMPLOYEE", employee.schema, employee)
    engine.create_table("PROJECT", project.schema, project)
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
