"""Correctness: result digests and where the expected ones come from.

A result is reduced to ``<rows>:<sha256 of the sorted rows>:<sha256 of the
ORDER BY projection in output order>`` (the last part empty for unordered
results).  That is Definition 5.1's ``≡L,A`` for list results — ties under
the ORDER BY attributes may come back in any order — strengthened to multiset
equality of the whole rows, which every plan the optimizer picks for these
statements satisfies.

Expected digests never come from the optimizer or either executor:

* up to scale 60 from ``TemporalDatabase.evaluate_reference`` over the
  front end's *initial* plan (the specification-level semantics);
* above that — where the reference's 5000×8000 product is infeasible — from
  the three plain-Python oracles below, themselves checked against the
  reference at the small check scale.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.core.applicability import results_acceptable
from repro.core.equivalence import multiset_equivalent
from repro.core.relation import Relation
from repro.session.parameters import bind_parameters
from repro.workloads import concurrent_mix_append_batch

from .workloads import STATEMENTS, build_database, build_relations

#: Largest scale the reference evaluator is asked to handle.
REFERENCE_MAX_SCALE = 60


#: ORDER BY attributes per statement class (direction is checked through the
#: expected digest's own ordered part, produced by an independently sorted
#: oracle).
ORDER_BY: Dict[str, Tuple[str, ...]] = {
    "paper": ("EmpName",),
    "chained": ("EmpName",),
    "tjoin": ("EmpName",),
    "sort": ("EmpName",),
}


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:24]


def digest_rows(cls: str, columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """The digest of statement class ``cls``'s result ``rows`` (in output order)."""
    rows = [tuple(row) for row in rows]
    keys = [list(columns).index(name) for name in ORDER_BY.get(cls, ())]
    ordered = _sha([tuple(row[i] for i in keys) for row in rows]) if keys else ""
    return f"{len(rows)}:{_sha(sorted(rows))}:{ordered}"


def digest_key(cls: str, params: tuple, appends: int) -> str:
    """How reports and expected_digests.json name one checked result."""
    return f"{cls}{list(params)}@{appends}"


def digest_relation(cls: str, relation: Relation) -> str:
    return digest_rows(cls, relation.schema.attributes, [t.values() for t in relation.tuples])


# -- the plain-Python oracles (relational-exec at scale 1000) -------------------


def oracle_tjoin(relations: Dict[str, Relation], params: tuple) -> List[tuple]:
    """Dict join EMPLOYEE ⋈T ASSIGNMENT on the person, periods intersected."""
    (excluded,) = params
    by_person: Dict[str, List[tuple]] = {}
    for person, task, start, end in (t.values() for t in relations["ASSIGNMENT"].tuples):
        by_person.setdefault(person, []).append((task, start, end))
    rows = []
    for name, dept, start, end in (t.values() for t in relations["EMPLOYEE"].tuples):
        if dept == excluded:
            continue
        for task, other_start, other_end in by_person.get(name, ()):
            low, high = max(start, other_start), min(end, other_end)
            if low < high:
                rows.append((name, dept, task, low, high))
    return sorted(rows, key=lambda row: row[0])


def oracle_sort(relations: Dict[str, Relation], params: tuple) -> List[tuple]:
    rows = [t.values() for t in relations["EMPLOYEE"].tuples]
    return sorted(rows, key=lambda row: row[0], reverse=True)


def oracle_filter(relations: Dict[str, Relation], params: tuple) -> List[tuple]:
    start, excluded = params
    return [
        row
        for row in (t.values() for t in relations["PROJECT"].tuples)
        if row[2] >= start and row[1] != excluded
    ]


#: Statement class -> (oracle, output columns).
PYTHON_ORACLES = {
    "tjoin": (oracle_tjoin, ("EmpName", "Dept", "Task", "T1", "T2")),
    "sort": (oracle_sort, ("EmpName", "Dept", "T1", "T2")),
    "filter": (oracle_filter, ("EmpName", "Prj", "T1", "T2")),
}


class Expectations:
    """Expected digest per (statement class, parameters, appends applied).

    Holds a private replica of the generated data that no measured code
    touches.  ``appends`` is how many of the workload's append batches the
    snapshot a read was answered from contained (0 for read-only workloads);
    the replica replays batches lazily, so asking in non-decreasing order is
    cheapest.
    """

    def __init__(self, scale: int, seed: int) -> None:
        self.scale, self.seed = scale, seed
        self._use_reference = scale <= REFERENCE_MAX_SCALE
        if self._use_reference:
            self._database = build_database(scale, seed)
        else:
            self._relations = build_relations(scale, seed)
        self._applied = 0
        self._cache: Dict[tuple, str] = {}

    def reference(self, cls: str, params: tuple) -> Tuple[Relation, object]:
        """(reference result, query spec) for one statement execution."""
        initial_plan, spec = self._database.parse(STATEMENTS[cls].sql)
        if params:
            initial_plan = bind_parameters(initial_plan, params)
        return self._database.evaluate_reference(initial_plan), spec

    def digest(self, cls: str, params: tuple, appends: int = 0) -> str:
        key = (cls, params, appends)
        if key not in self._cache:
            self._advance(appends)
            if self._use_reference:
                self._cache[key] = digest_relation(cls, self.reference(cls, params)[0])
            else:
                oracle, columns = PYTHON_ORACLES[cls]
                self._cache[key] = digest_rows(cls, columns, oracle(self._relations, params))
        return self._cache[key]

    def _advance(self, appends: int) -> None:
        if appends < self._applied:
            self._database = build_database(self.scale, self.seed)
            self._applied = 0
        while self._applied < appends:
            self._database.insert("EMPLOYEE", concurrent_mix_append_batch(self._applied))
            self._applied += 1

    def employee_rows(self, appends: int) -> int:
        """EMPLOYEE's cardinality after ``appends`` batches (no lost update)."""
        self._advance(appends)
        return len(self._database.table("EMPLOYEE"))


def check_equivalence(classes: Sequence[str], scale: int, seed: int) -> List[str]:
    """Run every statement class at the small check scale against the reference.

    Returns human-readable failures (empty when everything holds): the
    optimized, executed result must be acceptable under the query's required
    equivalence (Definition 5.1) and multiset-equal to the reference, and
    each plain-Python oracle must agree with the reference too.
    """
    expectations = Expectations(scale, seed)
    session = build_database(scale, seed).session()
    relations = build_relations(scale, seed)
    failures = []
    for cls in classes:
        for params in STATEMENTS[cls].params:
            expected, spec = expectations.reference(cls, params)
            actual = session.execute(STATEMENTS[cls].sql, params).relation
            if not results_acceptable(expected, actual, spec):
                failures.append(f"{cls}{params}: not {spec.required_equivalence} to the reference")
            if not multiset_equivalent(expected, actual):
                failures.append(f"{cls}{params}: not multiset-equal to the reference")
            if tuple(k.attribute for k in spec.order_by) != ORDER_BY.get(cls, ()):
                failures.append(f"{cls}: ORDER_BY table disagrees with the parsed query")
            if cls in PYTHON_ORACLES:
                oracle, columns = PYTHON_ORACLES[cls]
                rows = oracle(relations, params)
                if digest_rows(cls, columns, rows) != digest_relation(cls, expected):
                    failures.append(f"{cls}{params}: python oracle disagrees with the reference")
    return failures
