"""Workload definitions: data, statement classes and seeded operation order.

``--seed`` is the only input.  It seeds the generated relations
(:func:`build_relations`) and the order of operations inside every round
(:func:`round_ops`); the program under test only ever sees the generated
rows, statements and parameters.

Every mix has an odd number of equally weighted statement classes, and every
round is *balanced* (each class appears equally often, in a seeded shuffle),
so the pooled ``latency_ms_p50`` falls in the middle of one class instead of
on the boundary between two.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Tuple

from repro import ExecutionOptions, TemporalDatabase
from repro.core.relation import Relation
from repro.core.schema import STRING, RelationSchema
from repro.workloads import (
    CHAINED_SQL,
    MIX_DEPARTMENTS,
    PAPER_SQL,
    POINT_SQL,
    concurrent_mix_append_batch,
    scaled_paper_workload,
)

#: PROJECT under disjoint attribute names, so SQL joins with EMPLOYEE need
#: no qualified references.
ASSIGNMENT_SCHEMA = RelationSchema.temporal(
    [("Person", STRING), ("Task", STRING)], name="ASSIGNMENT"
)

#: The scale the equivalence check against the reference evaluator runs at.
CHECK_SCALE = 12
SMOKE_SCALE = 6


@dataclass(frozen=True)
class StatementClass:
    name: str
    sql: str
    #: Parameter tuples rotated across executions.
    params: Tuple[Tuple[object, ...], ...] = ((),)


STATEMENTS: Dict[str, StatementClass] = {
    s.name: s
    for s in (
        StatementClass("paper", PAPER_SQL),
        StatementClass("chained", CHAINED_SQL),
        StatementClass("point", POINT_SQL, tuple((d,) for d in MIX_DEPARTMENTS)),
        StatementClass(
            "tjoin",
            "SELECT EmpName, Dept, Task FROM EMPLOYEE, ASSIGNMENT "
            "WHERE EmpName = Person AND Dept <> ? ORDER BY EmpName",
            (("Legal",), ("Sales",), ("Finance",)),
        ),
        StatementClass("agg", "SELECT Dept, COUNT(*) AS N FROM EMPLOYEE GROUP BY Dept"),
        StatementClass("sort", "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName DESC"),
        StatementClass(
            "filter",
            "SELECT EmpName, Prj FROM PROJECT WHERE T1 >= ? AND Prj <> ?",
            ((40, "P3"), (50, "P7"), (60, "P11")),
        ),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # "inprocess" | "tcp"
    scale: int
    classes: Tuple[str, ...]
    #: In-process: balanced cycles per round.  TCP: reads per client per
    #: round are ``cycles * len(classes)``.
    cycles: int
    clear_cache: bool = False
    #: TCP only: client 0 appends one 2-row EMPLOYEE batch mid-round.
    appends: bool = False
    clients: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold-plan", "inprocess", 12, ("tjoin", "paper", "chained"), 3, clear_cache=True),
        Workload("warm-serve", "tcp", 12, ("paper", "chained", "point"), 25, clients=2),
        Workload("mixed-rw", "tcp", 12, ("paper", "chained", "point"), 10, appends=True, clients=2),
        Workload("temporal-exec", "inprocess", 60, ("paper", "chained", "agg"), 8),
        Workload("relational-exec", "inprocess", 1000, ("tjoin", "sort", "filter"), 10),
    )
}


def smoke(workload: Workload) -> Workload:
    """The self-check preset: tiny data, one cycle (four per TCP client)."""
    return replace(
        workload, scale=SMOKE_SCALE, cycles=4 if workload.driver == "tcp" else 1
    )


class Op(NamedTuple):
    kind: str  # "query" | "append"
    cls: str  # statement class, or "append"
    text: str  # SQL text, or the table name of an append
    params: tuple  # parameter values, or the rows of an append


def build_relations(scale: int, seed: int) -> Dict[str, Relation]:
    employees, projects = scaled_paper_workload(scale, seed)
    assignment = Relation.from_rows(
        ASSIGNMENT_SCHEMA, [t.values() for t in projects.tuples]
    )
    return {"EMPLOYEE": employees, "PROJECT": projects, "ASSIGNMENT": assignment}


def build_database(scale: int, seed: int) -> TemporalDatabase:
    database = TemporalDatabase(options=ExecutionOptions())
    for name, relation in build_relations(scale, seed).items():
        database.register(name, relation)
    return database


def data_digest(scale: int, seed: int) -> str:
    """sha256 over the generated rows — what a different ``--seed`` must change."""
    digest = hashlib.sha256()
    for name, relation in sorted(build_relations(scale, seed).items()):
        digest.update(repr((name, [t.values() for t in relation.tuples])).encode())
    return digest.hexdigest()


def query_op(cls: str, occurrence: int) -> Op:
    statement = STATEMENTS[cls]
    return Op("query", cls, statement.sql, statement.params[occurrence % len(statement.params)])


def warmup_ops(workload: Workload) -> List[Op]:
    """Every statement class once per parameter variant (fills every cache)."""
    return [
        query_op(cls, occurrence)
        for cls in workload.classes
        for occurrence in range(len(STATEMENTS[cls].params))
    ]


def round_ops(workload: Workload, seed: int, round_index: int, client: int = 0) -> List[Op]:
    """Client ``client``'s operations for one round: balanced, seeded order.

    With ``appends``, the middle cycle is not shuffled: client 0 appends
    while client 1 reads, then *both* clients read every class in the same
    fixed order.  Over TCP the clients run in lockstep, so after each append
    two workers miss the same (statement, epoch) at the same moment — the
    duplicate optimisation ``session.miss_amplification`` counts — the same
    number of times whatever the seed.
    """
    rng = random.Random(f"{seed}/{workload.name}/{round_index}/{client}")
    ops: List[Op] = []
    for cycle in range(workload.cycles):
        classes = list(workload.classes)
        occurrence = round_index * workload.cycles + cycle
        if workload.appends and cycle == workload.cycles // 2:
            if client == 0:
                rows = tuple(concurrent_mix_append_batch(round_index))
                ops.append(Op("append", "append", "EMPLOYEE", rows))
            else:
                ops.append(query_op(classes[-1], occurrence + 1))
        else:
            rng.shuffle(classes)
        ops.extend(query_op(cls, occurrence) for cls in classes)
    return ops
