"""Perf-P — pipelined physical execution vs. reference evaluation.

The stratum's physical layer executes joins with hash/interval algorithms
and compiled predicates instead of materialising the full (temporal)
Cartesian product through the reference λ-calculus semantics.  This
benchmark runs a join-heavy workload over the scaled EMPLOYEE/PROJECT
relations — a temporal equi-join with a residual filter, projected and
sorted — once through the stratum executor and once through reference
evaluation, and asserts the outputs are *identical tuple sequences* (the
physical layer's list-compatibility guarantee).

What made the physical path fast is pinned as the count it stands for: no
operator emits more rows than the inputs plus the result, i.e. the product
never materialises.  The wall-clock side is the performance ledger's
(``relational-exec``, ``stmt.tjoin.latency_ms_p50``).
"""

from repro.core.expressions import (
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    And,
)
from repro.core.operations import BaseRelation, Projection, Sort, TemporalJoin
from repro.core.order_spec import OrderSpec
from repro.stratum import TemporalDatabase
from repro.stratum.executor import StratumExecutor
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, scaled_paper_workload

from .conftest import banner

#: 300 EMPLOYEE and 480 PROJECT tuples: 144 000 candidate pairs, about a
#: second of reference evaluation.
SCALE = 60


def make_database() -> TemporalDatabase:
    employees, projects = scaled_paper_workload(SCALE)
    database = TemporalDatabase()
    database.register("EMPLOYEE", employees)
    database.register("PROJECT", projects)
    return database


def join_heavy_plan():
    """EMPLOYEE ⋈T PROJECT on EmpName with a residual, projected and sorted."""
    predicate = And(
        Comparison(
            ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
        ),
        Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Legal")),
    )
    join = TemporalJoin(
        predicate,
        BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
        BaseRelation("PROJECT", PROJECT_SCHEMA),
    )
    projected = Projection(["1.EmpName", "Dept", "Prj", "T1", "T2"], join)
    return Sort(OrderSpec.ascending("1.EmpName"), projected)


def test_perf_physical_execution_matches_reference():
    database = make_database()
    plan = join_heavy_plan()
    executor = StratumExecutor(database.dbms)

    physical = executor.execute(plan)
    reference = database.evaluate_reference(plan)
    # List-compatibility: the identical tuple sequence, not just a multiset.
    assert list(physical.tuples) == list(reference.tuples)
    assert len(physical) > 0

    employees, projects = len(database.table("EMPLOYEE")), len(database.table("PROJECT"))
    node_rows = executor.report.node_rows
    print(banner(f"Perf-P — physical execution vs. reference (scale {SCALE})"))
    print(
        f"workload: EMPLOYEE={employees} tuples, PROJECT={projects} tuples, "
        f"result rows={len(physical)}, largest operator output={max(node_rows.values())}"
    )
    # The product never materialises: every operator's output is bounded by
    # what went in plus what came out, nowhere near EMPLOYEE × PROJECT.
    assert max(node_rows.values()) <= employees + projects + len(physical)
    assert employees * projects > 100 * (employees + projects + len(physical))
