"""Perf-P — pipelined physical execution vs. reference evaluation.

The stratum's physical layer executes joins with hash/interval algorithms
and compiled predicates instead of materialising the full (temporal)
Cartesian product through the reference λ-calculus semantics.  This
benchmark runs a join-heavy workload over the scaled EMPLOYEE/PROJECT
relations — a temporal equi-join with a residual filter, projected and
sorted — once through the stratum executor and once through reference
evaluation, asserts the outputs are *identical tuple sequences* (the
physical layer's list-compatibility guarantee), and requires the physical
path to be at least 10× faster end to end.

``PHYSICAL_BENCH_SCALE`` shrinks the workload for smoke runs (default 400:
2 000 EMPLOYEE and 3 200 PROJECT tuples, i.e. 6.4M candidate pairs for the
reference product).  The measurements are written as JSON to the file
``PHYSICAL_BENCH_JSON`` names, when set, so CI can archive the run next to
the plan-cache and q-error artifacts; a local run writes nothing.
"""

import os
import time

from repro.core.expressions import (
    AttributeRef,
    Comparison,
    ComparisonOperator,
    Literal,
    And,
)
from repro.core.operations import BaseRelation, Projection, Sort, TemporalJoin
from repro.core.order_spec import OrderSpec
from repro.options import ExecutionOptions
from repro.stratum import TemporalDatabase
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, scaled_paper_workload

from .conftest import archive_results, banner

SCALE = int(os.environ.get("PHYSICAL_BENCH_SCALE", "400"))

#: Shared between the tests of this module and flushed to JSON at the end.
RESULTS: dict = {"scale": SCALE}


def make_database() -> TemporalDatabase:
    employees, projects = scaled_paper_workload(SCALE)
    database = TemporalDatabase(options=ExecutionOptions(optimize_queries=False))
    database.register("EMPLOYEE", employees)
    database.register("PROJECT", projects)
    RESULTS["employee_tuples"] = len(employees)
    RESULTS["project_tuples"] = len(projects)
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


def test_perf_physical_execution_speedup(benchmark):
    database = make_database()
    plan = join_heavy_plan()

    def run_both():
        started = time.perf_counter()
        physical = database.run_plan(plan)
        physical_seconds = time.perf_counter() - started
        started = time.perf_counter()
        reference = database.evaluate_reference(plan)
        reference_seconds = time.perf_counter() - started
        return physical, physical_seconds, reference, reference_seconds

    physical, physical_seconds, reference, reference_seconds = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    # List-compatibility: the identical tuple sequence, not just a multiset.
    assert list(physical.tuples) == list(reference.tuples)
    speedup = reference_seconds / physical_seconds
    RESULTS.update(
        {
            "result_rows": len(physical),
            "physical_seconds": physical_seconds,
            "reference_seconds": reference_seconds,
            "speedup": speedup,
        }
    )
    print(banner(f"Perf-P — physical execution vs. reference (scale {SCALE})"))
    print(
        f"workload: EMPLOYEE={RESULTS['employee_tuples']} tuples, "
        f"PROJECT={RESULTS['project_tuples']} tuples, result rows={len(physical)}"
    )
    print(
        f"physical={physical_seconds:.3f}s reference={reference_seconds:.3f}s "
        f"speedup={speedup:,.1f}x"
    )
    assert len(physical) > 0
    assert speedup >= 10.0, (
        f"physical execution must be >=10x faster than reference evaluation, "
        f"got {speedup:.1f}x"
    )


def test_write_benchmark_json():
    """Check the module's measurements; archive them when ``PHYSICAL_BENCH_JSON`` names a file."""
    assert "speedup" in RESULTS
    archive_results("PHYSICAL_BENCH_JSON", RESULTS, "Perf-P")
