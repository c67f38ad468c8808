"""Perf-A — sort placement: DBMS-side vs. stratum-side (extension experiment).

The paper argues qualitatively that "the sort operation was pushed down
because the DBMS sorts faster than the stratum".  This experiment makes the
trade-off visible in the reproduction: the same query (project EMPLOYEE,
eliminate temporal duplicates, sort by EmpName) is executed with the sort
placed (a) in the DBMS, below the transfer, and (b) in the stratum, above the
transfer, and the estimated costs of both placements under the cost model are
compared.
"""

from repro.core.cost import estimate_cost
from repro.core.operations import (
    BaseRelation,
    Projection,
    Sort,
    TemporalDuplicateElimination,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor
from repro.workloads import EMPLOYEE_SCHEMA, WorkloadParameters, generate_employees

from .conftest import banner

EMPLOYEES = generate_employees(
    WorkloadParameters(tuples=4000, entities=400, overlap_ratio=0.1, adjacency_ratio=0.2, seed=31)
)


def make_executor():
    dbms = ConventionalDBMS()
    dbms.create_table("EMPLOYEE", EMPLOYEES.schema, EMPLOYEES)
    return StratumExecutor(dbms)


def plan_with_dbms_sort():
    """sort runs in the DBMS, below the transfer (the paper's preference)."""
    return TemporalDuplicateElimination(
        TransferToStratum(
            Sort(
                OrderSpec.ascending("EmpName", "T1"),
                Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
            )
        )
    )


def plan_with_stratum_sort():
    """sort runs in the stratum, after the transfer."""
    return TemporalDuplicateElimination(
        Sort(
            OrderSpec.ascending("EmpName", "T1"),
            TransferToStratum(
                Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
            ),
        )
    )


def test_perf_sort_in_dbms():
    result = make_executor().execute(plan_with_dbms_sort())
    assert not result.has_snapshot_duplicates()


def test_perf_sort_in_stratum():
    result = make_executor().execute(plan_with_stratum_sort())
    assert not result.has_snapshot_duplicates()


def test_perf_sort_placement_cost_model():
    statistics = {"EMPLOYEE": len(EMPLOYEES)}
    dbms_cost = estimate_cost(plan_with_dbms_sort(), statistics)
    stratum_cost = estimate_cost(plan_with_stratum_sort(), statistics)
    print(banner("Perf-A — sort placement (cost model view)"))
    print(f"estimated cost, sort in the DBMS:    {dbms_cost.total:,.1f}")
    print(f"estimated cost, sort in the stratum: {stratum_cost.total:,.1f}")
    # The cost model encodes the paper's assumption: the DBMS-side sort is cheaper.
    assert dbms_cost.total < stratum_cost.total
