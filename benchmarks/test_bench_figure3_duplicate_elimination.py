"""Figure 3 — regular vs. temporal duplicate elimination.

Regenerates R1 = π_{EmpName,T1,T2}(EMPLOYEE), R2 = rdup(R1) and
R3 = rdupT(R1) exactly as printed in the paper, and runs both temporal
duplicate elimination algorithms — the reference (specification-level)
implementation and the stratum's sweep-line batch operator, through its
executor — on a scaled workload.
"""

from repro.core.equivalence import strongest_equivalence
from repro.core.operations import DuplicateElimination, LiteralRelation, Projection, TemporalDuplicateElimination
from repro.core.operations.base import EvaluationContext
from repro.dbms import ConventionalDBMS
from repro.stratum import StratumExecutor
from repro.workloads import (
    WorkloadParameters,
    employee_relation,
    figure3_r1,
    figure3_r2_rows,
    figure3_r3,
    generate_employees,
)

from .conftest import banner

CONTEXT = EvaluationContext()


def test_figure3_relations():
    def build():
        r1 = Projection(["EmpName", "T1", "T2"], LiteralRelation(employee_relation())).evaluate(CONTEXT)
        r2 = DuplicateElimination(LiteralRelation(r1)).evaluate(CONTEXT)
        r3 = TemporalDuplicateElimination(LiteralRelation(r1)).evaluate(CONTEXT)
        return r1, r2, r3

    r1, r2, r3 = build()
    assert r1.as_list() == figure3_r1().as_list()
    assert [tuple(tup.values()) for tup in r2] == figure3_r2_rows()
    assert r3.as_list() == figure3_r3().as_list()
    print(banner("Figure 3 — regular and temporal duplicate elimination"))
    print("\nR1 = π_EmpName,T1,T2(EMPLOYEE):")
    print(r1.to_table())
    print("\nR2 = rdup(R1):")
    print(r2.to_table())
    print("\nR3 = rdupT(R1):")
    print(r3.to_table())
    print("\nEquivalences between R1 and R2:", [str(e) for e in strongest_equivalence(r1, r2)])
    print("Equivalences between R1 and R3:", [str(e) for e in strongest_equivalence(r1, r3)])


SCALED = generate_employees(WorkloadParameters(tuples=1500, entities=150, overlap_ratio=0.25, seed=17))
SCALED_NARROW = Projection(["EmpName", "T1", "T2"], LiteralRelation(SCALED)).evaluate(CONTEXT)


def test_reference_rdupt_on_scaled_workload():
    result = TemporalDuplicateElimination(LiteralRelation(SCALED_NARROW)).evaluate(CONTEXT)
    assert not result.has_snapshot_duplicates()


def test_stratum_rdupt_on_scaled_workload():
    executor = StratumExecutor(ConventionalDBMS())
    plan = TemporalDuplicateElimination(LiteralRelation(SCALED_NARROW))
    result = executor.execute(plan)
    assert not result.has_snapshot_duplicates()
    assert executor.report.degraded_operations == []
