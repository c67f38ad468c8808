"""Walk through the paper's optimization machinery on the algebra API directly.

Instead of going through the temporal SQL front end, this example builds the
initial plan of Figure 2(a) by hand from the operator classes, and then shows
every layer of the optimization framework at work:

1. the Table 2 operation properties annotated over the plan (the shaded
   regions of Figure 2(a)),
2. individual transformation rules and their applicability (Definition 5.1 /
   Figure 5),
3. exhaustive plan enumeration, with statistics,
4. cost-based selection of a final plan, its engine partition, and the
   fragments the conventional DBMS executes.

Run with::

    python examples/plan_optimization_walkthrough.py
"""

from repro.core import (
    BaseRelation,
    Coalescing,
    OrderSpec,
    Projection,
    QueryResultSpec,
    Sort,
    TemporalDifference,
    TemporalDuplicateElimination,
    TransferToStratum,
    annotated_pretty,
    choose_best_plan,
    enumerate_plans,
    estimate_cost,
    is_rule_applicable,
    rules_by_name,
)
from repro.stratum import TemporalDatabase, partition_plan
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation, project_relation


def initial_plan():
    """Figure 2(a): TS(sort(coalT(rdupT(rdupT(π(EMPLOYEE)) \\T π(PROJECT)))))."""
    employee = Projection(["EmpName", "T1", "T2"], BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA))
    project = Projection(["EmpName", "T1", "T2"], BaseRelation("PROJECT", PROJECT_SCHEMA))
    difference = TemporalDifference(TemporalDuplicateElimination(employee), project)
    return TransferToStratum(
        Sort(
            OrderSpec.ascending("EmpName"),
            Coalescing(TemporalDuplicateElimination(difference)),
        )
    )


def main() -> None:
    plan = initial_plan()
    query = QueryResultSpec(
        distinct=True, order_by=OrderSpec.ascending("EmpName"), coalesced=True
    )
    statistics = {"EMPLOYEE": 5, "PROJECT": 8}

    print("Step 1 — the initial plan, annotated with the Table 2 properties")
    print("        [OrderRequired DuplicatesRelevant PeriodPreserving]:\n")
    print(annotated_pretty(plan, query))

    print("\nStep 2 — individual rule applicability (Figure 5):")
    rules = rules_by_name()
    outer_rdupt_path = (0, 0, 0)
    d2 = is_rule_applicable(plan, outer_rdupt_path, rules["D2"], query)
    print(f"  D2 (drop redundant rdupT) at the outer rdupT: {'applicable' if d2 else 'blocked'}")
    s2 = is_rule_applicable(plan, (0,), rules["S2"], query)
    print(f"  S2 (drop the sort, ≡M) at the outermost sort: {'applicable' if s2 else 'blocked'}"
          " — the ORDER BY makes the result a list, so the property check rejects it")

    print("\nStep 3 — exhaustive enumeration:")
    enumeration = enumerate_plans(plan, query)
    print(f"  {len(enumeration)} equivalent plans generated")
    top_rules = sorted(enumeration.statistics.rule_usage.items(), key=lambda item: -item[1])[:5]
    print("  most-used rules:", ", ".join(f"{name} ({count})" for name, count in top_rules))

    print("\nStep 4 — cost-based selection:")
    chosen, cost = choose_best_plan(enumeration.plans, statistics)
    print(f"  estimated cost of the initial plan: {estimate_cost(plan, statistics).total:,.1f}")
    print(f"  estimated cost of the chosen plan:  {cost.total:,.1f}\n")
    print(chosen.pretty())

    partition = partition_plan(chosen)
    print("\nThe fragments the conventional DBMS executes:")
    for index, fragment_path in enumerate(partition.dbms_fragments, start=1):
        fragment = chosen.subtree_at(fragment_path)
        print(f"  fragment {index}:")
        print("    " + fragment.pretty().replace("\n", "\n    "))

    print("\nStep 5 — executing the chosen plan across both engines:")
    database = TemporalDatabase()
    database.register("EMPLOYEE", employee_relation())
    database.register("PROJECT", project_relation())
    result = database.run_plan(chosen)
    print(result.to_table())


if __name__ == "__main__":
    main()
