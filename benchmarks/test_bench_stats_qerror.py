"""Stats-Q — q-error and plan quality of histogram-backed estimation.

The acceptance experiment of the ``repro.stats`` subsystem, on a skewed
generated workload (Zipf values, clustered periods, heavy duplication):

* **q-error** — for a predicate/operator suite over the skewed tables, the
  estimated cardinality is compared against the true one via the q-error
  metric ``max(est/actual, actual/est)``; the histogram-backed estimates
  must achieve a *strictly lower median* q-error than the constant
  selectivity/overlap baseline, and every table the suite reads must be
  profiled (none fell back to the statistics mapping or
  ``DEFAULT_BASE_CARDINALITY``).  One q-error line per operator class is
  printed as a record, with no bound of its own;
* **plan quality** — every fully enumerable registry query is optimized by
  the memo search with statistics off and on; at least one query must
  change to a plan that is *strictly cheaper by measured executor cost*
  (the cost model evaluated at the plan's actual cardinalities,
  :func:`repro.core.cost.measure_cost`).
"""

from __future__ import annotations

from statistics import median

import pytest

from repro.core.cost import estimate_cardinality, measure_cost
from repro.core.expressions import (
    AttributeRef,
    count,
    Comparison,
    ComparisonOperator,
    between,
    equals,
    greater_than,
    less_than,
    not_equals,
)
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    DuplicateElimination,
    Join,
    Projection,
    Selection,
    TemporalAggregation,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
)
from repro.core.operations.base import EvaluationContext
from repro.search import MemoSearch
from repro.stats import CardinalityEstimator
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PROJECT_SCHEMA,
    fully_enumerable_queries,
    skewed_paper_workload,
)

from .conftest import banner

SCALE = 40


@pytest.fixture(scope="module")
def workload():
    employees, projects = skewed_paper_workload(SCALE)
    relations = {"EMPLOYEE": employees, "PROJECT": projects}
    statistics = {name: len(relation) for name, relation in relations.items()}
    estimator = CardinalityEstimator.from_relations(relations)
    context = EvaluationContext(relations)
    return relations, statistics, estimator, context


def _qerror_suite():
    """Named plans probing equality, range, join, shrink and temporal estimates."""
    employee = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
    project = BaseRelation("PROJECT", PROJECT_SCHEMA)
    employee_names = Projection(["EmpName", "T1", "T2"], employee)
    project_names = Projection(["EmpName", "T1", "T2"], project)
    equijoin = Comparison(
        ComparisonOperator.EQ, AttributeRef("1.EmpName"), AttributeRef("2.EmpName")
    )
    return [
        ("eq-common-dept", Selection(equals("Dept", "Sales"), employee)),
        ("eq-rare-dept", Selection(equals("Dept", "Legal"), employee)),
        ("ne-dept", Selection(not_equals("Dept", "Sales"), employee)),
        ("range-t1", Selection(between("T1", 10, 40), employee)),
        ("open-range-t1", Selection(greater_than("T1", 80), employee)),
        ("open-range-t2", Selection(less_than("T2", 30), employee)),
        ("eq-common-prj", Selection(equals("Prj", "P1"), project)),
        ("eq-rare-prj", Selection(equals("Prj", "P7"), project)),
        ("equijoin", Join(equijoin, employee, project)),
        ("rdup", DuplicateElimination(Projection(["EmpName", "Dept"], employee))),
        ("rdupT", TemporalDuplicateElimination(employee)),
        ("coal-employee", Coalescing(employee)),
        ("coal-project", Coalescing(project)),
        ("aggT-dept", TemporalAggregation(["Dept"], [count()], employee)),
        ("exceptT", TemporalDifference(employee_names, project_names)),
        ("unionT", TemporalUnion(employee_names, project_names)),
    ]


def _qerror(estimate: float, actual: float) -> float:
    estimate = max(float(estimate), 1e-9)
    actual = max(float(actual), 1e-9)
    return max(estimate / actual, actual / estimate)


def test_qerror_histograms_beat_constants(workload):
    relations, statistics, estimator, context = workload
    rows = []
    for name, plan in _qerror_suite():
        unprofiled = {
            node.relation_name
            for node in plan.nodes()
            if isinstance(node, BaseRelation)
            and estimator.base_cardinality(node.relation_name) is None
        }
        assert not unprofiled, f"{name}: no profile for {sorted(unprofiled)}"
        actual = len(plan.evaluate(context))
        constant = estimate_cardinality(plan, statistics)
        estimate = estimate_cardinality(plan, statistics, estimator=estimator)
        rows.append(
            {
                "query": name,
                "operator": plan.symbol,
                "actual": actual,
                "constant_estimate": constant,
                "histogram_estimate": estimate,
                "constant_qerror": _qerror(constant, actual),
                "histogram_qerror": _qerror(estimate, actual),
            }
        )
    constant_median = median(row["constant_qerror"] for row in rows)
    histogram_median = median(row["histogram_qerror"] for row in rows)
    by_operator: dict = {}
    for row in rows:
        by_operator.setdefault(row["operator"], []).append(row)
    per_operator = {
        operator: {
            "queries": len(members),
            "constant_median": median(row["constant_qerror"] for row in members),
            "histogram_median": median(row["histogram_qerror"] for row in members),
        }
        for operator, members in by_operator.items()
    }
    print(banner(f"Stats-Q — q-error on the skewed workload (scale {SCALE})"))
    print(f"{'query':16} {'actual':>8} {'const est':>10} {'hist est':>10} {'q const':>8} {'q hist':>8}")
    for row in rows:
        print(
            f"{row['query']:16} {row['actual']:>8} {row['constant_estimate']:>10.1f} "
            f"{row['histogram_estimate']:>10.1f} {row['constant_qerror']:>8.2f} "
            f"{row['histogram_qerror']:>8.2f}"
        )
    print(f"{'median q-error':16} {'':8} {'':10} {'':10} {constant_median:>8.2f} {histogram_median:>8.2f}")
    print(f"{'operator class':16} {'queries':>8} {'':10} {'':10} {'q const':>8} {'q hist':>8}")
    for operator, line in per_operator.items():
        print(
            f"{operator:16} {line['queries']:>8} {'':10} {'':10} "
            f"{line['constant_median']:>8.2f} {line['histogram_median']:>8.2f}"
        )

    # The acceptance criterion: strictly lower median q-error with histograms.
    assert histogram_median < constant_median


def test_plan_quality_stats_flip_at_least_one_query_to_cheaper_plan(workload):
    relations, statistics, estimator, context = workload
    rows = []
    for named in fully_enumerable_queries():
        plan, spec = named.build()
        without = MemoSearch().optimize(plan, spec, statistics)
        with_stats = MemoSearch().optimize(plan, spec, statistics, estimator=estimator)
        flipped = without.best_plan.signature() != with_stats.best_plan.signature()
        measured_off = measure_cost(without.best_plan, context).total
        measured_on = measure_cost(with_stats.best_plan, context).total
        rows.append(
            {
                "query": named.name,
                "flipped": flipped,
                "measured_without_stats": measured_off,
                "measured_with_stats": measured_on,
            }
        )
    print(banner("Stats-Q — plan choice with statistics off vs. on"))
    print(f"{'query':20} {'flipped':>8} {'measured off':>14} {'measured on':>14}")
    for row in rows:
        print(
            f"{row['query']:20} {str(row['flipped']):>8} "
            f"{row['measured_without_stats']:>14.1f} {row['measured_with_stats']:>14.1f}"
        )

    flips = [row for row in rows if row["flipped"]]
    assert flips, "statistics never changed any plan choice"
    # The acceptance criterion: at least one registry query moves to a plan
    # that is strictly cheaper at the *actual* cardinalities.
    strictly_cheaper = [
        row
        for row in flips
        if row["measured_with_stats"] < row["measured_without_stats"] * (1 - 1e-9)
    ]
    assert strictly_cheaper, "no flipped plan was cheaper by measured executor cost"
