"""Perf-D — plan-space growth (extension experiment).

Counts how the number of generated plans grows with
(a) the size of the query (number of temporal set operations chained) and
(b) the rule set (algebraic rules only vs. algebraic plus transfer rules),
and how strongly the query's result kind (Definition 5.1) prunes the space.
"""

from repro.core.enumeration import enumerate_plans
from repro.core.query import QueryResultSpec
from repro.core.rules import ALGEBRAIC_RULES, DEFAULT_RULES
from repro.workloads import chained_query

from .conftest import banner

MAX_PLANS = 1500


def enumerate_for_size(operations: int, rules=DEFAULT_RULES):
    plan, spec = chained_query(operations)
    return enumerate_plans(plan, spec, rules=rules, max_plans=MAX_PLANS)


def test_perf_enumeration_one_set_operation():
    result = enumerate_for_size(1)
    assert len(result) > 10


def test_perf_enumeration_two_set_operations():
    result = enumerate_for_size(2)
    assert len(result) > 10


def test_perf_enumeration_three_set_operations():
    result = enumerate_for_size(3)
    assert len(result) > 10


def test_perf_enumeration_algebraic_rules_only():
    result = enumerate_for_size(2, ALGEBRAIC_RULES)
    assert len(result) >= 1


def test_perf_enumeration_scaling_report():
    def sweep():
        rows = []
        for operations in (1, 2, 3):
            for label, rules in (("algebraic", ALGEBRAIC_RULES), ("default", DEFAULT_RULES)):
                outcome = enumerate_for_size(operations, rules)
                rows.append((operations, label, len(outcome), outcome.statistics.truncated))
            for kind, spec in (("multiset", QueryResultSpec.multiset()), ("set", QueryResultSpec.set())):
                plan, _ = chained_query(operations)
                outcome = enumerate_plans(plan, spec, max_plans=MAX_PLANS)
                rows.append((operations, f"default/{kind}", len(outcome), outcome.statistics.truncated))
        return rows

    rows = sweep()
    print(banner("Perf-D — plan-space growth"))
    print(f"{'set ops':<8} {'rule set / query kind':<24} {'plans':<8} truncated")
    for operations, label, plans, truncated in rows:
        print(f"{operations:<8} {label:<24} {plans:<8} {truncated}")
    list_one = next(p for ops, label, p, _ in rows if ops == 1 and label == "default")
    list_two = next(p for ops, label, p, _ in rows if ops == 2 and label == "default")
    assert list_two > list_one, "the plan space grows with query size"
