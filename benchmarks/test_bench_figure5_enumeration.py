"""Figure 5 — the query plan enumeration algorithm.

Enumerates all plans reachable from the motivating query's initial plan
with the default (terminating) rule set, and reports the statistics the
algorithm's behaviour is characterised by: number of plans, rule usage, and
how many candidate applications the Table 2 property checks rejected.
Determinism (Section 6) is asserted by running the enumeration twice.
"""

from repro.core.enumeration import enumerate_plans
from repro.core.query import QueryResultSpec

from .conftest import PAPER_STATEMENT, banner, make_paper_database


def prepare():
    database = make_paper_database()
    return database.parse(PAPER_STATEMENT)


def test_figure5_enumeration_of_the_paper_query():
    plan, spec = prepare()
    result = enumerate_plans(plan, spec)
    assert len(result) > 20
    assert not result.statistics.truncated
    repeat = enumerate_plans(plan, spec)
    assert [p.signature() for p in result] == [p.signature() for p in repeat], "deterministic"
    statistics = result.statistics
    print(banner("Figure 5 — plan enumeration"))
    print(f"plans generated:              {statistics.plans_generated}")
    print(f"rule applications attempted:  {statistics.applications_attempted}")
    print(f"rule applications succeeded:  {statistics.applications_succeeded}")
    print(f"rejected by property checks:  {statistics.rejected_by_properties}")
    print("\nrule usage:")
    for name, count in sorted(statistics.rule_usage.items(), key=lambda item: -item[1]):
        print(f"  {name:<16} {count}")


def test_figure5_property_checks_prune_the_space():
    """Disabling the Figure 5 property guard (by treating the query as a set)

    admits strictly more rewrites than the list query allows."""
    plan, _ = prepare()

    def enumerate_both():
        as_list = enumerate_plans(plan, QueryResultSpec.list(order_by=plan.child.sort_order))
        as_set = enumerate_plans(plan, QueryResultSpec.set())
        return as_list, as_set

    as_list, as_set = enumerate_both()
    assert len(as_set) > len(as_list)
    assert as_list.statistics.rejected_by_properties > 0
    print(
        f"\nplans for ORDER BY query: {len(as_list)}; "
        f"plans for DISTINCT query: {len(as_set)} "
        f"(the weaker result type admits more rewrites)"
    )
