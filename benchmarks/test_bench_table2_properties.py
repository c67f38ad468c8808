"""Table 2 — the operation properties and their annotation over a plan.

Regenerates the three properties (OrderRequired, DuplicatesRelevant,
PeriodPreserving), shows them annotated over the motivating query's initial
plan (the shaded regions of Figure 2(a)): the annotation pass is the step the
enumeration algorithm performs for every plan it considers.
"""

from repro.core.properties import annotate, annotated_pretty
from repro.core.query import QueryResultSpec

from .conftest import PAPER_STATEMENT, banner, make_paper_database


def build_plan_and_spec():
    database = make_paper_database()
    return database.parse(PAPER_STATEMENT)


def test_table2_property_annotation():
    plan, spec = build_plan_and_spec()
    properties = annotate(plan, spec)
    assert len(properties) == plan.size()
    root = properties[()]
    # The query is a list (ORDER BY) with DISTINCT: order is required, the
    # result's duplicates matter (they must stay absent), periods are kept.
    assert root.order_required and root.duplicates_relevant and root.period_preserving
    print(banner("Table 2 — operation properties"))
    print(
        "OrderRequired        True if the result of the operation must preserve some order\n"
        "DuplicatesRelevant   True if the operation cannot arbitrarily add or remove regular duplicates\n"
        "PeriodPreserving     True if the operation cannot replace its result with a snapshot-equivalent one"
    )
    print("\nInitial plan annotated with [OrderRequired DuplicatesRelevant PeriodPreserving]:")
    print(annotated_pretty(plan, spec))


def test_table2_regions_match_figure2a():
    plan, spec = build_plan_and_spec()
    properties = annotate(plan, spec)
    below_sort = [path for path in properties if len(path) >= 2]
    assert below_sort and all(not properties[path].order_required for path in below_sort)
    below_coalescing = [path for path in properties if len(path) >= 3]
    assert below_coalescing and all(
        not properties[path].period_preserving for path in below_coalescing
    )
    # Duplicates stop mattering below the outer rdupT, except that the inner
    # rdupT guarding the difference's left argument stays protected.
    difference_path = (0, 0, 0, 0)
    assert not properties[difference_path].duplicates_relevant
    inner_dedup_path = (0, 0, 0, 0, 0)
    assert properties[inner_dedup_path].duplicates_relevant


def test_table2_query_kind_changes_the_root():
    plan, _ = build_plan_and_spec()
    multiset_properties = annotate(plan, QueryResultSpec.multiset())
    set_properties = annotate(plan, QueryResultSpec.set())
    assert not multiset_properties[()].order_required
    assert multiset_properties[()].duplicates_relevant
    assert not set_properties[()].duplicates_relevant
