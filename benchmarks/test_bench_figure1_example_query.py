"""Figure 1 — the example relations and the motivating query's result.

Regenerates the Result relation at the bottom right of Figure 1 ("which
employees worked in a department, but not on any project, and when?" —
sorted, coalesced, duplicate free in snapshots) by running the full pipeline
(temporal SQL -> initial plan -> optimization -> stratum/DBMS execution).
"""

from repro.core.equivalence import list_equivalent
from repro.workloads import employee_relation, expected_result_relation, project_relation

from .conftest import PAPER_STATEMENT, banner, make_paper_database


def run_motivating_query():
    database = make_paper_database()
    return database.query(PAPER_STATEMENT)


def test_figure1_motivating_query_result():
    result = run_motivating_query()
    expected = expected_result_relation()
    assert list_equivalent(result, expected), "the engine must reproduce Figure 1's Result"
    print(banner("Figure 1 — example relations and the motivating query"))
    print("\nEMPLOYEE:")
    print(employee_relation().to_table())
    print("\nPROJECT:")
    print(project_relation().to_table())
    print("\nResult (computed = paper):")
    print(result.to_table())


def test_figure1_result_properties():
    """The user-required format: sorted, coalesced, no duplicates in snapshots."""
    result = run_motivating_query()
    assert result.is_coalesced()
    assert not result.has_snapshot_duplicates()
    names = [tup["EmpName"] for tup in result]
    assert names == sorted(names)
    assert result.cardinality == 10
