"""Unit tests for list-based relations (Definition 2.2) and their analyses."""

import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SchemaError, TemporalSchemaError
from repro.core.order_spec import OrderSpec
from repro.core.period import Period
from repro.core.relation import Relation
from repro.core.schema import INTEGER, RelationSchema, STRING
from repro.core.tuples import Tuple
from repro.workloads import EMPLOYEE_NAME_SCHEMA, employee_relation, figure3_r1

from .conftest import in_threads
from .strategies import TEMPORAL_SCHEMA, temporal_rows

SNAPSHOT = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)])


class TestConstruction:
    def test_from_rows(self, employee):
        assert employee.cardinality == 5
        assert employee[0]["EmpName"] == "John"

    def test_empty(self):
        relation = Relation.empty(SNAPSHOT)
        assert relation.is_empty()
        assert relation.cardinality == 0

    def test_mismatched_tuple_schema_rejected(self, employee):
        other = Relation.from_rows(SNAPSHOT, [("a", 1)])
        with pytest.raises(SchemaError):
            Relation(employee.schema, list(other.tuples))

    def test_of_rows_builds_the_same_relation_without_the_check(self, employee):
        order = OrderSpec.ascending("EmpName")
        vouched = Relation.of_rows(employee.schema, list(employee.rows), order=order)
        assert vouched == employee and hash(vouched) == hash(employee)
        assert vouched.order == order and vouched.tuples == employee.tuples
        assert Relation.of_rows(employee.schema, []).order.is_unordered()
        # A contract, not a check: the caller vouches for the rows, so the
        # foreign row ``from_rows`` rejects goes through here.
        with pytest.raises(SchemaError):
            Relation.from_rows(employee.schema, [("a", 1)])
        assert len(Relation.of_rows(employee.schema, [("a", 1)])) == 1

    def test_relations_are_lists_order_matters(self):
        a = Relation.from_rows(SNAPSHOT, [("a", 1), ("b", 2)])
        b = Relation.from_rows(SNAPSHOT, [("b", 2), ("a", 1)])
        assert a != b

    def test_relations_allow_duplicates(self):
        relation = Relation.from_rows(SNAPSHOT, [("a", 1), ("a", 1)])
        assert relation.cardinality == 2
        assert relation.has_duplicates()


class TestViews:
    def test_multiset_view_counts_duplicates(self, r1):
        counts = r1.as_multiset()
        assert max(counts.values()) == 2

    def test_set_view_drops_duplicates(self, r1):
        assert len(r1.as_set()) == 4

    def test_list_view_preserves_order(self, employee):
        names = [tup["EmpName"] for tup in employee.as_list()]
        assert names == ["John", "John", "Anna", "Anna", "Anna"]


class TestDuplicateAnalyses:
    def test_regular_duplicates_detected(self, r1):
        assert r1.has_duplicates()

    def test_no_regular_duplicates(self, employee):
        assert not employee.has_duplicates()

    def test_snapshot_duplicates_detected(self, r1):
        # R1 has temporal duplicates: John's two periods overlap at months 6-7.
        assert r1.has_snapshot_duplicates()

    def test_no_snapshot_duplicates(self, r3):
        assert not r3.has_snapshot_duplicates()

    def test_snapshot_duplicates_on_snapshot_relation_falls_back(self):
        relation = Relation.from_rows(SNAPSHOT, [("a", 1), ("a", 1)])
        assert relation.has_snapshot_duplicates()


class TestCoalescingAnalyses:
    def test_projected_employee_is_not_coalesced(self, r1):
        # Anna's [2,6) and [6,12) periods are adjacent.
        assert not r1.is_coalesced()

    def test_coalesced_relation(self, expected_result):
        assert expected_result.is_coalesced()

    def test_coalescing_undefined_for_snapshot_relations(self):
        relation = Relation.from_rows(SNAPSHOT, [("a", 1)])
        with pytest.raises(TemporalSchemaError):
            relation.is_coalesced()

    def test_value_groups(self, r1):
        groups = r1.value_groups()
        assert groups[("John",)] == [Period(1, 8), Period(6, 11)]
        assert groups[("Anna",)] == [Period(2, 6), Period(2, 6), Period(6, 12)]


class TestSnapshots:
    def test_snapshot_contents(self, employee):
        snap = employee.snapshot(6)
        values = [(tup["EmpName"], tup["Dept"]) for tup in snap]
        assert values == [("John", "Sales"), ("John", "Advertising"), ("Anna", "Sales")]

    def test_snapshot_drops_time_attributes(self, employee):
        snap = employee.snapshot(6)
        assert not snap.schema.is_temporal
        assert snap.schema.attributes == ("EmpName", "Dept")

    def test_snapshot_of_snapshot_relation_rejected(self):
        relation = Relation.from_rows(SNAPSHOT, [("a", 1)])
        with pytest.raises(TemporalSchemaError):
            relation.snapshot(1)

    def test_snapshot_with_duplicates(self, r1):
        snap = r1.snapshot(6)
        names = [tup["Name"] if tup.schema.has_attribute("Name") else tup["EmpName"] for tup in snap]
        assert names.count("John") == 2

    def test_active_time_points(self):
        relation = Relation.from_rows(EMPLOYEE_NAME_SCHEMA, [("a", 1, 3), ("a", 5, 6)])
        assert relation.active_time_points() == [1, 2, 5]

    def test_interesting_time_points_bound_snapshot_changes(self, employee):
        points = employee.interesting_time_points()
        assert 1 in points and 12 in points
        # Snapshots can only change at interesting points: probing between two
        # consecutive interesting points yields identical snapshots.
        for earlier, later in zip(points, points[1:]):
            middle = earlier + (later - earlier) // 2
            if middle in (earlier, later):
                continue
            assert employee.snapshot(middle).as_multiset() == employee.snapshot(earlier).as_multiset()

    def test_time_span(self, employee):
        assert employee.time_span() == Period(1, 12)

    def test_time_span_empty(self):
        assert Relation.empty(EMPLOYEE_NAME_SCHEMA).time_span() is None


class TestDerivation:
    def test_sorted_by(self, employee):
        ordered = employee.sorted_by(OrderSpec.ascending("EmpName", "T1"))
        names = [tup["EmpName"] for tup in ordered]
        assert names == ["Anna", "Anna", "Anna", "John", "John"]
        assert ordered.order == OrderSpec.ascending("EmpName", "T1")

    def test_sort_is_stable(self):
        relation = Relation.from_rows(SNAPSHOT, [("a", 3), ("a", 1), ("a", 2)])
        ordered = relation.sorted_by(OrderSpec.ascending("Name"))
        assert [tup["Amount"] for tup in ordered] == [3, 1, 2]

    def test_concat(self):
        a = Relation.from_rows(SNAPSHOT, [("a", 1)])
        b = Relation.from_rows(SNAPSHOT, [("b", 2)])
        combined = a.concat(b)
        assert [tup["Name"] for tup in combined] == ["a", "b"]

    def test_concat_requires_union_compatibility(self, employee):
        other = Relation.from_rows(SNAPSHOT, [("a", 1)])
        with pytest.raises(SchemaError):
            employee.concat(other)

    def test_with_order_is_metadata_only(self, employee):
        annotated = employee.with_order(OrderSpec.ascending("EmpName"))
        assert list(annotated.tuples) == list(employee.tuples)
        assert annotated.order == OrderSpec.ascending("EmpName")

    def test_to_table_renders_all_columns(self, employee):
        table = employee.to_table()
        assert "EmpName" in table and "Advertising" in table

    def test_to_table_truncation(self, employee):
        table = employee.to_table(max_rows=2)
        assert "more rows" in table


class TestRowsAndViews:
    """A relation built from ``Tuple``s and one built from value rows over
    the same data are the same relation — also when the tuples list the
    attributes in other orders than the relation, where a row is by *name*."""

    #: Every order of TEMPORAL_SCHEMA's attributes a tuple may come in.
    ORDERS = (
        ("Name", "Dept", "T1", "T2"),
        ("T2", "Dept", "Name", "T1"),
        ("Dept", "T1", "T2", "Name"),
    )
    SCHEMAS = tuple(TEMPORAL_SCHEMA.project(order) for order in ORDERS)

    @staticmethod
    def analyses(relation, times):
        order = OrderSpec.of("Dept DESC", "T1")
        return (
            relation.rows,
            [(tup.schema.attributes, tup.values()) for tup in relation.tuples],
            relation.as_multiset(),
            relation.has_duplicates(),
            relation.has_snapshot_duplicates(),
            relation.is_coalesced(),
            relation.value_groups(),
            [relation.snapshot(time).rows for time in times],
            relation.sorted_by(order).rows,
            relation.concat(relation).rows,
            relation.with_order(order).rows,
            relation.with_order(order).order,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(temporal_rows(), st.sampled_from(SCHEMAS)), max_size=8),
        st.sampled_from(SCHEMAS),
    )
    def test_tuple_built_and_rows_built_relations_agree(self, data, other_schema):
        rows = [row for row, _ in data]
        times = sorted({time for row in rows for time in row[2:]})
        by_rows = Relation.of_rows(TEMPORAL_SCHEMA, rows)
        by_tuples = Relation(
            TEMPORAL_SCHEMA,
            [Tuple(schema, dict(zip(TEMPORAL_SCHEMA.attributes, row))) for row, schema in data],
        )
        assert by_tuples.rows == by_rows.rows == tuple(rows)
        assert by_tuples == by_rows and hash(by_tuples) == hash(by_rows)
        assert len(by_tuples) == len(by_rows) == len(rows)
        assert by_tuples.is_empty() == by_rows.is_empty() == (not rows)
        assert self.analyses(by_tuples, times) == self.analyses(by_rows, times)
        # The same data under a schema listing the attributes differently is
        # the same relation again: equality and hashing are by name.
        elsewhere = Relation(other_schema, by_tuples.tuples)
        assert elsewhere.schema.attributes == other_schema.attributes
        assert elsewhere == by_rows and by_rows == elsewhere
        assert hash(elsewhere) == hash(by_rows)
        assert elsewhere.as_multiset() == by_rows.as_multiset()
        assert by_rows.concat(elsewhere).rows == tuple(rows + rows)
        if rows:
            changed = Relation.of_rows(TEMPORAL_SCHEMA, rows[:-1] + [("Zoe",) + rows[-1][1:]])
            assert elsewhere != changed and changed != by_tuples

    def test_views_are_built_once_and_shared_with_a_reordering(self, employee):
        relation = Relation.of_rows(employee.schema, employee.rows)
        annotated = relation.with_order(OrderSpec.ascending("EmpName"))
        assert annotated.rows is relation.rows
        views = relation.tuples
        assert relation.tuples is views and relation[0] is views[0] and list(relation) == list(views)
        assert relation.with_order(OrderSpec.unordered()).tuples is views
        assert annotated.tuples is not views and annotated.tuples == views

    def test_racing_first_reads_of_the_views_are_harmless(self):
        # The view cache takes no lock: readers racing the first read may
        # each build the views, and every one of them gets a complete,
        # correct sequence; afterwards the cache is stable.
        rows = [(f"n{i}", "Ads", 1 + i % 5, 7 + i % 5) for i in range(3000)]
        workers = 2 * (os.cpu_count() or 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                relation = Relation.of_rows(TEMPORAL_SCHEMA, rows)
                barrier = threading.Barrier(workers)

                def read():
                    barrier.wait(timeout=10)
                    return [tup.values() for tup in relation.tuples]

                outcomes = in_threads(*[read] * workers)()
                assert all(outcome == rows for outcome in outcomes)
                assert relation.tuples is relation.tuples and len(relation.tuples) == len(rows)
        finally:
            sys.setswitchinterval(interval)

    def test_given_tuples_serve_as_the_views_when_they_are_in_order(self, employee):
        assert Relation(employee.schema, employee.tuples).tuples == employee.tuples
        assert all(
            kept is given
            for kept, given in zip(Relation(employee.schema, employee.tuples).tuples, employee.tuples)
        )
