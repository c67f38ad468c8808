"""Tests for the DBMS catalog and stored tables."""

import sys

import pytest

from repro.core.exceptions import CatalogError, PeriodError, SchemaError
from repro.dbms.catalog import Catalog
from repro.stats import CardinalityEstimator, TableProfile
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA

from .conftest import in_threads


class TestTable:
    def test_create_with_rows(self, employee):
        table = Catalog().create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        assert table.cardinality == 5
        assert table.schema.name == "EMPLOYEE"

    def test_create_empty(self):
        table = Catalog().create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert table.cardinality == 0

    def test_schema_mismatch_rejected(self, project):
        with pytest.raises(SchemaError):
            Catalog().create_table("EMPLOYEE", EMPLOYEE_SCHEMA, project)

    def test_insert_rows(self):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert catalog.insert("EMPLOYEE", [("Mia", "Sales", 1, 4), ("Mia", "Ads", 4, 9)]) == (2, 2)
        assert catalog.table("EMPLOYEE").cardinality == 2
        # An empty batch changes nothing, the epoch included.
        assert catalog.insert("EMPLOYEE", []) == (0, 2)

    def test_histogram_and_period_summaries(self, employee):
        table = Catalog().create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        profile = table.profile()
        histogram = profile.attributes["Dept"].histogram
        assert histogram.total == 5
        assert histogram.distinct == 2
        assert profile.period is not None
        assert profile.period.count == 5
        assert table.profile() is profile


class TestCatalog:
    def test_create_and_lookup(self, employee):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        assert catalog.has_table("EMPLOYEE")
        assert catalog.table("EMPLOYEE").cardinality == 5

    def test_duplicate_names_rejected(self):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        with pytest.raises(CatalogError):
            catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("NOPE")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        catalog.drop_table("EMPLOYEE")
        assert not catalog.has_table("EMPLOYEE")
        with pytest.raises(CatalogError):
            catalog.drop_table("EMPLOYEE")

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.create_table("PROJECT", PROJECT_SCHEMA)
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert catalog.table_names() == ["EMPLOYEE", "PROJECT"]

    def test_statistics(self, employee, project):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        catalog.create_table("PROJECT", PROJECT_SCHEMA, project)
        assert catalog.statistics() == {"EMPLOYEE": 5, "PROJECT": 8}

    def test_profiles_and_estimator(self, employee, project):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        catalog.create_table("PROJECT", PROJECT_SCHEMA, project)
        profiles = catalog.profiles()
        assert set(profiles) == {"EMPLOYEE", "PROJECT"}
        assert all(isinstance(profile, TableProfile) for profile in profiles.values())
        estimator = CardinalityEstimator(profiles)
        assert estimator.base_cardinality("EMPLOYEE") == 5.0


class TestAppends:
    BATCHES = (
        [("Mia", "Sales", 1, 4), ("Mia", "Sales", 4, 9)],
        [("Tom", "Ads", 2, 5)],
        [("Mia", "Sales", 1, 4), ("Ann", "Sales", 3, 7), ("Tom", "Ads", 8, 11)],
    )

    def test_incremental_profile_equals_recomputed_profile(self):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        for batch in self.BATCHES:
            catalog.insert("EMPLOYEE", batch)
        table = catalog.table("EMPLOYEE")
        recomputed = TableProfile.from_relation("EMPLOYEE", table.relation)
        incremental = table.profile()
        assert incremental.cardinality == recomputed.cardinality == 6
        assert incremental.period == recomputed.period
        assert incremental.row_distinct_ratio == recomputed.row_distinct_ratio
        assert incremental.coalesced_fraction == recomputed.coalesced_fraction
        for attribute in table.schema.attributes:
            assert (
                incremental.attributes[attribute].histogram
                == recomputed.attributes[attribute].histogram
            )

    def test_an_append_validates_the_new_rows_only(self, employee, tuple_constructions):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        pinned = catalog.snapshot()
        before = catalog.table("EMPLOYEE").relation.rows
        tuple_constructions.clear()
        assert catalog.insert("EMPLOYEE", self.BATCHES[2]) == (3, 2)
        # k tuple validations for k new rows, whatever the table already holds;
        # a table is rows, so nothing else is constructed either.
        assert tuple_constructions == {"validated": 3}
        assert catalog.table("EMPLOYEE").relation.rows == before + tuple(self.BATCHES[2])
        assert pinned.table("EMPLOYEE").relation.rows is before
        assert pinned.table("EMPLOYEE").cardinality == len(employee)
        # Every check of a new row is kept: arity, domains, the period.
        for bad, error in (
            (("Mia", "Sales", 9), SchemaError),
            (("Mia", 7, 4, 9), SchemaError),
            (("Mia", "Sales", 9, 4), PeriodError),
        ):
            with pytest.raises(error):
                catalog.insert("EMPLOYEE", [("Ann", "Ads", 1, 2), bad])
        assert catalog.table("EMPLOYEE").cardinality == len(employee) + 3
        assert catalog.epoch == 2

    def test_a_table_takes_a_valid_relation_as_it_is(self, employee, tuple_constructions):
        tuple_constructions.clear()
        table = Catalog().create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        assert tuple_constructions == {}
        assert table.relation.rows is employee.rows and table.relation.schema.name == "EMPLOYEE"

    def test_a_profile_is_shared_until_an_append(self, employee, project, monkeypatch):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        catalog.create_table("PROJECT", PROJECT_SCHEMA, project)
        live = catalog.profiles()
        snapshot = catalog.snapshot()
        # An unchanged table is one object, in the live catalog and in the
        # snapshot, and so is its profile.
        assert snapshot.table("EMPLOYEE") is catalog.table("EMPLOYEE")
        assert all(snapshot.profiles()[name] is live[name] for name in live)

        built = []
        from_relation = TableProfile.from_relation.__func__
        monkeypatch.setattr(
            TableProfile,
            "from_relation",
            classmethod(lambda cls, *args: built.append(args[0]) or from_relation(cls, *args)),
        )
        catalog.insert("EMPLOYEE", self.BATCHES[1])
        assert built == []  # an append builds no profile
        after = catalog.profiles()
        assert built == ["EMPLOYEE"]  # the new table's, on first use
        assert after["EMPLOYEE"] is not live["EMPLOYEE"]
        assert after["EMPLOYEE"].cardinality == 6
        assert after["PROJECT"] is live["PROJECT"]
        # The snapshot keeps the table it copied, and that table's profile.
        assert snapshot.profiles()["EMPLOYEE"] is live["EMPLOYEE"]
        assert snapshot.table("EMPLOYEE").cardinality == 5
        assert catalog.profiles() == after and built == ["EMPLOYEE"]

    def test_concurrent_readers_build_one_profile(self, employee, monkeypatch):
        catalog = Catalog()
        catalog.create_table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        built = []
        from_relation = TableProfile.from_relation.__func__
        monkeypatch.setattr(
            TableProfile,
            "from_relation",
            classmethod(lambda cls, *args: built.append(args[0]) or from_relation(cls, *args)),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = in_threads(*[catalog.snapshot().profiles] * 8, *[catalog.profiles] * 8)
            outcomes = readers()
        finally:
            sys.setswitchinterval(interval)
        assert built == ["EMPLOYEE"]
        assert all(outcome["EMPLOYEE"] is outcomes[0]["EMPLOYEE"] for outcome in outcomes)
