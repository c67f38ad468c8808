"""Tests for the DBMS catalog and stored tables."""

import pytest

from repro.core.exceptions import CatalogError, PeriodError, SchemaError
from repro.core.order_spec import OrderSpec
from repro.core.relation import Relation
from repro.dbms.catalog import Catalog, Table, TableStatistics
from repro.stats import CardinalityEstimator, TableProfile
from repro.workloads import EMPLOYEE_SCHEMA, PROJECT_SCHEMA, employee_relation


class TestTable:
    def test_create_with_rows(self, employee):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        assert table.cardinality == 5
        assert table.statistics.cardinality == 5
        assert table.statistics.distinct_values["EmpName"] == 2

    def test_create_empty(self):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert table.cardinality == 0

    def test_schema_mismatch_rejected(self, project):
        with pytest.raises(SchemaError):
            Table("EMPLOYEE", EMPLOYEE_SCHEMA, project)

    def test_insert_rows(self):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        added = table.insert([("Mia", "Sales", 1, 4), ("Mia", "Ads", 4, 9)])
        assert added == 2
        assert table.cardinality == 2
        assert table.statistics.distinct_values["Dept"] == 2

    def test_replace(self, employee):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        table.replace(employee)
        assert table.cardinality == 5

    def test_clustering_order_annotates_relation(self, employee):
        order = OrderSpec.ascending("EmpName")
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA, employee, clustering=order)
        assert table.relation.order == order

    def test_statistics_from_relation(self, employee):
        stats = TableStatistics.from_relation(employee)
        assert stats.cardinality == 5
        assert stats.distinct_values["Dept"] == 2

    def test_histogram_and_period_summaries(self, employee):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        histogram = table.statistics.histogram("Dept")
        assert histogram.total == 5
        assert histogram.distinct == 2
        period = table.statistics.period_histogram()
        assert period is not None
        assert period.count == 5
        # Interleaving the table-level and statistics-level accessors must
        # not thrash the lazy profile cache.
        first = table.profile()
        table.statistics.histogram("Dept")
        assert table.profile() is first


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


class TestIncrementalStatistics:
    """Satellite regression: incremental updates must equal a full recompute."""

    BATCHES = (
        [("Mia", "Sales", 1, 4), ("Mia", "Sales", 4, 9)],
        [("Tom", "Ads", 2, 5)],
        [("Mia", "Sales", 1, 4), ("Ann", "Sales", 3, 7), ("Tom", "Ads", 8, 11)],
    )

    def _table_after_inserts(self) -> Table:
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        for batch in self.BATCHES:
            table.insert(batch)
        return table

    def test_incremental_equals_recompute(self):
        table = self._table_after_inserts()
        recomputed = TableStatistics.from_relation(table.relation)
        assert table.statistics.cardinality == recomputed.cardinality == 6
        assert table.statistics.distinct_values == recomputed.distinct_values

    def test_incremental_profile_equals_recomputed_profile(self):
        table = self._table_after_inserts()
        recomputed = TableProfile.from_relation("EMPLOYEE", table.relation)
        incremental = table.profile()
        assert incremental.cardinality == recomputed.cardinality
        assert incremental.period == recomputed.period
        assert incremental.row_distinct_ratio == recomputed.row_distinct_ratio
        assert incremental.coalesced_fraction == recomputed.coalesced_fraction
        for attribute in table.schema.attributes:
            assert (
                incremental.attributes[attribute].histogram
                == recomputed.attributes[attribute].histogram
            )

    def test_insert_does_not_rescan_the_relation(self, monkeypatch):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        table.insert(self.BATCHES[0])

        def fail_from_relation(relation):  # pragma: no cover - guard only
            raise AssertionError("insert must not recompute statistics from scratch")

        monkeypatch.setattr(TableStatistics, "from_relation", fail_from_relation)
        table.insert(self.BATCHES[1])
        assert table.statistics.cardinality == 3

    def test_an_append_validates_the_new_rows_only(self, employee, tuple_constructions):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        pinned = table.pin()
        before = table.relation.rows
        tuple_constructions.clear()
        assert table.insert(self.BATCHES[2]) == 3
        # k tuple validations for k new rows, whatever the table already holds;
        # a table is rows, so nothing else is constructed either.
        assert tuple_constructions == {"validated": 3}
        assert table.relation.rows == before + tuple(self.BATCHES[2])
        assert pinned.relation.rows is before and pinned.cardinality == len(employee)
        # Every check of a new row is kept: arity, domains, the period.
        for bad, error in (
            (("Mia", "Sales", 9), SchemaError),
            (("Mia", 7, 4, 9), SchemaError),
            (("Mia", "Sales", 9, 4), PeriodError),
        ):
            with pytest.raises(error):
                table.insert([("Ann", "Ads", 1, 2), bad])
        assert table.cardinality == len(employee) + 3

    def test_a_table_takes_a_valid_relation_as_it_is(self, employee, tuple_constructions):
        tuple_constructions.clear()
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA, employee)
        table.replace(employee)
        assert tuple_constructions == {}
        assert table.relation.rows is employee.rows and table.relation.schema.name == "EMPLOYEE"

    def test_profile_cache_invalidated_by_insert(self):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        table.insert(self.BATCHES[0])
        before = table.profile()
        assert table.profile() is before  # cached while unchanged
        table.insert(self.BATCHES[1])
        after = table.profile()
        assert after is not before
        assert after.cardinality == 3

    def test_replace_restarts_statistics(self, employee):
        table = Table("EMPLOYEE", EMPLOYEE_SCHEMA)
        table.insert(self.BATCHES[0])
        table.replace(employee)
        recomputed = TableStatistics.from_relation(employee)
        assert table.statistics.cardinality == recomputed.cardinality
        assert table.statistics.distinct_values == recomputed.distinct_values
