"""Unit tests for relation schemas and domains."""

import pytest

from repro.core.exceptions import SchemaError, TemporalSchemaError
from repro.core.schema import (
    BOOLEAN,
    BUILTIN_DOMAINS,
    Domain,
    FLOAT,
    INTEGER,
    RelationSchema,
    STRING,
    TIME,
)


class TestDomains:
    def test_string_domain(self):
        assert STRING.contains("Sales")
        assert not STRING.contains(5)

    def test_integer_domain(self):
        assert INTEGER.contains(5)
        assert not INTEGER.contains("5")
        assert not INTEGER.contains(True)

    def test_float_domain_accepts_integers(self):
        assert FLOAT.contains(5)
        assert FLOAT.contains(5.5)
        assert not FLOAT.contains(True)

    def test_boolean_domain(self):
        assert BOOLEAN.contains(True)
        assert not BOOLEAN.contains(1)

    def test_time_domain(self):
        assert TIME.contains(8)
        assert not TIME.contains("8")

    def test_unvalidated_domain_accepts_anything(self):
        anything = Domain("anything")
        assert anything.contains(object())

    def test_builtin_registry(self):
        assert BUILTIN_DOMAINS["string"] is STRING
        assert BUILTIN_DOMAINS["T"] is TIME


class TestSchemaConstruction:
    def test_from_pairs_preserves_order(self):
        schema = RelationSchema.from_pairs([("B", STRING), ("A", INTEGER)])
        assert schema.attributes == ("B", "A")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A", "A"], {"A": STRING})

    def test_missing_domain_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A", "B"], {"A": STRING})

    def test_extra_domain_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema(["A"], {"A": STRING, "B": STRING})

    def test_temporal_schema_requires_both_time_attributes(self):
        with pytest.raises(TemporalSchemaError):
            RelationSchema(["A", "T1"], {"A": STRING, "T1": TIME})

    def test_temporal_attributes_must_use_time_domain(self):
        with pytest.raises(TemporalSchemaError):
            RelationSchema(
                ["A", "T1", "T2"], {"A": STRING, "T1": INTEGER, "T2": TIME}
            )

    def test_temporal_helper_appends_time_attributes(self):
        schema = RelationSchema.temporal([("EmpName", STRING)])
        assert schema.attributes == ("EmpName", "T1", "T2")
        assert schema.is_temporal

    def test_temporal_helper_rejects_explicit_time_attributes(self):
        with pytest.raises(TemporalSchemaError):
            RelationSchema.temporal([("T1", TIME)])

    def test_snapshot_helper_rejects_time_attributes(self):
        with pytest.raises(TemporalSchemaError):
            RelationSchema.snapshot([("T1", TIME), ("T2", TIME)])


class TestSchemaQueries:
    def setup_method(self):
        self.schema = RelationSchema.temporal(
            [("EmpName", STRING), ("Dept", STRING)], name="EMPLOYEE"
        )

    def test_is_temporal(self):
        assert self.schema.is_temporal
        assert not RelationSchema.snapshot([("A", STRING)]).is_temporal

    def test_nontemporal_attributes(self):
        assert self.schema.nontemporal_attributes == ("EmpName", "Dept")

    def test_domain_of(self):
        assert self.schema.domain_of("Dept") is STRING
        with pytest.raises(SchemaError):
            self.schema.domain_of("Nope")

    def test_index_of(self):
        assert self.schema.index_of("Dept") == 1
        with pytest.raises(SchemaError):
            self.schema.index_of("Nope")

    def test_str_mentions_name_and_attributes(self):
        rendered = str(self.schema)
        assert "EMPLOYEE" in rendered
        assert "EmpName" in rendered


class TestSchemaDerivation:
    def setup_method(self):
        self.schema = RelationSchema.temporal(
            [("EmpName", STRING), ("Dept", STRING)], name="EMPLOYEE"
        )

    def test_project(self):
        projected = self.schema.project(["EmpName", "T1", "T2"])
        assert projected.attributes == ("EmpName", "T1", "T2")
        assert projected.is_temporal

    def test_project_unknown_attribute(self):
        with pytest.raises(SchemaError):
            self.schema.project(["Salary"])

    def test_drop_time_renames_reserved_attributes(self):
        demoted = self.schema.drop_time()
        assert demoted.attributes == ("EmpName", "Dept", "1.T1", "1.T2")
        assert not demoted.is_temporal

    def test_drop_time_on_snapshot_schema_is_identity(self):
        snapshot = RelationSchema.snapshot([("A", STRING)])
        assert snapshot.drop_time() is snapshot

    def test_concat_disambiguates_clashes(self):
        other = RelationSchema.temporal([("EmpName", STRING), ("Prj", STRING)])
        combined = self.schema.concat(other)
        assert "1.EmpName" in combined.attributes
        assert "2.EmpName" in combined.attributes
        assert "Dept" in combined.attributes
        assert "Prj" in combined.attributes

    def test_union_compatibility_ignores_order(self):
        a = RelationSchema.from_pairs([("A", STRING), ("B", INTEGER)])
        b = RelationSchema.from_pairs([("B", INTEGER), ("A", STRING)])
        assert a.is_union_compatible(b)

    def test_union_compatibility_requires_same_domains(self):
        a = RelationSchema.from_pairs([("A", STRING)])
        b = RelationSchema.from_pairs([("A", INTEGER)])
        assert not a.is_union_compatible(b)

    def test_equality_ignores_attribute_order_and_name(self):
        a = RelationSchema.from_pairs([("A", STRING), ("B", INTEGER)], name="X")
        b = RelationSchema.from_pairs([("B", INTEGER), ("A", STRING)], name="Y")
        assert a == b
        assert hash(a) == hash(b)
        # The hash is cached per instance; the cached value still agrees.
        assert hash(a) == hash(b) == hash(RelationSchema.from_pairs([("A", STRING), ("B", INTEGER)]))
        assert hash(a) != hash(RelationSchema.from_pairs([("A", STRING), ("B", STRING)]))

    def test_rename(self):
        renamed = self.schema.rename("STAFF")
        assert renamed.name == "STAFF"
        assert renamed == self.schema
