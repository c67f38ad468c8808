"""Unit and property tests for order specifications (Order(r), Prefix, IsPrefixOf)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import order_spec as order_spec_module
from repro.core.exceptions import AttributeNotFound
from repro.core.order_spec import ASC, DESC, OrderSpec, SortDirection, SortKey
from repro.core.physical import SortOp, SourceOp
from repro.core.relation import Relation
from repro.core.schema import INTEGER, RelationSchema, STRING

from .strategies import order_specs

SCHEMA = RelationSchema.snapshot([("A", STRING), ("B", INTEGER), ("C", INTEGER)])


class TestConstruction:
    def test_unordered(self):
        assert OrderSpec.unordered().is_unordered()
        assert not OrderSpec.unordered()

    def test_ascending_helper(self):
        spec = OrderSpec.ascending("A", "B")
        assert spec.attributes == ("A", "B")
        assert all(key.direction is ASC for key in spec)

    def test_of_parses_directions(self):
        spec = OrderSpec.of("A", "B DESC", SortKey("C", ASC))
        assert spec.keys == (SortKey("A", ASC), SortKey("B", DESC), SortKey("C", ASC))

    def test_of_rejects_garbage(self):
        with pytest.raises(TypeError):
            OrderSpec.of(42)

    def test_str(self):
        assert str(OrderSpec.unordered()) == "<unordered>"
        assert str(OrderSpec.of("A DESC")) == "A DESC"


class TestPrefixFunctions:
    def test_is_prefix_of(self):
        assert OrderSpec.ascending("A").is_prefix_of(OrderSpec.ascending("A", "B"))
        assert OrderSpec.unordered().is_prefix_of(OrderSpec.ascending("A"))
        assert not OrderSpec.ascending("B").is_prefix_of(OrderSpec.ascending("A", "B"))
        assert not OrderSpec.ascending("A", "B").is_prefix_of(OrderSpec.ascending("A"))

    def test_is_prefix_of_respects_direction(self):
        assert not OrderSpec.of("A DESC").is_prefix_of(OrderSpec.of("A"))

    def test_common_prefix(self):
        a = OrderSpec.ascending("A", "B", "C")
        b = OrderSpec.ascending("A", "B")
        assert a.common_prefix(b) == OrderSpec.ascending("A", "B")
        assert a.common_prefix(OrderSpec.ascending("C")) == OrderSpec.unordered()

    def test_prefix_on_attributes_stops_at_first_dropped(self):
        # Table 1: sorted on A, B, C projected on {A, C} -> sorted on A.
        spec = OrderSpec.ascending("A", "B", "C")
        assert spec.prefix_on_attributes(["A", "C"]) == OrderSpec.ascending("A")

    def test_without_attributes(self):
        spec = OrderSpec.ascending("A", "T1", "B")
        assert spec.without_attributes(["T1", "T2"]) == OrderSpec.ascending("A")

    def test_restricted_to_keeps_later_keys(self):
        spec = OrderSpec.ascending("A", "B", "C")
        assert spec.restricted_to(["A", "C"]) == OrderSpec.ascending("A", "C")

    def test_concat_drops_duplicate_attributes(self):
        combined = OrderSpec.ascending("A", "B").concat(OrderSpec.of("B DESC", "C"))
        assert combined.attributes == ("A", "B", "C")


class TestComparisonKeys:
    def test_descending_sort(self):
        relation = Relation.from_rows(SCHEMA, [("a", 1, 1), ("b", 2, 1), ("c", 3, 1)])
        ordered = relation.sorted_by(OrderSpec.of("B DESC"))
        assert [tup["A"] for tup in ordered] == ["c", "b", "a"]

    def test_mixed_directions(self):
        relation = Relation.from_rows(
            SCHEMA, [("a", 1, 2), ("a", 1, 1), ("b", 1, 3), ("a", 2, 9)]
        )
        ordered = relation.sorted_by(OrderSpec.of("A", "B DESC", "C"))
        assert [tuple(tup.values()) for tup in ordered] == [
            ("a", 2, 9),
            ("a", 1, 1),
            ("a", 1, 2),
            ("b", 1, 3),
        ]

    def test_unknown_sort_attribute_raises(self):
        relation = Relation.from_rows(SCHEMA, [("a", 1, 1)])
        with pytest.raises(AttributeNotFound):
            relation.sorted_by(OrderSpec.ascending("Nope"))


class _Unnegatable:
    """An ordered value with no ``-x``: DESC must not rely on negation."""

    def __init__(self, rank):
        self.rank = rank

    def __lt__(self, other):
        return self.rank < other.rank

    def __eq__(self, other):
        return self.rank == other.rank

    def __hash__(self):
        return hash(self.rank)


class TestSortRows:
    """The physical sort equals the reference sort, without its comparator."""

    @given(
        order_specs(attributes=("A", "B", "C")),
        st.lists(
            st.tuples(st.sampled_from("ab"), st.integers(0, 2), st.integers(0, 1)), max_size=12
        ),
    )
    def test_matches_the_reference_sort_on_duplicates_and_ties(self, spec, rows):
        relation = Relation.from_rows(SCHEMA, rows)
        # Tag rows with their input position: equal keys must keep input order.
        tagged = [row + (position,) for position, row in enumerate(rows)]
        spec.sort_rows(tagged, SCHEMA.attributes + ("position",))
        expected = sorted(enumerate(relation.tuples), key=lambda pair: spec.comparison_key()(pair[1]))
        assert [row[-1] for row in tagged] == [position for position, _ in expected]
        assert [row[:-1] for row in tagged] == [tup.values() for _, tup in expected]

    def test_one_pass_per_run_of_same_direction_keys(self):
        rows = [("a", 1, 2), ("a", 1, 1), ("b", 1, 3), ("a", 2, 9)]
        OrderSpec.of("A", "B DESC", "C DESC").sort_rows(rows, SCHEMA.attributes)
        assert rows == [("a", 2, 9), ("a", 1, 2), ("a", 1, 1), ("b", 1, 3)]

    def test_descending_works_for_values_that_cannot_be_negated(self):
        rows = [(_Unnegatable(1), "x"), (_Unnegatable(3), "y"), (_Unnegatable(1), "z")]
        OrderSpec.of("K DESC").sort_rows(rows, ("K", "V"))
        assert [value for _, value in rows] == ["y", "x", "z"]

    def test_unordered_spec_leaves_rows_alone(self):
        rows = [("b", 2, 0), ("a", 1, 0)]
        OrderSpec.unordered().sort_rows(rows, SCHEMA.attributes)
        assert rows == [("b", 2, 0), ("a", 1, 0)]

    def test_unknown_sort_attribute_raises_before_sorting(self):
        rows = [("b", 2, 0), ("a", 1, 0)]
        with pytest.raises(AttributeNotFound):
            OrderSpec.of("A", "Nope").sort_rows(rows, SCHEMA.attributes)
        assert rows == [("b", 2, 0), ("a", 1, 0)]

    def test_a_sort_operator_drain_builds_no_reversing_comparator(self, monkeypatch):
        built = []
        original = order_spec_module._Reversed.__init__

        def counting(self, value):
            built.append(value)
            original(self, value)

        monkeypatch.setattr(order_spec_module._Reversed, "__init__", counting)
        relation = Relation.from_rows(SCHEMA, [("a", 1, 2), ("b", 3, 1), ("a", 2, 2)])
        spec = OrderSpec.of("A DESC", "B", "C DESC")
        operator = SortOp(spec, SourceOp(relation), order=spec)
        assert list(operator.to_relation().tuples) == list(relation.sorted_by(spec).tuples)
        assert len(built) == 6  # the reference sort above: two DESC keys x three tuples
        del built[:]
        operator.to_relation()
        assert built == []


class TestProperties:
    @given(order_specs(), order_specs())
    def test_common_prefix_is_prefix_of_both(self, a, b):
        prefix = a.common_prefix(b)
        assert prefix.is_prefix_of(a)
        assert prefix.is_prefix_of(b)

    @given(order_specs())
    def test_spec_is_prefix_of_itself(self, spec):
        assert spec.is_prefix_of(spec)

    @given(order_specs(), order_specs())
    def test_mutual_prefixes_are_equal(self, a, b):
        if a.is_prefix_of(b) and b.is_prefix_of(a):
            assert a == b
