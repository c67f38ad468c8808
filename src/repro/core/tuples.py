"""Tuples over relation schemas (Definition 2.2).

A tuple is a function from the attributes of a schema to values of the
corresponding domains.  Tuples are immutable and hashable so that they can be
counted in multisets when checking multiset/set equivalence, and compared for
*value equivalence* (agreement on all non-temporal attributes), which drives
coalescing, temporal duplicate elimination, and the temporal set operations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple as PyTuple

from .exceptions import SchemaError, TemporalSchemaError
from .period import Period, T1, T2
from .schema import RelationSchema


class Tuple:
    """An immutable tuple over a :class:`RelationSchema`.

    Values are validated against the schema's domains at construction time, so
    that errors surface where the data is created rather than deep inside an
    operator.
    """

    __slots__ = ("_schema", "_values", "_value_part", "_hash")

    def __init__(self, schema: RelationSchema, values: Mapping[str, Any]) -> None:
        missing = [a for a in schema.attributes if a not in values]
        if missing:
            raise SchemaError(f"tuple is missing values for attributes {missing}")
        extra = [a for a in values if a not in schema.domains]
        if extra:
            raise SchemaError(f"tuple provides values for unknown attributes {extra}")
        for attribute in schema.attributes:
            value = values[attribute]
            if not schema.domain_of(attribute).contains(value):
                raise SchemaError(
                    f"value {value!r} for attribute {attribute!r} is outside domain "
                    f"{schema.domain_of(attribute)}"
                )
        self._schema = schema
        self._values: PyTuple[Any, ...] = tuple(values[a] for a in schema.attributes)
        self._value_part: Optional[PyTuple[Any, ...]] = None
        self._hash: Optional[int] = None
        if schema.is_temporal:
            # Validate the period eagerly; Period raises on end <= start.
            Period(values[T1], values[T2])

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_sequence(cls, schema: RelationSchema, values: Sequence[Any]) -> "Tuple":
        """Build a tuple from values given in the schema's attribute order."""
        if len(values) != len(schema.attributes):
            raise SchemaError(
                f"expected {len(schema.attributes)} values, got {len(values)}"
            )
        return cls(schema, dict(zip(schema.attributes, values)))

    @classmethod
    def trusted(cls, schema: RelationSchema, values: PyTuple[Any, ...]) -> "Tuple":
        """Build a tuple from already-validated values in schema order.

        Skips the domain, arity and period checks of ``__init__``.  The caller
        guarantees ``values`` came out of tuples that were validated at their
        own construction — the columnar executor uses this at operator-tree
        boundaries, where every value was sliced out of an input ``Tuple`` or
        produced by a kernel over such values, so re-validating each chunk
        would only re-prove what construction already proved.
        """
        tup = cls.__new__(cls)
        tup._schema = schema
        tup._values = values
        tup._value_part = None
        tup._hash = None
        return tup

    # -- access ----------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The schema this tuple conforms to."""
        return self._schema

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self._values[self._schema.index_of(attribute)]
        except SchemaError:
            raise SchemaError(
                f"tuple has no attribute {attribute!r} (schema {self._schema})"
            ) from None

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return the value of ``attribute`` or ``default`` if absent."""
        if self._schema.has_attribute(attribute):
            return self[attribute]
        return default

    def values(self) -> PyTuple[Any, ...]:
        """All values in schema attribute order."""
        return self._values

    def as_dict(self) -> Dict[str, Any]:
        """Return a fresh ``{attribute: value}`` dictionary."""
        return dict(zip(self._schema.attributes, self._values))

    # -- temporal access ---------------------------------------------------------

    @property
    def is_temporal(self) -> bool:
        """True if the tuple carries a valid-time period."""
        return self._schema.is_temporal

    @property
    def period(self) -> Period:
        """The tuple's valid-time period; raises for snapshot tuples."""
        if not self.is_temporal:
            raise TemporalSchemaError("snapshot tuples carry no period")
        return Period(self[T1], self[T2])

    def value_part(self) -> PyTuple[Any, ...]:
        """The values of the non-temporal attributes, in schema order.

        Two temporal tuples are *value-equivalent* (Section 2.1) when their
        value parts agree; the periods may differ.  Tuples are immutable, so
        the result is computed once and cached: the hash-partitioned stratum
        algorithms and the physical join operators call this in inner loops.
        """
        cached = self._value_part
        if cached is None:
            values = self._values
            cached = tuple(values[i] for i in self._schema.value_indexes())
            self._value_part = cached
        return cached

    def value_equivalent(self, other: "Tuple") -> bool:
        """Return True if both tuples agree on every non-temporal attribute.

        Agreement is by attribute *name*, like union compatibility; tuples
        listing their attributes in the same order — the usual case, in the
        reference operations' inner loops — compare their cached value parts.
        """
        mine, theirs = self._schema, other._schema
        if mine is theirs or mine.attributes == theirs.attributes:
            return self.value_part() == other.value_part()
        if mine.attribute_set() != theirs.attribute_set():
            return False
        return all(self[a] == other[a] for a in mine.nontemporal_attributes)

    # -- derivation ----------------------------------------------------------------

    def project(self, schema: RelationSchema) -> "Tuple":
        """Return this tuple restricted to the attributes of ``schema``."""
        return Tuple(schema, {a: self[a] for a in schema.attributes})

    def replace(self, **updates: Any) -> "Tuple":
        """Return a copy with the given attribute values replaced."""
        values = self.as_dict()
        for attribute, value in updates.items():
            if attribute not in values:
                raise SchemaError(
                    f"cannot replace unknown attribute {attribute!r} (schema {self._schema})"
                )
            values[attribute] = value
        return Tuple(self._schema, values)

    def with_period(self, period: Period) -> "Tuple":
        """Return a copy with the valid-time period replaced."""
        if not self.is_temporal:
            raise TemporalSchemaError("snapshot tuples carry no period")
        return self.replace(**{T1: period.start, T2: period.end})

    def without_time(self, schema: Optional[RelationSchema] = None) -> "Tuple":
        """Return the snapshot tuple obtained by dropping ``T1``/``T2``.

        ``schema`` may be supplied to avoid recomputing the projected schema
        for every tuple of a relation.
        """
        if not self.is_temporal:
            return self
        target = schema or self._schema.project(self._schema.nontemporal_attributes)
        return Tuple(target, {a: self[a] for a in target.attributes})

    def concat(self, other: "Tuple", schema: RelationSchema) -> "Tuple":
        """Concatenate two tuples into one over ``schema``.

        ``schema`` must be the concatenation of the two argument schemas (see
        :meth:`RelationSchema.concat`); clashing attribute names are resolved
        positionally.
        """
        combined = list(self._values) + list(other._values)
        if len(combined) != len(schema.attributes):
            raise SchemaError(
                "concatenated tuple width does not match the target schema"
            )
        return Tuple(schema, dict(zip(schema.attributes, combined)))

    # -- comparison ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        if set(self._schema.attributes) != set(other._schema.attributes):
            return False
        return all(self[a] == other[a] for a in self._schema.attributes)

    def __hash__(self) -> int:
        # Equality is attribute-name based (schema order does not matter), so
        # the hash sorts by name; immutability makes it safe to cache.
        cached = self._hash
        if cached is None:
            cached = hash(tuple(sorted(zip(self._schema.attributes, self._values))))
            self._hash = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{a}={self[a]!r}" for a in self._schema.attributes)
        return f"Tuple({pairs})"
