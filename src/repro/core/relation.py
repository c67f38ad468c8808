"""List-based relations (Definition 2.2) and their basic analyses.

A relation schema instance — *relation* for short — is a finite **sequence**
of tuples over a schema: duplicates are allowed and the order of tuples is
significant.  This is the key departure from multiset-based algebras that the
paper builds on: by modelling relations as lists, sorting can be pushed into
the middle of a query plan and its effect reasoned about formally.

Besides storage, this module provides the analyses the rest of the library
needs constantly:

* ``snapshot(t)`` — the conventional relation at time ``t`` (Section 2.1),
* duplicate detection, both regular and in snapshots,
* coalescing detection (value-equivalent tuples with adjacent periods),
* value-equivalence grouping,
* the multiset and set views used by the equivalence relations.

A :class:`Relation` also carries its *known order* (an :class:`OrderSpec`),
which mirrors the ``Order(r)`` column of Table 1: operators derive the order
of their result from the order of their arguments.  The known order is
metadata — it never changes which tuples are present — and it is checked
against the actual tuple sequence in the test suite.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
)

from .exceptions import SchemaError, TemporalSchemaError
from .order_spec import OrderSpec
from .period import Period, T1, T2, coalesce_periods
from .schema import RelationSchema
from .tuples import Tuple


class Relation:
    """A finite sequence of tuples over a common schema."""

    __slots__ = ("_schema", "_tuples", "_order")

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[Tuple] = (),
        order: Optional[OrderSpec] = None,
    ) -> None:
        self._schema = schema
        expected = schema.attribute_set()
        tuple_list: List[Tuple] = []
        for tup in tuples:
            # Identity fast path: tuples almost always carry the relation's
            # own schema object, making the per-tuple set compare redundant.
            if tup.schema is not schema and tup.schema.attribute_set() != expected:
                raise SchemaError(
                    f"tuple schema {tup.schema} does not match relation schema {schema}"
                )
            tuple_list.append(tup)
        self._tuples: PyTuple[Tuple, ...] = tuple(tuple_list)
        self._order = order or OrderSpec.unordered()

    # -- construction -----------------------------------------------------------

    @classmethod
    def trusted(
        cls,
        schema: RelationSchema,
        tuples: Iterable[Tuple],
        order: Optional[OrderSpec] = None,
    ) -> "Relation":
        """Build a relation from tuples already known to conform to ``schema``.

        Skips the per-tuple schema check of ``__init__``.  The caller
        guarantees every tuple was built over ``schema`` (or a schema with
        the same attribute set) — a physical operator draining its batches
        into a relation uses this, because it created each tuple over its own
        output schema one line earlier, so walking them again would only
        re-prove what their construction already proved.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._tuples = tuple(tuples)
        relation._order = order or OrderSpec.unordered()
        return relation

    @classmethod
    def from_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any]],
        order: Optional[OrderSpec] = None,
    ) -> "Relation":
        """Build a relation from rows given in schema attribute order."""
        return cls(schema, (Tuple.from_sequence(schema, row) for row in rows), order=order)

    @classmethod
    def from_dicts(
        cls,
        schema: RelationSchema,
        rows: Iterable[Mapping[str, Any]],
        order: Optional[OrderSpec] = None,
    ) -> "Relation":
        """Build a relation from ``{attribute: value}`` mappings."""
        return cls(schema, (Tuple(schema, row) for row in rows), order=order)

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """The empty relation over ``schema``."""
        return cls(schema, ())

    # -- basic access ---------------------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The schema all tuples conform to."""
        return self._schema

    @property
    def order(self) -> OrderSpec:
        """The known order of the relation (``Order(r)`` in the paper)."""
        return self._order

    @property
    def tuples(self) -> PyTuple[Tuple, ...]:
        """The tuples as an immutable sequence."""
        return self._tuples

    @property
    def cardinality(self) -> int:
        """``n(r)`` — the number of tuples, counting duplicates."""
        return len(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __getitem__(self, index: int) -> Tuple:
        return self._tuples[index]

    @property
    def is_temporal(self) -> bool:
        """True if the relation's schema carries ``T1``/``T2``."""
        return self._schema.is_temporal

    def is_empty(self) -> bool:
        """True if the relation has no tuples."""
        return not self._tuples

    # -- derivation ------------------------------------------------------------------

    def with_order(self, order: OrderSpec) -> "Relation":
        """Return the same tuple sequence annotated with a different known order."""
        return Relation(self._schema, self._tuples, order=order)

    def with_tuples(self, tuples: Iterable[Tuple], order: Optional[OrderSpec] = None) -> "Relation":
        """Return a relation over the same schema with a new tuple sequence."""
        return Relation(self._schema, tuples, order=order if order is not None else OrderSpec.unordered())

    def sorted_by(self, order: OrderSpec) -> "Relation":
        """Return the relation stably sorted according to ``order``."""
        key = order.comparison_key()
        return Relation(self._schema, sorted(self._tuples, key=key), order=order)

    def concat(self, other: "Relation") -> "Relation":
        """Concatenate two relations over union-compatible schemas (union ALL)."""
        if not self._schema.is_union_compatible(other._schema):
            raise SchemaError(
                f"schemas are not union compatible: {self._schema} vs {other._schema}"
            )
        aligned = [tup.project(self._schema) for tup in other._tuples]
        return Relation(self._schema, list(self._tuples) + aligned)

    # -- views used by the equivalence relations ----------------------------------------

    def as_list(self) -> List[Tuple]:
        """The tuples as a plain list (list view)."""
        return list(self._tuples)

    def as_multiset(self) -> Counter:
        """The tuples as a multiset (``Counter``), ignoring order."""
        return Counter(self._tuples)

    def as_set(self) -> Set[Tuple]:
        """The distinct tuples, ignoring order and duplicates."""
        return set(self._tuples)

    # -- duplicate analyses ---------------------------------------------------------------

    def has_duplicates(self) -> bool:
        """True if some tuple occurs more than once (regular duplicates)."""
        return any(count > 1 for count in self.as_multiset().values())

    def has_snapshot_duplicates(self) -> bool:
        """True if some snapshot of the relation contains duplicate tuples.

        For temporal relations this detects *temporal duplicates*: two
        value-equivalent tuples whose periods overlap (they would co-occur in
        the snapshot at any shared time point).  Snapshot relations fall back
        to regular duplicate detection, matching the convention that for them
        the snapshot at every time is the relation itself.
        """
        if not self.is_temporal:
            return self.has_duplicates()
        groups = self.value_groups()
        for periods in groups.values():
            ordered = sorted(periods)
            for earlier, later in zip(ordered, ordered[1:]):
                if earlier.overlaps(later):
                    return True
        return False

    # -- coalescing analyses -----------------------------------------------------------------

    def is_coalesced(self) -> bool:
        """True if no two value-equivalent tuples have adjacent periods.

        This follows the paper's minimal definition of coalescing
        (Section 2.4): coalescing merges value-equivalent tuples with
        *adjacent* periods and leaves duplicates in snapshots (overlapping
        periods) alone — those are the business of temporal duplicate
        elimination.  Coalescing is undefined for snapshot relations.
        """
        if not self.is_temporal:
            raise TemporalSchemaError("coalescing is undefined for snapshot relations")
        groups = self.value_groups()
        for periods in groups.values():
            # All pairs must be checked: two adjacent periods need not be
            # neighbours in sorted order when a third, overlapping period
            # sorts between them.
            for index, earlier in enumerate(periods):
                for later in periods[index + 1 :]:
                    if earlier.is_adjacent_to(later):
                        return False
        return True

    def value_groups(self) -> Dict[PyTuple[Any, ...], List[Period]]:
        """Group the periods of the relation by value-equivalence class.

        Returns a mapping from the non-temporal value part to the list of
        periods carried by tuples with that value part, in relation order.
        """
        if not self.is_temporal:
            raise TemporalSchemaError("value groups are defined for temporal relations only")
        groups: Dict[PyTuple[Any, ...], List[Period]] = {}
        for tup in self._tuples:
            groups.setdefault(tup.value_part(), []).append(tup.period)
        return groups

    # -- snapshots --------------------------------------------------------------------------

    def snapshot_schema(self) -> RelationSchema:
        """The schema of this relation's snapshots (``T1``/``T2`` removed)."""
        if not self.is_temporal:
            return self._schema
        return self._schema.project(self._schema.nontemporal_attributes)

    def snapshot(self, time: int) -> "Relation":
        """The snapshot at ``time``: tuples whose period contains ``time``.

        The result is a snapshot relation (time attributes dropped) and
        preserves the argument order of the qualifying tuples.
        """
        if not self.is_temporal:
            raise TemporalSchemaError("snapshots are defined for temporal relations only")
        target = self.snapshot_schema()
        qualifying = [
            tup.without_time(target) for tup in self._tuples if tup.period.contains_point(time)
        ]
        return Relation(target, qualifying, order=self._order.restricted_to(target.attributes))

    def active_time_points(self) -> List[int]:
        """Every time point at which at least one tuple is valid, ascending."""
        if not self.is_temporal:
            raise TemporalSchemaError("time points are defined for temporal relations only")
        points: Set[int] = set()
        for tup in self._tuples:
            points.update(tup.period.points())
        return sorted(points)

    def interesting_time_points(self) -> List[int]:
        """Period endpoints (and their predecessors) — enough to compare snapshots.

        Between two consecutive endpoints the snapshot of a temporal relation
        cannot change, so checking snapshot equivalence at these points is
        equivalent to checking it at every point.  Used by the snapshot
        equivalence relations to avoid iterating over the whole time domain.
        """
        if not self.is_temporal:
            raise TemporalSchemaError("time points are defined for temporal relations only")
        points: Set[int] = set()
        for tup in self._tuples:
            period = tup.period
            points.add(period.start)
            points.add(period.end - 1)
            points.add(period.end)
        return sorted(points)

    def time_span(self) -> Optional[Period]:
        """The smallest period covering every tuple's period, or None if empty."""
        if not self.is_temporal:
            raise TemporalSchemaError("time span is defined for temporal relations only")
        periods = [tup.period for tup in self._tuples]
        if not periods:
            return None
        return Period(min(p.start for p in periods), max(p.end for p in periods))

    # -- comparison / presentation --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """List equality: same schema, same tuples in the same order."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._schema, self._tuples))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self._schema.name or "relation"
        return f"<Relation {name} n={len(self._tuples)}>"

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the relation as an aligned text table (used by the examples)."""
        attributes = self._schema.attributes
        rows = [[str(tup[a]) for a in attributes] for tup in self._tuples]
        shown = rows if max_rows is None else rows[:max_rows]
        widths = [
            max([len(attribute)] + [len(row[i]) for row in shown])
            for i, attribute in enumerate(attributes)
        ]
        header = "  ".join(attribute.ljust(widths[i]) for i, attribute in enumerate(attributes))
        separator = "  ".join("-" * widths[i] for i in range(len(attributes)))
        lines = [header, separator]
        for row in shown:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(attributes))))
        if max_rows is not None and len(rows) > max_rows:
            lines.append(f"... ({len(rows) - max_rows} more rows)")
        return "\n".join(lines)
