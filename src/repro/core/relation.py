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

**Representation.**  What a relation *stores* is its **rows**: one plain
value tuple per element, in schema attribute order.  The executors, the
stored tables and the wire work on :attr:`Relation.rows` alone.  A
:class:`~repro.core.tuples.Tuple` is a *view* of one row under the schema:
:attr:`Relation.tuples`, iteration and indexing build the views on first use
and keep them, so only the callers that ask for ``Tuple`` objects — the
reference operations, the analyses below — pay for them.  What a physical
operator derives from a relation's rows alone is kept the same way, in one
lazy slot per relation: a hash join's build side (:meth:`Relation.buckets`)
and a sort's sorted copy (:meth:`Relation.sorted_rows`).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
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


def hash_buckets(
    rows: Iterable[PyTuple[Any, ...]], key_indexes: PyTuple[int, ...]
) -> Dict[Any, List[PyTuple[Any, ...]]]:
    """A hash join's build side: ``rows`` by their values at ``key_indexes``
    (a bare value for one index, a tuple for several), each bucket in input
    order."""
    key = itemgetter(*key_indexes)
    table: Dict[Any, List[PyTuple[Any, ...]]] = {}
    get_bucket = table.get
    for row in rows:
        value = key(row)
        bucket = get_bucket(value)
        if bucket is None:
            table[value] = [row]
        else:
            bucket.append(row)
    return table


#: Value types that compare as one total order among themselves: the
#: numbers but NaN (:func:`totally_ordered`), and the strings.
_NUMBERS = frozenset((bool, int, float))
_STRINGS = frozenset((str,))


def totally_ordered(values: Sequence[Any]) -> bool:
    """Whether ``values`` compare as one total order: all numbers and no NaN,
    or all strings.  Anything else — a ``None``, a NaN, types that do not
    compare or compare only partly — may not."""
    kinds = set(map(type, values))
    if kinds <= _STRINGS:
        return True
    # NaN is the one number not equal to itself.
    return kinds <= _NUMBERS and (float not in kinds or all(value == value for value in values))


def sorted_copy(
    rows: Sequence[PyTuple[Any, ...]], order: OrderSpec, attributes: Sequence[str]
) -> Optional[PyTuple[PyTuple[Any, ...], ...]]:
    """``rows`` (over ``attributes``) stably sorted by ``order``: the
    sequence a physical sort of them yields, ties in input order.

    ``None`` when some key's values are not :func:`totally_ordered`.  A
    served sort reads the copy through a σ or a join, i.e. a subsequence of
    it, which equals a sort of the rows that reach the sort only under a
    total order: ``[3.0, nan, 1.0]`` stays as it is under ``list.sort``, so
    dropping the NaN afterwards leaves ``[3.0, 1.0]``, and a ``None`` that
    a σ drops would make the copy's sort raise.
    """
    for attribute in order.attributes:
        index = attributes.index(attribute)
        if not totally_ordered([row[index] for row in rows]):
            return None
    copy = list(rows)
    order.sort_rows(copy, attributes)
    return tuple(copy)


#: What :meth:`Relation.sorted_rows` keeps for an order a filtered sort asked
#: for once: the next request builds the copy.
_ASKED = object()
#: Nothing kept yet (a kept ``None`` says the rows have no total order).
_ABSENT = object()


class Relation:
    """A finite sequence of tuples over a common schema, stored as value rows."""

    __slots__ = ("_schema", "_rows", "_order", "_views", "_kept")

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[Tuple] = (),
        order: Optional[OrderSpec] = None,
    ) -> None:
        self._schema = schema
        expected = schema.attribute_set()
        attributes = schema.attributes
        given = tuple(tuples)
        rows: List[PyTuple[Any, ...]] = []
        in_order = True
        for tup in given:
            # Identity fast path: tuples almost always carry the relation's
            # own schema object, making the per-tuple compares redundant.
            theirs = tup._schema
            if theirs is schema or theirs.attributes == attributes:
                rows.append(tup._values)
            elif theirs.attribute_set() == expected:
                # Same attributes, listed in another order: a row is by name.
                rows.append(tuple(tup[a] for a in attributes))
                in_order = False
            else:
                raise SchemaError(
                    f"tuple schema {theirs} does not match relation schema {schema}"
                )
        self._rows: PyTuple[PyTuple[Any, ...], ...] = tuple(rows)
        # The given tuples serve as the views unless one of them would read
        # its values in another order than the relation's rows.
        self._views: Optional[PyTuple[Tuple, ...]] = given if in_order else None
        self._kept: Optional[Dict[Any, Any]] = None
        self._order = order or OrderSpec.unordered()

    # -- construction -----------------------------------------------------------

    @classmethod
    def of_rows(
        cls,
        schema: RelationSchema,
        rows: Iterable[PyTuple[Any, ...]],
        order: Optional[OrderSpec] = None,
    ) -> "Relation":
        """Build a relation from value rows already known to be valid.

        Skips every check.  The caller guarantees each row is a plain tuple
        in ``schema`` attribute order whose values came out of validated
        tuples — a physical operator draining its batches, a table extending
        its stored rows by a batch it has just validated — so walking them
        again would only re-prove what their provenance already proved.  Use
        :meth:`from_rows` for rows from outside.
        """
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._rows = tuple(rows)
        relation._views = None
        relation._kept = None
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
    def rows(self) -> PyTuple[PyTuple[Any, ...], ...]:
        """The stored value rows, each in schema attribute order."""
        return self._rows

    @property
    def tuples(self) -> PyTuple[Tuple, ...]:
        """The tuples as an immutable sequence: one view per row, built on
        the first read.

        No lock: two threads racing the first read each build the views and
        one assignment wins, which is harmless — views of the same row are
        equal, and nothing relies on their identity.
        """
        views = self._views
        if views is None:
            schema = self._schema
            trusted = Tuple.trusted
            views = self._views = tuple([trusted(schema, row) for row in self._rows])
        return views

    def buckets(self, key_indexes: PyTuple[int, ...]) -> Dict[Any, List[PyTuple[Any, ...]]]:
        """The rows by their values at ``key_indexes`` (:func:`hash_buckets`),
        built on the first request per key and kept (:meth:`_kept_slot`): a
        stored table is hashed once per epoch."""
        kept = self._kept_slot()
        table = kept.get(key_indexes)
        if table is None:
            table = kept[key_indexes] = hash_buckets(self._rows, key_indexes)
        return table

    def sorted_rows(
        self, order: OrderSpec, eager: bool = True
    ) -> Optional[PyTuple[PyTuple[Any, ...], ...]]:
        """The rows stably sorted by ``order`` (:func:`sorted_copy`), kept per
        order (:meth:`_kept_slot`): a stored table is sorted at most once per
        epoch and order.

        ``None`` when the rows have no total order under ``order`` — kept
        too, so that is decided once per epoch — and, unless ``eager``, on
        the first request for ``order``: a sort that only some of the rows
        reach (through a σ or a join) pays for a copy of the whole table
        only when it asks a second time in the same epoch, so a table that
        changes between every such request never pays for one.
        """
        kept = self._kept_slot()
        copy = kept.get(order, _ABSENT)
        if copy is _ABSENT and not eager:
            kept[order] = _ASKED
            return None
        if copy is _ABSENT or copy is _ASKED:
            copy = kept[order] = sorted_copy(self._rows, order, self._schema.attributes)
        return copy

    def _kept_slot(self) -> Dict[Any, Any]:
        """The one lazy slot for what an operator derives from the rows
        alone: the hash tables by index tuple, the sorted copies by
        :class:`OrderSpec`.  An append makes a new relation, so what a
        relation keeps is never stale.

        Read-only once built.  No lock, as for :attr:`tuples`: two threads
        racing a first request each build and one assignment wins (a race
        over an order's first request costs at most one more build).
        """
        kept = self._kept
        if kept is None:
            kept = self._kept = {}
        return kept

    @property
    def cardinality(self) -> int:
        """``n(r)`` — the number of tuples, counting duplicates."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)

    def __getitem__(self, index: int) -> Tuple:
        return self.tuples[index]

    @property
    def is_temporal(self) -> bool:
        """True if the relation's schema carries ``T1``/``T2``."""
        return self._schema.is_temporal

    def is_empty(self) -> bool:
        """True if the relation has no tuples."""
        return not self._rows

    # -- derivation ------------------------------------------------------------------

    def with_order(self, order: OrderSpec) -> "Relation":
        """Return the same tuple sequence annotated with a different known order.

        The rows (and the views, if already built) are shared, not copied.
        """
        relation = Relation.of_rows(self._schema, self._rows, order)
        relation._views = self._views
        return relation

    def sorted_by(self, order: OrderSpec) -> "Relation":
        """Return the relation stably sorted according to ``order``."""
        key = order.comparison_key()
        return Relation(self._schema, sorted(self.tuples, key=key), order=order)

    def concat(self, other: "Relation") -> "Relation":
        """Concatenate two relations over union-compatible schemas (union ALL)."""
        if not self._schema.is_union_compatible(other._schema):
            raise SchemaError(
                f"schemas are not union compatible: {self._schema} vs {other._schema}"
            )
        return Relation.of_rows(
            self._schema, self._rows + other.rows_over(self._schema.attributes)
        )

    def rows_over(self, attributes: PyTuple[str, ...]) -> PyTuple[PyTuple[Any, ...], ...]:
        """The rows with their values in the order ``attributes`` — all of
        the schema's attributes — lists them in."""
        if attributes == self._schema.attributes:
            return self._rows
        # Two orders of one attribute set differ only from two attributes up,
        # where ``itemgetter`` returns a tuple.
        align = itemgetter(*map(self._schema.index_of, attributes))
        return tuple(map(align, self._rows))

    # -- views used by the equivalence relations ----------------------------------------

    def as_list(self) -> List[Tuple]:
        """The tuples as a plain list (list view)."""
        return list(self.tuples)

    def as_multiset(self) -> Counter:
        """The tuples as a multiset (``Counter``), ignoring order."""
        return Counter(self.tuples)

    def as_set(self) -> Set[Tuple]:
        """The distinct tuples, ignoring order and duplicates."""
        return set(self.tuples)

    # -- duplicate analyses ---------------------------------------------------------------

    def has_duplicates(self) -> bool:
        """True if some tuple occurs more than once (regular duplicates)."""
        return len(set(self._rows)) < len(self._rows)

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
        for tup in self.tuples:
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
            tup.without_time(target) for tup in self.tuples if tup.period.contains_point(time)
        ]
        return Relation(target, qualifying, order=self._order.restricted_to(target.attributes))

    def active_time_points(self) -> List[int]:
        """Every time point at which at least one tuple is valid, ascending."""
        if not self.is_temporal:
            raise TemporalSchemaError("time points are defined for temporal relations only")
        points: Set[int] = set()
        for tup in self.tuples:
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
        for tup in self.tuples:
            period = tup.period
            points.add(period.start)
            points.add(period.end - 1)
            points.add(period.end)
        return sorted(points)

    def time_span(self) -> Optional[Period]:
        """The smallest period covering every tuple's period, or None if empty."""
        if not self.is_temporal:
            raise TemporalSchemaError("time span is defined for temporal relations only")
        periods = [tup.period for tup in self.tuples]
        if not periods:
            return None
        return Period(min(p.start for p in periods), max(p.end for p in periods))

    # -- comparison / presentation --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """List equality: same schema, same tuples in the same order."""
        if not isinstance(other, Relation):
            return NotImplemented
        # Schemas are equal as mappings, so the other side's rows are read in
        # this side's attribute order before they are compared.
        return self._schema == other._schema and self._rows == other.rows_over(
            self._schema.attributes
        )

    def __hash__(self) -> int:
        # Attribute order does not matter to equality: hash the rows in one
        # order every equal relation agrees on, sorted by attribute name.
        return hash((self._schema, self.rows_over(tuple(sorted(self._schema.attributes)))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self._schema.name or "relation"
        return f"<Relation {name} n={len(self._rows)}>"

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the relation as an aligned text table (used by the examples)."""
        attributes = self._schema.attributes
        rows = [[str(value) for value in row] for row in self._rows]
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
