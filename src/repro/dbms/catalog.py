"""Catalog and storage of the conventional DBMS substrate.

The catalog maps table names to stored tables; each table holds its schema,
its rows (as a list-based :class:`~repro.core.relation.Relation`), an
optional clustering order, and the statistics (cardinality, distinct counts,
histogram and period summaries) that the optimizers and the cost model
consume.

Statistics are maintained *incrementally*: ``insert`` feeds only the new
batch into :meth:`TableStatistics.observe` (cardinality and the per-attribute
distinct-value sets update in O(batch)), while the heavier summaries — the
equi-depth histograms, the valid-time period histogram and the duplication
ratios of :class:`repro.stats.estimator.TableProfile` — are rebuilt lazily
from the table's relation the first time they are read after a change.

A table stores **value rows** (see :mod:`repro.core.relation`): one relation
of plain tuples per table, no ``Tuple`` object per stored row, and the
statistics keep no second copy of them.

**Concurrency.**  A catalog may be shared by many serving threads (see
:mod:`repro.server`): every mutation — table creation, drop, row inserts,
wholesale replacement — and every epoch advance happens under one catalog
lock, so :attr:`Catalog.epoch` and the table contents always move together.
Stored rows are held in immutable :class:`~repro.core.relation.Relation`
instances that are swapped on change, which makes **snapshots**
cheap: :meth:`Catalog.snapshot` pins, under the lock, the current relation
of every table plus the epoch, giving long-running readers a consistent
view that concurrent appends can never tear.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set
from typing import Tuple as PyTuple

from ..core.exceptions import CatalogError, SchemaError
from ..core.order_spec import OrderSpec
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Tuple
from ..faults import FAULTS
from ..stats.estimator import TableProfile
from ..stats.histograms import EquiDepthHistogram, PeriodHistogram


class TableStatistics:
    """Statistics maintained per stored table, updated batch-incrementally.

    The object refers to the relation it has observed so far — the owning
    table's own, not a copy — so it stays usable standalone
    (``from_relation`` plus ``observe``) and can rebuild its lazy profile
    without asking the table back for its data.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self.cardinality = 0
        self._value_sets: List[Set] = [set() for _ in schema.attributes]
        self._relation = Relation.empty(schema)
        self._profile: Optional[TableProfile] = None

    @classmethod
    def from_relation(cls, relation: Relation) -> "TableStatistics":
        """Compute statistics for a relation instance."""
        statistics = cls(relation.schema)
        statistics.observe(relation)
        return statistics

    @property
    def distinct_values(self) -> Dict[str, int]:
        """Exact distinct count per attribute (incrementally maintained)."""
        return {
            attribute: len(values)
            for attribute, values in zip(self.schema.attributes, self._value_sets)
        }

    def observe(self, relation: Relation) -> int:
        """Fold in the rows ``relation`` — the relation observed so far,
        extended at its end — holds beyond those already counted; returns
        how many."""
        batch = relation.rows[self.cardinality :]
        self._relation = relation
        if batch:
            for values, column in zip(self._value_sets, zip(*batch)):
                values.update(column)
            self.cardinality += len(batch)
            self._profile = None
        return len(batch)

    def profile(self, name: Optional[str] = None) -> TableProfile:
        """The table's histogram/period/ratio summary (rebuilt lazily)."""
        if name is None:
            name = self.schema.name or ""
        if self._profile is None:
            self._profile = TableProfile.from_relation(name, self._relation)
        elif self._profile.name != name:
            # Same data under a different label: relabel the cached profile
            # instead of rebuilding the histograms.
            self._profile = replace(self._profile, name=name)
        return self._profile

    def histogram(self, attribute: str) -> EquiDepthHistogram:
        """Equi-depth histogram over one attribute's current values."""
        return self.profile().attributes[attribute].histogram

    def period_histogram(self) -> Optional[PeriodHistogram]:
        """Interval histogram over the stored valid-time periods (or None)."""
        return self.profile().period


class Table:
    """A stored table: schema, rows, clustering order and statistics.

    ``version`` counts the content changes the table has seen (each
    :meth:`insert` or :meth:`replace` bumps it); a table registered in a
    :class:`Catalog` additionally notifies the catalog, whose
    :attr:`~Catalog.epoch` the plan cache of :mod:`repro.session` keys on.
    """

    def __init__(
        self,
        name: str,
        schema: RelationSchema,
        rows: Optional[Relation] = None,
        clustering: Optional[OrderSpec] = None,
    ) -> None:
        self.name = name
        self.schema = schema.rename(name)
        self.clustering = clustering or OrderSpec.unordered()
        self.version = 0
        self._owner: Optional["Catalog"] = None
        #: Serializes mutations (and lazy profile rebuilds) on a standalone
        #: table; once registered in a catalog, the catalog's lock is used
        #: instead so cross-table snapshots and the epoch stay atomic.
        self._fallback_lock = threading.RLock()
        if rows is None:
            self._relation = Relation.empty(self.schema)
        else:
            if rows.schema != schema:
                raise SchemaError(
                    f"rows for table {name!r} have schema {rows.schema}, expected {schema}"
                )
            self._relation = self._stored(rows, self.clustering)
        self.statistics = TableStatistics.from_relation(self._relation)

    def _stored(self, relation: Relation, order: OrderSpec) -> Relation:
        """``relation``'s rows under the table's schema: a relation is valid
        by construction, so its rows are taken as they are — in the table's
        attribute order — and none of its ``Tuple`` views is kept."""
        return Relation.of_rows(self.schema, relation.rows_over(self.schema.attributes), order)

    @property
    def _lock(self) -> threading.RLock:
        owner = self._owner
        return owner._lock if owner is not None else self._fallback_lock

    @property
    def relation(self) -> Relation:
        """The stored rows as a relation (annotated with the clustering order)."""
        return self._relation

    @property
    def cardinality(self) -> int:
        """Number of stored rows."""
        return len(self._relation)

    def insert(self, rows: Iterable[Sequence]) -> int:
        """Append rows (given in schema attribute order); returns how many.

        Only the new batch is validated (arity, domains, periods — one
        ``Tuple`` per new row, dropped again) and statistics update
        incrementally from it alone — the stored relation is neither rescanned
        nor re-validated.  The relation swap, the statistics update
        and the epoch advance happen atomically under the catalog lock;
        readers holding the previous relation (or a snapshot pinning it)
        keep an untouched, consistent view.
        """
        schema = self.schema
        batch = tuple([Tuple.from_sequence(schema, row).values() for row in rows])
        with self._lock:
            self._relation = Relation.of_rows(schema, self._relation.rows + batch)
            self.statistics.observe(self._relation)
            if batch:
                self._bump()
        return len(batch)

    def replace(self, relation: Relation) -> None:
        """Replace the stored rows wholesale (statistics restart from scratch)."""
        if relation.schema != self.schema:
            raise SchemaError(
                f"replacement rows for {self.name!r} have schema {relation.schema}, "
                f"expected {self.schema}"
            )
        with self._lock:
            self._relation = self._stored(relation, relation.order)
            self.statistics = TableStatistics.from_relation(self._relation)
            self._bump()

    def _bump(self) -> None:
        """Record a content change (and advance the owning catalog's epoch)."""
        self.version += 1
        if self._owner is not None:
            self._owner._advance_epoch()

    def profile(self) -> TableProfile:
        """The table's collected statistics as a :class:`TableProfile`.

        The lazy rebuild runs under the table's lock so it never races a
        concurrent insert's statistics update.
        """
        with self._lock:
            return self.statistics.profile(self.name)

    def pin(self) -> "SnapshotTable":
        """A read-only view of the table's current contents and version."""
        with self._lock:
            return SnapshotTable(self)


class SnapshotTable:
    """An immutable view of one table at the moment a snapshot was taken.

    Shares the pinned :class:`~repro.core.relation.Relation` instance with
    the live table (relations are immutable; mutations swap in a new one),
    so pinning is O(1) per table.  :meth:`profile` serves the live table's
    cached profile while the table is still at the pinned version, and only
    falls back to rebuilding from the pinned rows once the live table has
    moved on.
    """

    def __init__(self, table: Table) -> None:
        self.name = table.name
        self.schema = table.schema
        self.clustering = table.clustering
        self.version = table.version
        self._relation = table.relation
        self._source = table
        self._profile: Optional[TableProfile] = None

    @property
    def relation(self) -> Relation:
        """The pinned rows."""
        return self._relation

    @property
    def cardinality(self) -> int:
        """Number of pinned rows."""
        return len(self._relation)

    def profile(self) -> TableProfile:
        """The pinned rows' statistics summary (lazily built, then cached)."""
        if self._profile is None:
            source = self._source
            with source._lock:
                if source.version == self.version:
                    self._profile = source.profile()
            if self._profile is None:
                self._profile = TableProfile.from_relation(self.name, self._relation)
        return self._profile

    def insert(self, rows: Iterable[Sequence]) -> int:
        raise CatalogError(f"table {self.name!r} is a read-only snapshot")

    def replace(self, relation: Relation) -> None:
        raise CatalogError(f"table {self.name!r} is a read-only snapshot")


class Catalog:
    """The DBMS catalog: a name -> :class:`Table` mapping.

    :attr:`epoch` is a monotone counter advanced by every statistics-relevant
    change — table creation, drop, row inserts and wholesale replacement.
    Optimized plans are only as good as the statistics they were costed
    against, so the plan cache of :mod:`repro.session` keys its entries on
    this epoch: any change invalidates every previously cached plan.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self.epoch = 0
        #: One lock for the whole catalog: DDL, every registered table's
        #: data changes, the epoch advance and snapshotting all serialize
        #: here, so the epoch and the table contents always agree.
        self._lock = threading.RLock()

    def _advance_epoch(self) -> None:
        with self._lock:
            self.epoch += 1

    def create_table(
        self,
        name: str,
        schema: RelationSchema,
        rows: Optional[Relation] = None,
        clustering: Optional[OrderSpec] = None,
    ) -> Table:
        """Create (and register) a table; duplicate names are rejected."""
        table = Table(name, schema, rows, clustering)
        with self._lock:
            if name in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            table._owner = self
            self._tables[name] = table
            self._advance_epoch()
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"table {name!r} does not exist")
            self._tables[name]._owner = None
            del self._tables[name]
            self._advance_epoch()

    def insert(self, name: str, rows) -> PyTuple[int, int]:
        """Append ``rows`` to table ``name``; report ``(inserted, epoch)``.

        The resulting epoch is read under the same lock acquisition as the
        insert, so concurrent writers each observe the *exact* epoch their
        own append moved the catalog to — the property the serving layer's
        lost-update and snapshot-differential checks are built on (a bare
        ``table(name).insert(...)`` followed by an epoch read would race).

        The ``catalog.append`` fault point lives here.  Its ``corrupt``
        kind rewrites one incoming value to an out-of-domain sentinel and
        lets :meth:`Table.insert`'s *existing* schema validation catch it:
        the whole batch is tuple-validated before any mutation, so a
        detected corruption rejects the append atomically — no partial
        batch, no epoch advance, nothing for a reader to tear.
        """
        if FAULTS.active:
            rows = FAULTS.corrupt_rows("catalog.append", [list(row) for row in rows])
        with self._lock:
            inserted = self.table(name).insert(rows)
            return inserted, self.epoch

    def table(self, name: str) -> Table:
        """Look up a table; raise :class:`CatalogError` if missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        """True if a table with that name is registered."""
        return name in self._tables

    def table_names(self) -> List[str]:
        """All registered table names, sorted."""
        return sorted(self._tables)

    def statistics(self) -> Mapping[str, int]:
        """Cardinality per table, for the cost model."""
        with self._lock:
            return {name: table.cardinality for name, table in self._tables.items()}

    def profiles(self) -> Dict[str, TableProfile]:
        """Histogram/period/ratio summaries for every stored table."""
        with self._lock:
            return {name: table.profile() for name, table in self._tables.items()}

    def snapshot(self) -> "CatalogSnapshot":
        """Pin the current contents of every table plus the epoch, atomically.

        The snapshot shares the stored (immutable) relations with the live
        tables, so taking one is O(number of tables) regardless of data
        size.  Reads against the snapshot see exactly the state the catalog
        had at this epoch, no matter how many appends land afterwards.
        """
        with self._lock:
            return CatalogSnapshot(
                {name: table.pin() for name, table in self._tables.items()},
                self.epoch,
            )


class CatalogSnapshot:
    """A frozen, read-only view of a :class:`Catalog` at one epoch.

    Duck-types the catalog's read surface (``table``/``has_table``/
    ``table_names``/``statistics``/``profiles``), so the
    executors and optimizers can run against it unchanged; any attempt to
    mutate raises :class:`~repro.core.exceptions.CatalogError`.
    """

    def __init__(self, tables: Dict[str, SnapshotTable], epoch: int) -> None:
        self._tables = tables
        self.epoch = epoch

    def table(self, name: str) -> SnapshotTable:
        """Look up a pinned table; raise :class:`CatalogError` if missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        """True if the snapshot pinned a table with that name."""
        return name in self._tables

    def table_names(self) -> List[str]:
        """All pinned table names, sorted."""
        return sorted(self._tables)

    def statistics(self) -> Mapping[str, int]:
        """Cardinality per pinned table, for the cost model."""
        return {name: table.cardinality for name, table in self._tables.items()}

    def profiles(self) -> Dict[str, TableProfile]:
        """Histogram/period/ratio summaries over the pinned contents."""
        return {name: table.profile() for name, table in self._tables.items()}

    def create_table(self, *args, **kwargs):
        raise CatalogError("catalog snapshots are read-only")

    def drop_table(self, name: str) -> None:
        raise CatalogError("catalog snapshots are read-only")

    def insert(self, name: str, rows) -> PyTuple[int, int]:
        raise CatalogError("catalog snapshots are read-only")
