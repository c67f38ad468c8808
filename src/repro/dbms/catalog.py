"""Catalog and storage of the conventional DBMS substrate.

The catalog maps table names to stored tables.  A :class:`Table` is an
immutable record: a name, its rows as one list-based
:class:`~repro.core.relation.Relation` of plain value tuples (see
:mod:`repro.core.relation`), and a :class:`~repro.stats.estimator.TableProfile`
built from those rows the first time the cost model asks for it.  The DBMS
keeps a multiset: a stored table has no known order.

**Concurrency.**  A catalog may be shared by many serving threads (see
:mod:`repro.server`).  Every change — table creation, drop, an append — and
its epoch advance happen under one catalog lock, so :attr:`Catalog.epoch`
and the table contents always move together.  An append never changes a
table: it puts a *new* :class:`Table` under the name.  That makes a
**snapshot** cheap: :meth:`Catalog.snapshot` copies the name → table map and
the epoch under the lock into a read-only :class:`Catalog`, a consistent
view that concurrent appends can never tear.  A table's profile lives on the
table, so the live catalog and every snapshot holding it share one profile.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional
from typing import Tuple as PyTuple

from ..core.exceptions import CatalogError, SchemaError
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Tuple
from ..faults import FAULTS
from ..stats.estimator import TableProfile

#: Serializes profile builds, so a stored relation is profiled at most once.
_PROFILE_LOCK = threading.Lock()


class Table:
    """A stored table: a name and its rows, never changed once built."""

    __slots__ = ("name", "relation", "_profile")

    def __init__(self, name: str, relation: Relation) -> None:
        self.name = name
        #: The stored rows, under the table's schema.
        self.relation = relation
        self._profile: Optional[TableProfile] = None

    @property
    def schema(self) -> RelationSchema:
        """The stored rows' schema, named after the table."""
        return self.relation.schema

    @property
    def cardinality(self) -> int:
        """Number of stored rows."""
        return len(self.relation)

    def profile(self) -> TableProfile:
        """The rows' histogram/period/ratio summary, built on first use."""
        profile = self._profile
        if profile is None:
            with _PROFILE_LOCK:
                profile = self._profile
                if profile is None:
                    profile = self._profile = TableProfile.from_relation(self.name, self.relation)
        return profile


class Catalog:
    """The DBMS catalog: a name -> :class:`Table` mapping.

    :attr:`epoch` is a monotone counter advanced by every statistics-relevant
    change — table creation, drop and row inserts.  Optimized plans are only
    as good as the statistics they were costed against, so the plan cache of
    :mod:`repro.session` keys its entries on this epoch: any change
    invalidates every previously cached plan.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self.epoch = 0
        self._read_only = False
        #: One lock for the whole catalog: DDL, appends, the epoch advance
        #: and snapshotting all serialize here, so the epoch and the table
        #: contents always agree.
        self._lock = threading.RLock()

    def _writable(self) -> None:
        if self._read_only:
            raise CatalogError("catalog snapshots are read-only")

    def create_table(
        self, name: str, schema: RelationSchema, rows: Optional[Relation] = None
    ) -> Table:
        """Create (and register) a table; duplicate names are rejected.

        ``rows`` is valid by construction, so its rows are taken as they
        are — in the table's attribute order — and none of its ``Tuple``
        views is kept.
        """
        self._writable()
        stored = schema.rename(name)
        if rows is None:
            relation = Relation.empty(stored)
        elif rows.schema != schema:
            raise SchemaError(
                f"rows for table {name!r} have schema {rows.schema}, expected {schema}"
            )
        else:
            relation = Relation.of_rows(stored, rows.rows_over(stored.attributes))
        table = Table(name, relation)
        with self._lock:
            if name in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            self._tables[name] = table
            self.epoch += 1
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._writable()
        with self._lock:
            if name not in self._tables:
                raise CatalogError(f"table {name!r} does not exist")
            del self._tables[name]
            self.epoch += 1

    def insert(self, name: str, rows) -> PyTuple[int, int]:
        """Append ``rows`` (in schema attribute order) to table ``name``;
        report ``(inserted, epoch)``.

        Only the new batch is validated (arity, domains, periods — one
        ``Tuple`` per new row, dropped again); the stored rows are neither
        rescanned nor re-validated.  The extended relation goes into a new
        :class:`Table` under the name, and the epoch advances, under the
        catalog lock; readers holding the previous table (or a snapshot of
        it) keep an untouched, consistent view.  The resulting epoch is read
        under the same lock acquisition, so concurrent writers each observe
        the *exact* epoch their own append moved the catalog to — the
        property the serving layer's lost-update and snapshot-differential
        checks are built on.

        The ``catalog.append`` fault point lives here.  Its ``corrupt``
        kind rewrites one incoming value to an out-of-domain sentinel and
        lets the batch validation catch it: the whole batch is validated
        before any change, so a detected corruption rejects the append
        atomically — no partial batch, no epoch advance, nothing for a
        reader to tear.
        """
        self._writable()
        if FAULTS.active:
            rows = FAULTS.corrupt_rows("catalog.append", [list(row) for row in rows])
        with self._lock:
            table = self.table(name)
            schema = table.schema
            batch = tuple([Tuple.from_sequence(schema, row).values() for row in rows])
            if batch:
                relation = Relation.of_rows(schema, table.relation.rows + batch)
                self._tables[name] = Table(name, relation)
                self.epoch += 1
            return len(batch), self.epoch

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
            tables = dict(self._tables)
        return {name: table.profile() for name, table in tables.items()}

    def snapshot(self) -> "Catalog":
        """A read-only catalog over the current tables and epoch.

        The name → table map and the epoch are copied under the lock; the
        tables themselves are shared, so taking a snapshot is O(number of
        tables) regardless of data size.  Reads against it see exactly the
        state the catalog had at this epoch, no matter how many appends land
        afterwards; every change to it raises :class:`CatalogError`.
        """
        snapshot = Catalog()
        with self._lock:
            snapshot._tables = dict(self._tables)
            snapshot.epoch = self.epoch
        snapshot._read_only = True
        return snapshot
