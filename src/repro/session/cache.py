"""The optimized-plan cache: an LRU keyed by (fingerprint, statistics epoch).

Re-optimizing an identical statement is pure waste on a serving path — the
memo search explores the same groups, fires the same rules and extracts the
same plan, tens of milliseconds a query.  The cache removes that work for
repeated statements while staying *correct by keying*:

* the **fingerprint** identifies what the statement computes — a canonical
  digest of the parsed AST (see :func:`repro.session.fingerprint.statement_fingerprint`),
  so whitespace/case variants and, via ``?`` parameter markers, different
  constants all share one entry;
* the **statistics epoch** is the catalog's change counter
  (:attr:`repro.dbms.catalog.Catalog.epoch`) — an optimized plan is only as
  good as the statistics it was costed against, so any insert, create, drop
  or replace moves every lookup to a fresh key, and the stale entries are
  purged on the next miss.

Next to the plans the cache keeps what depends on the statement *text*
alone: an LRU from the exact text to its parsed ``(Statement, fingerprint)``,
so a repeated text is neither lexed, parsed nor hashed again.  It needs no
epoch (a parse does not read the catalog — an epoch bump leaves it alone),
shares the plans' lock and capacity, and is emptied by :meth:`PlanCache.clear`
with them: "cold" means parse + fingerprint + translate + search.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple as PyTuple

from ..core.operations import Operation
from ..core.query import QueryResultSpec
from ..stratum.layer import OptimizationOutcome
from ..tsql.ast import Statement


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one cached plan: what it computes, and against what data."""

    fingerprint: str
    epoch: int


@dataclass
class CachedPlan:
    """One cache entry: the optimized plan plus what EXPLAIN wants to know."""

    key: PlanCacheKey
    plan: Operation
    query_spec: QueryResultSpec
    optimization: OptimizationOutcome
    parameter_count: int
    normalized_statement: str
    #: Number of times this entry has been served.
    hits: int = 0


@dataclass(frozen=True)
class PlanCacheInfo:
    """A snapshot of the cache counters (cf. ``functools.lru_cache`` info)."""

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int
    invalidations: int
    #: Statement texts whose parse is remembered (at most ``capacity``).
    texts: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A bounded LRU mapping :class:`PlanCacheKey` to :class:`CachedPlan`.

    The cache is **thread-safe**: one instance may be shared by every
    session of a :class:`~repro.server.Server`, so lookups, inserts, the
    LRU recency moves and the counters are all serialized behind one lock.
    The critical sections are tiny (dict operations on already-optimized
    plans) — the expensive work the cache exists to avoid happens outside
    it, unlocked.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, CachedPlan]" = OrderedDict()
        #: Exact statement text -> its parse and fingerprint.  The stored
        #: ``Statement`` is shared by every request for that text: read it,
        #: ``dataclasses.replace`` it, never assign to it.
        self._statements: "OrderedDict[str, PyTuple[Statement, str]]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanCacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: PlanCacheKey) -> Optional[CachedPlan]:
        """Look up a plan; counts a hit or miss and refreshes recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
            return entry

    def put(self, entry: CachedPlan) -> None:
        """Insert an entry, evicting the least recently used beyond capacity."""
        with self._lock:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def statement(self, text: str) -> Optional[PyTuple[Statement, str]]:
        """The remembered ``(Statement, fingerprint)`` of an exact text, if any."""
        with self._lock:
            parsed = self._statements.get(text)
            if parsed is not None:
                self._statements.move_to_end(text)
            return parsed

    def remember_statement(self, text: str, statement: Statement, fingerprint: str) -> None:
        """Remember a *successful* parse of ``text`` (LRU beyond capacity)."""
        with self._lock:
            self._statements[text] = (statement, fingerprint)
            self._statements.move_to_end(text)
            while len(self._statements) > self.capacity:
                self._statements.popitem(last=False)

    def purge_stale(self, current_epoch: int) -> int:
        """Drop entries optimized against a different statistics epoch.

        Epoch-keyed lookups already never *serve* a stale plan; purging keeps
        superseded entries from squatting in the LRU until eviction.  Returns
        how many entries were dropped.
        """
        with self._lock:
            stale = [key for key in self._entries if key.epoch != current_epoch]
            for key in stale:
                del self._entries[key]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every plan and every remembered parse (counters are kept)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._statements.clear()

    def info(self) -> PlanCacheInfo:
        """The current counters as an immutable snapshot."""
        with self._lock:
            return PlanCacheInfo(
                hits=self.hits,
                misses=self.misses,
                size=len(self._entries),
                capacity=self.capacity,
                evictions=self.evictions,
                invalidations=self.invalidations,
                texts=len(self._statements),
            )
