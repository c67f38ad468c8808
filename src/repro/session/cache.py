"""The optimized-plan cache: an LRU keyed by (fingerprint, statistics epoch).

Re-optimizing an identical statement is pure waste on a serving path — the
memo search explores the same groups, fires the same rules and extracts the
same plan, tens of milliseconds a query.  The cache removes that work for
repeated statements while staying *correct by keying*:

* the **fingerprint** identifies what the statement computes — a digest of
  its normalized text, the ``statement:`` line EXPLAIN prints (see
  :func:`repro.session.fingerprint.normalize_statement`), so whitespace/case
  variants and, via ``?`` parameter markers, different constants all share
  one entry;
* the **statistics epoch** is the catalog's change counter
  (:attr:`repro.dbms.catalog.Catalog.epoch`) — an optimized plan is only as
  good as the statistics it was costed against, so any insert, create, drop
  or replace moves every lookup to a fresh key, and the stale entries are
  purged on the next miss.

Next to the plans the cache keeps what depends on the statement *text*
alone: an LRU from the exact text to its parsed ``(Statement, normalized
text, fingerprint)``, so a repeated text is neither lexed, parsed, rendered
nor hashed again — and a plan miss takes the entry's
``normalized_statement`` from there.  It needs no
epoch (a parse does not read the catalog — an epoch bump leaves it alone),
shares the plans' lock and capacity, and is emptied by :meth:`PlanCache.clear`
with them: "cold" means parse + fingerprint + translate + search.

Third, what depends on the statement alone but takes a *search* to build:
the **explored memos** (:class:`~repro.search.Exploration`), an LRU from what
an exploration is a function of — rule index, exploration budgets, root
property context and seed tree — to the closed memo.  The split is by what a
piece of planning reads: the parse and the plan space depend on the
*statement alone* (the paper's enumeration reads no statistics; neither does
``repro.search.tasks.explore``), the statistics, the estimator and the rows
on the *epoch alone*, and only the choice among the enumerated plans — the
extraction's bounds, frontiers and costs, hence the entry — on *both*.  So a
miss for ``(fingerprint, epoch)`` whose statement was explored under an
earlier epoch translates and extracts, and explores nothing.  Like the text
memo it has no epoch, shares the lock and the capacity, is emptied by
:meth:`PlanCache.clear` and left alone by :meth:`PlanCache.purge_stale`.
Reuse is decided by comparing the key — a re-created table under another
schema is another seed — and a stored memo is never written again, so
extractions for several epochs or workers read one at the same time.

Concurrent misses of one key are **single-flight**
(:meth:`PlanCache.get_or_plan`): the first request to miss registers a
*flight* and plans; every request that misses the same key while it is in the
air waits for that flight instead of racing it with an identical search, and
is served the entry it lands.  So per (fingerprint, epoch) the search runs
once, however many workers ask at the same moment — ``misses`` counts
searches started, not requests that arrived early.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple as PyTuple

from ..core.operations import Operation
from ..core.query import QueryResultSpec
from ..search import Exploration
from ..stratum.layer import OptimizationOutcome
from ..tsql.ast import Statement


#: Seconds a waiter blocks on another request's flight between two checks of
#: its own cancellation token — how late its deadline or cancel can land.
#: A constant like :data:`repro.faults.registry.LATENCY_SLICE_SECONDS`.
WAIT_SLICE_SECONDS = 0.002


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
    #: Of ``hits``, the lookups that missed, waited for another request's
    #: search of the same key and were served its entry.
    coalesced: int = 0
    #: Explored memos remembered (at most ``capacity``).
    explorations: int = 0
    #: Statement searches that extracted from a remembered exploration
    #: instead of exploring.
    explorations_reused: int = 0

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
    it, unlocked, and through :meth:`get_or_plan` *once* per key: requests
    that miss a key someone is already planning wait for that flight.

    The counters are an identity: ``misses`` is the number of searches
    started (``get`` misses and ``get_or_plan`` leaders, failed ones too), a
    served waiter is a hit (also counted in ``coalesced``), and
    ``hits + misses`` is the number of lookups — except that a waiter stopped
    by its own token is neither.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[PlanCacheKey, CachedPlan]" = OrderedDict()
        #: Exact statement text -> its parse, normalized text and
        #: fingerprint.  The stored ``Statement`` is shared by every request
        #: for that text: read it, ``dataclasses.replace`` it, never assign to it.
        self._statements: "OrderedDict[str, PyTuple[Statement, str, str]]" = OrderedDict()
        #: What an exploration is a function of (see
        #: :meth:`repro.search.MemoSearch.explore`) -> the explored memo,
        #: frozen: extractions read it concurrently, nothing writes it.
        self._explorations: "OrderedDict[Hashable, Exploration]" = OrderedDict()
        #: Keys being planned right now -> the event their leader sets on landing.
        self._flights: Dict[PlanCacheKey, threading.Event] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.explorations_reused = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanCacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def _serve(self, key: PlanCacheKey) -> Optional[CachedPlan]:
        """The entry under ``key``, counted as a hit and made most recent (lock held)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            entry.hits += 1
        return entry

    def get(self, key: PlanCacheKey) -> Optional[CachedPlan]:
        """Look up a plan; counts a hit or miss and refreshes recency.

        The primitive: a caller that plans on a miss goes through
        :meth:`get_or_plan`, so that concurrent misses of one key plan once.
        """
        with self._lock:
            entry = self._serve(key)
            if entry is None:
                self.misses += 1
            return entry

    def get_or_plan(
        self, key: PlanCacheKey, plan: Callable[[], CachedPlan], token=None
    ) -> "PyTuple[CachedPlan, bool, Optional[float]]":
        """``(entry, hit, seconds waited)`` — planning at most once per key at a time.

        A present entry is a hit, exactly :meth:`get`.  Otherwise the first
        caller *leads*: it counts the miss, runs ``plan()`` unlocked and stores
        the result with :meth:`put` (``hit`` is False).  A caller that misses
        while a leader is planning the same key waits for it outside the lock
        and is served the entry it lands — a hit, counted in ``coalesced``,
        with the seconds it waited (``None`` for a caller that never waited).

        A waiter keeps its own ``token``: it wakes every
        :data:`WAIT_SLICE_SECONDS` to check it, so its deadline or cancel
        ends *its* lookup with the typed error and leaves the leader alone
        (without a token it waits unbounded).  A leader whose ``plan()``
        raises caches nothing; its waiters wake, find no entry, and one of
        them leads the next flight.  Different keys never wait for each other.
        """
        waited: Optional[float] = None
        while True:
            with self._lock:
                entry = self._serve(key)
                if entry is not None:
                    if waited is not None:
                        self.coalesced += 1
                    return entry, True, waited
                flight = self._flights.get(key)
                if flight is None:
                    landing = self._flights[key] = threading.Event()
                    self.misses += 1
                    break
            started = time.perf_counter()
            if token is None:
                flight.wait()
            else:
                while not flight.wait(WAIT_SLICE_SECONDS):
                    token.check()
            waited = (waited or 0.0) + time.perf_counter() - started
        try:
            entry = plan()
            self.put(entry)
            return entry, False, waited
        finally:
            # Also on failure (a BaseException included): a flight left behind
            # would park every later request for the key forever.
            with self._lock:
                del self._flights[key]
            landing.set()

    def _remember(self, lru: OrderedDict, key, value) -> int:
        """Store as most recent (lock held); how many least recent ones fell out."""
        lru[key] = value
        lru.move_to_end(key)
        evicted = max(0, len(lru) - self.capacity)
        for _ in range(evicted):
            lru.popitem(last=False)
        return evicted

    def put(self, entry: CachedPlan) -> None:
        """Insert an entry, evicting the least recently used beyond capacity."""
        with self._lock:
            self.evictions += self._remember(self._entries, entry.key, entry)

    def statement(self, text: str) -> Optional[PyTuple[Statement, str, str]]:
        """The remembered ``(Statement, normalized text, fingerprint)`` of an exact text, if any."""
        with self._lock:
            parsed = self._statements.get(text)
            if parsed is not None:
                self._statements.move_to_end(text)
            return parsed

    def remember_statement(
        self, text: str, statement: Statement, normalized: str, fingerprint: str
    ) -> None:
        """Remember a *successful* parse of ``text`` (LRU beyond capacity)."""
        with self._lock:
            self._remember(self._statements, text, (statement, normalized, fingerprint))

    def exploration(self, key: Hashable) -> Optional[Exploration]:
        """The explored memo remembered under ``key``, if any (counted as reused)."""
        with self._lock:
            found = self._explorations.get(key)
            if found is not None:
                self._explorations.move_to_end(key)
                self.explorations_reused += 1
            return found

    def remember_exploration(self, key: Hashable, exploration: Exploration) -> None:
        """Remember a *completed* exploration (LRU beyond capacity)."""
        with self._lock:
            self._remember(self._explorations, key, exploration)

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
        """Drop every plan, remembered parse and explored memo (counters are kept)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._statements.clear()
            self._explorations.clear()

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
                coalesced=self.coalesced,
                explorations=len(self._explorations),
                explorations_reused=self.explorations_reused,
            )
