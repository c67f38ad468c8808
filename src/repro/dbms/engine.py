"""The conventional DBMS substrate: a catalog and an executor in one facade.

:class:`ConventionalDBMS` is the "unaltered, conventional DBMS" of the
paper's layered architecture: it stores relations, accepts (conventional)
logical plan fragments and executes them with multiset semantics.  It knows
nothing about valid time beyond treating ``T1``/``T2`` as ordinary integer
columns — temporal operations reaching it are only ever *emulated* (slowly),
which the execution report exposes.

It has no search of its own: the statement's memo search already explores
below every ``TS`` with the DBMS's multiset-safe rules at the DBMS's rates
(``docs/architecture.md``, "Who optimizes a fragment, and when").  A
fragment runs as given, through the one lowering of
:mod:`repro.core.lowering` under the DBMS's engine descriptor
(:data:`~repro.core.lowering.DBMS_ENGINE`), which declares what it may build
from the shared batch operators — no interval join, no temporal operator.
The stratum executes a request's fragments in the same operator tree and
never calls :meth:`ConventionalDBMS.execute`; that is for direct callers.

A pinned read is the same class over a read-only
:class:`~repro.dbms.catalog.Catalog` (:meth:`ConventionalDBMS.snapshot`): it
reads, explains and executes the pinned tables, and the pinned catalog
rejects every change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.lowering import DBMS_ENGINE, ExecutionReport, Lowering
from ..core.operations import Operation
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..options import DEFAULT_BATCH_SIZE
from .catalog import Catalog, Table


@dataclass
class DBMSResult:
    """A query result together with the execution report."""

    relation: Relation
    report: ExecutionReport


class ConventionalDBMS:
    """An in-memory, multiset-semantics SQL engine over one catalog: a live
    :class:`Catalog` (a fresh one by default) or the read-only one that
    :meth:`snapshot` builds."""

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self.catalog = catalog if catalog is not None else Catalog()

    # -- data definition ---------------------------------------------------------

    def create_table(
        self, name: str, schema: RelationSchema, rows: Optional[Relation] = None
    ) -> Table:
        """Create a table, optionally loading rows immediately."""
        return self.catalog.create_table(name, schema, rows)

    def drop_table(self, name: str) -> None:
        """Drop a table."""
        self.catalog.drop_table(name)

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> Mapping[str, int]:
        """Cardinality per table (consumed by the stratum's cost model)."""
        return self.catalog.statistics()

    def statistics_epoch(self) -> int:
        """The catalog's statistics epoch (see :attr:`Catalog.epoch`); a
        snapshot's never advances."""
        return self.catalog.epoch

    # -- querying -------------------------------------------------------------------

    def optimize(self, plan: Operation) -> Operation:
        """Return ``plan``: the engine has no search of its own.

        Kept only because the frozen ledger replay
        (``benchmarks/ledger/replay.py``) still calls it on every fragment it
        re-runs; it goes when that replay is next changed.
        """
        return plan

    def execute(
        self,
        plan: Operation,
        _replayed=None,
        /,
        *,
        clock=None,
        control=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> DBMSResult:
        """Execute a logical plan fragment as given.

        ``clock`` (a monotonic callable) turns on per-operator timing: the
        report's ``node_timings`` then carry each plan node's wall-clock.
        ``control`` (an :class:`~repro.faults.control.ExecutionControl`)
        threads cancellation, deadlines, resource budgets and fault
        injection into the physical operators' drains; a failure raises —
        only the stratum degrades.  ``batch_size`` is the operators' chunk
        size.  The ignored second positional parameter exists only because
        the frozen ledger replay (``benchmarks/ledger/replay.py``) still
        passes one; it goes when that replay is next changed.
        """
        lowering = Lowering(self.catalog, batch_size, clock, control)
        relation, report = lowering.execute(lowering.lower(plan, DBMS_ENGINE))
        return DBMSResult(relation=relation, report=report)

    # -- introspection --------------------------------------------------------------

    def explain(self, plan: Operation) -> str:
        """The physical plan the engine runs for ``plan``, as indented text."""
        return Lowering(self.catalog).lower(plan, DBMS_ENGINE).explain()

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self) -> "ConventionalDBMS":
        """An engine over the catalog's current contents, pinned.

        Pins every table plus the statistics epoch atomically (see
        :meth:`Catalog.snapshot`); queries executed against the returned
        engine see exactly this state regardless of concurrent appends to
        the live catalog, and its catalog rejects every change.
        """
        return ConventionalDBMS(self.catalog.snapshot())
