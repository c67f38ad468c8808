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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.lowering import DBMS_ENGINE, ExecutionReport, Lowering
from ..core.operations import Operation
from ..core.order_spec import OrderSpec
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..options import DEFAULT_BATCH_SIZE
from .catalog import Catalog, CatalogSnapshot, Table


@dataclass
class DBMSResult:
    """A query result together with the execution report."""

    relation: Relation
    report: ExecutionReport


class _Engine:
    """What the live engine and a pinned snapshot share: reading a catalog.

    Subclasses set ``catalog`` (a :class:`Catalog` or a
    :class:`CatalogSnapshot`).
    """

    def statistics(self) -> Mapping[str, int]:
        """Cardinality per table (consumed by the stratum's cost model)."""
        return self.catalog.statistics()

    def statistics_epoch(self) -> int:
        """The catalog's statistics epoch (see :attr:`Catalog.epoch`); a
        snapshot's never advances."""
        return self.catalog.epoch

    def estimator(self, **kwargs):
        """A histogram-backed estimator over the catalog's contents."""
        return self.catalog.estimator(**kwargs)


class ConventionalDBMS(_Engine):
    """An in-memory, multiset-semantics SQL engine."""

    def __init__(self) -> None:
        self.catalog = Catalog()

    # -- data definition ---------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: RelationSchema,
        rows: Optional[Relation] = None,
        clustering: Optional[OrderSpec] = None,
    ) -> Table:
        """Create a table, optionally loading rows immediately."""
        return self.catalog.create_table(name, schema, rows, clustering)

    def load_relation(self, name: str, relation: Relation) -> Table:
        """Create a table named ``name`` holding ``relation``."""
        return self.catalog.create_table(name, relation.schema, relation)

    def drop_table(self, name: str) -> None:
        """Drop a table."""
        self.catalog.drop_table(name)

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

    def snapshot(self) -> "SnapshotDBMS":
        """A read-only engine over the catalog's current contents.

        Pins every table's relation plus the statistics epoch atomically
        (see :meth:`Catalog.snapshot`); queries executed against the
        returned engine see exactly this state regardless of concurrent
        appends to the live catalog.
        """
        return SnapshotDBMS(self.catalog.snapshot())


class SnapshotDBMS(_Engine):
    """A read-only :class:`ConventionalDBMS` facade over a pinned catalog.

    It only reads its catalog (``catalog``/``statistics``/
    ``statistics_epoch``/``estimator``): the stratum executor and the
    session layer run whole queries against it unchanged, lowering its
    fragments themselves.  It has no ``execute``: fragments arrive chosen
    when their statement was planned over the *pinned* statistics, so plan
    choice and data come from one moment.
    """

    def __init__(self, catalog: CatalogSnapshot) -> None:
        self.catalog = catalog
