"""The conventional DBMS substrate: catalog, optimizer and executor in one facade.

:class:`ConventionalDBMS` is the "unaltered, conventional DBMS" of the
paper's layered architecture: it stores relations, accepts (conventional)
logical plans, optimizes them with its own cost-guided search, executes them
with multiset semantics, and can show the SQL text a fragment corresponds to.  It
knows nothing about valid time beyond treating ``T1``/``T2`` as ordinary
integer columns — temporal operations reaching it are only ever *emulated*
(slowly), which the execution report exposes.

It executes through the one lowering of :mod:`repro.core.lowering` under the
DBMS's engine descriptor (:data:`~repro.core.lowering.DBMS_ENGINE`): what it
may build from the shared batch operators — no interval join, no temporal
operator — is declared there.  The stratum executes a request's fragments in
the same operator tree and never calls :meth:`ConventionalDBMS.execute`;
that is for direct callers.
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
from ..search import SearchResult
from .catalog import Catalog, CatalogSnapshot, Table
from .optimizer import CostGuidedConventionalOptimizer
from .sqlgen import to_sql


@dataclass
class DBMSResult:
    """A query result together with the execution report."""

    relation: Relation
    report: ExecutionReport
    optimized_plan: Operation


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
    """An in-memory, multiset-semantics SQL engine.

    The engine's own optimization is the cost-guided memo search over its
    catalog statistics (:class:`CostGuidedConventionalOptimizer`; pass one
    as ``optimizer`` to change its rules or cost model).  With
    ``use_statistics=True`` the fragment costing additionally consumes the
    catalog's histogram-backed
    :class:`~repro.stats.estimator.CardinalityEstimator` instead of the
    fixed selectivity constants.
    """

    def __init__(self, optimizer=None, use_statistics: bool = False) -> None:
        if optimizer is not None and use_statistics:
            raise ValueError(
                "use_statistics only wires the default optimizer; give your "
                "optimizer an estimator_provider instead"
            )
        self.catalog = Catalog()
        self._optimizer = optimizer or CostGuidedConventionalOptimizer(
            statistics_provider=self.catalog.statistics,
            estimator_provider=self.catalog.estimator if use_statistics else None,
        )

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

    def search(self, plan: Operation) -> SearchResult:
        """Run the engine's own optimizer over a logical plan fragment: the
        whole search — ``best_plan`` plus its counters."""
        return self._optimizer.search(plan)

    def optimize(self, plan: Operation) -> Operation:
        """The fragment :meth:`search` finds cheapest."""
        return self.search(plan).best_plan

    def execute(
        self,
        plan: Operation,
        optimize: bool = True,
        clock=None,
        control=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> DBMSResult:
        """Optimize (optionally) and execute a logical plan fragment.

        ``clock`` (a monotonic callable) turns on per-operator timing: the
        report's ``node_timings`` then carry each plan node's wall-clock.
        ``control`` (an :class:`~repro.faults.control.ExecutionControl`)
        threads cancellation, deadlines, resource budgets and fault
        injection into the physical operators' drains; a failure raises —
        only the stratum degrades.  ``batch_size`` is the operators' chunk
        size.
        """
        final_plan = self.optimize(plan) if optimize else plan
        lowering = Lowering(self.catalog, batch_size, clock, control)
        relation, report = lowering.execute(lowering.lower(final_plan, DBMS_ENGINE))
        return DBMSResult(relation=relation, report=report, optimized_plan=final_plan)

    def query(self, plan: Operation, optimize: bool = True) -> Relation:
        """Execute a plan and return only the result relation."""
        return self.execute(plan, optimize=optimize).relation

    # -- introspection --------------------------------------------------------------

    def explain(self, plan: Operation, optimize: bool = True) -> str:
        """The physical plan the engine would run, as indented text."""
        final_plan = self.optimize(plan) if optimize else plan
        return Lowering(self.catalog).lower(final_plan, DBMS_ENGINE).explain()

    def sql_for(self, plan: Operation, optimize: bool = True, pretty: bool = False) -> str:
        """The SQL text corresponding to a (conventional) plan fragment."""
        final_plan = self.optimize(plan) if optimize else plan
        return to_sql(final_plan, pretty=pretty)

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
    fragments themselves.  It has neither an optimizer nor an ``execute``:
    fragments arrive chosen when their statement was planned over the
    *pinned* statistics, so plan choice and data come from one moment.
    """

    def __init__(self, catalog: CatalogSnapshot) -> None:
        self.catalog = catalog
