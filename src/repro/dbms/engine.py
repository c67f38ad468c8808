"""The conventional DBMS substrate: catalog, optimizer and executor in one facade.

:class:`ConventionalDBMS` is the "unaltered, conventional DBMS" of the
paper's layered architecture: it stores relations, accepts (conventional)
logical plans, optimizes them with its own cost-guided search, executes them
with multiset semantics, and can show the SQL text a fragment corresponds to.  It
knows nothing about valid time beyond treating ``T1``/``T2`` as ordinary
integer columns — temporal operations reaching it are only ever *emulated*
(slowly), which the execution report exposes.

It executes on the same batch operators as the stratum
(:mod:`repro.core.physical`); what it may build from them — no interval
join, no temporal operation — is declared in :mod:`repro.dbms.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.operations import Operation
from ..core.order_spec import OrderSpec
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..options import DEFAULT_BATCH_SIZE
from ..search import SearchResult
from .catalog import Catalog, CatalogSnapshot, Table
from .executor import ExecutionReport, PhysicalPlanner
from .optimizer import CostGuidedConventionalOptimizer
from .sqlgen import to_sql


@dataclass
class DBMSResult:
    """A query result together with the execution report."""

    relation: Relation
    report: ExecutionReport
    optimized_plan: Operation


class _Engine:
    """What the live engine and a pinned snapshot share: querying a catalog.

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
        report's ``operator_spans`` then carry each physical operator's
        rows and wall-clock for EXPLAIN ANALYZE and request traces.
        ``control`` (an :class:`~repro.faults.control.ExecutionControl`)
        threads cancellation, deadlines, resource budgets and fault
        injection into the physical operators' drains.  ``batch_size`` is
        the operators' chunk size — the stratum executor passes its own
        (``ExecutionOptions.batch_size``) through, and always
        ``optimize=False``: its fragments were chosen when the statement was
        planned (:meth:`repro.stratum.layer.TemporalDatabase.optimize_plan`).
        ``optimize=True`` runs the live engine's own search
        (:meth:`ConventionalDBMS.optimize`); a pinned snapshot has none.
        """
        final_plan = self.optimize(plan) if optimize else plan
        planner = PhysicalPlanner(
            self.catalog, clock=clock, control=control, batch_size=batch_size
        )
        relation = planner.execute(final_plan)
        return DBMSResult(relation=relation, report=planner.report, optimized_plan=final_plan)


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

    def query(self, plan: Operation, optimize: bool = True) -> Relation:
        """Execute a plan and return only the result relation."""
        return self.execute(plan, optimize=optimize).relation

    # -- introspection --------------------------------------------------------------

    def explain(self, plan: Operation, optimize: bool = True) -> str:
        """The physical plan the engine would run, as indented text."""
        final_plan = self.optimize(plan) if optimize else plan
        planner = PhysicalPlanner(self.catalog)
        return planner.plan(final_plan).explain()

    def sql_for(self, plan: Operation, optimize: bool = True, pretty: bool = False) -> str:
        """The SQL text corresponding to a (conventional) plan fragment."""
        final_plan = self.optimize(plan) if optimize else plan
        return to_sql(final_plan, pretty=pretty)

    # -- snapshots ------------------------------------------------------------------

    def snapshot(self) -> "SnapshotDBMS":
        """A read-only engine over the catalog's current contents.

        Pins every table's relation plus the statistics epoch atomically
        (see :meth:`Catalog.snapshot`); queries executed through the
        returned engine see exactly this state regardless of concurrent
        appends to the live catalog.
        """
        return SnapshotDBMS(self.catalog.snapshot())


class SnapshotDBMS(_Engine):
    """A read-only :class:`ConventionalDBMS` facade over a pinned catalog.

    Execution-compatible with the live engine (``catalog``/``execute``/
    ``statistics``/``statistics_epoch``/``estimator``), so the stratum
    executor and the session layer can run whole queries against a snapshot
    unchanged.  It has no optimizer: the stratum executor hands it fragments
    with ``optimize=False``, chosen when their statement was planned over
    the *pinned* statistics, so plan choice and data come from one moment.
    """

    def __init__(self, catalog: CatalogSnapshot) -> None:
        self.catalog = catalog
