"""The temporal layer (stratum) and its end-to-end query service.

:class:`TemporalDatabase` is the public face of the reproduction: it owns a
conventional DBMS substrate holding the base tables, accepts temporal SQL
statements (or hand-built algebra plans), optimizes them with the paper's
machinery — the memo search it holds over the typed transformation rules,
guarded by the Table 2 operation properties, with cost-based selection — and
executes the chosen plan across the two engines.

The class mirrors the division of labour of Section 2.1: the front end maps
the user query to an initial algebra expression that computes everything in
the DBMS and transfers the result to the stratum; the optimizer then decides
which operations the stratum should take over (temporal duplicate
elimination, coalescing, temporal difference, ...) and where the sort should
run.

A query reads only the substrate's catalog.  A consistent read is therefore
the same class over a pinned catalog: :meth:`TemporalDatabase.snapshot`
returns a ``TemporalDatabase`` whose DBMS holds a
:class:`~repro.dbms.catalog.CatalogSnapshot`, with the live database's
optimizer and options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence
from typing import Tuple as PyTuple

from ..core.cost import PlanCost, estimate_cost
from ..core.exceptions import CancelledError, ResourceExhaustedError, error_code
from ..faults import FAULTS
from ..core.operations import Operation
from ..core.operations.base import EvaluationContext
from ..core.order_spec import OrderSpec
from ..core.query import QueryResultSpec
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..dbms.engine import ConventionalDBMS
from ..options import ExecutionOptions
from ..search import ExplorationStore, MemoSearch, SearchResult
from ..stats import CardinalityEstimator
from .executor import StratumExecutor


@dataclass
class OptimizationOutcome:
    """The result of optimizing one query.

    ``search`` is the statement's memo search; it is ``None`` only when the
    search degraded.  ``chosen_plan`` is *the plan that executes*: the
    search's ``best_plan``, or else the initial plan, as it is.
    """

    initial_plan: Operation
    chosen_plan: Operation
    chosen_cost: PlanCost
    initial_cost: PlanCost
    search: Optional[SearchResult] = None
    #: Set when optimization *degraded*: the statement's search failed and
    #: the initial plan was kept instead — correct by rule soundness, just
    #: not cost-improved.  ``"memo_search:<error code>"``: the text before
    #: the colon is the stage the session counts it under; the optimize trace
    #: span shows the whole marker.
    degraded: Optional[str] = None

    @property
    def plans_considered(self) -> int:
        if self.search is not None:
            return self.search.statistics.plans_considered
        return 1

    @property
    def improvement_factor(self) -> float:
        """Estimated cost of the initial plan divided by the chosen plan's."""
        if self.chosen_cost.total == 0:
            return 1.0
        return self.initial_cost.total / self.chosen_cost.total


class TemporalDatabase:
    """A temporal DBMS realised as a stratum on top of a conventional DBMS.

    Execution configuration comes from an
    :class:`~repro.options.ExecutionOptions` (``options=``).
    ``repro.connect()`` is the blessed constructor wrapper.
    """

    def __init__(
        self,
        dbms: Optional[ConventionalDBMS] = None,
        optimizer: Optional[MemoSearch] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        #: The execution configuration; sessions created through
        #: :meth:`session` inherit it.
        self.options = options if options is not None else ExecutionOptions()
        self.dbms = dbms or ConventionalDBMS()
        #: The one optimizer: immutable configuration (rule index, cost
        #: model, budgets), shared by every session and worker.  An empty
        #: rule set (``MemoSearch(rules=[])``) runs the translated plan.
        self.optimizer = optimizer or MemoSearch()
        #: Lazily created default session backing :meth:`execute`.
        self._default_session = None

    # -- data definition ---------------------------------------------------------

    def register(self, name: str, relation: Relation, clustering: Optional[OrderSpec] = None) -> None:
        """Store ``relation`` as base table ``name`` in the underlying DBMS."""
        self.dbms.create_table(name, relation.schema, relation, clustering)

    def create_table(self, name: str, schema: RelationSchema) -> None:
        """Create an empty base table."""
        self.dbms.create_table(name, schema)

    def insert(self, name: str, rows) -> int:
        """Append rows (in schema order) to a base table."""
        return self.dbms.catalog.table(name).insert(rows)

    def append(self, name: str, rows) -> PyTuple[int, int]:
        """Like :meth:`insert`, but report ``(inserted, resulting epoch)``.

        Both values come from one atomic catalog operation, so concurrent
        appenders each learn the exact epoch their own rows landed at.
        """
        return self.dbms.catalog.insert(name, rows)

    def snapshot(self) -> "TemporalDatabase":
        """Pin the current table contents and epoch for consistent reads.

        The returned database is this one's class over the substrate's
        pinned engine (:meth:`~repro.dbms.engine.ConventionalDBMS.snapshot`),
        sharing this one's optimizer and options: it reads, plans and
        executes exactly the pinned state even while concurrent appends
        advance the live catalog, its :meth:`statistics_epoch` never moves,
        and every change to it raises
        :class:`~repro.core.exceptions.CatalogError`.  A session passes one
        per request to :meth:`repro.session.session.Session.execute`.
        """
        return TemporalDatabase(self.dbms.snapshot(), self.optimizer, self.options)

    # -- reading the catalog -------------------------------------------------------

    def table(self, name: str) -> Relation:
        """The contents of a base table."""
        return self.dbms.catalog.table(name).relation

    def statistics(self) -> Mapping[str, int]:
        """Base-table cardinalities, as used by the cost model."""
        return self.dbms.statistics()

    def statistics_epoch(self) -> int:
        """Monotone counter advanced by every statistics-relevant change.

        Any DDL or data change (create/drop/insert/replace) advances it; the
        plan cache of :mod:`repro.session` keys entries on the epoch, so a
        bump invalidates every plan optimized against the older statistics.
        A snapshot's never advances.
        """
        return self.dbms.statistics_epoch()

    def costing_estimator(self) -> Optional[CardinalityEstimator]:
        """The estimator every costing of this database passes on: one over
        the catalog's table profiles under ``options.use_statistics``, else
        ``None`` (the cost model's constants).  The one place that option
        is read: :meth:`optimize_plan` and the session's EXPLAIN and
        slow-log costing both ask here."""
        if not self.options.use_statistics:
            return None
        return CardinalityEstimator(self.dbms.catalog.profiles())

    def evaluation_context(self) -> EvaluationContext:
        """A reference-evaluation context over all base tables."""
        context = EvaluationContext()
        for name in self.dbms.catalog.table_names():
            context = context.bind(name, self.table(name))
        return context

    def schemas(self) -> Mapping[str, RelationSchema]:
        """Schema per table (the front end's translation input)."""
        catalog = self.dbms.catalog
        return {name: catalog.table(name).schema for name in catalog.table_names()}

    # -- querying -----------------------------------------------------------------

    def parse(self, statement: str):
        """Parse a temporal SQL statement into ``(initial plan, query spec)``."""
        from ..tsql import translate_statement

        return translate_statement(statement, self.schemas())

    def query(self, statement: str) -> Relation:
        """Parse, optimize, execute; return the result relation."""
        return self.execute(statement).relation

    def session(self, cache_size: int = 128):
        """A new :class:`~repro.session.session.Session` over this database.

        The session adds the plan cache, ``?`` parameter binding and the
        EXPLAIN surface; several sessions may share one database (each has
        its own cache, all invalidate through the shared statistics epoch).
        """
        from ..session import Session

        return Session(self, cache_size=cache_size, options=self.options)

    def execute(self, statement: str, params: Sequence[object] = ()):
        """Parse, optimize and execute a temporal SQL statement.

        Runs through a lazily created default
        :class:`~repro.session.session.Session`: repeated statements reuse
        the cached optimized plan, ``?`` markers are bound from ``params``,
        and ``EXPLAIN`` statements return a report instead of rows.  Returns
        the request's :class:`~repro.session.session.SessionResult`
        (``relation``, ``query_spec``, ``optimization``, ``report``, …).
        """
        if self._default_session is None:
            self._default_session = self.session()
        return self._default_session.execute(statement, params)

    def optimize_plan(
        self,
        initial_plan: Operation,
        query_spec: QueryResultSpec,
        explorations: Optional[ExplorationStore] = None,
        token=None,
    ) -> OptimizationOutcome:
        """Optimize a plan against the current statistics.

        The single place a statement is optimized: the session layer's plan
        cache plans every statement through it (EXPLAIN and :meth:`explain`
        included), so every entry point reports identical optimization
        metadata.  The executor runs the outcome's ``chosen_plan`` as given,
        ``TS`` fragments included: the statement's search has already
        explored below every ``TS`` with the DBMS's multiset-safe rules and
        priced each fragment at the DBMS's rates, so the DBMS needs no search
        of its own (``docs/architecture.md``, "Who optimizes a fragment, and
        when").
        The statistics (and, under ``options.use_statistics``, the
        estimator) come from this database's catalog — on a
        :meth:`snapshot`, the pinned contents, so the plan matches the epoch
        the snapshot's cache key carries.  ``explorations`` (the session's
        plan cache) goes to the statement's search: what an earlier epoch
        explored is re-costed, not explored again.  The request's ``token`` is checked inside the
        search, so a cancel or a deadline stops it where it is.
        """
        statistics = self.statistics()
        estimator = self.costing_estimator()
        initial_cost = estimate_cost(
            initial_plan, statistics, self.optimizer.cost_model, estimator=estimator
        )
        # A search failure degrades to the initial plan instead of failing
        # the query: the translator's plan is a correct (if unimproved)
        # answer, and the search is the most intricate machinery on the
        # query path — exactly where robustness buys the most.
        # Cancellation/deadline/budget errors mean "stop", not "the search
        # is broken", and propagate.
        try:
            if FAULTS.active:
                FAULTS.check("search.memo")
            search = self.optimizer.optimize(
                initial_plan, query_spec, statistics, estimator=estimator,
                explorations=explorations, token=token,
            )
        except (CancelledError, ResourceExhaustedError):
            raise
        except Exception as exc:
            return OptimizationOutcome(
                initial_plan=initial_plan,
                chosen_plan=initial_plan,
                chosen_cost=initial_cost,
                initial_cost=initial_cost,
                degraded=f"memo_search:{error_code(exc)}",
            )
        return OptimizationOutcome(
            initial_plan=initial_plan,
            chosen_plan=search.best_plan,
            chosen_cost=search.best_cost,
            initial_cost=initial_cost,
            search=search,
        )

    def run_plan(self, plan: Operation) -> Relation:
        """Execute a plan as-is (no optimization)."""
        executor = StratumExecutor(self.dbms, batch_size=self.options.batch_size)
        return executor.execute(plan)

    def evaluate_reference(self, plan: Operation) -> Relation:
        """Evaluate a plan with the reference (specification-level) semantics."""
        return plan.evaluate(self.evaluation_context())

    # -- introspection --------------------------------------------------------------

    def explain(self, statement: str) -> str:
        """The EXPLAIN report of a statement, as text.

        The same request as ``execute("EXPLAIN " + statement)`` through the
        default session — planned once, through its plan cache, request
        record, metrics and tracer — rendered: each operator's engine and
        estimates, the chosen and initial costs and the optimizer's
        counters.  :meth:`parse` still gives the initial plan.
        """
        return self.execute("EXPLAIN " + statement).explain.render()
