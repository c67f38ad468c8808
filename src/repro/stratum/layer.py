"""The temporal layer (stratum) and its end-to-end query service.

:class:`TemporalDatabase` is the public face of the reproduction: it owns a
conventional DBMS substrate holding the base tables, accepts temporal SQL
statements (or hand-built algebra plans), optimizes them with the paper's
machinery — plan enumeration over the typed transformation rules, guarded by
the Table 2 operation properties, followed by cost-based selection — and
executes the chosen plan across the two engines.

The class mirrors the division of labour of Section 2.1: the front end maps
the user query to an initial algebra expression that computes everything in
the DBMS and transfers the result to the stratum; the optimizer then decides
which operations the stratum should take over (temporal duplicate
elimination, coalescing, temporal difference, ...) and where the sort should
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence
from typing import Tuple as PyTuple

from ..core.cost import CostModel, PlanCost, estimate_cost
from ..core.exceptions import CancelledError, ResourceExhaustedError, error_code
from ..faults import FAULTS
from ..core.operations import Operation
from ..core.operations.base import EvaluationContext
from ..core.order_spec import OrderSpec
from ..core.query import QueryResultSpec
from ..core.relation import Relation
from ..core.rules import rule_index
from ..core.rules.base import TransformationRule
from ..core.schema import RelationSchema
from ..dbms.engine import ConventionalDBMS
from ..options import ExecutionOptions
from ..search import ExplorationStore, MemoSearch, SearchOptions, SearchResult
from .executor import StratumExecutor
from .partition import describe_partition


@dataclass
class OptimizationOutcome:
    """The result of optimizing one query.

    ``search`` is the statement's memo search; it is ``None`` for the trivial
    single-plan outcome (optimization disabled, or degraded).  ``chosen_plan``
    is *the plan that executes*: the search's ``best_plan``, or else the
    initial plan, as it is.
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


class TemporalQueryOptimizer:
    """Cost-based plan selection over the paper's rule catalogue.

    The memo-based, cost-guided search of :mod:`repro.search`: it shares
    rewritten sub-plans across alternatives and never materializes the plan
    space, so it scales to queries the paper's Figure 5 enumeration
    (:mod:`repro.core.enumeration`, the oracle the agreement tests compare
    against) truncates on.
    """

    def __init__(
        self,
        rules: Optional[Sequence[TransformationRule]] = None,
        cost_model: Optional[CostModel] = None,
        max_plans: int = 3000,
        estimator=None,
    ) -> None:
        #: Built once, here (the default catalogue's is a process-wide singleton).
        self.index = rule_index(rules)
        self.cost_model = cost_model or CostModel()
        self.search_options = SearchOptions(max_expressions=max_plans)
        #: Optional histogram-backed cardinality estimator (see
        #: :mod:`repro.stats`); a per-call estimator passed to
        #: :meth:`optimize` takes precedence.
        self.estimator = estimator

    @property
    def rules(self) -> Sequence[TransformationRule]:
        """The transformation rules, in catalogue order."""
        return self.index.rules

    def optimize(
        self,
        initial_plan: Operation,
        query_spec: QueryResultSpec,
        statistics: Optional[Mapping[str, int]] = None,
        estimator=None,
        explorations: Optional[ExplorationStore] = None,
        token=None,
    ) -> OptimizationOutcome:
        """Find the cheapest plan equivalent to ``initial_plan``.

        With ``explorations`` a statement explored before (under any
        statistics) is only re-costed; the ``search.memo`` fault point fires
        either way.  A cancelled or expired ``token`` stops the search.
        """
        estimator = estimator if estimator is not None else self.estimator
        initial_cost = estimate_cost(
            initial_plan, statistics, self.cost_model, estimator=estimator
        )
        # A memo-search failure degrades to the initial plan instead of
        # failing the query: the translator's plan is a correct (if
        # unimproved) answer, and the search is the most intricate machinery
        # on the query path — exactly where robustness buys the most.
        # Cancellation/deadline/budget errors mean "stop", not "the search
        # is broken", and propagate.
        try:
            if FAULTS.active:
                FAULTS.check("search.memo")
            search = MemoSearch(
                rules=self.index,
                cost_model=self.cost_model,
                options=self.search_options,
                estimator=estimator,
            ).optimize(initial_plan, query_spec, statistics, explorations, token)
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


class _CatalogReads:
    """What a query reads of the catalog, over ``self.dbms`` — live or pinned.

    Shared by :class:`TemporalDatabase` and :class:`DatabaseSnapshot`, so the
    session runs one lifecycle against either.
    """

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

    def estimator(self, **kwargs):
        """A histogram-backed estimator over the base tables."""
        return self.dbms.estimator(**kwargs)

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


class TemporalDatabase(_CatalogReads):
    """A temporal DBMS realised as a stratum on top of a conventional DBMS.

    Execution configuration comes from an
    :class:`~repro.options.ExecutionOptions` (``options=``).
    ``repro.connect()`` is the blessed constructor wrapper.
    """

    def __init__(
        self,
        dbms: Optional[ConventionalDBMS] = None,
        optimizer: Optional[TemporalQueryOptimizer] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> None:
        if options is None:
            options = ExecutionOptions()
        #: The execution configuration; sessions created through
        #: :meth:`session` inherit it.
        self.options = options
        self.dbms = dbms or ConventionalDBMS()
        self.optimizer = optimizer or TemporalQueryOptimizer()
        self.optimize_queries = options.optimize_queries
        #: When True, every optimization consumes a fresh histogram-backed
        #: estimator built from the catalog (see :mod:`repro.stats`) instead
        #: of the cost model's fixed selectivity/overlap constants.
        self.use_statistics = options.use_statistics
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

    def snapshot(self) -> "DatabaseSnapshot":
        """Pin the current table contents and epoch for consistent reads.

        The returned :class:`DatabaseSnapshot` exposes the read surface a
        query execution needs (``dbms``/``statistics``/``estimator``/
        ``statistics_epoch``); a session executing against it sees exactly
        the pinned state even while concurrent appends advance the live
        catalog (see :meth:`repro.session.session.Session.execute`).
        """
        return DatabaseSnapshot(self, self.dbms.snapshot())

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
        snapshot: Optional["DatabaseSnapshot"] = None,
        explorations: Optional[ExplorationStore] = None,
        token=None,
    ) -> OptimizationOutcome:
        """Optimize a plan against the current statistics (or cost it as-is).

        The single place the optimize-or-estimate policy lives: honoured by
        :meth:`explain` and the session layer's plan cache, so every entry
        point reports identical optimization metadata.
        With ``optimize_queries=False`` the initial plan is costed and taken
        as the trivial single-plan outcome.  The executor runs the outcome's
        ``chosen_plan`` as given, ``TS`` fragments included: the statement's
        search has already explored below every ``TS`` with the DBMS's
        multiset-safe rules and priced each fragment at the DBMS's rates, so
        the DBMS needs no search of its own (``docs/architecture.md``, "Who
        optimizes a fragment, and when").
        With a ``snapshot`` the statistics (and, under ``use_statistics``,
        the estimator) come from the pinned contents instead of the live
        catalog, so the plan matches the epoch the snapshot's cache key
        carries.  ``explorations`` (the session's plan cache) goes to the
        statement's search: what an earlier epoch explored is re-costed, not
        explored again.  The request's ``token`` is checked inside the
        search, so a cancel or a deadline stops it where it is.
        """
        source = snapshot if snapshot is not None else self
        statistics = source.statistics()
        estimator = source.estimator() if self.use_statistics else None
        if self.optimize_queries:
            return self.optimizer.optimize(
                initial_plan, query_spec, statistics, estimator=estimator,
                explorations=explorations, token=token,
            )
        cost = estimate_cost(
            initial_plan, statistics, self.optimizer.cost_model, estimator=estimator
        )
        return OptimizationOutcome(
            initial_plan=initial_plan,
            chosen_plan=initial_plan,
            chosen_cost=cost,
            initial_cost=cost,
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
        """Initial plan, chosen plan and engine assignment for a statement."""
        initial_plan, query_spec = self.parse(statement)
        optimization = self.optimize_plan(initial_plan, query_spec)
        lines = [
            f"statement: {statement}",
            f"result specification: {query_spec}",
            "",
            "initial plan:",
            initial_plan.pretty(),
            "",
            f"plans considered: {optimization.plans_considered}",
            f"estimated cost: initial={optimization.initial_cost.total:.1f} "
            f"chosen={optimization.chosen_cost.total:.1f} "
            f"(improvement {optimization.improvement_factor:.2f}x)",
            "",
            "chosen plan (with engine assignment):",
            describe_partition(optimization.chosen_plan),
        ]
        return "\n".join(lines)


class DatabaseSnapshot(_CatalogReads):
    """A consistent read view of a :class:`TemporalDatabase` at one epoch.

    Wraps the substrate's :class:`~repro.dbms.engine.SnapshotDBMS` (every
    table's relation pinned atomically with the epoch) and carries the
    owning database so optimizer configuration (rules, cost model,
    ``use_statistics``) is shared.  Sessions pass one to
    :meth:`~repro.session.session.Session.execute` to answer a query as of
    admission time while concurrent appends proceed; the serving layer
    (:mod:`repro.server`) takes one per request.
    """

    def __init__(self, database: TemporalDatabase, dbms) -> None:
        self.database = database
        #: The pinned substrate engine (read-only).
        self.dbms = dbms
        #: The statistics epoch the snapshot was taken at.
        self.epoch = dbms.statistics_epoch()
