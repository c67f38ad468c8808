"""Unit tests for the TemporalDatabase facade and the query optimizer driver."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ledger.workloads import STATEMENTS, build_database
from repro.core.analysis import derive_cardinality_bounds, derive_order
from repro.core.applicability import rule_application_allowed
from repro.core.cost import CostModel, cost_annotations
from repro.core.lowering import DBMS_ENGINE, Lowering
from repro.core.equivalence import EquivalenceType, multiset_equivalent
from repro.core.exceptions import CatalogError, ParseError
from repro.core.expressions import AttributeRef, ProjectionItem, equals
from repro.core.operations import (
    BaseRelation,
    Coalescing,
    Projection,
    Selection,
    Sort,
    TemporalDuplicateElimination,
    TransferToDBMS,
    TransferToStratum,
)
from repro.core.order_spec import OrderSpec
from repro.core.properties import OperationProperties, annotate, child_properties, root_properties
from repro.core.query import QueryResultSpec
from repro.core.rules import (
    CONVENTIONAL_RULES,
    DUPLICATE_RULES,
    JOIN_RULES,
    SORTING_RULES,
    rule_index,
    rules_by_name,
)
from repro.core.rules.base import RuleIndex
from repro.core.schema import STRING
from repro.dbms import ConventionalDBMS
from repro.dbms.catalog import Catalog
from repro.faults import FAULTS
from repro.search import MemoSearch, SearchOptions
from repro.stratum import StratumExecutor, TemporalDatabase
from repro.stratum.partition import partition_plan
from repro.workloads import (
    CHAINED_SQL,
    EMPLOYEE_SCHEMA,
    WORKLOAD_QUERIES,
    employee_relation,
    project_relation,
)

from .strategies import conventional_plans, join_shaped_plans


def optimize_with(temporal_db, plan, spec, **search):
    """``optimize_plan`` over ``temporal_db``'s tables with ``MemoSearch(**search)``."""
    database = TemporalDatabase(dbms=temporal_db.dbms, optimizer=MemoSearch(**search))
    return database.optimize_plan(plan, spec)


class TestOptimizePlan:
    def test_the_database_holds_one_memo_search(self):
        assert type(TemporalDatabase().optimizer) is MemoSearch

    def test_optimize_returns_cheaper_or_equal_plan(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        outcome = temporal_db.optimize_plan(plan, spec)
        assert outcome.chosen_cost.total <= outcome.initial_cost.total
        assert outcome.initial_plan == plan
        # The memo search records its own statistics.
        assert outcome.search is not None
        assert outcome.plans_considered == outcome.search.statistics.plans_considered

    def test_restricted_rule_set(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        rules = rules_by_name()
        outcome = optimize_with(temporal_db, plan, spec, rules=[rules["D2"], rules["S2"]])
        assert outcome.plans_considered <= 3

    def test_custom_cost_model_changes_choices(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        dbms_choice = optimize_with(
            temporal_db, plan, spec, cost_model=CostModel(dbms_speed=0.01, transfer_cost=0.0)
        ).chosen_plan
        stratum_choice = optimize_with(
            temporal_db, plan, spec, cost_model=CostModel(dbms_speed=10.0, transfer_cost=5.0)
        ).chosen_plan
        # With wildly different engine speeds the chosen plans should differ
        # in how much work they leave in the DBMS (transfer placement).
        assert dbms_choice != stratum_choice

    def test_improvement_factor_of_identity(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        outcome = optimize_with(temporal_db, plan, spec, rules=[])
        assert outcome.plans_considered == 1
        assert outcome.improvement_factor == pytest.approx(1.0)


class TestTemporalDatabaseFacade:
    def test_register_rejects_duplicate_names(self, temporal_db):
        with pytest.raises(CatalogError):
            temporal_db.register("EMPLOYEE", employee_relation())

    def test_create_table_and_insert(self):
        database = TemporalDatabase()
        database.create_table("EMPLOYEE", EMPLOYEE_SCHEMA)
        assert database.table("EMPLOYEE").is_empty()
        database.insert("EMPLOYEE", [("Mia", "Sales", 1, 3)])
        assert database.table("EMPLOYEE").cardinality == 1

    def test_parse_errors_propagate(self, temporal_db):
        with pytest.raises(ParseError):
            temporal_db.query("SELECT FROM WHERE")

    def test_evaluation_context_contains_all_tables(self, temporal_db):
        context = temporal_db.evaluation_context()
        assert "EMPLOYEE" in context and "PROJECT" in context

    def test_run_plan_executes_without_optimization(self, temporal_db, employee):
        plan = Sort(
            OrderSpec.ascending("EmpName"),
            Projection(
                ["EmpName", "T1", "T2"],
                TransferToStratum(BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)),
            ),
        )
        result = temporal_db.run_plan(plan)
        assert result.cardinality == employee.cardinality

    def test_a_plan_with_optimization_disabled_runs_as_translated(self, temporal_db, paper_statement):
        plan, spec = temporal_db.parse(paper_statement)
        database = TemporalDatabase(dbms=temporal_db.dbms, optimizer=MemoSearch(rules=[]))
        optimization = database.optimize_plan(plan, spec)
        # No rule rewrites the stratum's plan nor its one fragment (the whole
        # statement): the translated plan executes as it is.
        assert optimization.plans_considered == 1
        assert optimization.chosen_plan == optimization.initial_plan == plan
        relation = database.run_plan(optimization.chosen_plan)
        assert multiset_equivalent(relation, temporal_db.run_plan(plan))

    def test_explain_reports_the_plan_that_executes(self, temporal_db, paper_statement):
        database = TemporalDatabase(dbms=temporal_db.dbms, optimizer=MemoSearch(rules=[]))
        plan, _ = database.parse(paper_statement)
        lines = database.explain(paper_statement).splitlines()
        untouched = "optimizer:  plans considered=1,"
        assert any(line.startswith(untouched) for line in lines)
        assert any(line.endswith(" improvement 1.00x)") for line in lines)
        # The report's plan is the translated one, operator for operator and
        # engine for engine.
        report = database.execute("EXPLAIN " + paper_statement).explain
        assert [line.label for line in report.lines] == [
            node.label() for _, node in plan.locations()
        ]
        assert [(line.path, line.engine) for line in report.lines] == list(
            partition_plan(plan).assignment.items()
        )
        searched = temporal_db.explain(paper_statement).splitlines()
        assert not any(line.startswith(untouched) for line in searched)

    def test_execute_records_statement(self, temporal_db, paper_statement):
        outcome = temporal_db.execute(paper_statement)
        assert outcome.statement == paper_statement
        assert outcome.query_spec.coalesced

    def test_reference_and_engine_agree_for_multiset_query(self, temporal_db):
        statement = "SELECT EmpName FROM EMPLOYEE EXCEPT TEMPORAL SELECT EmpName FROM PROJECT"
        plan, spec = temporal_db.parse(statement)
        reference = temporal_db.evaluate_reference(plan)
        produced = temporal_db.query(statement)
        assert multiset_equivalent(reference, produced)

    def test_a_renamed_column_keeps_its_domain(self, temporal_db):
        """``Dept AS Unit`` is ``Dept`` under another name: a string, in the
        session's result and wherever the projection runs."""
        result = temporal_db.execute("SELECT Dept AS Unit FROM EMPLOYEE")
        assert result.relation.schema.domain_of("Unit") is STRING
        assert result.relation == temporal_db.evaluate_reference(result.plan)
        scan = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        items = [ProjectionItem(AttributeRef("Dept"), alias="Unit"), "T1", "T2"]
        for plan in (
            Projection(items, TransferToStratum(scan)),  # in the stratum
            TransferToStratum(Projection(items, scan)),  # under a TS
        ):
            produced = temporal_db.run_plan(plan)
            assert produced.schema.domain_of("Unit") is STRING
            assert produced == temporal_db.evaluate_reference(plan)

    def test_coalesced_flag_reaches_the_plan(self, temporal_db):
        plan, spec = temporal_db.parse(
            "SELECT EmpName FROM EMPLOYEE COALESCE"
        )
        assert spec.coalesced
        assert any(isinstance(node, Coalescing) for _, node in plan.locations())


class TestASnapshotIsAPinnedDatabase:
    """``snapshot()`` is the same database class over a pinned catalog."""

    ROWS = "SELECT EmpName FROM EMPLOYEE"

    def test_the_same_classes_over_a_pinned_catalog(self, temporal_db):
        snapshot = temporal_db.snapshot()
        assert type(snapshot) is TemporalDatabase
        assert type(snapshot.dbms) is ConventionalDBMS
        assert type(snapshot.dbms.catalog) is Catalog
        assert snapshot.dbms.catalog is not temporal_db.dbms.catalog
        assert snapshot.optimizer is temporal_db.optimizer
        assert snapshot.options is temporal_db.options

    def test_a_snapshot_rejects_every_change(self, temporal_db):
        snapshot = temporal_db.snapshot()
        for change in (
            lambda: snapshot.register("NEW", employee_relation()),
            lambda: snapshot.create_table("NEW", EMPLOYEE_SCHEMA),
            lambda: snapshot.insert("EMPLOYEE", [("Zoe", "Sales", 3, 9)]),
            lambda: snapshot.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)]),
        ):
            with pytest.raises(CatalogError):
                change()
        assert snapshot.statistics_epoch() == temporal_db.statistics_epoch()
        assert snapshot.statistics() == temporal_db.statistics() == {"EMPLOYEE": 5, "PROJECT": 8}

    def test_a_snapshot_answers_from_its_pinned_rows(self, temporal_db):
        snapshot = temporal_db.snapshot()
        epoch = snapshot.statistics_epoch()
        temporal_db.append("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        assert len(temporal_db.query(self.ROWS)) == 6
        assert len(snapshot.query(self.ROWS)) == 5
        assert snapshot.statistics_epoch() == epoch == temporal_db.statistics_epoch() - 1


def ts_fragments(plan):
    return [plan.subtree_at(path) for path in partition_plan(plan).dbms_fragments]


class TestThePlanThatExecutesIsThePlanThatWasChosen:
    """``optimize_plan`` runs one search, the statement's: its ``best_plan`` or
    the initial plan is the plan that executes — by identity, fragments and all."""

    def test_optimization_on(self, temporal_db):
        plan, spec = temporal_db.parse(CHAINED_SQL)
        outcome = temporal_db.optimize_plan(plan, spec)
        assert outcome.chosen_plan is outcome.search.best_plan
        assert outcome.chosen_cost is outcome.search.best_cost
        assert len(ts_fragments(outcome.chosen_plan)) == 3

    def test_optimization_off(self, temporal_db):
        plan, spec = temporal_db.parse(CHAINED_SQL)
        outcome = optimize_with(temporal_db, plan, spec, rules=[])
        assert outcome.degraded is None and outcome.plans_considered == 1
        assert outcome.chosen_plan is outcome.search.best_plan
        assert outcome.chosen_plan == outcome.initial_plan == plan

    def test_degraded(self, temporal_db):
        plan, spec = temporal_db.parse(CHAINED_SQL)
        with FAULTS.armed("search.memo", times=1):
            outcome = temporal_db.optimize_plan(plan, spec)
        assert outcome.degraded == "memo_search:FAULT_INJECTED" and outcome.search is None
        assert outcome.chosen_plan is outcome.initial_plan is plan

    def test_a_ts_nested_in_a_td_island_runs_as_chosen(self, temporal_db):
        """``TS(σ(TD(rdupT(TS(π(π(EMPLOYEE)))))))``: both fragments execute as extracted."""
        scan = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        inner = Projection(["EmpName", "T1", "T2"], Projection(["EmpName", "Dept", "T1", "T2"], scan))
        island = TransferToDBMS(TemporalDuplicateElimination(TransferToStratum(inner)))
        plan = TransferToStratum(Selection(equals("EmpName", "John"), island))
        outcome = temporal_db.optimize_plan(plan, QueryResultSpec.multiset())
        assert outcome.chosen_plan is outcome.search.best_plan
        assert outcome.chosen_cost.total < outcome.initial_cost.total
        produced = temporal_db.run_plan(outcome.chosen_plan)
        assert multiset_equivalent(produced, temporal_db.run_plan(plan))

    def test_a_snapshot_runs_its_fragments_as_chosen_on_the_pinned_engine(
        self, temporal_db, paper_statement
    ):
        """The plan chosen over the pinned statistics runs as given, its
        fragments included, over the pinned rows after a live insert."""
        snapshot = temporal_db.snapshot()
        plan, spec = temporal_db.parse(paper_statement)
        outcome = snapshot.optimize_plan(plan, spec)
        assert outcome.chosen_plan is outcome.search.best_plan
        pinned = list(temporal_db.run_plan(outcome.chosen_plan).tuples)
        temporal_db.insert("EMPLOYEE", [("Zoe", "Sales", 3, 9)])
        assert list(temporal_db.run_plan(outcome.chosen_plan).tuples) != pinned
        executor = StratumExecutor(snapshot.dbms)
        assert list(executor.execute(outcome.chosen_plan).tuples) == pinned
        paths = {path for path, _ in outcome.chosen_plan.locations()}
        # Every node but an rdupT the operator above runs itself drains on its own.
        root = Lowering(snapshot.dbms.catalog).lower(outcome.chosen_plan)
        absorbed = {path for operator in root.operators() for path in operator.paths[operator.output_nodes :]}
        assert set(executor.report.node_rows) == paths - absorbed
        assert list(snapshot.run_plan(outcome.chosen_plan).tuples) == pinned


#: Every Table 2 property context, ``(OrderRequired, DuplicatesRelevant, PeriodPreserving)``.
CONTEXTS = [OperationProperties(*flags) for flags in itertools.product((False, True), repeat=3)]


def no_stricter(weaker: OperationProperties, stricter: OperationProperties) -> bool:
    return all(a <= b for a, b in zip(weaker.as_tuple(), stricter.as_tuple()))


#: Every ``(weaker, stricter)`` pair of them.
WEAKER_STRICTER = [(w, s) for w in CONTEXTS for s in CONTEXTS if no_stricter(w, s)]


#: The rules a DBMS that promises only multisets may apply to a fragment:
#: the ≡L/≡M conventional-side catalogue (set-level rules such as D3 or C4
#: would change the duplicate structure it must preserve).
MULTISET_SAFE_INDEX = RuleIndex(
    rule
    for rule in CONVENTIONAL_RULES + DUPLICATE_RULES + SORTING_RULES + JOIN_RULES
    if rule.equivalence in (EquivalenceType.LIST, EquivalenceType.MULTISET)
)


def fragment_specification(fragment) -> QueryResultSpec:
    """Where a fragment search roots: LIST when the fragment is ordered (the
    caller may rely on the order it receives), MULTISET otherwise."""
    order = derive_order(fragment)
    return QueryResultSpec.list(order) if order else QueryResultSpec.multiset()


def dbms_search(database, fragment):
    """The DBMS's "own optimization" of a fragment, as a test-only oracle: a
    memo search over :data:`MULTISET_SAFE_INDEX` rooted in the DBMS's engine
    under :func:`fragment_specification`, with the database's cost model and
    statistics."""
    return MemoSearch(
        rules=MULTISET_SAFE_INDEX,
        cost_model=database.optimizer.cost_model,
        options=SearchOptions(max_expressions=600, max_sweeps=6),
        root_engine=DBMS_ENGINE,
    ).optimize(fragment, fragment_specification(fragment), database.statistics())


def dbms_root_context(ordered: bool) -> OperationProperties:
    """Where :func:`dbms_search` roots a fragment: LIST when it is ordered,
    MULTISET otherwise."""
    order = OrderSpec.ascending("EmpName")
    return root_properties(QueryResultSpec.list(order) if ordered else QueryResultSpec.multiset())


def chosen_plans():
    """``(database, chosen plan, specification)`` of every registry query and ledger statement."""
    registry = TemporalDatabase()
    registry.register("EMPLOYEE", employee_relation())
    registry.register("PROJECT", project_relation())
    ledger = build_database(12, 0)
    for database, (plan, spec) in [
        *((registry, query.build()) for query in WORKLOAD_QUERIES),
        *((ledger, ledger.parse(statement.sql)) for statement in STATEMENTS.values()),
    ]:
        yield database, database.optimize_plan(plan, spec).chosen_plan, spec


class TestTheStratumsSearchSubsumesTheDBMSs:
    """Why the DBMS needs no search of its own for a fragment the stratum chose.

    A DBMS that optimizes a fragment itself (:func:`dbms_search`) searches it
    with the multiset-safe rules (:data:`MULTISET_SAFE_INDEX`) from
    :func:`dbms_root_context`, at DBMS rates.
    The stratum's memo holds the same fragment in the group below a ``TS``,
    explored under a context no stricter than that root when a fragment
    under an order requirement is an ordered one — checked on the chosen
    plans of the registry queries and the ledger's statements.  (Not on
    every plan: below ``sortA(sortAB(r))`` under an order on ``A, B``,
    Table 2 lets the stratum drop the inner sort, as if the outer sort set
    the whole order.  The translator emits one sort, for ``ORDER BY``; the
    generated plans below nest sorts that way.  That hole is Table 2's, open,
    and outside this argument.)  Then

    1. every DBMS rule is a stratum rule — the same object — and wherever
       the DBMS's search admits it, the stratum admits it too: at the ``TS``
       child, and at every node below, because the Table 2 step keeps a
       weaker context weaker and admission only widens as a context weakens;
    2. both price a fragment with one function: equal ``CostModel`` s, DBMS
       rates from the fragment root down.

    So the stratum's extraction already chose the cheapest fragment the
    DBMS's search could reach, and that search could only return it.  A
    failure here is a counter-example to the argument: a fragment search of
    the DBMS's own would then have something to find.
    """

    def test_every_dbms_rule_is_a_stratum_rule_admitted_wherever_the_dbms_admits_it(self):
        stratum = rule_index()
        for rule in MULTISET_SAFE_INDEX.rules:
            assert any(rule is own for own in stratum.rules), rule.name
            assert any(own is rule for _, own in stratum.matching(rule.root)), rule.name
            for weaker, stricter in WEAKER_STRICTER:
                if rule_application_allowed(rule.equivalence, [stricter]):
                    assert rule_application_allowed(rule.equivalence, [weaker]), rule.name
        scan = BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA)
        for parent in CONTEXTS:
            below_ts = child_properties(TransferToStratum(scan), 0, parent)
            assert no_stricter(below_ts, dbms_root_context(below_ts.order_required))
        # On the chosen plans: the fragment under an order requirement is an
        # ordered one (or has at most one row, which every order describes),
        # so the DBMS's root context requires order there too; and down the
        # fragment the one step both searches take keeps a weaker context
        # weaker.
        for _, plan, spec in chosen_plans():
            properties = annotate(plan, spec)
            for path in partition_plan(plan).dbms_fragments:
                fragment = plan.subtree_at(path)
                if properties[path].order_required:
                    assert derive_order(fragment) or derive_cardinality_bounds(fragment)[1] <= 1
                for _, node in fragment.locations():
                    for index in range(len(node.children)):
                        for weaker, stricter in WEAKER_STRICTER:
                            assert no_stricter(
                                child_properties(node, index, weaker),
                                child_properties(node, index, stricter),
                            ), node.label()

    def test_both_searches_price_a_fragment_with_one_function(self):
        priced = 0
        for database, plan, _ in chosen_plans():
            annotations = cost_annotations(
                plan, database.statistics(), database.optimizer.cost_model
            )
            for path in partition_plan(plan).dbms_fragments:
                inside = [a for p, a in annotations.items() if p[: len(path)] == path]
                assert inside[-1].engine == DBMS_ENGINE.name  # post-order: the fragment root
                searched = dbms_search(database, plan.subtree_at(path))
                assert searched.best_cost.total == sum(a.work for a in inside)
                priced += 1
        assert priced == 37 + 11


class TestTheDBMSSearchIsIdentityOnWhatTheStratumExtracted:
    """Is a DBMS search ever non-identity after the stratum's?  Counted: never.

    The backstop to :class:`TestTheStratumsSearchSubsumesTheDBMSs`, with
    :func:`dbms_search` as the oracle: on a plan the stratum produced it
    returns each fragment it is given — 0 non-identity of 37
    (``WORKLOAD_QUERIES``) + 11 (the ledger's seven statements) + 172 (the
    150 generated plans below).  Hypothesis derives the derandomized draw
    from the generated test's source, so editing that test redraws its
    plans and moves the 172.
    """

    @staticmethod
    def check(database, plan, spec):
        outcome = database.optimize_plan(plan, spec)
        assert outcome.degraded is None
        assert outcome.chosen_plan is outcome.search.best_plan
        fragments = ts_fragments(outcome.chosen_plan)
        for fragment in fragments:
            assert dbms_search(database, fragment).best_plan == fragment
        return len(fragments)

    def test_registry_workloads(self, temporal_db):
        total = sum(self.check(temporal_db, *query.build()) for query in WORKLOAD_QUERIES)
        assert total == 37

    def test_ledger_statements(self):
        database = build_database(12, 0)
        total = sum(
            self.check(database, *database.parse(statement.sql))
            for statement in STATEMENTS.values()
        )
        assert (len(STATEMENTS), total) == (7, 11)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(plan=st.one_of(conventional_plans(), join_shaped_plans()))
    def test_generated_conventional_and_join_plans(self, plan):
        order = derive_order(plan)
        spec = QueryResultSpec.list(order) if order else QueryResultSpec.multiset()
        assert self.check(TemporalDatabase(), TransferToStratum(plan), spec) >= 1
