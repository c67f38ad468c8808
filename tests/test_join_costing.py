"""The σ(×) → ⋈ rewrite and the algorithm-based join cost model.

Three layers of guarantees:

* **rewrite correctness** — fusing a selection over a (temporal) product
  into a ``Join``/``TemporalJoin`` idiom node produces the *identical tuple
  sequence*, under both reference evaluation and the stratum's physical
  execution (hypothesis differential suite);
* **costing** — the idiom nodes are priced from the physical algorithm
  their predicate split selects, per engine, and whole-plan costing of the
  expanded σ-over-product form never exceeds the expanded two-node price
  (which keeps the memo search's per-shell costing exact);
* **agreement** — the memo search still finds exactly the exhaustive
  minimum on the join workload queries, and the chosen plans use the idiom
  nodes the rewrite introduces.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    CostModel,
    choose_best_plan,
    cost_annotations,
    estimate_cost,
    measure_cost,
    minimal_operator_work,
    operator_work,
)
from repro.core.enumeration import enumerate_plans
from repro.core.equivalence import EquivalenceType
from repro.core.lowering import DBMS_ENGINE, STRATUM_ENGINE
from repro.core.expressions import And, AttributeRef, Comparison, ComparisonOperator
from repro.core.operations import (
    BaseRelation,
    CartesianProduct,
    Join,
    LiteralRelation,
    Projection,
    Selection,
    TemporalCartesianProduct,
    TemporalJoin,
    TransferToStratum,
)
from repro.core.operations.base import EvaluationContext
from repro.core.rules import DEFAULT_RULES, JOIN_RULES, rules_by_name
from repro.search import MemoSearch
from repro.stratum import TemporalDatabase
from repro.workloads import (
    EMPLOYEE_SCHEMA,
    PROJECT_SCHEMA,
    employee_relation,
    equijoin_query,
    join_cascade_query,
    project_relation,
    temporal_join_query,
)

from .strategies import join_predicates, join_right_relations, temporal_relations

STATISTICS = {"EMPLOYEE": 5, "PROJECT": 8}

FUSE_PRODUCT = rules_by_name()["σ×→⋈"]
FUSE_TEMPORAL_PRODUCT = rules_by_name()["σ×T→⋈T"]


def _eq(a: str, b: str) -> Comparison:
    return Comparison(ComparisonOperator.EQ, AttributeRef(a), AttributeRef(b))


def _lt(a: str, b: str) -> Comparison:
    return Comparison(ComparisonOperator.LT, AttributeRef(a), AttributeRef(b))


def _scan_pair():
    return (
        BaseRelation("EMPLOYEE", EMPLOYEE_SCHEMA),
        BaseRelation("PROJECT", PROJECT_SCHEMA),
    )


def _context() -> EvaluationContext:
    return EvaluationContext(
        {"EMPLOYEE": employee_relation(), "PROJECT": project_relation()}
    )


# ---------------------------------------------------------------------------
# Rule mechanics
# ---------------------------------------------------------------------------


class TestJoinRules:
    def test_fuses_selection_over_product(self):
        left, right = _scan_pair()
        predicate = _eq("1.EmpName", "2.EmpName")
        node = Selection(predicate, CartesianProduct(left, right))
        result = FUSE_PRODUCT.apply(node)
        assert result is not None
        assert isinstance(result.replacement, Join)
        assert result.replacement.predicate == predicate
        assert result.replacement.children == node.child.children

    def test_fuses_selection_over_temporal_product(self):
        left, right = _scan_pair()
        predicate = _eq("1.EmpName", "2.EmpName")
        node = Selection(predicate, TemporalCartesianProduct(left, right))
        result = FUSE_TEMPORAL_PRODUCT.apply(node)
        assert result is not None
        assert isinstance(result.replacement, TemporalJoin)
        assert result.replacement.predicate == predicate

    def test_rules_do_not_match_other_shapes(self):
        left, right = _scan_pair()
        rule = FUSE_PRODUCT
        temporal_rule = FUSE_TEMPORAL_PRODUCT
        bare = CartesianProduct(left, right)
        over_projection = Selection(
            _eq("EmpName", "Dept"), Projection(["EmpName", "Dept"], left)
        )
        for node in (bare, over_projection, Join(_eq("1.EmpName", "2.EmpName"), left, right)):
            assert rule.apply(node) is None
            assert temporal_rule.apply(node) is None
        # Each rule only matches its own product flavour.
        conventional = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        temporal = Selection(
            _eq("1.EmpName", "2.EmpName"), TemporalCartesianProduct(left, right)
        )
        assert temporal_rule.apply(conventional) is None
        assert rule.apply(temporal) is None

    def test_rules_are_list_equivalences_in_the_default_set(self):
        for rule in JOIN_RULES:
            assert rule.equivalence is EquivalenceType.LIST
            assert rule in DEFAULT_RULES
        # The statement search, which also explores below every TS, fuses too.
        statement_rule_names = {rule.name for rule in TemporalDatabase().optimizer.index.rules}
        assert {"σ×→⋈", "σ×T→⋈T"} <= statement_rule_names

    def test_rewrite_is_size_decreasing(self):
        left, right = _scan_pair()
        node = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        replacement = FUSE_PRODUCT.apply(node).replacement
        assert replacement.size() < node.size()


# ---------------------------------------------------------------------------
# Differential suite: rewritten plans produce the identical tuple sequence
# ---------------------------------------------------------------------------


@st.composite
def fusible_plans(draw):
    """A σ-over-(temporal)-product plan over literal relations."""
    left = LiteralRelation(draw(temporal_relations(max_size=6)))
    right = LiteralRelation(draw(join_right_relations(max_size=6)))
    temporal = draw(st.booleans())
    predicate = draw(join_predicates(temporal=temporal))
    product = (TemporalCartesianProduct if temporal else CartesianProduct)(left, right)
    return Selection(predicate, product)


class TestRewriteDifferential:
    @settings(max_examples=60, deadline=None)
    @given(plan=fusible_plans())
    def test_reference_evaluation_identical_tuple_sequence(self, plan):
        rule = (
            FUSE_TEMPORAL_PRODUCT
            if isinstance(plan.child, TemporalCartesianProduct)
            else FUSE_PRODUCT
        )
        rewritten = rule.apply(plan).replacement
        context = EvaluationContext()
        reference = plan.evaluate(context)
        fused = rewritten.evaluate(context)
        assert fused.schema.attributes == reference.schema.attributes
        assert list(fused.tuples) == list(reference.tuples)

    @settings(max_examples=60, deadline=None)
    @given(plan=fusible_plans())
    def test_stratum_execution_identical_tuple_sequence(self, plan):
        """The idiom node lowers onto the same physical operator as the
        fused σ-over-product: both paths must stay list-compatible with the
        reference semantics."""
        rule = (
            FUSE_TEMPORAL_PRODUCT
            if isinstance(plan.child, TemporalCartesianProduct)
            else FUSE_PRODUCT
        )
        rewritten = rule.apply(plan).replacement
        database = TemporalDatabase()
        reference = plan.evaluate(EvaluationContext())
        assert list(database.run_plan(plan).tuples) == list(reference.tuples)
        assert list(database.run_plan(rewritten).tuples) == list(reference.tuples)


# ---------------------------------------------------------------------------
# The algorithm-based cost formulas
# ---------------------------------------------------------------------------


class TestJoinWorkFormulas:
    MODEL = CostModel()

    def _hash_join(self):
        left, right = _scan_pair()
        return Join(_eq("1.EmpName", "2.EmpName"), left, right)

    def _interval_join(self):
        left, right = _scan_pair()
        # Explicit ls < re ∧ rs < le overlap pair over the renamed periods.
        return Join(And(_lt("1.T1", "2.T2"), _lt("2.T1", "1.T2")), left, right)

    def _nested_loop_join(self):
        left, right = _scan_pair()
        return Join(_lt("1.T1", "2.T1"), left, right)

    def test_hash_join_is_probe_plus_weighted_build_plus_output(self):
        """Pin of the hash formula: probe + hash_build_weight·build + output.

        The build side is the *right* input (the physical operator builds on
        the right, probes with the left); building the table costs more per
        tuple than probing it, so the weight makes the optimizer prefer
        plans that build on the smaller input.
        """
        model = self.MODEL
        work = operator_work(self._hash_join(), (100.0, 200.0), 40.0, STRATUM_ENGINE)
        assert work == pytest.approx(100.0 + model.hash_build_weight * 200.0 + 40.0)

    def test_hash_build_weight_is_configurable(self):
        model = CostModel(hash_build_weight=3.5)
        work = operator_work(
            self._hash_join(), (100.0, 200.0), 40.0, STRATUM_ENGINE, model
        )
        assert work == pytest.approx(100.0 + 3.5 * 200.0 + 40.0)

    def test_hash_join_prefers_building_on_the_smaller_input(self):
        """With asymmetric inputs, build-on-small is strictly cheaper."""
        join = self._hash_join()
        build_small = operator_work(join, (200.0, 100.0), 40.0, STRATUM_ENGINE)
        build_large = operator_work(join, (100.0, 200.0), 40.0, STRATUM_ENGINE)
        assert build_small < build_large
        assert build_large - build_small == pytest.approx(
            (self.MODEL.hash_build_weight - 1.0) * 100.0
        )

    def test_interval_join_is_sort_plus_merge_plus_output(self):
        work = operator_work(self._interval_join(), (100.0, 200.0), 40.0, STRATUM_ENGINE)
        assert work == pytest.approx((100.0 + 200.0) * math.log2(200.0) + 40.0)

    def test_keyless_join_keeps_the_product_bound(self):
        work = operator_work(self._nested_loop_join(), (100.0, 200.0), 40.0, STRATUM_ENGINE)
        assert work == pytest.approx(100.0 * 200.0 + 40.0)

    def test_dbms_prices_the_hash_join_natively(self):
        model = self.MODEL
        work = operator_work(self._hash_join(), (100.0, 200.0), 40.0, DBMS_ENGINE)
        assert work == pytest.approx(
            (100.0 + model.hash_build_weight * 200.0 + 40.0) * model.dbms_speed
        )

    def test_dbms_prices_keyless_joins_as_filtered_products(self):
        """The substrate has no interval join: a keyless join runs there as a
        filter over the streamed product, so the product bound applies."""
        model = self.MODEL
        for join in (self._interval_join(), self._nested_loop_join()):
            work = operator_work(join, (100.0, 200.0), 40.0, DBMS_ENGINE)
            assert work == pytest.approx((100.0 * 200.0 + 40.0) * model.dbms_speed)

    def test_dbms_prices_temporal_joins_as_emulation(self):
        left, right = _scan_pair()
        join = TemporalJoin(_eq("1.EmpName", "2.EmpName"), left, right)
        model = self.MODEL
        work = operator_work(join, (100.0, 200.0), 40.0, DBMS_ENGINE)
        assert work == pytest.approx((100.0 * 200.0 + 40.0) * model.dbms_temporal_penalty)

    def test_nested_and_equi_conjuncts_hash_join_in_the_dbms(self):
        """Pricing and execution must find the same equi conjuncts: the DBMS
        executor flattens nested ``And`` nodes exactly like the split the
        cost model prices from, so a join priced as a hash join is executed
        as one (and never as a quadratic filter-over-product)."""
        from repro.core.expressions import Literal
        from repro.dbms.engine import ConventionalDBMS

        left, right = _scan_pair()
        nested = And(
            And(
                _eq("1.EmpName", "2.EmpName"),
                Comparison(ComparisonOperator.NE, AttributeRef("Dept"), Literal("Legal")),
            ),
            Comparison(ComparisonOperator.NE, AttributeRef("Prj"), Literal("P9")),
        )
        join = Join(nested, left, right)
        work = operator_work(join, (100.0, 200.0), 40.0, DBMS_ENGINE)
        assert work == pytest.approx(
            (100.0 + self.MODEL.hash_build_weight * 200.0 + 40.0) * self.MODEL.dbms_speed
        )
        dbms = ConventionalDBMS()
        dbms.load_relation("EMPLOYEE", employee_relation())
        dbms.load_relation("PROJECT", project_relation())
        physical = dbms.explain(join)
        assert "HashJoin" in physical
        assert "NestedLoopProduct" not in physical

    def test_minimal_operator_work_is_the_minimum_over_engines(self):
        for join in (self._hash_join(), self._interval_join(), self._nested_loop_join()):
            for cards in ((1.0, 2.0), (3.0, 2.0), (100.0, 200.0)):
                bound = minimal_operator_work(join, cards, 1.0, self.MODEL)
                per_engine = [
                    operator_work(join, cards, 1.0, engine, self.MODEL)
                    for engine in (STRATUM_ENGINE, DBMS_ENGINE)
                ]
                assert bound == pytest.approx(min(per_engine))
                assert all(bound <= work + 1e-12 for work in per_engine)

    def test_interval_work_monotone_in_inputs(self):
        join = self._interval_join()
        previous = 0.0
        for size in (2.0, 4.0, 16.0, 250.0):
            work = operator_work(join, (size, size), 0.0, STRATUM_ENGINE)
            assert work >= previous
            previous = work


# ---------------------------------------------------------------------------
# Whole-plan costing of the fused σ-over-product pair
# ---------------------------------------------------------------------------


class TestFusedPairCosting:
    def test_fused_product_line_is_free_and_sigma_carries_the_join(self):
        left, right = _scan_pair()
        plan = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        annotations = cost_annotations(plan, STATISTICS)
        assert annotations[(0,)].work == 0.0
        a, b = annotations[(0,)].input_cardinalities
        output = annotations[()].output_cardinality
        weight = CostModel().hash_build_weight
        assert annotations[()].work == pytest.approx(a + weight * b + output)

    def test_expanded_form_is_never_priced_above_the_two_node_form(self):
        """The cap that keeps memo-vs-exhaustive agreement exact."""
        left, right = _scan_pair()
        for product_type in (CartesianProduct, TemporalCartesianProduct):
            plan = Selection(_eq("1.EmpName", "2.EmpName"), product_type(left, right))
            fused_total = estimate_cost(plan, STATISTICS).total
            # Recompute the pair without fusion: product work plus σ work.
            annotations = cost_annotations(plan, STATISTICS)
            product_annotation = annotations[(0,)]
            pair_unfused = operator_work(
                plan.child,
                product_annotation.input_cardinalities,
                product_annotation.output_cardinality,
                STRATUM_ENGINE,
            ) + operator_work(
                plan,
                (product_annotation.output_cardinality,),
                annotations[()].output_cardinality,
                STRATUM_ENGINE,
            )
            leaf_cost = sum(
                annotations[path].work for path in ((0, 0), (0, 1))
            )
            assert fused_total <= leaf_cost + pair_unfused + 1e-9

    def test_fused_sigma_price_equals_the_idiom_node_price(self):
        """When the physical algorithm wins, σ(×) and ⋈ cost the same."""
        left, right = _scan_pair()
        expanded = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        idiom = Join(_eq("1.EmpName", "2.EmpName"), left, right)
        statistics = {"EMPLOYEE": 500, "PROJECT": 800}
        assert estimate_cost(expanded, statistics).total == pytest.approx(
            estimate_cost(idiom, statistics).total
        )

    def test_dbms_side_equi_pair_is_priced_as_the_hash_join_it_runs(self):
        """The DBMS executor fuses an equi σ(×) into a HashJoin; the fused
        pricing (estimated and measured) must follow it there — keyless and
        temporal pairs stay at the product bound the DBMS really pays."""
        model = CostModel()
        left, right = _scan_pair()
        equi = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        annotations = cost_annotations(equi, STATISTICS, engine=DBMS_ENGINE)
        assert annotations[(0,)].work == 0.0
        a, b = annotations[(0,)].input_cardinalities
        output = annotations[()].output_cardinality
        weight = model.hash_build_weight
        assert annotations[()].work == pytest.approx(
            (a + weight * b + output) * model.dbms_speed
        )
        measured = measure_cost(TransferToStratum(equi), _context())
        by_label = {label: work for (label, _, work) in measured.breakdown}
        employees, projects = employee_relation(), project_relation()
        result = equi.evaluate(_context())
        assert by_label[equi.child.label()] == 0.0
        assert by_label[equi.label()] == pytest.approx(
            (len(employees) + weight * len(projects) + len(result)) * model.dbms_speed
        )
        # A keyless pair is *not* fused by the DBMS: product bound stays.
        keyless = Selection(_lt("1.T1", "2.T1"), CartesianProduct(left, right))
        keyless_annotations = cost_annotations(keyless, STATISTICS, engine=DBMS_ENGINE)
        assert keyless_annotations[(0,)].work > 0.0

    def test_upper_bound_stays_attainable_without_the_join_rules(self):
        """Whole-plan costing prices a fused σ(×) below what the extraction
        can charge shell-wise; the search's upper bound must not inherit
        that price when the rule set cannot reach the ⋈ form, or every
        alternative (including the seed's own) gets pruned."""
        from repro.core.expressions import Literal
        from repro.core.query import QueryResultSpec
        from repro.core.rules import CONVENTIONAL_RULES

        left, right = _scan_pair()
        plan = Selection(
            Comparison(ComparisonOperator.EQ, AttributeRef("Dept"), Literal("Sales")),
            Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right)),
        )
        result = MemoSearch(rules=CONVENTIONAL_RULES).optimize(  # no σ(×) → ⋈ rewrite available
            plan, QueryResultSpec.multiset(), {"EMPLOYEE": 500, "PROJECT": 800}
        )
        # The catalogue must still improve the seed (push the one-sided
        # conjunct into the product's left argument) instead of silently
        # pruning the whole frontier and returning the seed unchanged.
        assert result.rules_applied, result.best_plan.pretty()
        assert result.best_plan.signature() != plan.signature()

    def test_measure_cost_charges_the_fused_join_at_actuals(self):
        left, right = _scan_pair()
        plan = Selection(_eq("1.EmpName", "2.EmpName"), CartesianProduct(left, right))
        context = _context()
        measured = measure_cost(plan, context)
        by_label = {label: work for label, _, work in measured.breakdown}
        employees, projects = employee_relation(), project_relation()
        result = plan.evaluate(_context())
        assert by_label[plan.child.label()] == 0.0
        assert by_label[plan.label()] == pytest.approx(
            len(employees)
            + CostModel().hash_build_weight * len(projects)
            + len(result)
        )


# ---------------------------------------------------------------------------
# Memo-vs-exhaustive pins on the join workload queries
# ---------------------------------------------------------------------------


def _contains_idiom(plan) -> bool:
    return any(isinstance(node, (Join, TemporalJoin)) for _, node in plan.locations())


@pytest.mark.parametrize(
    "build", [equijoin_query, temporal_join_query, join_cascade_query],
    ids=["equijoin", "temporal-join", "join-cascade"],
)
class TestJoinQueryPins:
    def test_memo_matches_exhaustive_and_chooses_the_idiom(self, build):
        plan, spec = build()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        assert not enumeration.statistics.truncated
        _, exhaustive_cost = choose_best_plan(enumeration.plans, STATISTICS)
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        assert result.best_cost.total == pytest.approx(exhaustive_cost.total, rel=1e-12)
        assert _contains_idiom(result.best_plan), result.best_plan.pretty()
        assert result.best_plan in enumeration

    def test_chosen_plan_runs_list_compatibly_in_the_stratum(self, build):
        plan, spec = build()
        result = MemoSearch().optimize(plan, spec, STATISTICS)
        database = TemporalDatabase()
        database.register("EMPLOYEE", employee_relation())
        database.register("PROJECT", project_relation())
        produced = database.run_plan(result.best_plan)
        reference = result.best_plan.evaluate(database.evaluation_context())
        assert list(produced.tuples) == list(reference.tuples)


class TestAgreementWithoutTemporalStatistics:
    """⋈T and σ(×T) must estimate identically in *every* estimator state.

    With profiles but no temporal statistics the estimator has no pooled
    overlap fraction; both the temporal product and the temporal join then
    fall back to the estimator's ``fallback_overlap`` constant — never to
    the fully-constant model for one form only, which would price the two
    ≡L-equivalent shapes apart and cost the memo search its exactness.
    """

    def _workload(self):
        from repro.core.relation import Relation
        from repro.core.schema import INTEGER, RelationSchema
        from repro.stats import CardinalityEstimator

        schema_a = RelationSchema.temporal([("K", INTEGER)], name="A")
        schema_b = RelationSchema.temporal([("K", INTEGER)], name="B")
        rows_a = [(i % 7, 1 + i % 5, 6 + i % 5) for i in range(40)]
        rows_b = [(i % 3, 2 + i % 4, 8 + i % 4) for i in range(60)]
        relations = {
            "A": Relation.from_rows(schema_a, rows_a),
            "B": Relation.from_rows(schema_b, rows_b),
        }
        # Profile only the *value* columns: snapshot projections carry no
        # period statistics, so the pooled overlap fraction is None.
        snapshot = {
            name: Relation.from_rows(
                RelationSchema.snapshot([("K", INTEGER)], name=name),
                [(row[0],) for row in rows],
            )
            for name, rows in (("A", rows_a), ("B", rows_b))
        }
        estimator = CardinalityEstimator.from_relations(snapshot)
        assert estimator.overlap_fraction is None
        plan = TransferToStratum(
            Selection(
                _eq("1.K", "2.K"),
                TemporalCartesianProduct(
                    BaseRelation("A", schema_a), BaseRelation("B", schema_b)
                ),
            )
        )
        statistics = {name: len(relation) for name, relation in relations.items()}
        return plan, statistics, estimator

    def test_idiom_and_expansion_estimate_identically(self):
        from repro.core.cost import estimate_cardinality

        plan, statistics, estimator = self._workload()
        body = plan.child
        idiom = TemporalJoin(body.predicate, *body.child.children)
        assert estimate_cardinality(
            body, statistics, estimator=estimator
        ) == pytest.approx(estimate_cardinality(idiom, statistics, estimator=estimator))

    def test_tuned_model_overlap_is_honoured_without_temporal_statistics(self):
        """A caller-configured ``CostModel.overlap_fraction`` keeps steering
        temporal estimates even when the estimator has no temporal profile —
        the model's constant is handed down, not replaced by the default."""
        from repro.core.cost import estimate_cardinality

        plan, statistics, estimator = self._workload()
        product = plan.child.child
        tuned = CostModel(overlap_fraction=0.5)
        expected = (
            estimate_cardinality(product.children[0], statistics, tuned, estimator)
            * estimate_cardinality(product.children[1], statistics, tuned, estimator)
            * 0.5
        )
        assert estimate_cardinality(
            product, statistics, tuned, estimator
        ) == pytest.approx(expected)

    def test_memo_matches_exhaustive_without_overlap_statistics(self):
        from repro.core.query import QueryResultSpec

        plan, statistics, estimator = self._workload()
        spec = QueryResultSpec.multiset()
        enumeration = enumerate_plans(plan, spec, max_plans=60000)
        assert not enumeration.statistics.truncated
        _, exhaustive_cost = choose_best_plan(
            enumeration.plans, statistics, estimator=estimator
        )
        result = MemoSearch().optimize(plan, spec, statistics, estimator=estimator)
        assert result.best_cost.total == pytest.approx(exhaustive_cost.total, rel=1e-12)
