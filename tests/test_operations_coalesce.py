"""Tests for the coalescing operation (coalT)."""

from hypothesis import given

from repro.core.equivalence import snapshot_multiset_equivalent
from repro.core.operations import Coalescing, LiteralRelation, TemporalDuplicateElimination
from repro.core.operations.base import EvaluationContext
from repro.core.operations.coalesce import coalesce_tuples
from repro.core.relation import Relation
from repro.workloads import EMPLOYEE_NAME_SCHEMA

from .strategies import NARROW_TEMPORAL_SCHEMA, narrow_temporal_relations, temporal_relations

CONTEXT = EvaluationContext()


def run(op):
    return op.evaluate(CONTEXT)


def rel(*rows):
    return Relation.from_rows(NARROW_TEMPORAL_SCHEMA, rows)


class TestCoalescing:
    def test_merges_adjacent_value_equivalent_tuples(self):
        result = run(Coalescing(LiteralRelation(rel(("a", 1, 3), ("a", 3, 5)))))
        assert [(tup["T1"], tup["T2"]) for tup in result] == [(1, 5)]

    def test_chains_of_adjacency_merge_fully(self):
        result = run(Coalescing(LiteralRelation(rel(("a", 1, 3), ("a", 5, 7), ("a", 3, 5)))))
        assert [(tup["T1"], tup["T2"]) for tup in result] == [(1, 7)]

    def test_overlapping_periods_are_not_merged(self):
        """Minimality (Section 2.2): coalescing has no effect on snapshot duplicates."""
        relation = rel(("a", 1, 4), ("a", 3, 6))
        result = run(Coalescing(LiteralRelation(relation)))
        assert result.as_list() == relation.as_list()

    def test_different_values_are_not_merged(self):
        relation = rel(("a", 1, 3), ("b", 3, 5))
        result = run(Coalescing(LiteralRelation(relation)))
        assert result.as_list() == relation.as_list()

    def test_retains_regular_duplicates(self):
        relation = rel(("a", 1, 3), ("a", 1, 3))
        result = run(Coalescing(LiteralRelation(relation)))
        # Identical periods overlap, so they are not merged: duplicates stay.
        assert result.cardinality == 2

    def test_merged_tuple_takes_position_of_earliest_participant(self):
        relation = rel(("b", 1, 2), ("a", 5, 7), ("b", 9, 10), ("a", 3, 5))
        result = run(Coalescing(LiteralRelation(relation)))
        assert [(tup["Name"], tup["T1"], tup["T2"]) for tup in result] == [
            ("b", 1, 2),
            ("a", 3, 7),
            ("b", 9, 10),
        ]

    def test_empty_relation(self):
        assert run(Coalescing(LiteralRelation(Relation.empty(NARROW_TEMPORAL_SCHEMA)))).is_empty()

    def test_composition_with_rdupt_gives_maximal_periods(self):
        """coalT(rdupT(r)) achieves the effect of the Böhlen et al. coalescing."""
        relation = rel(("a", 1, 4), ("a", 3, 6), ("a", 6, 8))
        composed = run(
            Coalescing(TemporalDuplicateElimination(LiteralRelation(relation)))
        )
        assert [(tup["T1"], tup["T2"]) for tup in composed] == [(1, 8)]


class TestCoalescingProperties:
    @given(narrow_temporal_relations())
    def test_result_is_coalesced(self, relation):
        result = run(Coalescing(LiteralRelation(relation)))
        assert result.is_coalesced()

    @given(narrow_temporal_relations())
    def test_snapshot_multiset_equivalent_to_argument(self, relation):
        """Rule C2: coalT(r) ≡SM r."""
        result = run(Coalescing(LiteralRelation(relation)))
        if relation.is_empty():
            assert result.is_empty()
        else:
            assert snapshot_multiset_equivalent(result, relation)

    @given(narrow_temporal_relations())
    def test_never_increases_cardinality(self, relation):
        result = run(Coalescing(LiteralRelation(relation)))
        assert result.cardinality <= relation.cardinality

    @given(narrow_temporal_relations())
    def test_idempotent(self, relation):
        once = run(Coalescing(LiteralRelation(relation)))
        twice = run(Coalescing(LiteralRelation(once)))
        assert once.as_list() == twice.as_list()

    @given(narrow_temporal_relations())
    def test_preserves_regular_duplicate_freedom(self, relation):
        """Table 1: coalescing retains duplicates (never creates them).

        The retention guarantee presumes the paper's usage assumption that
        the argument has no duplicates in snapshots (otherwise merging two
        adjacent periods can recreate an existing tuple).
        """
        if relation.has_duplicates() or relation.has_snapshot_duplicates():
            return
        result = run(Coalescing(LiteralRelation(relation)))
        assert not result.has_duplicates()


def _coalesce_global_scan(tuples):
    """The historical reference formulation: the earliest-pair-first fixpoint
    re-scanning the *whole* list after every merge.  Kept here verbatim as the
    regression oracle for the per-equivalence-class rewrite of
    ``coalesce_tuples``, whose output must stay byte-identical."""
    entries = [[index, tup] for index, tup in enumerate(tuples)]
    changed = True
    while changed:
        changed = False
        for i in range(len(entries)):
            if changed:
                break
            for j in range(i + 1, len(entries)):
                first, second = entries[i][1], entries[j][1]
                if not first.value_equivalent(second):
                    continue
                if not first.period.is_adjacent_to(second.period):
                    continue
                merged_period = first.period.merge(second.period)
                entries[i] = [min(entries[i][0], entries[j][0]), first.with_period(merged_period)]
                del entries[j]
                changed = True
                break
    entries.sort(key=lambda entry: entry[0])
    return [entry[1] for entry in entries]


class TestPerClassFixpointMatchesGlobalScan:
    """The per-class restart optimisation is byte-identical to the old scan."""

    @given(narrow_temporal_relations(max_size=10))
    def test_narrow_relations(self, relation):
        tuples = list(relation.tuples)
        assert coalesce_tuples(tuples) == _coalesce_global_scan(tuples)

    @given(temporal_relations(max_size=10))
    def test_wide_relations(self, relation):
        tuples = list(relation.tuples)
        assert coalesce_tuples(tuples) == _coalesce_global_scan(tuples)

    def test_interleaved_classes_keep_global_positions(self):
        relation = rel(("b", 1, 2), ("a", 5, 7), ("b", 2, 4), ("a", 3, 5), ("c", 1, 2))
        assert [
            (tup["Name"], tup["T1"], tup["T2"])
            for tup in coalesce_tuples(list(relation.tuples))
        ] == [("b", 1, 4), ("a", 3, 7), ("c", 1, 2)]

    def test_pair_scan_reads_each_period_once(self, monkeypatch):
        """``Tuple.period`` builds a ``Period`` per access; the fixpoint's pair
        scan compares stored periods, so a class of n tuples costs n reads
        whatever the number of comparisons and restarts."""
        from repro.core.tuples import Tuple

        reads = []
        period = Tuple.period
        monkeypatch.setattr(
            Tuple, "period", property(lambda tup: reads.append(tup) or period.fget(tup))
        )
        tuples = list(rel(*(("a", 2 * k, 2 * k + 1) for k in range(12))).tuples)
        tuples += list(rel(*(("a", 2 * k + 1, 2 * k + 2) for k in range(11))).tuples)
        (merged,) = coalesce_tuples(tuples)
        assert (merged["T1"], merged["T2"]) == (0, 23)
        assert len(reads) == len(tuples)
