"""Table 1 — overview of the operations.

Regenerates the table's four descriptive columns (result order, result
cardinality, duplicate behaviour, coalescing behaviour) from the operator
classes' metadata, verifies each row against the observed behaviour of the
operation on a synthetic workload, evaluating every fundamental operation.
"""

from repro.core.analysis import derive_cardinality_bounds, derive_order
from repro.core.expressions import count, equals
from repro.core.operations import (
    ALL_OPERATION_TYPES,
    Aggregation,
    CartesianProduct,
    Coalescing,
    Difference,
    DuplicateElimination,
    LiteralRelation,
    Projection,
    Selection,
    Sort,
    TemporalAggregation,
    TemporalCartesianProduct,
    TemporalDifference,
    TemporalDuplicateElimination,
    TemporalUnion,
    TransferToDBMS,
    TransferToStratum,
    Union,
    UnionAll,
)
from repro.core.operations.base import EvaluationContext
from repro.core.order_spec import OrderSpec
from repro.core.relation import Relation
from repro.core.schema import RelationSchema, STRING
from repro.workloads import WorkloadParameters, generate_employees

from .conftest import banner

CONTEXT = EvaluationContext()

EMPLOYEES = generate_employees(
    WorkloadParameters(tuples=300, entities=40, overlap_ratio=0.2, adjacency_ratio=0.25, seed=23)
)
NARROW_SCHEMA = RelationSchema.temporal([("EmpName", STRING)], name="E")
NARROW = Relation.from_rows(
    NARROW_SCHEMA, [(tup["EmpName"], tup["T1"], tup["T2"]) for tup in EMPLOYEES]
)
OTHER = Relation.from_rows(
    NARROW_SCHEMA, [(tup["EmpName"], tup["T1"], tup["T2"]) for tup in EMPLOYEES[:150]]
)


def operation_instances():
    """One instance of every Table 1 operation over the synthetic workload."""
    base = LiteralRelation(EMPLOYEES)
    narrow = LiteralRelation(NARROW)
    other = LiteralRelation(OTHER)
    return [
        Selection(equals("Dept", "Sales"), base),
        Projection(["EmpName", "T1", "T2"], base),
        UnionAll(narrow, other),
        CartesianProduct(
            LiteralRelation(Relation(EMPLOYEES.schema, EMPLOYEES.tuples[:20])),
            LiteralRelation(Relation(NARROW.schema, NARROW.tuples[:20])),
        ),
        Difference(narrow, other),
        Aggregation(["EmpName"], [count(alias="n")], base),
        DuplicateElimination(narrow),
        TemporalCartesianProduct(
            LiteralRelation(Relation(NARROW.schema, NARROW.tuples[:20])),
            LiteralRelation(
                Relation.from_rows(
                    RelationSchema.temporal([("Dept", STRING)], name="D"),
                    [(tup["Dept"], tup["T1"], tup["T2"]) for tup in EMPLOYEES[:20]],
                )
            ),
        ),
        TemporalDifference(narrow, other),
        TemporalAggregation(["EmpName"], [count(alias="n")], LiteralRelation(Relation(NARROW.schema, NARROW.tuples[:80]))),
        TemporalDuplicateElimination(narrow),
        Union(narrow, other),
        TemporalUnion(narrow, other),
        Sort(OrderSpec.ascending("EmpName", "T1"), base),
        Coalescing(narrow),
        TransferToStratum(base),
        TransferToDBMS(base),
    ]


def evaluate_all():
    return [operation.evaluate(CONTEXT) for operation in operation_instances()]


def test_table1_metadata_rows():
    results = evaluate_all()
    operations = operation_instances()
    print(banner("Table 1 — overview of operations"))
    header = f"{'operation':<28} {'order (paper)':<30} {'cardinality (paper)':<30} {'duplicates':<12} {'coalescing':<10}"
    print(header)
    print("-" * len(header))
    for operation in operations:
        print(
            f"{operation.symbol:<28} {operation.paper_order:<30} "
            f"{operation.paper_cardinality:<30} {operation.duplicate_behavior.value:<12} "
            f"{operation.coalescing_behavior.value:<10}"
        )
    # Observed behaviour must match the declared metadata.
    for operation, result in zip(operations, results):
        low, high = derive_cardinality_bounds(operation)
        assert low <= result.cardinality <= high, operation.label()
        derived = derive_order(operation)
        if not derived.is_unordered():
            assert list(result.sorted_by(derived).tuples) == list(result.tuples), operation.label()


def test_table1_every_fundamental_operation_is_covered():
    covered = {type(operation) for operation in operation_instances()}
    assert covered == set(ALL_OPERATION_TYPES)


def test_table1_duplicate_and_coalescing_columns():
    from repro.core.operations.base import CoalescingBehavior, DuplicateBehavior

    expectations = {
        "Selection": (DuplicateBehavior.RETAINS, CoalescingBehavior.RETAINS),
        "Projection": (DuplicateBehavior.GENERATES, CoalescingBehavior.DESTROYS),
        "UnionAll": (DuplicateBehavior.GENERATES, CoalescingBehavior.DESTROYS),
        "CartesianProduct": (DuplicateBehavior.RETAINS, CoalescingBehavior.NOT_APPLICABLE),
        "Difference": (DuplicateBehavior.RETAINS, CoalescingBehavior.NOT_APPLICABLE),
        "Aggregation": (DuplicateBehavior.ELIMINATES, CoalescingBehavior.NOT_APPLICABLE),
        "DuplicateElimination": (DuplicateBehavior.ELIMINATES, CoalescingBehavior.NOT_APPLICABLE),
        "TemporalCartesianProduct": (DuplicateBehavior.RETAINS, CoalescingBehavior.DESTROYS),
        "TemporalDifference": (DuplicateBehavior.RETAINS, CoalescingBehavior.DESTROYS),
        "TemporalAggregation": (DuplicateBehavior.ELIMINATES, CoalescingBehavior.DESTROYS),
        "TemporalDuplicateElimination": (DuplicateBehavior.ELIMINATES, CoalescingBehavior.DESTROYS),
        "Union": (DuplicateBehavior.RETAINS, CoalescingBehavior.NOT_APPLICABLE),
        "TemporalUnion": (DuplicateBehavior.RETAINS, CoalescingBehavior.DESTROYS),
        "Sort": (DuplicateBehavior.RETAINS, CoalescingBehavior.RETAINS),
        "Coalescing": (DuplicateBehavior.RETAINS, CoalescingBehavior.ENFORCES),
    }
    by_name = {operation.__name__: operation for operation in ALL_OPERATION_TYPES}
    for name, (duplicates, coalescing) in expectations.items():
        assert by_name[name].duplicate_behavior is duplicates, name
        assert by_name[name].coalescing_behavior is coalescing, name
