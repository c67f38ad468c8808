"""Figure 4 — the transformation-rule catalogue.

Regenerates the rule listing (name, equivalence type, statement) for the
duplicate-elimination, coalescing and sorting rules of Figure 4 together with
the conventional and transfer rules of Sections 4.1 and 4.5, and runs an
empirical verification sweep: every rule is applied to a matching plan over
the paper's data and the declared equivalence of the rewrite is checked.
"""

from repro.core.equivalence import equivalent
from repro.core.operations.base import EvaluationContext
from repro.core.relation import Relation
from repro.core.rules import (
    COALESCING_RULES,
    CONVENTIONAL_RULES,
    DEFAULT_RULES,
    DUPLICATE_RULES,
    SORTING_RULES,
    TRANSFER_RULES,
)
from repro.core.schema import RelationSchema, STRING
from repro.workloads import figure3_r1

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.test_rules_property_based import scenarios  # noqa: E402

from .conftest import banner

CONTEXT = EvaluationContext()


def build_scenarios():
    narrow = figure3_r1()
    narrow = Relation.from_rows(
        RelationSchema.temporal([("Name", STRING)], name="N"),
        [(tup["EmpName"], tup["T1"], tup["T2"]) for tup in narrow],
    )
    other = Relation.from_rows(
        RelationSchema.temporal([("Name", STRING)], name="N"),
        [("John", 2, 5), ("Mia", 1, 3), ("Anna", 4, 9)],
    )
    from repro.core.schema import INTEGER

    snapshot_schema = RelationSchema.snapshot([("Name", STRING), ("Amount", INTEGER)], name="C")
    s1 = Relation.from_rows(snapshot_schema, [("John", 1), ("John", 1), ("Anna", 2), ("Mia", 3)])
    s2 = Relation.from_rows(snapshot_schema, [("John", 1), ("Mia", 3)])
    return scenarios(narrow, other, s1, s2)


def verify_catalogue():
    plans = build_scenarios()
    verified = 0
    for rule in DEFAULT_RULES:
        for plan in plans:
            application = rule.apply(plan)
            if application is None:
                continue
            declared = application.equivalence or rule.equivalence
            original = plan.evaluate(CONTEXT)
            rewritten = application.replacement.evaluate(CONTEXT)
            assert equivalent(declared, original, rewritten), rule.name
            verified += 1
    return verified


def test_figure4_rule_catalogue_verification():
    verified = verify_catalogue()
    assert verified >= 40
    print(banner("Figure 4 — transformation rules (verified on example data)"))
    groups = [
        ("Duplicate elimination rules (D)", DUPLICATE_RULES),
        ("Coalescing rules (C)", COALESCING_RULES),
        ("Sorting rules (S)", SORTING_RULES),
        ("Conventional rules (Section 4.1)", CONVENTIONAL_RULES),
        ("Transfer rules (Section 4.5)", TRANSFER_RULES),
    ]
    for title, rules in groups:
        print(f"\n{title}:")
        for rule in rules:
            print(f"  {rule.name:<16} [≡{rule.equivalence.value:<3}] {rule.description}")
    print(f"\nrule applications verified: {verified}")


def test_figure4_catalogue_size():
    names = [rule.name for rule in DEFAULT_RULES]
    assert len(names) == len(set(names))
    assert {"D1", "D2", "D3", "D4", "D5", "D6"} <= set(names)
    assert {"C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"} <= set(names)
    assert {"S1", "S2", "S3"} <= set(names)
