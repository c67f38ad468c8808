"""Figure 6 — operation trees with properties and applicability regions.

Reproduces the Section 6 walk-through: starting from the initial plan of
Figure 2(a), the transfer is pushed down, the redundant outer ``rdupT`` is
removed (rule D2), the coalescing is pushed below the temporal difference
(rule C10), the right-branch coalescing is dropped (rule C2), and the sort is
pushed down / moved into the DBMS.  Every intermediate plan is annotated with
the ⟨OrderRequired, DuplicatesRelevant, PeriodPreserving⟩ flags exactly as
Figure 6 prints them, and each rewrite's applicability is established through
the Figure 5 property checks (never by fiat).
"""

from repro.core.applicability import is_rule_applicable, results_acceptable
from repro.core.operations import Coalescing, TemporalDifference, TemporalDuplicateElimination
from repro.core.properties import annotated_pretty
from repro.core.rules import rules_by_name
from repro.workloads import expected_result_relation

from .conftest import PAPER_STATEMENT, banner, make_paper_database

RULES = rules_by_name()


def walkthrough():
    """Apply the Section 6 rewrite sequence, returning the intermediate plans."""
    database = make_paper_database()
    plan, spec = database.parse(PAPER_STATEMENT)
    steps = [("initial plan (Figure 2(a))", plan)]

    def apply(rule_name, path, current):
        application = is_rule_applicable(current, path, RULES[rule_name], spec)
        assert application is not None, f"{rule_name} must be applicable at {path}"
        return current.replace_at(path, application.replacement)

    # Push the transfer down: the stratum takes over the sort, the
    # coalescing, the outer rdupT, the temporal difference and the inner
    # rdupT, leaving only the base-table projections in the DBMS.
    current = apply("T-to-stratum", (), plan)          # sort out of the DBMS (≡L: sort)
    current = apply("T-to-stratum", (0,), current)     # coalescing to the stratum
    current = apply("T-to-stratum", (0, 0), current)   # outer rdupT to the stratum
    # Remove the now-redundant outer rdupT (rule D2).
    current = apply("D2", (0, 0), current)
    current = apply("T-to-stratum", (0, 0), current)   # temporal difference to the stratum
    current = apply("T-to-stratum", (0, 0, 0), current)  # inner rdupT to the stratum
    steps.append(("after pushing TS down and removing the outer rdupT (D2)", current))
    # Push the coalescing below the temporal difference (rule C10): Figure 6(a).
    current = apply("C10", (0,), current)
    steps.append(("after pushing coalescing below the difference (C10) — Figure 6(a)", current))
    # Remove the coalescing on the difference's right branch (rule C2): order
    # and periods need not be preserved there.
    current = apply("C2", (0, 1), current)
    # Push the sort into the left branch of the difference and below the
    # coalescing (the paper additionally moves it into the DBMS; this
    # library's rule set stops above the stratum-side rdupT): Figure 6(b).
    current = apply("S-push-diffT", (), current)
    current = apply("S-push-coal", (0,), current)
    steps.append(
        ("after dropping the right-branch coalescing (C2) and pushing the sort — Figure 6(b)", current)
    )
    return spec, steps


def test_figure6_walkthrough():
    spec, steps = walkthrough()
    final = steps[-1][1]
    # The final plan keeps exactly one rdupT (guarding the difference's left
    # argument) and performs the coalescing below the difference.
    rdupt_nodes = [node for _, node in final.locations() if isinstance(node, TemporalDuplicateElimination)]
    assert len(rdupt_nodes) == 1
    difference_nodes = [node for _, node in final.locations() if isinstance(node, TemporalDifference)]
    assert len(difference_nodes) == 1
    assert isinstance(difference_nodes[0].left, Coalescing)
    print(banner("Figure 6 — operation trees with properties"))
    for title, plan in steps:
        print(f"\n{title}:")
        print(annotated_pretty(plan, spec))


def test_figure6_rewritten_plans_stay_correct():
    database = make_paper_database()
    spec, steps = walkthrough()
    expected = expected_result_relation()
    for _, plan in steps:
        assert results_acceptable(expected, database.run_plan(plan), spec)
