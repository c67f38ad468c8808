"""The rule catalogue on every input of a small scope (``tests/small_scope.py``).

One name, periods inside [1, 4], at most one tuple in ``t1`` and three in
``t2``: 7 × 259 = 1 813 temporal input pairs, every list in every order; then
every snapshot pair of at most three and two tuples over two names and two
amounts.  Each rule runs on the scenario plans its pattern matches.
"""

from repro.core.rules import DEFAULT_RULES

from .small_scope import Scope, ScopeCheck, premise_report
from .test_rules_property_based import scenarios

SCOPE = Scope()


def test_the_scope_is_every_list_of_the_stated_sizes():
    assert (len(SCOPE.temporal_lists(SCOPE.t1)), len(SCOPE.temporal_lists(SCOPE.t2))) == (7, 259)
    assert sum(1 for _ in SCOPE.inputs()) == 1813 + 85 * 21


def test_every_rule_runs_on_some_scenario_shape():
    check = ScopeCheck(DEFAULT_RULES)
    assert {rule.name for rules in check.targets for rule in rules} == {
        rule.name for rule in DEFAULT_RULES
    }
    assert len(check.targets) == len(scenarios(*next(SCOPE.inputs())))


def test_every_rule_preserves_its_equivalence_on_every_input_of_the_scope():
    check = ScopeCheck(DEFAULT_RULES)
    failures = check.run(SCOPE.inputs())
    assert not failures, "\n".join(map(str, failures.values()))
    assert check.checks > 60000


def test_the_scope_shows_c6s_premise_necessary():
    """Without its premise C6 is only snapshot-equivalent, and this scope holds
    the smallest counterexample (one tuple against three)."""
    verdicts = {
        (rule, premise): verdict
        for rule, premise, verdict in premise_report(SCOPE, ["C6"])
    }
    assert set(verdicts) == {
        ("C6", "no_snapshot_duplicates(r1)"), ("C6", "no_snapshot_duplicates(r2)")
    }
    assert verdicts["C6", "no_snapshot_duplicates(r2)"].startswith("shown necessary")
