"""Every rule against every small input: the rule catalogue's small-scope check.

:func:`tests.test_rules_property_based.scenarios` builds one plan per rule
shape over four relations.  The random catalogue test draws 40 inputs for
them per run; this module enumerates *every* input of a scope instead.  The
small-scope hypothesis says most such bugs have a small counterexample
(D. Jackson, *Software Abstractions*, 2006), and SmallCheck turns that into
exhaustive testing up to a depth (Runciman, Naylor and Lindblad, 2008).

A scope fixes the names, the periods (every ``[s, e)`` with
``1 <= s < e <= max_time``) and the longest ``t1`` and ``t2`` lists of
``(Name, T1, T2)`` tuples; every list up to those lengths is an input, in
every order, because the algebra is a list algebra.  The snapshot relations
get their own, smaller enumeration over the same plans with the temporal
inputs held fixed.

Each rule runs only on the scenario plans its pattern matches (the shapes do
not depend on the input), each plan is evaluated once per input, and a
``(rule, plan)`` pair already checked is not checked again — a plan that does
not read ``t2`` is the same plan for every ``t2``.

The larger scope and the premise report run as a script::

    PYTHONPATH=src python -m tests.small_scope --names 2 --max-time 5 --t1 1 --t2 3

Beside the rules themselves it runs each rule with each declared premise
dropped in turn and reports whether the scope shows that premise necessary
(with the first counterexample), whether the rule without it builds a plan
that cannot be evaluated, or neither.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.operations import Operation
from repro.core.relation import Relation
from repro.core.rules import DEFAULT_RULES

from .strategies import NARROW_TEMPORAL_SCHEMA, SNAPSHOT_SCHEMA
from .test_rules_property_based import evaluate, preserves_its_equivalence, scenarios

NAMES = ("John", "Anna", "Mia")
#: The snapshot enumeration's tuples: two names, two amounts.
SNAPSHOT_TUPLES = tuple((name, amount) for name in NAMES[:2] for amount in (1, 2))
#: The longest ``s1`` and ``s2`` lists of the snapshot enumeration.
S1, S2 = 3, 2
#: The inputs held fixed while the other kind is enumerated.
FIXED_SNAPSHOT = Relation.from_rows(SNAPSHOT_SCHEMA, [("John", 1), ("John", 1), ("Anna", 2)])
FIXED_TEMPORAL = Relation.from_rows(NARROW_TEMPORAL_SCHEMA, [("John", 1, 3), ("Anna", 2, 4)])

Inputs = Tuple[Relation, Relation, Relation, Relation]


@dataclass(frozen=True)
class Scope:
    """The inputs one run enumerates."""

    names: int = 1
    max_time: int = 4
    t1: int = 1
    t2: int = 3

    def temporal_lists(self, size: int) -> List[Relation]:
        periods = [(s, e) for s in range(1, self.max_time) for e in range(s + 1, self.max_time + 1)]
        rows = [(name, s, e) for name in NAMES[: self.names] for s, e in periods]
        return lists_of(NARROW_TEMPORAL_SCHEMA, rows, size)

    def inputs(self) -> Iterator[Inputs]:
        """Every temporal pair over the fixed snapshots, then every snapshot
        pair over the fixed temporal relations; ``t1`` / ``s1`` vary slowest."""
        t2s = self.temporal_lists(self.t2)
        for t1 in self.temporal_lists(self.t1):
            for t2 in t2s:
                yield t1, t2, FIXED_SNAPSHOT, FIXED_SNAPSHOT
        s2s = lists_of(SNAPSHOT_SCHEMA, SNAPSHOT_TUPLES, S2)
        for s1 in lists_of(SNAPSHOT_SCHEMA, SNAPSHOT_TUPLES, S1):
            for s2 in s2s:
                yield FIXED_TEMPORAL, FIXED_TEMPORAL, s1, s2


def lists_of(schema, rows: Sequence[tuple], size: int) -> List[Relation]:
    """Every list of at most ``size`` of ``rows``, repetitions and orders included."""
    return [
        Relation.from_rows(schema, chosen)
        for length in range(size + 1)
        for chosen in itertools.product(rows, repeat=length)
    ]


@dataclass(frozen=True)
class Outcome:
    """The first input on which a rule's rewrite was not acceptable."""

    rule: str
    plan: str
    inputs: Inputs
    error: Optional[str] = None  # the rewrite or its evaluation raised

    def __str__(self) -> str:
        t1, t2, s1, s2 = (list(relation.rows) for relation in self.inputs)
        found = f"raises {self.error}" if self.error else "is not equivalent"
        return f"{self.rule} on {self.plan} {found}: t1={t1} t2={t2} s1={s1} s2={s2}"


class ScopeCheck:
    """Runs ``rules`` over every input of a scope; one outcome per failing rule."""

    def __init__(self, rules: Iterable) -> None:
        self.rules = list(rules)
        shapes = scenarios(FIXED_TEMPORAL, FIXED_TEMPORAL, FIXED_SNAPSHOT, FIXED_SNAPSHOT)
        #: Per scenario position: the rules whose pattern matches that shape.
        self.targets = [
            [rule for rule in self.rules if rule.bind(plan, plan.children) is not None]
            for plan in shapes
        ]
        self.failures: Dict[str, Outcome] = {}
        self.checks = 0

    def run(self, inputs: Iterable[Inputs]) -> Dict[str, Outcome]:
        results: Dict[Operation, Relation] = {}
        checked: set = set()
        slowest: tuple = ()
        for current in inputs:
            if current[::2] != slowest:
                # A new ``t1`` or ``s1``: no plan cached so far recurs.
                slowest = current[::2]
                results.clear()
                checked.clear()
            self.check(scenarios(*current), current, results, checked)
        return self.failures

    def check(self, plans, inputs: Inputs, results, checked) -> None:
        def evaluated(plan: Operation) -> Relation:
            relation = results.get(plan)
            if relation is None:
                relation = results[plan] = evaluate(plan)
            return relation

        for plan, rules in zip(plans, self.targets):
            for rule in rules:
                key = (rule.name, plan)
                if rule.name in self.failures or key in checked:
                    continue
                checked.add(key)
                try:
                    preserved = preserves_its_equivalence(rule, plan, evaluated)
                except Exception as error:  # noqa: BLE001 - reported, not hidden
                    self.failures[rule.name] = Outcome(
                        rule.name, str(plan), inputs, f"{type(error).__name__}: {error}"
                    )
                    continue
                if preserved is not None:
                    self.checks += 1
                    if not preserved:
                        self.failures[rule.name] = Outcome(rule.name, str(plan), inputs)


def without_premise(rule, premise):
    """A copy of a declared rule with one premise dropped, named after it."""
    variant = copy.copy(rule)
    variant.premises = tuple(kept for kept in rule.premises if kept is not premise)
    variant.name = f"{rule.name} without {premise.name}"
    return variant


def premise_variants(names: Optional[Sequence[str]] = None) -> list:
    """``(rule, premise, rule without it)`` for every declared premise of every
    rule (of the named rules only, given ``names``)."""
    return [
        (rule, premise, without_premise(rule, premise))
        for rule in DEFAULT_RULES
        if names is None or rule.name in names
        for premise in rule.premises
    ]


def verdicts(variants, failures: Dict[str, Outcome]) -> List[Tuple[str, str, str]]:
    """``(rule, premise, verdict)`` per variant, from a run that included it."""
    report = []
    for rule, premise, variant in variants:
        outcome = failures.get(variant.name)
        if outcome is None:
            verdict = "not shown necessary"
        elif outcome.error:
            verdict = f"breaks the plan ({outcome.error})"
        else:
            verdict = f"shown necessary: {outcome}"
        report.append((rule.name, premise.name, verdict))
    return report


def premise_report(
    scope: Scope, names: Optional[Sequence[str]] = None
) -> List[Tuple[str, str, str]]:
    """The verdicts for the premises of ``names`` (default: every rule)."""
    variants = premise_variants(names)
    failures = ScopeCheck(variant for _, _, variant in variants).run(scope.inputs())
    return verdicts(variants, failures)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--names", type=int, default=2)
    parser.add_argument("--max-time", type=int, default=5)
    parser.add_argument("--t1", type=int, default=1)
    parser.add_argument("--t2", type=int, default=3)
    arguments = parser.parse_args(argv)
    scope = Scope(arguments.names, arguments.max_time, arguments.t1, arguments.t2)
    # The premise variants ride along in the same run: one evaluation per plan.
    variants = premise_variants()
    check = ScopeCheck(list(DEFAULT_RULES) + [variant for _, _, variant in variants])
    start = time.perf_counter()
    failures = check.run(scope.inputs())
    print(f"{scope}: {check.checks} checks in {time.perf_counter() - start:.1f} s")
    failed = [outcome for name, outcome in failures.items() if " without " not in name]
    for outcome in failed:
        print("FAILED", outcome)
    for rule, premise, verdict in verdicts(variants, failures):
        print(f"{rule:16} {premise:36} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
