"""``run`` (all five workloads, one report) and ``compare`` (report vs. report)."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from . import LEDGER_DIR
from .bench import OUT_DIR, PINNED_SEED, load_contract
from .oracles import Expectations, digest_key
from .workloads import SMOKE_SCALE, WORKLOADS, warmup_ops

#: Per-layer values that repeat exactly for a given commit and seed (the
#: replay is a fixed operation sequence); ``compare`` checks them for equality.
EXACT_REPEAT = (
    "search.memo_groups",
    "search.memo_expressions",
    "search.tasks_attempted",
    "search.tasks_succeeded",
    "search.plans_considered",
    "stratum.transferred_tuples",
    "stratum.dbms_calls",
    "tcp.response_bytes",
)
#: ... and these too where one client makes the cache counters deterministic.
EXACT_REPEAT_SINGLE_CLIENT = ("session.cache_misses", "session.cache_hit_ratio")


def exact_repeat_names(workload: str) -> Sequence[str]:
    single = WORKLOADS[workload].clients == 1
    return EXACT_REPEAT + (EXACT_REPEAT_SINGLE_CLIENT if single else ())


def digests_agree(results: Sequence[dict]) -> bool:
    """Every result checked in all the reports has one digest.  (Which epoch
    the read racing an append was answered from — and with it the set of
    keys — may differ between two runs; the digest of a key may not.)"""
    shared = set.intersection(*(set(r["digests"]) for r in results))
    return all(len({r["digests"][key] for r in results}) == 1 for key in shared)


# -- run ------------------------------------------------------------------------------


def _run_pass(name: str, seed: int, trace: int, smoke: bool) -> dict:
    path = OUT_DIR / f"{name}-trace{trace}.json"
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"), "--workload", name,
        "--seed", str(seed), "--trace", str(trace), "--report", str(path),
    ]
    subprocess.run(command + (["--smoke"] if smoke else []), check=True, stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_all(seed: int, out: Optional[Path], smoke: bool) -> int:
    """Every workload in a fresh subprocess: an untraced pass for the
    end-to-end metrics, a traced pass for the layers (the smoke preset takes
    both from the traced pass, whose first phase is untraced)."""
    contract = load_contract()
    started = time.time()
    report = {"seed": seed, "smoke": smoke, "workloads": {}}
    for entry in contract["workloads"]:
        name = entry["name"]
        traced = _run_pass(name, seed, 1, smoke)
        untraced = traced if smoke else _run_pass(name, seed, 0, smoke)
        passes = (untraced, traced)
        report["workloads"][name] = {
            "end_to_end": {m["name"]: untraced["metrics"][m["name"]] for m in contract["end_to_end"]},
            "per_layer": {m["name"]: traced["metrics"].get(m["name"], 0.0) for m in contract["per_layer"]},
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "correct": all(p["correct"] for p in passes),
            "problems": [problem for p in passes for problem in p["problems"]],
            "digests": {**untraced["digests"], **traced["digests"]},
            "env": [p["env"] for p in passes],
        }
    report["wall_s"] = time.time() - started
    print_report(report, contract)
    out = out or OUT_DIR / f"report-seed{seed}-{int(started)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nreport written to {out} ({report['wall_s']:.0f} s)")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


def print_report(report: dict, contract: dict) -> None:
    names = list(report["workloads"])
    header = f"{'metric':34s} {'unit':6s}" + "".join(f"{name:>16s}" for name in names)
    for section in ("end_to_end", "per_layer"):
        print(f"\n-- {section} " + "-" * (len(header) - len(section) - 4))
        print(header)
        for metric in contract[section]:
            values = "".join(
                f"{report['workloads'][name][section][metric['name']]:16.4f}" for name in names
            )
            print(f"{metric['name']:34s} {metric['unit']:6s}{values}")
    print()
    for name in names:
        result = report["workloads"][name]
        rate = result["failed"] / result["attempted"]
        print(
            f"{name:16s} error_rate {rate:.4f} (failed_ops {result['failed']} / "
            f"attempted_ops {result['attempted']})  correct={result['correct']}"
        )
        for problem in result["problems"]:
            print(f"    problem: {problem}")


# -- compare --------------------------------------------------------------------------


def _spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile range
    from four runs up, the full range below that."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        width = quartiles[2] - quartiles[0]
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def compare(base_paths: Sequence[Path], new_paths: Sequence[Path]) -> int:
    """One row per (workload, end-to-end metric); non-zero exit on ``regressed``."""
    contract = load_contract()
    base = [json.loads(path.read_text(encoding="utf-8")) for path in base_paths]
    new = [json.loads(path.read_text(encoding="utf-8")) for path in new_paths]
    regressed = False
    print(
        f"{'workload':16s} {'metric':18s} {'base':>11s} {'new':>11s} {'new/base':>9s} "
        f"{'spread':>7s} {'bound':>6s}  verdict"
    )
    for entry in contract["workloads"]:
        name = entry["name"]
        for metric in contract["end_to_end"]:
            sides = [
                [r["workloads"][name]["end_to_end"][metric["name"]] for r in reports]
                for reports in (base, new)
            ]
            base_median, new_median = (statistics.median(side) for side in sides)
            ratio = new_median / base_median
            worse_by = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spread = max(_spread(side) for side in sides)
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(
                f"{name:16s} {metric['name']:18s} {base_median:11.4f} {new_median:11.4f} "
                f"{ratio:9.4f} {spread * 100:6.1f}% {metric['bound'] * 100:5.0f}%  {verdict}"
            )
    print("\nexact-repeat counts and digests (equal across all reports?)")
    for entry in contract["workloads"]:
        name = entry["name"]
        results = [r["workloads"][name] for r in base + new]
        differing = [
            metric
            for metric in exact_repeat_names(name)
            if len({r["per_layer"][metric] for r in results}) > 1
        ]
        if not digests_agree(results):
            differing.append("digests")
        print(f"{name:16s} {'equal' if not differing else 'differs: ' + ', '.join(differing)}")
    return 1 if regressed else 0


# -- expected_digests.json ----------------------------------------------------------


def write_expected_digests() -> int:
    """Regenerate expected_digests.json for the pinned seed from the
    reference evaluator / the plain-Python oracles."""
    pinned = {"seed": PINNED_SEED, "smoke": {}, "full": {}}
    for name, workload in WORKLOADS.items():
        for preset, scale in (("smoke", SMOKE_SCALE), ("full", workload.scale)):
            expectations = Expectations(scale, PINNED_SEED)
            pinned[preset][name] = {
                digest_key(op.cls, op.params, 0): expectations.digest(op.cls, op.params)
                for op in warmup_ops(workload)
            }
    path = LEDGER_DIR / "expected_digests.json"
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0
