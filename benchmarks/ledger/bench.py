"""One workload, one process: set-up, correctness, measured rounds, trace.

This is the BENCHMARK.json contract command's implementation
(``run.py --workload W --seed N --seconds S --trace 0|1``); the ``run``
subcommand calls it once per workload and pass, in fresh subprocesses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from . import LEDGER_DIR, ROOT
from .calibrate import CALIB_REF_S, Round, boundary_tick, end_to_end, measure_rounds, percentile
from .oracles import Expectations, check_equivalence
from .replay import Replay
from .targets import Checker, make_target
from .workloads import CHECK_SCALE, SMOKE_SCALE, WORKLOADS, Workload, smoke

OUT_DIR = LEDGER_DIR / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` the traced run spends on its (untraced) end-to-end
#: phase; the rest of the budget goes to the fixed-size replay.
TRACED_E2E_SHARE = 0.4
REPLAY_ROUNDS = 2
#: Seed whose digests are pinned in expected_digests.json.
PINNED_SEED = 0


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def _set_up(workload: Workload, seed: int, expectations: Expectations, repeats: int):
    """Build the target ``repeats`` times; return the last and the calibrated
    set-up seconds of each."""
    target, seconds = None, []
    for _ in range(repeats):
        if target is not None:
            target.close()
        before = boundary_tick()
        started = time.perf_counter()
        target = make_target(workload, seed, Checker(expectations))
        elapsed = time.perf_counter() - started
        seconds.append(elapsed / ((before + boundary_tick()) / 2))
    return target, seconds


def _tcp_layer_metrics(target, stats: dict) -> Dict[str, float]:
    """server.*/tcp.* and the shared cache's counters, from the untraced TCP
    run's own response fields and the ``stats`` op."""
    def p50_ms(values: List[float]) -> float:
        return percentile(values, 0.5) * 1e3 if values else 0.0

    cache = stats["plan_cache"]
    return {
        "server.service_ms_p50": p50_ms(target.service),
        "server.dispatch_ms_p50": p50_ms(target.dispatch),
        "server.append_ms_p50": p50_ms(target.append_latency),
        "server.rejected": stats["rejected"],
        "server.timed_out": stats["timed_out"],
        "server.failed": stats["failed"],
        "server.worker_crashes": stats["worker_crashes"],
        "server.peak_active_workers": stats["peak_active_workers"],
        "tcp.wire_ms_p50": p50_ms(target.wire),
        "tcp.retries": target.retries,
        "session.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "session.cache_misses": cache["misses"],
        "session.miss_amplification": cache["misses"] / len(target.statement_epochs),
    }


def _pinned_digest_failures(name: str, smoke_run: bool, digests: Dict[str, str]) -> List[str]:
    """For the pinned seed, observed digests must equal the committed ones."""
    with open(LEDGER_DIR / "expected_digests.json", encoding="utf-8") as handle:
        pinned = json.load(handle)["smoke" if smoke_run else "full"].get(name, {})
    return [
        f"{key}: digest {digests[key]} differs from expected_digests.json"
        for key in pinned
        if key in digests and digests[key] != pinned[key]
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke_run: bool) -> dict:
    """Run one workload; the full report (the caller picks what to print)."""
    started_at = time.time()
    started = time.perf_counter()
    workload = smoke(WORKLOADS[name]) if smoke_run else WORKLOADS[name]
    if smoke_run:
        seconds = 0.0  # one round per phase
    problems = check_equivalence(
        workload.classes, SMOKE_SCALE if smoke_run else CHECK_SCALE, seed
    )
    expectations = Expectations(workload.scale, seed)
    repeats = 1 if trace or smoke_run else SETUP_REPEATS
    target, setups = _set_up(workload, seed, expectations, repeats)
    checker = target.checker
    try:
        rounds: List[Round] = measure_rounds(
            target.run_round, seconds * TRACED_E2E_SHARE if trace else seconds
        )
        stats = target.stats() if workload.driver == "tcp" else None
        problems += target.final_check()
    finally:
        target.close()
    metrics = end_to_end(rounds)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = _rss_mb()  # the server child has been waited for
    if trace:
        replay = Replay(workload, seed, checker)
        metrics.update(replay.run(1 if smoke_run else REPLAY_ROUNDS))
        metrics["obs.traced_overhead_pct"] = replay.traced_overhead_pct(
            cycles=1 if smoke_run else 5
        )
        queries = [s for r in rounds for cls, s in r.calibrated() if cls != "append"]
        e2e_op_ms = statistics.fmean(queries) * 1e3
        if stats is not None:
            metrics.update(_tcp_layer_metrics(target, stats))
            e2e_op_ms = statistics.fmean(target.service) * 1e3
        metrics["layers.replay_vs_e2e"] = metrics.pop("replay.op_ms") / e2e_op_ms
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{name}.json", "w", encoding="utf-8") as handle:
            json.dump(replay.spans, handle)
    if seed == PINNED_SEED:
        problems += _pinned_digest_failures(name, smoke_run, checker.digests)
    return {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke_run,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "correct": checker.failed == 0 and not problems,
        "problems": problems + checker.messages,
        "metrics": metrics,
        "digests": dict(sorted(checker.digests.items())),
        "rounds": [
            {"speed": r.speed, "unsteady": r.unsteady, "wall": r.wall,
             "calibrated_wall": r.calibrated_wall, "samples": r.samples}
            for r in rounds
        ],
        "env": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "CALIB_REF_S": CALIB_REF_S,
            "speed_factors": [r.speed for r in rounds],
            "started": started_at,
            "ended": time.time(),
            "wall_s": time.perf_counter() - started,
        },
    }


def contract_metrics(report: dict, contract: dict) -> Dict[str, dict]:
    """The metrics BENCHMARK.json names for this pass, with their units.

    A layer metric the workload does not exercise (``tcp.*`` in process, a
    statement class outside the mix) reads 0.
    """
    declared = contract["per_layer" if report["trace"] else "end_to_end"]
    measured = report["metrics"]
    unknown = [
        m["name"]
        for m in declared
        if m["name"] not in measured and not m["name"].startswith(("stmt.", "server.", "tcp."))
    ]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names metrics the ledger did not produce: {unknown}")
    return {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def reexec_with_hash_seed(seed: int) -> None:
    """Pin ``PYTHONHASHSEED`` to the seed for this process and its children
    (memo exploration order and dict-heavy temporal operators depend on it);
    it only takes effect at interpreter start, hence the exec."""
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fixed-size self-check run")
    parser.add_argument("--report", type=Path, help="also write the full report here")
    args = parser.parse_args()
    reexec_with_hash_seed(args.seed)
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    report = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=1), encoding="utf-8")
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": contract_metrics(report, contract),
            }
        )
    )
    return 0
