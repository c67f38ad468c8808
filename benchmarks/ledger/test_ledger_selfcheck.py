"""Deterministic self-check of the performance ledger (no timing assertions).

Runs the ``--smoke`` preset twice with one seed and checks that the report
names every workload and metric of BENCHMARK.json, that the counts a fixed
operation sequence makes repeat exactly, and that every result was correct.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent.parent

from benchmarks.ledger.report import digests_agree, exact_repeat_names  # noqa: E402
from benchmarks.ledger.workloads import SMOKE_SCALE, data_digest  # noqa: E402


def run_smoke(out: Path, seed: int) -> dict:
    # DeprecationWarnings are errors: the ledger configures the program through
    # ExecutionOptions only, never the deprecated constructor keywords.
    env = dict(os.environ, PYTHONWARNINGS="error::DeprecationWarning")
    subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke",
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ledger")
    return [run_smoke(directory / f"smoke-{index}.json", seed=0) for index in range(2)]


def test_report_names_every_workload_and_metric(smoke_reports):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = smoke_reports[0]
    assert list(report["workloads"]) == [w["name"] for w in contract["workloads"]]
    for result in report["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            assert list(result[section]) == [m["name"] for m in contract[section]]
            assert all(isinstance(v, (int, float)) for v in result[section].values())
        assert all(value > 0 for value in result["end_to_end"].values())
        assert 0 < result["per_layer"]["layers.coverage"] <= 1


def test_every_operation_is_correct(smoke_reports):
    for report in smoke_reports:
        for name, result in report["workloads"].items():
            assert result["correct"], (name, result["problems"])
            assert result["failed"] == 0 and result["attempted"] > 0


def test_exact_repeat_counts_and_digests_repeat(smoke_reports):
    first, second = (report["workloads"] for report in smoke_reports)
    for name in first:
        assert digests_agree([first[name], second[name]]), name
        for metric in exact_repeat_names(name):
            assert first[name]["per_layer"][metric] == second[name]["per_layer"][metric], (name, metric)


def test_a_different_seed_changes_the_data():
    assert data_digest(SMOKE_SCALE, 0) == data_digest(SMOKE_SCALE, 0)
    assert data_digest(SMOKE_SCALE, 0) != data_digest(SMOKE_SCALE, 1)
