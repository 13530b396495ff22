"""Smoke test of the benchmark: every workload at its shortest length.

    python3 -m pytest -q perfbench/test_smoke.py

Takes a few minutes; the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expected(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_pins(workload):
    info, result = parse(run_bench(workload, 1, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 40
    assert info["pin"] == "match"
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    ctx = info["context"]
    for key in ("python", "numpy", "nproc", "cpu_model", "source_sha256", "jobs", "prover_layout"):
        assert ctx[key], key
    assert ctx["jobs"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    info, result = parse(run_bench(workload, 1, 1))
    assert result["correct"], info["problems"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected("per_layer")
    assert result["metrics"]["commitment.verify.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_seed_changes_inputs_not_metric_names():
    from workloads import make_trial

    for workload in WORKLOADS:
        assert make_trial(workload, 1, 0).spec != make_trial(workload, 2, 0).spec
        assert make_trial(workload, 1, 0).spec == make_trial(workload, 1, 0).spec
    info1, res1 = parse(run_bench("general-256", 1, 0))
    info2, res2 = parse(run_bench("general-256", 2, 0))
    assert info1["rows_sha256"] != info2["rows_sha256"]
    assert info2["pin"] == "not checked"
    assert set(res1["metrics"]) == set(res2["metrics"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
