"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They run real jobs (a few seconds each), so they live beside the benchmark,
not in the program's test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach, and those predicted to do no work on it
# (README.md, per-layer table).
USED = {
    "connections": ["phases.entry.calls", "coeff.mul.calls", "coeff.add.calls",
                    "algebra.mul.calls", "algebra.mul_sphere.calls",
                    "algebra.with_context.calls", "bundles.simplify.summands_in",
                    "bundles.projector.entries", "fock.invariant.self_s",
                    "serialize.emit.bytes", "cli.main.self_s"],
    "solve": ["exactla.solve.calls", "exactla.solve.columns",
              "algebra.with_context.calls", "quotients.cocycle_check.self_s",
              "quotients.glue.self_s", "quotients.is_compatible.self_s",
              "serialize.parse.self_s", "coeff.mul.calls"],
    "fock": ["fock.generator.calls", "fock.norm.calls", "fock.norm.dim_max",
             "fock.residual.self_s", "phases.entry.calls"],
    "float": ["exactla.solve.calls", "algebra.mul_sphere.calls",
              "quotients.glue.self_s", "bundles.strong_connection.self_s",
              "coeff.mul.calls"],
}
UNUSED = {
    "connections": ["exactla.solve.calls", "fock.norm.calls"],
    "solve": ["fock.norm.calls", "algebra.mul_sphere.calls"],
    "fock": ["exactla.solve.calls", "algebra.mul_sphere.calls"],
    "float": ["fock.norm.calls"],
}


def _one_job_per_command(workload: str, tmp_path: Path):
    plan = workloads.generate(workload, 0, tmp_path)
    picked = {}
    for job in plan["jobs"]:
        picked.setdefault(job["expect"]["cmd"], job)
    return list(picked.values())


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_layers_reached_and_traced_stdout_identical(workload, tmp_path):
    jobs = _one_job_per_command(workload, tmp_path)
    records = [harness.run_job(job, tmp_path, trace=True) for job in jobs]
    # run_job fails a job whose traced stdout differs from its untraced one
    assert [rec["failure"] for rec in records] == [None] * len(records)
    metrics = harness.per_layer(records)
    assert {name for name, _, _ in harness.PER_LAYER} == set(metrics)
    for name in USED[workload]:
        assert metrics[name][0] > 0, name
    for name in UNUSED[workload]:
        assert metrics[name][0] == 0, name


def test_wrong_expected_answer_is_a_failure(tmp_path):
    plan = workloads.generate("connections", 0, tmp_path)
    job = next(j for j in plan["jobs"] if j["expect"]["cmd"] == "invariant")
    assert harness.run_job(job, tmp_path)["failure"] is None
    wrong = copy.deepcopy(job)
    wrong["expect"]["n"] += 1
    assert "invariant" in harness.run_job(wrong, tmp_path)["failure"]


def test_generation_is_deterministic(tmp_path):
    for workload in workloads.DECKS:
        a = workloads.generate(workload, 7, tmp_path / "a")
        b = workloads.generate(workload, 7, tmp_path / "b")
        assert a == b
        assert workloads.generate(workload, 8, tmp_path / "c") != a


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric(trace, section):
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "fock", "--seed", "0", "--seconds", "1",
                            "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "fock", "--seed", "0", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
