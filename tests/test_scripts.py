"""Smoke runs of the scripts in ``scripts/`` at their smallest sizes."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120, env=env,
                          check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_verify_connections_script():
    rows = run_script("verify_connections.py",
                      "--max-N", "1", "--max-winding", "1", "--seeds", "1")
    assert [r["theta"] for r in rows] == ["zero", "seed1", "float-seed1"]
    assert all(r["connections_ok"] and r["projectors_idempotent"] for r in rows)


def test_verify_connections_script_checks_idempotency_at_N_3():
    rows = run_script("verify_connections.py",
                      "--max-N", "3", "--max-winding", "2", "--seeds", "1")
    assert [(r["N"], r["theta"]) for r in rows][-3:] == \
        [(3, "zero"), (3, "seed1"), (3, "float-seed1")]
    assert all(r["connections_ok"] and r["projectors_idempotent"] is True for r in rows)


def test_invariant_sweep_script():
    # "=" keeps argparse from reading "-1,0,1" as a flag
    rows = run_script("invariant_sweep.py", "--windings=-1,0,1")
    assert [r["compact_charge"] for r in rows[:-1]] == [1, 0, -1]
    assert rows[-1] == {"pairwise_distinct": True}


def test_reach_script_finds_no_wholly_unreached_module():
    (report,) = run_script("reach.py")
    assert report["jobs"] == 44 and report["failed"] == 0
    modules = report["modules"]
    assert set(modules) == {p.stem for p in (ROOT / "src" / "heegaard").glob("*.py")}
    for name, module in modules.items():
        assert set(module) == {"defs", "def_lines", "unreached"}, name
        assert module["def_lines"] == sum(d["lines"] for d in module["unreached"]), name
        assert all(set(d) == {"name", "line", "lines"} for d in module["unreached"]), name
        assert module["defs"] == 0 or len(module["unreached"]) < module["defs"], name
    assert report["def_lines"] == sum(m["def_lines"] for m in modules.values())


def test_stdout_diff_script_tree_against_itself():
    rows = run_script("stdout_diff.py", "--a", str(ROOT), "--b", str(ROOT),
                      "--workloads", "fock,solve", "--seeds", "0")
    assert rows == [{"jobs": 64, "differ": 0, "float_only": 0}]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_stdout_diff_script_builds_tree_a_from_a_revision(tmp_path, monkeypatch):
    # --rev HEAD against the script's own git archive of HEAD: the same
    # files, so no job differs, and the tree a it made is gone afterwards
    spec = importlib.util.spec_from_file_location(
        "stdout_diff", ROOT / "scripts" / "stdout_diff.py")
    stdout_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stdout_diff)
    stdout_diff._archive("HEAD", tmp_path / "head")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
    rows = run_script("stdout_diff.py", "--rev", "HEAD", "--b", str(tmp_path / "head"),
                      "--workloads", "solve", "--seeds", "0")
    assert rows == [{"jobs": 29, "differ": 0, "float_only": 0}]
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")
def test_bench_pairs_script_reports_every_metric():
    rows = run_script("bench_pairs.py", "--rev", "HEAD", "--b", str(ROOT),
                      "--workload", "fock", "--seed", "0", "--pairs", "1", "--seconds", "1")
    metrics = {"jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb", "setup_s"}
    assert [(r["pair"], r["tree"]) for r in rows[:-1]] == [(0, "a"), (0, "b")]
    assert all(set(r["metrics"]) == metrics and r["failed"] == 0 for r in rows[:-1])
    # the fock deck runs only residual jobs, each a few milliseconds scaled
    assert all(set(r["commands"]) == {"residual"} for r in rows[:-1])
    assert all(0 < r["commands"]["residual"] < 1 for r in rows[:-1])
    summary = rows[-1]
    assert set(summary["metrics"]) == metrics
    assert summary["failed"] == {"a": 0, "b": 0}
    for m in summary["metrics"].values():
        assert m["a"]["q1"] <= m["a"]["median"] <= m["a"]["q3"]
        assert m["wins"] in (0, 1)
        assert m["verdict"] in ("ok", "worse", "unresolved")
    (cmd, c), = summary["commands"].items()
    assert cmd == "residual" and c["a"]["median"] == rows[0]["commands"]["residual"]
    assert c["b"]["median"] == rows[1]["commands"]["residual"]
    assert c["change"] == c["b"]["median"] / c["a"]["median"] - 1
    # one set-up probe of each tree per pair, a fresh interpreter: well under
    # a minute, and not free
    assert all(0 < r["probe_s"] < 60 for r in rows[:-1])
    probes = summary["setup_probe_s"]
    assert [probes[s]["median"] for s in "ab"] == [r["probe_s"] for r in rows[:-1]]
    assert all(probes[s]["q1"] == probes[s]["median"] == probes[s]["q3"] for s in "ab")
    assert probes["change"] == probes["b"]["median"] / probes["a"]["median"] - 1


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("better, a, b, want", [
    # higher is better; tree a's quartiles 99..101 lie within the 25% bound
    ("higher", [100, 99, 101, 100, 100], [70, 72, 71, 70, 69], "worse"),
    ("higher", [100, 99, 101, 100, 100], [90, 92, 91, 90, 89], "ok"),
    ("higher", [100, 99, 101, 100, 100], [130, 129, 131, 130, 130], "ok"),
    # lower is better: the same runs read the other way
    ("lower", [100, 99, 101, 100, 100], [130, 129, 131, 130, 130], "worse"),
    ("lower", [100, 99, 101, 100, 100], [70, 72, 71, 70, 69], "ok"),
    # tree a's quartiles 70..130 are wider than the bound: only a side that
    # does better in every pair is told apart from the noise
    ("lower", [70, 130, 100, 60, 140], [69, 129, 99, 59, 139], "ok"),
    ("lower", [70, 130, 100, 60, 140], [69, 129, 99, 59, 141], "unresolved"),
    ("lower", [70, 130, 100, 60, 140], [100, 100, 100, 100, 100], "unresolved"),
    # worse beats unresolved
    ("lower", [70, 130, 100, 60, 140], [130, 150, 140, 160, 150], "worse"),
])
def test_bench_pairs_verdict_rule(better, a, b, want):
    runs = [{"a": {"metrics": {"m": x}}, "b": {"metrics": {"m": y}}} for x, y in zip(a, b)]
    summary = _bench_pairs().summarize(runs, {"m": {"better": better, "bound": 0.25}})
    assert summary["m"]["verdict"] == want


def test_stdout_diff_script_reads_each_glue_input(tmp_path):
    # a tree whose glue cap refuses every word differs from this one on the
    # glue jobs alone (exit 0 against 2), so every glue job read its input
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "heegaard" / "quotients.py"
    module.write_text(module.read_text().replace("MAX_GLUE_SUPPORT = 4000",
                                                 "MAX_GLUE_SUPPORT = 0"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
                           "--a", str(ROOT), "--b", str(tmp_path),
                           "--workloads", "solve", "--seeds", "0"],
                          capture_output=True, text=True, timeout=120)
    *diffs, summary = proc.stdout.splitlines()
    assert proc.returncode == 1 and len(diffs) == 24       # the deck's glue jobs
    assert all(" (glue): exit 0 vs 2, stdout differs" in line for line in diffs)
    assert json.loads(summary) == {"jobs": 29, "differ": 24, "float_only": 0}


def _residual_moved_by(tmp_path, shift):
    """stdout_diff of this tree against a copy whose relation residuals are
    all moved by ``shift``: (exit status, DIFF lines, summary)."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "heegaard" / "fock.py"
    old = "return max(d.norm() for d in relation_defects(M, theta))"
    assert old in module.read_text()
    module.write_text(module.read_text().replace(old, f"{old} + {shift!r}"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "stdout_diff.py"),
                           "--a", str(ROOT), "--b", str(tmp_path),
                           "--workloads", "fock", "--seeds", "0"],
                          capture_output=True, text=True, timeout=120)
    *diffs, summary = proc.stdout.splitlines()
    return proc.returncode, diffs, json.loads(summary)


def test_stdout_diff_script_tells_float_only_differences(tmp_path):
    # every fock deck job prints its residual; moved by 1e-13 the exit
    # status holds, and each job differs in that float alone
    code, diffs, summary = _residual_moved_by(tmp_path, 1e-13)
    assert code == 1 and summary == {"jobs": 35, "differ": 35, "float_only": 35}
    assert all(line.endswith("exit 0 vs 0, stdout differs in floats only (max |Δ| = 1e-13)")
               for line in diffs), diffs[:3]


def test_stdout_diff_script_float_gap_over_the_tolerance(tmp_path):
    code, diffs, summary = _residual_moved_by(tmp_path, 1e-11)
    assert code == 1 and summary == {"jobs": 35, "differ": 35, "float_only": 0}
    assert all(line.endswith("exit 0 vs 0, stdout differs") for line in diffs), diffs[:3]
