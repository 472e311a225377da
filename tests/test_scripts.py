"""Smoke runs of the scripts in ``scripts/`` at their smallest sizes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_invariant_sweep_script():
    # "=" keeps argparse from reading "-1,0,1" as a flag
    rows = run_script("invariant_sweep.py", "--windings=-1,0,1")
    assert [r["compact_charge"] for r in rows[:-1]] == [1, 0, -1]
    assert rows[-1] == {"pairwise_distinct": True}


def test_stdout_diff_script_tree_against_itself():
    rows = run_script("stdout_diff.py", "--a", str(ROOT), "--b", str(ROOT),
                      "--workloads", "fock,solve", "--seeds", "0")
    assert rows == [{"jobs": 64, "differ": 0}]


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
    assert json.loads(summary) == {"jobs": 29, "differ": 24}
