#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision and a working tree.

    python3 scripts/bench_pairs.py --rev HEAD~1 --b . --workload connections \\
        --seed 1 --pairs 10 --seconds 20

Tree a is ``git archive REV`` of this checkout's repository; tree b is a copy
of the ``src/`` and ``perfbench/`` directories of ``--b`` without any
``__pycache__``.  Both are made in a temporary directory that is removed
afterwards, so neither reads bytecode caches that a test run left behind:
``peak_rss_mb`` counts the pages of the modules the harness compiles at
import, and a cache lowers it by about a megabyte.  Each pair runs
``perfbench/run.py --trace 0`` once in each tree, with
``PYTHONDONTWRITEBYTECODE=1``, tree a first in even pairs and tree b first
in odd ones.  Before its runs, each pair also times one set-up probe of
each tree back to back, in the same order: ``perfbench/run.py --probe``,
the fresh interpreter that imports ``heegaard`` and writes the inputs, whose
median over five probes is ``setup_s``.  Its wall seconds are the run's
``probe_s``.  A run's ``setup_s`` is read minutes apart from the other
tree's, so drift of the machine shows in it; the back-to-back probes put
both trees under the same conditions.
The script prints one JSON line per run, then a JSON summary:
per end-to-end metric, each side's median and quartiles, the change of the
medians, in how many pairs tree b did better, and a verdict; for the probes
(``setup_probe_s``) each side's median and quartiles and the change of the
medians.  Each run's line
also holds ``commands``: per CLI command, the median over its jobs of the
scaled job seconds, read from that run's
``.perfbench_out/<workload>-s<seed>-t0/result.json``.  As in the harness, a
job's scaled time is its seconds times 1e-3 over its reference reading,
and a job counts with its fastest repeat.  The summary gives each command's
per-run medians as each side's median and quartiles and the change of the
medians.  The direction and the bound of each metric are read from
``BENCHMARK.json``:

- ``worse``: tree b's median is worse than tree a's by more than the bound;
- ``unresolved``: tree a's quartile spread exceeds the bound times its
  median, and tree b did not do better in every pair, so the runs cannot
  tell a change within the bound from noise;
- ``ok``: any other case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stdout_diff import ROOT, _archive  # noqa: E402


def _copy(tree: Path, dest: Path) -> Path:
    """Tree b: the ``src/`` and ``perfbench/`` of ``tree``, without caches."""
    for name in ("src", "perfbench"):
        shutil.copytree(tree / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    return dest


def _env() -> dict:
    # BLAS threads pinned as perfbench/run.py pins them for its own probes
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _probe(tree: Path, args) -> float:
    """Wall seconds of one ``perfbench/run.py --probe`` set-up in ``tree``."""
    dest = tree / ".perfbench_out" / "probe"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "perfbench/run.py", "--probe", str(dest),
                    "--workload", args.workload, "--seed", str(args.seed)],
                   cwd=tree, env=_env(), stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - t0
    shutil.rmtree(dest)
    return seconds


def _run(tree: Path, args) -> dict:
    env = _env()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    out = tree / ".perfbench_out" / f"{args.workload}-s{args.seed}-t0" / "result.json"
    return {"failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "commands": command_seconds(json.loads(out.read_text())["jobs"])}


def command_seconds(jobs: list) -> dict:
    """Per command, the median over its jobs of the fastest scaled repeat
    (seconds * 1e-3 / ref, the harness's scaling) of each timed job."""
    best = {}
    for job in jobs:
        if job["seconds"] is not None:
            key, t = (job["cmd"], job["id"]), job["seconds"] * 1e-3 / job["ref"]
            best[key] = min(best.get(key, t), t)
    per_cmd = {}
    for (cmd, _), t in best.items():
        per_cmd.setdefault(cmd, []).append(t)
    return {cmd: statistics.median(ts) for cmd, ts in sorted(per_cmd.items())}


def _spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(sa: dict, sb: dict, sign: int, bound: float, won_every_pair: bool) -> str:
    """The verdict of the module docstring, from each side's spread; ``sign``
    is 1 where higher is better and -1 where lower is."""
    scale = bound * abs(sa["median"])
    if sign * (sb["median"] - sa["median"]) < -scale:
        return "worse"
    if sa["q3"] - sa["q1"] > scale and not won_every_pair:
        return "unresolved"
    return "ok"


def summarize(runs: list, spec: dict) -> dict:
    """Per metric: each side's median and quartiles, the relative change of
    the medians, the pairs in which side b did better, and the verdict;
    ``spec`` maps each metric's name to its ``BENCHMARK.json`` entry."""
    out = {}
    for name in runs[0]["a"]["metrics"]:
        a = [r["a"]["metrics"][name] for r in runs]
        b = [r["b"]["metrics"][name] for r in runs]
        sign = -1 if spec[name]["better"] == "lower" else 1
        sa, sb = _spread(a), _spread(b)
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        out[name] = {"a": sa, "b": sb,
                     "change": (sb["median"] / sa["median"] - 1) if sa["median"] else None,
                     "wins": wins,
                     "verdict": _verdict(sa, sb, sign, spec[name]["bound"], wins == len(runs))}
    return out


def _sides(a: list, b: list) -> dict:
    """Each side's median and quartiles and the relative change of the medians."""
    sa, sb = _spread(a), _spread(b)
    return {"a": sa, "b": sb, "change": sb["median"] / sa["median"] - 1}


def summarize_commands(runs: list) -> dict:
    """Per command: each side's median and quartiles of its per-run median
    scaled job seconds, and the relative change of the medians."""
    return {cmd: _sides(*([r[s]["commands"][cmd] for r in runs] for s in "ab"))
            for cmd in runs[0]["a"]["commands"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="tree a: git archive of this revision")
    ap.add_argument("--b", type=Path, default=Path("."), help="tree b: a source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"a": _archive(args.rev, Path(tmp) / "a"),
                 "b": _copy(args.b.resolve(), Path(tmp) / "b")}
        for pair in range(args.pairs):
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            probes = {side: _probe(trees[side], args) for side in order}
            run = {}
            for side in order:
                run[side] = {**_run(trees[side], args), "probe_s": probes[side]}
                print(json.dumps({"pair": pair, "tree": side, **run[side]}), flush=True)
            runs.append(run)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "failed": {s: sum(r[s]["failed"] for r in runs) for s in "ab"},
                      "metrics": summarize(runs, metrics),
                      "setup_probe_s": _sides([r["a"]["probe_s"] for r in runs],
                                              [r["b"]["probe_s"] for r in runs]),
                      "commands": summarize_commands(runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
