#!/usr/bin/env python3
"""Compare two source trees job by job on the benchmark decks.

    python3 scripts/stdout_diff.py --a ../parent --b . \\
        --workloads connections,solve,fock,float --seeds 1,2,3 --readme
    python3 scripts/stdout_diff.py --rev HEAD~1 --b . --readme

Each tree is a checkout with ``src/heegaard``.  ``--rev REV`` in place of
``--a`` makes tree a from ``git archive REV`` of this checkout's repository,
in a temporary directory that is removed afterwards, so no stale
``__pycache__`` of an older working copy is read.  The jobs of the named
``perfbench`` decks are generated once, from this checkout's
``perfbench/workloads.py`` (read only), and every tree runs all of them
in-process, one ``heegaard.cli.main`` call per job, in a subprocess of its
own.  ``--readme`` adds the ``heegaard ...`` command lines of tree a's
README.  The script prints one line per job whose exit status or stdout
differs, then a JSON summary, and exits 1 if any job differs.  A stdout
that differs is parsed as JSON on both sides; when its keys, strings, ints
and bools are equal and every float is within ``FLOAT_TOL`` of the other
side's, the line says "differs in floats only" with the largest gap, and the
summary counts the jobs with the same exit status that differ only so as
``float_only``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOAT_TOL = 1e-12


def _float_gap(x, y):
    """The largest |x - y| over the floats of two JSON values, or None if
    they differ elsewhere or some float gap exceeds ``FLOAT_TOL``."""
    if type(x) is not type(y):
        return None
    if isinstance(x, float):
        gap = 0.0 if x == y else abs(x - y)
        return gap if gap <= FLOAT_TOL else None
    if isinstance(x, dict):
        if x.keys() != y.keys():
            return None
        x, y = list(x.values()), [y[k] for k in x]
    if not isinstance(x, list):
        return 0.0 if x == y else None
    if len(x) != len(y):
        return None
    gaps = [_float_gap(u, v) for u, v in zip(x, y)]
    return None if None in gaps else max(gaps, default=0.0)


def _describe(out_a: str, out_b: str):
    """How two stdouts compare, and the float gap when floats alone differ."""
    if out_a == out_b:
        return "same", None
    try:
        gap = _float_gap(json.loads(out_a), json.loads(out_b))
    except ValueError:
        gap = None
    if gap is None:
        return "differs", None
    return f"differs in floats only (max |Δ| = {gap:.3g})", gap


def _worker(src: str, jobs_path: str, out_path: str) -> None:
    """Run every job with the ``heegaard`` of ``src``; write [code, stdout]."""
    sys.path.insert(0, src)
    from heegaard import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the tree under {src}")
    results = []
    for argv in json.loads(Path(jobs_path).read_text()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:   # a crash is a result to compare too
                code = f"raised {type(exc).__name__}"
        results.append([code, out.getvalue()])
    Path(out_path).write_text(json.dumps(results))


def _readme_commands(tree: Path) -> list:
    lines = (tree / "README.md").read_text(encoding="utf-8").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("heegaard ")]


def _jobs(workloads: list, seeds: list, workdir: Path, readme_tree) -> list:
    """(label, argv) for every job, with glue inputs written under workdir."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads as decks

    jobs = []
    for name in workloads:
        for seed in seeds:
            where = workdir / f"{name}-{seed}"
            for job in decks.generate(name, seed, where)["jobs"]:
                argv = list(job["argv"])
                if argv[0] == "glue":
                    argv[2] = str(where / argv[2])
                jobs.append((f"{name} seed {seed} job {job['id']}", argv))
    if readme_tree is not None:
        jobs += [(f"README {' '.join(argv)}", argv)
                 for argv in _readme_commands(readme_tree)]
    return jobs


def _archive(rev: str, dest: Path) -> Path:
    """Tree a: the files of ``rev`` in this checkout's repository, under dest."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode:
        raise SystemExit(f"git archive {rev}: {proc.stderr.decode().strip()}")
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(dest, **safe)
    return dest


def _run_tree(tree: Path, argvs: list, workdir: Path, tag: str) -> list:
    jobs_path, out_path = workdir / "argv.json", workdir / f"out-{tag}.json"
    jobs_path.write_text(json.dumps(argvs))
    subprocess.run([sys.executable, __file__, "--worker", str(tree / "src"),
                    str(jobs_path), str(out_path)], check=True, cwd=workdir)
    return json.loads(out_path.read_text())


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    first = ap.add_mutually_exclusive_group(required=True)
    first.add_argument("--a", type=Path, help="first source tree")
    first.add_argument("--rev", help="first tree: git archive of this revision")
    ap.add_argument("--b", type=Path, required=True, help="second source tree")
    ap.add_argument("--workloads", default="connections,solve,fock,float")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--readme", action="store_true",
                    help="also run the heegaard commands of tree a's README")
    args = ap.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        tree_a = args.a or _archive(args.rev, workdir / "rev")
        jobs = _jobs(workloads, seeds, workdir, tree_a if args.readme else None)
        argvs = [argv for _, argv in jobs]
        a = _run_tree(tree_a.resolve(), argvs, workdir, "a")
        b = _run_tree(args.b.resolve(), argvs, workdir, "b")
    differ = float_only = 0
    for (label, argv), (code_a, out_a), (code_b, out_b) in zip(jobs, a, b):
        if code_a != code_b or out_a != out_b:
            differ += 1
            stdout, gap = _describe(out_a, out_b)
            float_only += code_a == code_b and gap is not None
            print(f"DIFF {label} ({argv[0]}): exit {code_a} vs {code_b}, stdout {stdout}")
    print(json.dumps({"jobs": len(jobs), "differ": differ, "float_only": float_only}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
