#!/usr/bin/env python3
"""Benchmark of the ``heegaard`` CLI: one-shot jobs in a closed loop.

    python3 perfbench/run.py --workload connections --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up starts several fresh interpreters that
each import ``heegaard`` and write the workload's seeded inputs; ``setup_s``
is their median wall time.  The jobs then run one at a time, each in a
child forked from this process, in whole rounds until ``--seconds`` have
passed; a job's time is the fastest of its repeats.  All times are scaled
to a fixed machine speed measured by a reference loop (see ``harness.py``).
``--trace 1`` runs every job a second time under the layer tracer and
reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs with a wrong exit status, a wrong answer, a crash or a
timeout, or a traced stdout that differs from the untraced one) and
``metrics``.  The line before it records the environment, the tail
percentile, the reference reading and the unscaled times.  Results and
spans are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# BLAS threads are pinned, the same in every run, before numpy is imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ[k] for k in BLAS_ENV}}


def _setup(args, outdir: Path, reference_seconds) -> tuple:
    """Time SETUP_PROBES fresh-interpreter set-ups, each with the reference
    reading around it; keep the first one's inputs after checking that
    every probe wrote the same plan."""
    times, plans = [], []
    for k in range(SETUP_PROBES):
        probe_dir = outdir / f"inputs-{k}"
        ref = reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--probe", str(probe_dir), "--workload", args.workload,
                        "--seed", str(args.seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0, (ref + reference_seconds()) / 2))
        plans.append((probe_dir / "jobs.json").read_text())
    if len(set(plans)) != 1:
        raise RuntimeError("set-up is not deterministic in the seed")
    for k in range(1, SETUP_PROBES):
        shutil.rmtree(outdir / f"inputs-{k}")
    return times, json.loads(plans[0]), outdir / "inputs-0"


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "heegaard" / "cli.py").is_file():
        print(f"error: no heegaard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.DECKS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.probe:
        import heegaard.cli  # noqa: F401  (the import is part of set-up)
        workloads.generate(args.workload, args.seed, Path(args.probe))
        return 0

    outdir = ROOT / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    import harness

    setup_times, plan, inputs = _setup(args, outdir, harness.reference_seconds)
    import heegaard.cli  # noqa: F401  (forked jobs inherit the import)

    records = harness.run_rounds(plan, inputs, args.seconds, bool(args.trace))
    failures = [rec for rec in records if rec["failure"]]
    if args.trace:
        metrics, info = harness.per_layer(records), {}
    else:
        metrics, info = harness.end_to_end(
            records, setup_times, workloads.tail_percentile(len(plan["jobs"])))
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                failed_ratio=len(failures) / len(records),
                environment=_environment())
    result = {"correct": not failures, "attempted": len(records),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    (outdir / "result.json").write_text(json.dumps(
        {**result, "info": info, "setup_times": setup_times,
         "jobs": [{k: v for k, v in rec.items() if k not in ("spans", "stats")}
                  for rec in records]}, indent=1))
    if args.trace:
        import numpy as np
        table = harness.spans_table(records)
        np.savez_compressed(outdir / "spans.npz",
                            names=np.array(table.pop("names")),
                            **{k: np.frombuffer(v, dtype=v.typecode)
                               for k, v in table.items()})
    shutil.rmtree(inputs)
    for rec in failures[:5]:
        print(f"failed job {rec['id']} ({rec['cmd']}): {rec['failure']}",
              file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
