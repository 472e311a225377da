"""Closed-loop runner: one client, one job at a time, each in a fork.

The parent has imported ``heegaard`` (and numpy and scipy) before it forks,
so a job pays no import cost, but it starts with cold module caches, as a
one-shot ``heegaard ...`` command does: the parent never runs algebra
itself.  Only the ``cli.main`` call is timed, inside the child.  The
known-answer check runs afterwards in a second forked child, outside the
timed interval, so it neither warms the parent nor counts in the job's
memory.  Peak memory is the job child's ``ru_maxrss`` from ``os.wait4``;
it includes the inherited import footprint.

Times are reported at a fixed machine speed.  On a 2-vCPU Xeon VM on a
shared host, a fixed pure-Python loop took from 0.52 to 1.2 ms over the same
hour (the neighbours; no steal time shows), and whole 20 s runs read up to
60% apart.  So each job child times the reference loop below just before
and just after its job, and the job's time is scaled by ``REF_SECONDS``
over that reading.  The program cannot change the reference, so a change to
the program still moves the scaled time in full.  On ten runs of the
connections workload this took the quartile spread of ``jobs_per_s`` from
23% to 4%.  The raw times are kept in the run record.  The run also repeats
the job list in rounds and takes each job's fastest scaled repeat, which
drops the bursts a reading taken around the job misses.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import checks
from tracer import Tracer

# The reference loop's median time on the VM above, so scaled times read
# close to seconds there.
REF_SECONDS = 1.0e-3

# Bounds that keep a run under three minutes even if a job hangs; the
# largest job of any deck takes about 1.5 s.
JOB_TIMEOUT_S = 30.0
OVERRUN_S = 30.0


def fork_call(fn, timeout: float):
    """Run ``fn()`` in a forked child.

    Returns ``(status, value, usage)`` where status is "ok" (value is the
    return value), "error" (value is a traceback), "crash" or "timeout";
    usage is the child's ``os.wait4`` resource usage.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:                               # child
        try:
            os.close(r)
            try:
                payload = pickle.dumps(("ok", fn()))
            except BaseException:
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(w, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(w)
    chunks, timed_out = [], False
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            if not select.select([r], [], [], left)[0]:
                continue
            chunk = os.read(r, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    if timed_out:
        return "timeout", None, usage
    if not chunks:
        return "crash", f"child ended with wait status {status}", usage
    # the bytes come from our own child
    status_name, value = pickle.loads(b"".join(chunks))
    return status_name, value, usage


def _reference() -> dict:
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(200):
        acc[i % 17] = acc.get(i % 17, 0) + step * i
    return acc


def reference_seconds(repeats: int = 5) -> float:
    """Fastest time of a fixed pure-Python loop (Fraction and dict work, as
    in ``Coeff``): the machine's speed at this moment.  It runs outside any
    timed interval."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def _job_body(argv, trace: bool):
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    from heegaard import cli

    out, err = io.StringIO(), io.StringIO()
    ref_before = reference_seconds()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    result = {"code": code, "seconds": seconds, "stdout": out.getvalue(),
              "stderr": err.getvalue(),
              "ref": (ref_before + reference_seconds()) / 2}
    if tracer is not None:
        result["stats"] = dict(tracer.stats)
        result["spans"] = (tracer.names, tracer.span_name.tobytes(),
                           tracer.span_parent.tobytes(),
                           tracer.span_start.tobytes(),
                           tracer.span_end.tobytes())
    return result


def job_argv(job: dict, workdir: Path) -> list:
    """The job's argv with the glue input resolved against ``workdir``."""
    argv = list(job["argv"])
    if argv[0] == "glue":
        argv[2] = str(workdir / argv[2])
    return argv


def run_job(job: dict, workdir: Path, trace: bool = False,
            first_stdout: str | None = None) -> dict:
    """Run one job untraced (and, with ``trace``, once more traced), then
    check its answer: with the known-answer check the first time, and by
    comparing stdout with ``first_stdout`` on a repeat.  Returns the job
    record."""
    argv = job_argv(job, workdir)
    status, out, usage = fork_call(partial(_job_body, argv, False), JOB_TIMEOUT_S)
    rec = {"id": job["id"], "cmd": job["expect"]["cmd"], "seconds": None,
           "rss_kb": usage.ru_maxrss, "failure": None}
    if status != "ok":
        rec["failure"] = f"{status}: {out}"
        return rec
    rec["seconds"] = out["seconds"]
    rec["ref"] = out["ref"]
    rec["code"] = out["code"]
    if trace:
        tstatus, traced, _ = fork_call(partial(_job_body, argv, True), JOB_TIMEOUT_S)
        if tstatus != "ok":
            rec["failure"] = f"traced {tstatus}: {traced}"
            return rec
        if traced["stdout"] != out["stdout"]:
            rec["failure"] = "traced stdout differs from untraced stdout"
            return rec
        rec["traced_seconds"] = traced["seconds"]
        rec["stats"] = traced["stats"]
        rec["spans"] = traced["spans"]
    rec["stdout"] = out["stdout"]
    if first_stdout is not None:
        if out["stdout"] != first_stdout:
            rec["failure"] = "stdout differs from the job's first run"
        return rec
    cstatus, reason, _ = fork_call(
        partial(checks.check, job["expect"], out["code"], out["stdout"], workdir),
        JOB_TIMEOUT_S)
    if cstatus != "ok":
        rec["failure"] = f"check {cstatus}: {reason}"
    elif reason is not None:
        rec["failure"] = f"{reason} {out['stderr'].strip()[-200:]}".strip()
    return rec


def run_rounds(plan: dict, workdir: Path, seconds: float, trace: bool) -> list:
    """Whole rounds of the plan's jobs until ``seconds`` have passed.

    Rounds are never cut short (unless the run overruns by ``OVERRUN_S``),
    so every job has the same number of repeats.
    """
    records = []
    first: dict = {}
    start = time.monotonic()
    r = 0
    while time.monotonic() - start < seconds:
        for job in plan["jobs"]:
            rec = run_job(job, workdir, trace, first.get(job["id"]))
            first.setdefault(job["id"], rec.pop("stdout", None))
            records.append({**rec, "round": r})
            if time.monotonic() - start > seconds + OVERRUN_S:
                return records
        r += 1
    return records


# -- metrics ---------------------------------------------------------------------

def scaled(seconds: float, ref: float) -> float:
    """``seconds`` at the machine speed where the reference takes
    ``REF_SECONDS``."""
    return seconds * REF_SECONDS / ref


def _timings(times: list, percentile: int) -> dict:
    tail = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
    return {"jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail}


def end_to_end(records: list, setup: list, percentile: int) -> tuple:
    """End-to-end metrics and the run record.

    ``setup`` holds (wall seconds, reference seconds) per set-up probe.  A
    job's time is the fastest of its repeats, after scaling."""
    best, raw = {}, {}
    for rec in records:
        if rec["seconds"] is not None:
            t = scaled(rec["seconds"], rec["ref"])
            best[rec["id"]] = min(best.get(rec["id"], t), t)
            raw[rec["id"]] = min(raw.get(rec["id"], rec["seconds"]), rec["seconds"])
    timings = _timings(list(best.values()), percentile)
    metrics = {
        "setup_s": (statistics.median(scaled(w, r) for w, r in setup), "s"),
        "jobs_per_s": (timings["jobs_per_s"], "1/s"),
        "job_p50_s": (timings["job_p50_s"], "s"),
        "job_tail_s": (timings["job_tail_s"], "s"),
        "peak_rss_mb": (max(rec["rss_kb"] for rec in records) / 1024, "MB"),
    }
    info = {"tail_percentile": percentile,
            "rounds": 1 + max(rec["round"] for rec in records),
            "jobs_timed": len(best),
            "jobs_beyond_tail": sum(t > timings["job_tail_s"] for t in best.values()),
            "reference_ms_median": 1e3 * statistics.median(
                rec["ref"] for rec in records if rec["seconds"] is not None),
            "unscaled": {**_timings(list(raw.values()), percentile),
                         "setup_s": statistics.median(w for w, _ in setup)}}
    return metrics, info


# (metric, unit, how): "sum" is the per-job mean of a counter summed over
# the run's traced jobs, "max" the largest value seen.
PER_LAYER = [
    ("phases.entry.calls", "count", "sum"),
    ("coeff.mul.calls", "count", "sum"),
    ("coeff.add.calls", "count", "sum"),
    ("coeff.self_s", "s", "sum"),
    ("coeff.parts_per_operand", "count", None),
    ("algebra.mul.calls", "count", "sum"),
    ("algebra.mul.term_pairs", "count", "sum"),
    ("algebra.mul_sphere.calls", "count", "sum"),
    ("algebra.mul_sphere.self_s", "s", "sum"),
    ("algebra.mul_plain.self_s", "s", "sum"),
    ("algebra.with_context.calls", "count", "sum"),
    ("algebra.with_context.self_s", "s", "sum"),
    ("algebra.eq.self_s", "s", "sum"),
    ("bundles.strong_connection.self_s", "s", "sum"),
    ("bundles.simplify.self_s", "s", "sum"),
    ("bundles.simplify.summands_in", "count", "sum"),
    ("bundles.simplify.summands_out", "count", "sum"),
    ("bundles.contract.self_s", "s", "sum"),
    ("bundles.projector.self_s", "s", "sum"),
    ("bundles.projector.entries", "count", "sum"),
    ("quotients.cocycle_check.self_s", "s", "sum"),
    ("quotients.glue.self_s", "s", "sum"),
    ("quotients.is_compatible.self_s", "s", "sum"),
    ("exactla.solve.calls", "count", "sum"),
    ("exactla.solve.self_s", "s", "sum"),
    ("exactla.solve.columns", "count", "sum"),
    ("exactla.solve.keys", "count", "sum"),
    ("exactla.solve.inconsistent", "count", "sum"),
    ("fock.generator.calls", "count", "sum"),
    ("fock.generator.self_s", "s", "sum"),
    ("fock.norm.calls", "count", "sum"),
    ("fock.norm.self_s", "s", "sum"),
    ("fock.norm.dim_max", "count", "max"),
    ("fock.residual.self_s", "s", "sum"),
    ("fock.invariant.self_s", "s", "sum"),
    ("serialize.emit.self_s", "s", "sum"),
    ("serialize.emit.bytes", "B", "sum"),
    ("serialize.parse.self_s", "s", "sum"),
    ("cli.main.self_s", "s", "sum"),
    ("trace.overhead_ratio", "ratio", None),
]


def per_layer(records: list) -> dict:
    traced = [rec for rec in records if "stats" in rec]
    total: dict = {}
    for rec in traced:
        stats = dict(rec["stats"])
        stats["coeff.self_s"] = (stats.get("coeff.mul.self_s", 0.0)
                                 + stats.get("coeff.add.self_s", 0.0))
        stats["algebra.mul.calls"] = (stats.get("algebra.mul_sphere.calls", 0)
                                      + stats.get("algebra.mul_plain.calls", 0))
        for key, value in stats.items():
            if key.endswith("_max"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    jobs = max(len(traced), 1)
    metrics = {}
    for name, unit, how in PER_LAYER:
        if how == "sum":
            value = total.get(name, 0) / jobs
        elif how == "max":
            value = total.get(name, 0)
        elif name == "coeff.parts_per_operand":
            muls = total.get("coeff.mul.calls", 0)
            value = total.get("coeff.mul.operand_parts", 0) / (2 * muls) if muls else 0.0
        else:                                   # trace.overhead_ratio
            plain = sum(rec["seconds"] for rec in traced)
            value = sum(rec["traced_seconds"] for rec in traced) / plain if plain else 0.0
        metrics[name] = (value, unit)
    return metrics


def spans_table(records: list) -> dict:
    """All spans of the run as flat columns, names shared across jobs."""
    from array import array

    names: list = []
    ids: dict = {}
    cols = {"job": array("i"), "name": array("i"), "parent": array("i"),
            "start": array("d"), "end": array("d")}
    for rec in records:
        if "spans" not in rec:
            continue
        local_names, name_b, parent_b, start_b, end_b = rec["spans"]
        remap = []
        for label in local_names:
            if label not in ids:
                ids[label] = len(names)
                names.append(label)
            remap.append(ids[label])
        name_col = array("i")
        name_col.frombytes(name_b)
        offset = len(cols["name"])
        parent_col = array("i")
        parent_col.frombytes(parent_b)
        cols["name"].extend(remap[v] for v in name_col)
        cols["parent"].extend(v + offset if v >= 0 else -1 for v in parent_col)
        cols["start"].frombytes(start_b)
        cols["end"].frombytes(end_b)
        cols["job"].extend([rec["id"]] * len(name_col))
    return {"names": names, **cols}
