"""Seeded job decks for the benchmark workloads.

A workload is a *deck*: a fixed list of job classes (command and size).  The
seed turns the deck into one job per class, and the runner repeats that job
list, round after round, until the run's time is up; each job's time is the
fastest of its repeats (see ``harness.py``).

The rational twist kind is part of the class: the i-th class of a deck gets
``TWISTS[i % 6]``, that is zero or a denominator from ``DENS``, so
neighbouring classes (similar sizes) get different denominators.  A twist
with denominator d is passed as inline JSON whose entries are seeded k/d
with k prime to d.  The denominators of the entries set a job's cost (the
exact solve expands over their lcm D; products carry one phase per
distinct entry): drawing d per job, or drawing entries as
``random-rational`` does (j/d in lowest terms, zero included), made the
same job class cost up to 4x more from one seed to the next.  For the same
reason the monomials of a glue element are fixed by its class; the seed
draws its coefficients and twist entries.

Every job carries an ``expect`` record that the known-answer checks in
``checks.py`` read.  The checks never parse ``argv``, so a test can inject a
wrong expectation without touching the job itself.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

DENS = (2, 3, 4, 8, 12)
TWISTS = ("zero",) + DENS

# Job classes.  Winding commands take (N, n); cocycle takes (N, degree);
# residual takes (N, M); glue takes (N, terms, degree) for the random
# element whose multipullback tuple is glued back.
_WINDING = ("verify", "projector", "connection", "invariant")


def _classes(cmd, sizes):
    return [(cmd,) + size for size in sizes]


DECKS = {
    "connections": (
        _classes("verify", [(1, -3), (1, -6), (2, -2), (2, -3), (2, -5),
                            (3, -2), (3, -3), (3, -4), (4, -1), (4, -2),
                            (4, -3), (1, 2), (2, 4)])
        + _classes("projector", [(1, -2), (1, -4), (2, -2), (2, -3), (2, -5),
                                 (3, -1), (3, -2), (3, -3), (4, -1), (1, 3),
                                 (3, 2)])
        + _classes("connection", [(1, -3), (1, -5), (2, -2), (2, -4), (3, -2),
                                  (3, -4), (4, -2), (3, 2)])
        + _classes("invariant", [(1, -1), (1, -3), (1, 2), (2, -2), (2, -4),
                                 (3, -1), (3, -2), (3, -3)])
    ),
    "solve": (
        _classes("cocycle", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
        + _classes("glue", [(N, terms, degree) for N in (1, 2, 3)
                            for terms, degree in ((8, 4), (12, 5), (16, 6),
                                                  (24, 6), (24, 8), (32, 8),
                                                  (40, 8), (48, 8))])
    ),
    "fock": (
        # two twists per small size, to give the tail ten jobs beyond it
        _classes("residual", [(1, m) for m in range(4, 17) for _ in (0, 1)])
        + _classes("residual", [(1, 18), (1, 20), (1, 22), (1, 24),
                                (2, 3), (2, 4), (2, 5), (2, 6), (3, 3)])
    ),
    "float": (
        # float `verify` stops at these sizes: beyond them the program's
        # 1e-14 float tolerance rejects some correct connections (a known
        # defect, see README.md); connection jobs carry the larger sizes
        _classes("verify", [(1, -3), (1, -6), (2, -2), (2, -3), (2, -5),
                            (3, -2), (3, -3), (4, -1), (4, -2), (2, 3)])
        + _classes("projector", [(1, -4), (2, -3), (2, -4), (3, -2), (3, -3),
                                 (1, 2)])
        + _classes("connection", [(2, -5), (3, -4), (3, -5), (4, -2), (4, -3)])
        + _classes("invariant", [(1, -3), (2, -2), (2, -3), (3, -2)])
        + _classes("cocycle", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
        + _classes("glue", [(N, terms, degree) for N in (1, 2, 3)
                            for terms, degree in ((16, 6), (24, 6), (32, 8))])
    ),
}

def tail_percentile(jobs: int) -> int:
    """The highest multiple of 5 that leaves at least ten jobs beyond it.

    It depends only on the deck, so a faster program is measured at the same
    percentile as its parent."""
    return next(p for p in range(95, 0, -5) if jobs * (100 - p) >= 1000)


def truncations(N: int) -> str:
    """N+3 ascending truncations: `invariant` needs at least N+2."""
    return ",".join(str(8 + 4 * k) for k in range(N + 3))


def _float_theta(rng: random.Random, n: int) -> dict:
    upper = [[j, k, rng.uniform(-0.5, 0.5)]
             for j in range(n) for k in range(j + 1, n)]
    return {"n": n, "mode": "float", "upper": upper}


def _rational_theta(rng: random.Random, n: int, den: int) -> dict:
    units = [k for k in range(1, den) if gcd(k, den) == 1]
    upper = [[j, k, rng.choice(units), den]
             for j in range(n) for k in range(j + 1, n)]
    return {"n": n, "mode": "rational", "upper": upper}


def _glue_tuple(rng: random.Random, N: int, terms: int, degree: int,
                twist) -> dict:
    """Serialized multipullback tuple of a random full-algebra element whose
    monomials depend only on the class."""
    from heegaard.algebra import AlgebraElement, Context
    from heegaard.coeff import Coeff
    from heegaard.phases import ThetaMatrix
    from heegaard.quotients import MultipullbackTuple
    from heegaard.serialize import element_to_obj, theta_from_obj

    n = N + 1
    if twist == "float":
        theta = theta_from_obj(_float_theta(rng, n))
    elif twist == "zero":
        theta = ThetaMatrix.zero(n)
    else:
        theta = theta_from_obj(_rational_theta(rng, n, twist))
    shape_rng = random.Random(f"glue:{N}:{terms}:{degree}")
    monomials = set()
    while len(monomials) < terms:
        p, q = [0] * n, [0] * n
        for _ in range(shape_rng.randint(0, degree)):
            (p if shape_rng.random() < 0.5 else q)[shape_rng.randrange(n)] += 1
        monomials.add((tuple(p), tuple(q)))
    out = {}
    for m in sorted(monomials):
        if twist == "float":
            c = Coeff.from_complex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        else:
            weight = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            c = Coeff.from_phase(Fraction(rng.randrange(4), 4), theta.mode, weight)
        out[m] = c
    t = MultipullbackTuple.from_element(AlgebraElement(Context.toeplitz(theta), out))
    return {"components": [element_to_obj(c) for c in t.components]}


def _job(rng: random.Random, cls: tuple, twist, workdir: Path, job_id: int) -> dict:
    """The job of class ``cls``; ``twist`` is "float", "zero" or a
    denominator."""
    cmd, N = cls[0], cls[1]
    expect = {"cmd": cmd, "N": N, "float": twist == "float"}
    if cmd == "glue":
        name = f"glue-{job_id}.json"
        (workdir / name).write_text(
            json.dumps(_glue_tuple(rng, N, cls[2], cls[3], twist)))
        expect["input"] = name
        # the runner joins the file name to the directory it loads from
        return {"id": job_id, "argv": ["glue", "--input", name],
                "expect": expect}
    if twist == "float":
        theta = ["--theta", json.dumps(_float_theta(rng, N + 1))]
    elif twist == "zero":
        theta = ["--theta", "zero"]
    else:
        theta = ["--theta", json.dumps(_rational_theta(rng, N + 1, twist))]
    argv = [cmd, "--N", str(N)] + theta
    if cmd in _WINDING:
        argv += ["--n", str(cls[2])]
        expect["n"] = cls[2]
    if cmd == "invariant":
        argv += ["--truncations", truncations(N)]
    elif cmd == "projector":
        expect["row_seed"] = rng.randrange(10**6)
    elif cmd == "cocycle":
        argv += ["--degree", str(cls[2])]
    elif cmd == "residual":
        argv += ["--M", str(cls[2])]
        expect["M"] = cls[2]
    return {"id": job_id, "argv": argv, "expect": expect}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's jobs (and glue inputs) into ``workdir``."""
    if workload not in DECKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    deck = DECKS[workload]
    order = rng.sample(range(len(deck)), len(deck))
    jobs = [_job(rng, deck[c],
                 "float" if workload == "float" else TWISTS[c % len(TWISTS)],
                 workdir, k)
            for k, c in enumerate(order)]
    plan = {"workload": workload, "seed": seed, "jobs": jobs}
    (workdir / "jobs.json").write_text(json.dumps(plan))
    return plan
