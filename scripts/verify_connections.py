#!/usr/bin/env python3
"""Verify strong connections and projector idempotency over a sweep of
sizes, windings, and twist presets (zero, and one seeded rational and one
seeded float twist per seed), reporting timings."""

import argparse
import json
import random
import time

from heegaard import (chern_galois_projector, strong_connection,
                      verify_connection)
from heegaard.phases import ThetaMatrix


def random_float(n, seed):
    """Reproducible float twist with entries drawn from (-1, 1)."""
    rng = random.Random(seed)
    return ThetaMatrix.from_upper(
        n, {(j, k): rng.uniform(-1, 1) for j in range(n) for k in range(j + 1, n)},
        mode="float")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=3)
    ap.add_argument("--max-winding", type=int, default=4)
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()

    seeds = [int(v) for v in args.seeds.split(",") if v]
    for n_gen in range(1, args.max_N + 1):
        thetas = [("zero", ThetaMatrix.zero(n_gen + 1))]
        thetas += [(f"seed{s}", ThetaMatrix.random_rational(n_gen + 1, seed=s))
                   for s in seeds]
        thetas += [(f"float-seed{s}", random_float(n_gen + 1, seed=s)) for s in seeds]
        for label, theta in thetas:
            t0 = time.time()
            ok = all(verify_connection(strong_connection(n, n_gen, theta), n)
                     for n in range(-args.max_winding, args.max_winding + 1))
            idem = all(chern_galois_projector(n, n_gen, theta).is_idempotent()
                       for n in range(-min(3, args.max_winding),
                                      min(3, args.max_winding) + 1)) \
                if n_gen <= 2 else None
            print(json.dumps({"N": n_gen, "theta": label,
                              "connections_ok": ok,
                              "projectors_idempotent": idem,
                              "seconds": round(time.time() - t0, 3)}))


if __name__ == "__main__":
    main()
