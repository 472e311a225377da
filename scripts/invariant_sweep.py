#!/usr/bin/env python3
"""Sweep the numerical K-class invariant over windings.

This is the oracle run that fixes the expected compact charges: for the
untwisted N=1 sphere the winding-n projector should report dimension class 1
and compact charge -n, pairwise distinct across windings.  Each row reads
only the projector's m diagonal entries E_kk = r_k a_k, one product each
(``bundles.projector_diagonal``); ``size`` is m, the number of connection
summands.
"""

import argparse
import json

from heegaard import class_invariant, projector_diagonal
from heegaard.phases import ThetaMatrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--windings", default="-3,-2,-1,0,1,2,3")
    ap.add_argument("--seed", type=int, default=None,
                    help="random rational twist; untwisted when omitted")
    args = ap.parse_args()

    theta = (ThetaMatrix.zero(args.N + 1) if args.seed is None
             else ThetaMatrix.random_rational(args.N + 1, seed=args.seed))
    rows = []
    for n in (int(v) for v in args.windings.split(",")):
        diag = projector_diagonal(n, theta)
        inv = class_invariant(diag)
        rows.append({"winding": n,
                     "size": len(diag),
                     "dimension_class": inv.dimension_class,
                     "compact_charge": inv.compact_charge,
                     "residual": inv.residual})
        print(json.dumps(rows[-1]))
    pairs = [(r["dimension_class"], r["compact_charge"]) for r in rows]
    print(json.dumps({"pairwise_distinct": len(set(pairs)) == len(pairs)}))


if __name__ == "__main__":
    main()
