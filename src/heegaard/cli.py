"""Command-line interface.

Every command prints a single JSON document.  Exit status 0 means success,
1 means a verification failed (the JSON carries the witness), and 2 means a
usage error (bad flags, malformed twist JSON, or an unsupported size).
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .algebra import unit
from .bundles import chern_galois_projector, strong_connection
from .fock import (UnstableInvariant, class_invariant, default_truncations,
                   relation_residual)
from .phases import ThetaMatrix
from .quotients import (IncompatibleTuple, MultipullbackTuple, SupportOverflow,
                        cocycle_check, glue)

RESIDUAL_TOL = 1e-10


class UsageError(Exception):
    pass


def _parse_theta(arg: str, n: int, seed: int, den: int) -> ThetaMatrix:
    if arg == "zero":
        return ThetaMatrix.zero(n)
    if arg == "random-rational":
        if den < 1:
            raise UsageError("--den must be positive")
        return ThetaMatrix.random_rational(n, seed=seed, den=den)
    if arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read twist file: {exc}") from None
    try:
        theta = serialize.theta_from_obj(serialize.from_json(text))
    except serialize.SchemaError as exc:
        raise UsageError(f"malformed twist JSON ({exc})") from None
    if theta.n != n:
        raise UsageError(f"twist size {theta.n} does not match N+1={n}")
    return theta


def _emit(obj, output):
    text = serialize.to_json(obj)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _truncations(text: str):
    try:
        ms = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"bad truncation list {text!r}") from None
    if not ms or ms != sorted(ms):
        raise UsageError("truncations must be a non-empty ascending list")
    return ms


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="heegaard",
                                 description="Twisted multipullback sphere toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, winding=False):
        p.add_argument("--N", type=int, required=True,
                       help="number of generators minus one")
        p.add_argument("--theta", default="zero",
                       help="'zero', 'random-rational', inline JSON, or a path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--den", type=int, default=8)
        p.add_argument("--output", default=None)
        if winding:
            p.add_argument("--n", type=int, required=True, help="winding number")

    common(sub.add_parser("connection", help="strong connection value"), winding=True)
    common(sub.add_parser("verify", help="check a strong connection"), winding=True)
    common(sub.add_parser("projector", help="line-bundle projector"), winding=True)
    p = sub.add_parser("invariant", help="numerical K-class invariant")
    common(p, winding=True)
    p.add_argument("--truncations", help="default: the smallest admissible list")
    p = sub.add_parser("cocycle", help="cocycle-condition report")
    common(p)
    p.add_argument("--degree", type=int, default=3)
    p = sub.add_parser("residual", help="truncated relation residual")
    common(p)
    p.add_argument("--M", type=int, required=True)
    p = sub.add_parser("glue", help="lift a compatible tuple")
    p.add_argument("--input", required=True,
                   help="tuple JSON path, or '-' for standard input")
    p.add_argument("--output", default=None)
    return ap


def _run(args) -> int:
    if args.command == "glue":
        return _run_glue(args)
    if args.N < 1:
        raise UsageError("need N >= 1")
    theta = _parse_theta(args.theta, args.N + 1, args.seed, args.den)

    if args.command == "connection":
        conn = strong_connection(args.n, args.N, theta)
        _emit(serialize.tensor_to_obj(conn), args.output)
        return 0

    if args.command == "verify":
        conn = strong_connection(args.n, args.N, theta)
        contracted = conn.contract()
        is_one = contracted == unit(conn.ctx)
        bidegree = all(not (a.degrees() - {-args.n}) and not (r.degrees() - {args.n})
                       for a, r in conn.summands)
        obj = {"m_circ_l": "1" if is_one else serialize.element_to_obj(contracted),
               "bidegree": bidegree}
        _emit(obj, args.output)
        return 0 if (is_one and bidegree) else 1

    if args.command == "projector":
        e = chern_galois_projector(args.n, args.N, theta)
        _emit(serialize.projector_to_obj(e), args.output)
        return 0

    if args.command == "invariant":
        e = chern_galois_projector(args.n, args.N, theta)
        ms = (default_truncations(e) if args.truncations is None
              else _truncations(args.truncations))
        try:
            inv = class_invariant(e, ms)
        except UnstableInvariant as exc:
            _emit({"error": "unstable invariant", "detail": str(exc),
                   "truncations": ms}, args.output)
            return 1
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _emit({"dimension_class": inv.dimension_class,
               "compact_charge": inv.compact_charge,
               "truncations": list(inv.truncations_used),
               "residual": inv.residual}, args.output)
        return 0

    if args.command == "cocycle":
        if args.degree < 0:
            raise UsageError("--degree must be non-negative")
        report = cocycle_check(theta, args.degree)
        obj = {"passed": report.passed,
               "checked_degree": report.checked_degree,
               "failures": [[i, j, k, [list(m[0]), list(m[1])],
                             serialize.vector_to_obj(v)]
                            for (i, j, k, m, v) in report.failures]}
        _emit(obj, args.output)
        return 0 if report.passed else 1

    if args.command == "residual":
        try:
            value = relation_residual(args.N, theta, args.M)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _emit({"residual": value, "M": args.M, "tolerance": RESIDUAL_TOL},
              args.output)
        return 0 if value <= RESIDUAL_TOL else 1

    raise UsageError(f"unknown command {args.command!r}")


def _run_glue(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read input: {exc}") from None
    try:
        obj = serialize.from_json(text)
        if not isinstance(obj, dict) or "components" not in obj:
            raise serialize.SchemaError("$", "expected an object with components")
        comps = tuple(serialize.element_from_obj(c, f"components[{i}]")
                      for i, c in enumerate(obj["components"]))
        t = MultipullbackTuple(comps)
    except (serialize.SchemaError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    try:
        lifted = glue(t)
    except IncompatibleTuple as exc:
        _emit({"error": "incompatible tuple", "detail": str(exc)}, args.output)
        return 1
    except SupportOverflow as exc:
        _emit({"error": "support overflow", "detail": str(exc)}, args.output)
        return 1
    _emit(serialize.element_to_obj(lifted), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
