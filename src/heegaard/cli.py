"""Command-line interface: ``heegaard COMMAND --flag value ...``.

Every command prints one JSON document.  Exit status 0 means success, 1 a
failed verification (the JSON carries the witness), 2 a usage error: a bad
flag or input, an unsupported size, or an unwritable output.  ``FLAGS`` is
the whole grammar: ``--flag value`` or ``--flag=value``, the value always
the next token (so ``--n -3`` works), exact names, the last of a repeated
flag wins, and a flag with no entry in ``DEFAULTS`` is required.
"""

import sys
from contextlib import nullcontext
from types import SimpleNamespace

from . import serialize
from .algebra import AlgebraElement, Context, SizeOverflow
from .bundles import (check_connection, check_size, chern_galois_projector,
                      projector_diagonal, strong_connection)
from .fock import UnstableInvariant, check_dim, class_invariant, relation_residual
from .phases import ThetaMatrix
from .quotients import (IncompatibleTuple, LiftRounding, MultipullbackTuple,
                        check_cocycle_size, cocycle_check, glue)

RESIDUAL_TOL = 1e-10

MAX_INPUT_BYTES = 1 << 24
"""Cap on a twist file or glue input, 16 MiB, about 7 times the largest inputs
the other caps admit: a twist of 14 slots (``cocycle --N 13``, the largest
size flag ``quotients.MAX_CHART_PRODUCTS`` admits) is 0.78 MB with every
integer at the 4300 digits ``int`` parses, and a glue tuple at N = 3 with
``quotients.MAX_GLUE_SUPPORT`` words a component, about 147 bytes each, is
2.4 MB."""


class UsageError(Exception):
    pass


def _read(path, what: str) -> str:
    """The UTF-8 text at ``path``, or on standard input for None."""
    try:
        with open(path, "rb") if path is not None else nullcontext(sys.stdin.buffer) as fh:
            data = bytearray()      # in chunks: read(n) allocates n bytes up front
            while len(data) <= MAX_INPUT_BYTES and (
                    chunk := fh.read(min(1 << 16, MAX_INPUT_BYTES + 1 - len(data)))):
                data += chunk
        if len(data) <= MAX_INPUT_BYTES:
            return data.decode("utf-8")
    except (OSError, ValueError) as exc:   # ValueError: undecodable, or NUL in path
        raise UsageError(f"cannot read {what}: {exc}") from None
    raise SizeOverflow(f"{what} exceeds the size cap: at most {MAX_INPUT_BYTES} bytes "
                       f"(cli.MAX_INPUT_BYTES)")


def _parse_theta(arg: str, n: int, seed: int, den: int) -> ThetaMatrix:
    if den < 1:
        raise UsageError("--den must be positive")
    if arg == "zero":
        return ThetaMatrix.zero(n)
    if arg == "random-rational":
        return ThetaMatrix.random_rational(n, seed=seed, den=den)
    text = arg if arg.lstrip().startswith("{") else _read(arg, "twist file")
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
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot write output: {exc}") from None
    else:
        print(text)


def ints(text: str):
    """A comma-separated list of integers.  ``invariant``'s ``--truncations``
    is only echoed: the invariant takes no cutoff."""
    return [int(v) for v in text.split(",") if v]


_COMMON = {"N": int, "theta": str, "seed": int, "den": int, "output": str}
_WINDING = {**_COMMON, "n": int}
FLAGS = {"connection": _WINDING, "verify": _WINDING, "projector": _WINDING,
         "invariant": {**_WINDING, "truncations": ints},
         "cocycle": {**_COMMON, "degree": int}, "residual": {**_COMMON, "M": int},
         "glue": {"input": str, "output": str}}
DEFAULTS = {"theta": "zero", "seed": 0, "den": 8, "output": None,
            "truncations": None, "degree": 3}
USAGE = "usage: heegaard COMMAND [--flag value | --flag=value ...] (or --help)"


def parse_args(argv):
    """The namespace of ``argv`` read against ``FLAGS``, or None for help."""
    command, tokens = (argv[0] if argv else None), iter(argv[1:])
    if command in ("-h", "--help"):
        return None
    if command not in FLAGS:
        raise UsageError(f"unknown command {command!r}" if argv else "no command")
    flags, given = FLAGS[command], dict(DEFAULTS)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, eq, value = token.partition("=")
        if name[:2] != "--" or name[2:] not in flags:
            raise UsageError(f"unrecognized argument {token!r}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise UsageError(f"{name} expects a value")
        try:
            given[name[2:]] = flags[name[2:]](value)
        except ValueError:
            raise UsageError(f"{name} expects an integer, got {value!r}") from None
    for f in flags:
        if f not in given:
            raise UsageError(f"missing required flag --{f}")
    return SimpleNamespace(command=command, **{f: given[f] for f in flags})


def _run(args) -> int:
    if args.command == "glue":
        return _run_glue(args)
    # every flag and size is checked before a twist of size N+1 is built
    if args.N < 1:
        raise UsageError("need N >= 1")
    if args.command == "cocycle" and args.degree < 0:
        raise UsageError("--degree must be non-negative")
    if args.command == "residual" and args.M < 3:
        raise UsageError("truncation too small to leave an interior")
    if "n" in FLAGS[args.command]:
        check_size(args.n, args.N)
    if args.command == "cocycle":
        check_cocycle_size(args.N + 1)
    if args.command == "residual":
        check_dim(args.N + 1, args.M)
    theta = _parse_theta(args.theta, args.N + 1, args.seed, args.den)

    if args.command == "connection":
        conn = strong_connection(args.n, theta)
        _emit(conn, args.output)
        return 0

    if args.command == "verify":
        conn = strong_connection(args.n, theta)
        contracted, is_one, bad = check_connection(conn, args.n)
        report = {"m_circ_l": "1" if is_one else serialize.element_to_obj(contracted),
                  "bidegree": bad is None}
        if bad is not None:
            report["summand"] = {"index": bad, "degrees": [
                sorted(x.degrees()) for x in conn.summands[bad]]}
        _emit(report, args.output)
        return 0 if (is_one and bad is None) else 1

    if args.command == "projector":
        e = chern_galois_projector(args.n, theta)
        _emit(e, args.output)
        return 0

    if args.command == "invariant":
        try:
            inv = class_invariant(projector_diagonal(args.n, theta))
        except UnstableInvariant as exc:
            _emit({"error": "unstable invariant", "detail": str(exc)}, args.output)
            return 1
        d, chi = inv.as_pair()
        if d < 0:           # the dimension class is a projector's rank
            _emit({"error": "negative dimension class", "dimension_class": d,
                   "compact_charge": chi}, args.output)
            return 1
        _emit({"dimension_class": d,
               "compact_charge": chi,
               "truncations": args.truncations,
               "residual": inv.residual}, args.output)
        return 0

    if args.command == "cocycle":
        failures = cocycle_check(theta)
        _emit({"passed": not failures,
               "checked_degree": args.degree,
               "failures": [[*f[:5], *({"p": list(p), "q": list(q), "phase_num": t.numerator,
                                        "phase_den": t.denominator} for p, q, t in f[5:])]
                            for f in failures]}, args.output)
        return 1 if failures else 0

    if args.command == "residual":
        value = relation_residual(args.M, theta)
        _emit({"residual": value, "M": args.M, "tolerance": RESIDUAL_TOL},
              args.output)
        return 0 if value <= RESIDUAL_TOL else 1


def _run_glue(args) -> int:
    text = _read(None if args.input == "-" else args.input, "input")
    try:
        obj = serialize.from_json(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
            raise serialize.SchemaError("$", "expected an object with a components list")
        comps, first = [], None     # a twist equal to component 0's is parsed once
        for i, c in enumerate(obj["components"]):
            comps.append(serialize.element_from_obj(c, f"components[{i}]", first))
            first = first or (repr(c["context"]["theta"]), comps[0].ctx.theta)
        t = MultipullbackTuple(tuple(comps))
    except (serialize.SchemaError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    try:
        lifted = glue(t)
    except IncompatibleTuple as exc:
        detail, (i, j, (p, q), *cs) = exc.args
        images = [AlgebraElement(Context.quotient(t.theta, i, j), {(p, q): c} if c else {})
                  for c in cs]
        _emit({"error": "incompatible tuple", "detail": detail, "pair": [i, j],
               "word": {"p": list(p), "q": list(q)},
               "images": [serialize.element_to_obj(x)["terms"] for x in images]}, args.output)
        return 1
    except LiftRounding as exc:         # no witness
        raise UsageError(str(exc)) from None
    _emit(lifted, args.output)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        if args is None:
            print(USAGE, "commands, with [optional flags]:", sep="\n")
            for command, flags in FLAGS.items():
                words = [f"--{f} {t.__name__.upper()}" for f, t in flags.items()]
                print(f"  {command}", *(f"[{w}]" if f in DEFAULTS else w
                                        for f, w in zip(flags, words)))
            return 0
        return _run(args)
    except (UsageError, SizeOverflow) as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
