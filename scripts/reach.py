#!/usr/bin/env python3
"""List the functions of ``src/heegaard`` that no CLI command reaches.

    python3 scripts/reach.py

A fixed job list runs in-process, one ``heegaard.cli.main`` call per job,
under a ``sys.setprofile`` trace that records the code object of every
Python call.  The jobs are ``connection``, ``verify``, ``projector`` and
``invariant`` at N = 2 and n = +-2 (``invariant`` with ``--truncations``),
``cocycle`` at N = 2, ``residual`` at N = 2 and M = 5, and ``glue`` on the
``MultipullbackTuple.from_element`` tuple of a fixed N = 2 element, each at
a zero, a ``random-rational``, an inline den-8 and an inline float twist.
The glue inputs are built before the trace starts.

Each ``def`` of the package is matched on ``co_firstlineno``: its ``def``
line, or for a decorated function the line of its first decorator.  A
``def`` no job called is unreached; its def-lines run from that first line
to its last, so a nested ``def`` counts again inside an unreached parent.
The script prints one JSON document: for each module, its number of defs,
the def-lines and the names of its unreached defs, and the totals.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heegaard"
sys.path.insert(0, str(ROOT / "src"))

WINDING = ("connection", "verify", "projector", "invariant")

THETAS = {
    "zero": ["--theta", "zero"],
    "random-rational": ["--theta", "random-rational", "--seed", "1"],
    "den-8": ["--theta", json.dumps({"n": 3, "mode": "rational",
                                     "upper": [[0, 1, 3, 8], [0, 2, 5, 8], [1, 2, 7, 8]]})],
    "float": ["--theta", json.dumps({"n": 3, "mode": "float",
                                     "upper": [[0, 1, 0.1], [0, 2, -0.37], [1, 2, 0.25]]})],
}


def _glue_input(twist_argv, path: Path) -> str:
    """Write the tuple of s_0 s_1* + 2 s_2 + 1 over the twist to ``path``."""
    from heegaard import cli, generator, unit
    from heegaard.algebra import Context
    from heegaard.quotients import MultipullbackTuple
    from heegaard.serialize import element_to_obj

    theta = cli._parse_theta(twist_argv[1], 3, 1, 8)
    ctx = Context.toeplitz(theta)
    s = [generator(ctx, k) for k in range(3)]
    x = s[0] * s[1].star() + s[2].scale(2) + unit(ctx)
    comps = MultipullbackTuple.from_element(x).components
    path.write_text(json.dumps({"components": [element_to_obj(c) for c in comps]}))
    return str(path)


def jobs(workdir: Path):
    """The argv of every job."""
    for k, twist in enumerate(THETAS.values()):
        for command in WINDING:
            for n in ("2", "-2"):
                extra = ["--truncations", "8,16"] if command == "invariant" else []
                yield [command, "--N", "2", "--n", n, *twist, *extra]
        yield ["cocycle", "--N", "2", *twist]
        yield ["residual", "--N", "2", "--M", "5", *twist]
        yield ["glue", "--input", _glue_input(twist, workdir / f"glue-{k}.json")]


def reached_lines(argvs) -> tuple[set, list]:
    """(the (file, first line) of every code object called, the exit codes)."""
    from heegaard import cli

    seen, codes = set(), []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.setprofile(None)
    return seen, codes


def defs(path: Path):
    """(qualified name, first line, def-lines) of every def in the file."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((prefix + child.name, first, child.end_lineno - first + 1))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        argvs = list(jobs(Path(tmp)))
        seen, codes = reached_lines(argvs)
    modules, total = {}, 0
    for path in sorted(PACKAGE.glob("*.py")):
        found = defs(path)
        filename = str(path.resolve())
        missed = [(name, line, span) for name, line, span in found
                  if (filename, line) not in seen]
        lines = sum(span for _, _, span in missed)
        total += lines
        modules[path.stem] = {"defs": len(found), "def_lines": lines,
                              "unreached": [{"name": name, "line": line, "lines": span}
                                            for name, line, span in missed]}
    print(json.dumps({"jobs": len(argvs), "failed": sum(c != 0 for c in codes),
                      "def_lines": total, "modules": modules}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
