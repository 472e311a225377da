"""Known-answer checks, one per command.

Each check reads the job's ``expect`` record and the command's exit status
and stdout, and returns ``None`` when the answer is right or a short reason
when it is not.  The expected answers come from the mathematics (a
connection contracts to 1, a projector is idempotent, the K-class of the
winding-n line bundle is (1, -n)) or from an independent path (re-applying
the quotient maps to a glued lift), never from golden bytes, so a change to
the JSON coefficient layout does not break them.

Checks that rebuild algebra elements touch module caches of ``heegaard``
(the sphere rewrite cache); the runner calls them in a forked child so the
parent process stays cold.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

RESIDUAL_TOL = 1e-10
FLOAT_TOL = 1e-9
# Projector rows whose idempotency is checked, chosen by the job's
# ``row_seed`` (each row costs size^2 exact products; the whole matrix would
# cost size^3, several times the job itself).
PROJECTOR_ROWS = 3


def _is_zero(x, float_mode: bool) -> bool:
    if not float_mode:
        return x.is_zero()
    return all(abs(c.to_complex()) <= FLOAT_TOL for c in x.terms.values())


def _check_verify(expect, obj, workdir):
    if obj != {"m_circ_l": "1", "bidegree": True}:
        return f"verify reported {obj}"


def _check_cocycle(expect, obj, workdir):
    if obj.get("passed") is not True or obj.get("failures"):
        return f"cocycle failed: {obj.get('failures')}"


def _check_residual(expect, obj, workdir):
    value = obj.get("residual")
    if not isinstance(value, float) or not value <= RESIDUAL_TOL:
        return f"residual {value!r} above {RESIDUAL_TOL}"
    if obj.get("M") != expect["M"]:
        return f"residual reported M={obj.get('M')}"


def _check_invariant(expect, obj, workdir):
    got = (obj.get("dimension_class"), obj.get("compact_charge"))
    if got != (1, -expect["n"]):
        return f"invariant {got}, expected (1, {-expect['n']})"


def _check_projector(expect, obj, workdir):
    from heegaard.bundles import mat_mul
    from heegaard.serialize import projector_from_obj

    e = projector_from_obj(obj)
    if e.winding != expect["n"]:
        return f"projector winding {e.winding}"
    if not e.entries_degree_zero():
        return "projector entry of nonzero degree"
    rows = random.Random(expect["row_seed"]).sample(
        range(e.size), min(PROJECTOR_ROWS, e.size))
    square = mat_mul(tuple(e.entries[k] for k in rows), e.entries)
    for row, k in zip(square, rows):
        for x, y in zip(row, e.entries[k]):
            if not _is_zero(x - y, expect["float"]):
                return f"projector not idempotent in row {k}"


def _check_connection(expect, obj, workdir):
    from heegaard.algebra import unit
    from heegaard.serialize import tensor_from_obj

    conn = tensor_from_obj(obj)
    n = expect["n"]
    if not _is_zero(conn.contract() - unit(conn.ctx), expect["float"]):
        return "connection does not contract to 1"
    for a, r in conn.summands:
        if a.degrees() != {-n} or r.degrees() != {n}:
            return f"summand of bidegree ({a.degrees()}, {r.degrees()})"


def _check_glue(expect, obj, workdir):
    from heegaard.quotients import sigma_i
    from heegaard.serialize import element_from_obj

    lift = element_from_obj(obj)
    tup = json.loads((Path(workdir) / expect["input"]).read_text())
    for i, comp in enumerate(tup["components"]):
        if not _is_zero(sigma_i(lift, i) - element_from_obj(comp), expect["float"]):
            return f"sigma_{i}(lift) differs from component {i}"


_CHECKS = {"verify": _check_verify, "cocycle": _check_cocycle,
           "residual": _check_residual, "invariant": _check_invariant,
           "projector": _check_projector, "connection": _check_connection,
           "glue": _check_glue}


def check(expect: dict, code: int, stdout: str, workdir) -> str | None:
    """None if the job's answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit status {code}"
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    return _CHECKS[expect["cmd"]](expect, obj, workdir)
