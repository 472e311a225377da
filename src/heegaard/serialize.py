"""JSON schemas for twist matrices, elements, tensors, and projectors.

Rational-mode output is canonical: terms are sorted by multi-index and each
scalar is split into one record per phase with an exact rational amplitude
(amp_num/amp_den) alongside the informational re/im floats.  Serialization
is therefore byte-deterministic and round-trips exactly.  Float-mode records
carry re/im only.
"""

from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction
from typing import Any, Dict

from .algebra import AlgebraElement, Context
from .bundles import ProjectorMatrix, TensorElement
from .coeff import Coeff
from .phases import FLOAT, RATIONAL, ThetaMatrix


class SchemaError(ValueError):
    """Malformed JSON payload; the message carries a path to the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _is_int(v) -> bool:
    """JSON integer; ``true`` and ``false`` are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """JSON number in float range; ``json`` also reads NaN and Infinity."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


# -- twist matrices ---------------------------------------------------------

def theta_to_obj(theta: ThetaMatrix) -> Dict[str, Any]:
    if theta.mode == RATIONAL:
        upper = [[j, k, v.numerator, v.denominator]
                 for (j, k), v in theta.upper]
    else:
        upper = [[j, k, float(v)] for (j, k), v in theta.upper]
    return {"n": theta.n, "mode": theta.mode, "upper": upper}


def theta_from_obj(obj: Any, path: str = "theta") -> ThetaMatrix:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("n", "mode", "upper"):
        _expect(key in obj, f"{path}.{key}", "missing field")
    n, mode, upper = obj["n"], obj["mode"], obj["upper"]
    _expect(_is_int(n) and n >= 1, f"{path}.n", "must be a positive integer")
    _expect(mode in (RATIONAL, FLOAT), f"{path}.mode", f"unknown mode {mode!r}")
    _expect(isinstance(upper, list), f"{path}.upper", "expected a list")
    entries = {}
    for idx, row in enumerate(upper):
        p = f"{path}.upper[{idx}]"
        _expect(isinstance(row, list), p, "expected a list")
        if mode == RATIONAL:
            _expect(len(row) == 4, p, "expected [j, k, num, den]")
            j, k, num, den = row
            _expect(all(_is_int(v) for v in row), p, "expected integers")
            _expect(den != 0, f"{p}[3]", "denominator must be nonzero")
            value = Fraction(num, den)
        else:
            _expect(len(row) == 3, p, "expected [j, k, value]")
            j, k, value = row
            _expect(_is_int(j) and _is_int(k), p, "bad indices")
            _expect(_is_number(value), f"{p}[2]", "expected a number")
            value = float(value)
        _expect(0 <= j < k < n, p, "need 0 <= j < k < n")
        _expect((j, k) not in entries, p, f"duplicate entry {(j, k)}")
        entries[(j, k)] = value
    return ThetaMatrix.from_upper(n, entries, mode)


# -- contexts ---------------------------------------------------------------

def context_to_obj(ctx: Context) -> Dict[str, Any]:
    return {"kind": ctx.kind,
            "unitary": list(ctx.unitary),
            "theta": theta_to_obj(ctx.theta)}


def context_from_obj(obj: Any, path: str = "context") -> Context:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("kind", "unitary", "theta"):
        _expect(key in obj, f"{path}.{key}", "missing field")
    theta = theta_from_obj(obj["theta"], f"{path}.theta")
    unitary = obj["unitary"]
    _expect(isinstance(unitary, list) and all(_is_int(v) for v in unitary),
            f"{path}.unitary", "expected a list of integers")
    try:
        return Context(obj["kind"], theta, tuple(unitary))
    except (ValueError, IndexError) as exc:
        raise SchemaError(path, str(exc)) from None


# -- scalars and elements ---------------------------------------------------

def _coeff_records(c: Coeff):
    """One record per phase (rational) or a single re/im record (float)."""
    if c.mode == FLOAT:
        z = c.to_complex()
        return [{"re": z.real, "im": z.imag}]
    records = []
    for k, w in sorted(c.terms.items()):
        z, t = complex(w) * cmath.exp(2j * cmath.pi * (k / c.D)), Fraction(k, c.D)
        records.append({"re": z.real, "im": z.imag,
                        "phase_num": t.numerator, "phase_den": t.denominator,
                        "amp_num": w.numerator, "amp_den": w.denominator})
    return records


def _coeff_from_record(rec: Any, mode: str, path: str) -> Coeff:
    _expect(isinstance(rec, dict), path, "expected an object")
    for key in ("re", "im"):
        _expect(key in rec, f"{path}.{key}", "missing field")
        _expect(_is_number(rec[key]), f"{path}.{key}", "expected a number")
    if mode == FLOAT:
        return Coeff.from_complex(complex(rec["re"], rec["im"]))
    for key in ("phase_num", "phase_den", "amp_num", "amp_den"):
        _expect(key in rec, f"{path}.{key}", "missing field")
        _expect(_is_int(rec[key]), f"{path}.{key}", "expected an integer")
    _expect(rec["phase_den"] != 0, f"{path}.phase_den", "denominator must be nonzero")
    _expect(rec["amp_den"] != 0, f"{path}.amp_den", "denominator must be nonzero")
    return Coeff.from_phase(Fraction(rec["phase_num"], rec["phase_den"]), RATIONAL,
                            Fraction(rec["amp_num"], rec["amp_den"]))


def element_to_obj(x: AlgebraElement) -> Dict[str, Any]:
    terms = []
    for (p, q), c in x.sorted_terms():
        for rec in _coeff_records(c):
            terms.append({"p": list(p), "q": list(q), **rec})
    return {"context": context_to_obj(x.ctx), "terms": terms}


def vector_to_obj(v) -> list:
    """A {(p, q): Coeff} vector as [[p, q, <Coeff records>], ...], sorted by word."""
    return [[list(p), list(q), _coeff_records(v[(p, q)])] for p, q in sorted(v)]


def element_from_obj(obj: Any, path: str = "element") -> AlgebraElement:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("context", "terms"):
        _expect(key in obj, f"{path}.{key}", "missing field")
    ctx = context_from_obj(obj["context"], f"{path}.context")
    _expect(isinstance(obj["terms"], list), f"{path}.terms", "expected a list")
    out = AlgebraElement.zero(ctx)
    for idx, rec in enumerate(obj["terms"]):
        p_path = f"{path}.terms[{idx}]"
        _expect(isinstance(rec, dict), p_path, "expected an object")
        for key in ("p", "q"):
            _expect(key in rec, f"{p_path}.{key}", "missing field")
            v = rec[key]
            _expect(isinstance(v, list) and len(v) == ctx.n
                    and all(_is_int(a) and a >= 0 for a in v),
                    f"{p_path}.{key}", f"expected {ctx.n} non-negative integers")
        c = _coeff_from_record(rec, ctx.mode, p_path)
        out = out + AlgebraElement.monomial(ctx, tuple(rec["p"]), tuple(rec["q"]), c)
    return out


# -- tensors and projectors -------------------------------------------------

def tensor_to_obj(t: TensorElement) -> Dict[str, Any]:
    return {"context": context_to_obj(t.ctx),
            "summands": [{"left": element_to_obj(a)["terms"],
                          "right": element_to_obj(r)["terms"]}
                         for a, r in t.summands]}


def tensor_from_obj(obj: Any, path: str = "tensor") -> TensorElement:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("context", "summands"):
        _expect(key in obj, f"{path}.{key}", "missing field")
    ctx = context_from_obj(obj["context"], f"{path}.context")
    _expect(isinstance(obj["summands"], list), f"{path}.summands", "expected a list")
    summands = []
    for idx, rec in enumerate(obj["summands"]):
        p = f"{path}.summands[{idx}]"
        _expect(isinstance(rec, dict) and "left" in rec and "right" in rec,
                p, "expected an object with left and right")
        a = element_from_obj({"context": obj["context"], "terms": rec["left"]},
                             f"{p}.left")
        r = element_from_obj({"context": obj["context"], "terms": rec["right"]},
                             f"{p}.right")
        summands.append((a, r))
    return TensorElement(ctx, summands)


def projector_to_obj(e: ProjectorMatrix) -> Dict[str, Any]:
    ctx = e.entries[0][0].ctx
    return {"n": e.winding, "size": e.size,
            "context": context_to_obj(ctx),
            "entries": [[element_to_obj(x)["terms"] for x in row]
                        for row in e.entries]}


def projector_from_obj(obj: Any, path: str = "projector") -> ProjectorMatrix:
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in ("n", "size", "context", "entries"):
        _expect(key in obj, f"{path}.{key}", "missing field")
    _expect(_is_int(obj["n"]), f"{path}.n", "expected an integer")
    size = obj["size"]
    _expect(_is_int(size), f"{path}.size", "expected an integer")
    entries = obj["entries"]
    _expect(isinstance(entries, list) and len(entries) == size,
            f"{path}.entries", "row count must equal size")
    rows = []
    for i, row in enumerate(entries):
        _expect(isinstance(row, list) and len(row) == size,
                f"{path}.entries[{i}]", "column count must equal size")
        rows.append(tuple(
            element_from_obj({"context": obj["context"], "terms": cell},
                             f"{path}.entries[{i}][{j}]")
            for j, cell in enumerate(row)))
    return ProjectorMatrix(obj["n"], tuple(rows))


def to_json(obj: Dict[str, Any]) -> str:
    """Canonical rendering: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def from_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # also over-long ints, deep nesting
        raise SchemaError("$", f"invalid JSON: {exc}") from None
