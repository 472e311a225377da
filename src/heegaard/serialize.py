"""JSON schemas for twist matrices, elements, tensors, and projectors.

Rational-mode output is canonical: terms are sorted by multi-index and each
scalar is split into one record per phase with an exact rational amplitude
(amp_num/amp_den) alongside the informational re/im floats.  Serialization
is therefore byte-deterministic and round-trips exactly.  Float-mode records
carry re/im only.  ``to_json`` writes documents record by record, rendering
each distinct scalar once: 3.11's json encoder keeps ~20 strings a record alive.
"""

from __future__ import annotations

import cmath
import json
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Any, Dict

from .algebra import SPHERE, AlgebraElement, Context, SizeOverflow, _canonicalize
from .bundles import MAX_SIZE, ProjectorMatrix, TensorElement
from .coeff import Coeff, _new
from .phases import FLOAT, RATIONAL, ThetaMatrix


class SchemaError(ValueError):
    """Malformed JSON payload; the message carries a path to the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _fields(obj: Any, path: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``obj``, which must hold them all."""
    _expect(isinstance(obj, dict), path, "expected an object")
    for key in keys:
        _expect(key in obj, f"{path}.{key}", "missing field")
    return [obj[key] for key in keys]


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
    n, mode, upper = _fields(obj, path, "n", "mode", "upper")
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


def context_from_obj(obj: Any, path: str = "context", known=None) -> Context:
    kind, unitary, theta = _fields(obj, path, "kind", "unitary", "theta")
    theta = (known[1] if known and repr(theta) == known[0]  # (repr of a twist's JSON, it)
             else theta_from_obj(theta, f"{path}.theta"))
    _expect(isinstance(unitary, list) and all(_is_int(v) for v in unitary),
            f"{path}.unitary", "expected a list of integers")
    try:
        return Context(kind, theta, tuple(unitary))
    except (ValueError, IndexError) as exc:
        raise SchemaError(path, str(exc)) from None


# -- scalars and terms ------------------------------------------------------

def _pieces(c: Coeff, cache: dict):
    """Each record of ``c`` (per phase; one re/im in float mode) as its text before "p",
    between "p" and "q" and after "q", rendered once per (k, w, D) key into ``cache``;
    ``SizeOverflow`` for a re/im beyond float range or an int over repr's 4300 digits."""
    rational, D = c.mode == RATIONAL, c.D
    for k, w in sorted(c.terms.items()) if rational else [(0, c.to_complex())]:
        key = k, w, D if rational or w.real and w.imag else repr(w)   # -0.0 == 0.0
        if (piece := cache.get(key)) is None:
            z, head, mid = w, "", ""
            if rational:
                try:
                    z, g = complex(w) * cmath.exp(2j * cmath.pi * (k / D)), gcd(k, D)
                    head = f'"amp_den":{w.denominator!r},"amp_num":{w.numerator!r},'
                    mid = f',"phase_den":{D // g!r},"phase_num":{k // g!r}'
                except (OverflowError, ValueError) as exc:
                    what = "outside float range" if isinstance(exc, OverflowError) else "too long"
                    raise SizeOverflow(f"coefficient {what}: {exc}") from None
            re, im = map(repr if cmath.isfinite(z) else json.dumps, (z.real, z.imag))  # NaN
            piece = cache[key] = f'{{{head}"im":{im}', mid, f',"re":{re}}}'
        yield piece


_RATIONAL_FIELDS = ("phase_num", "phase_den", "amp_num", "amp_den")
_REAL, _MAX = (float, int), sys.float_info.max


def _checked(rec: dict, keys: tuple, ok, message: str, path: str, idx: int) -> list:
    """The values of ``keys`` in the record ``path[idx]``, all present and passing ``ok``."""
    for key in keys:
        _expect(key in rec, f"{path}[{idx}].{key}", "missing field")
    for key in keys:
        _expect(ok(rec[key]), f"{path}[{idx}].{key}", message)
    return [rec[key] for key in keys]


def _terms_from_obj(ctx: Context, records: Any, path: str) -> AlgebraElement:
    """The element of ``ctx`` whose term records are ``records``: the records
    of one word add up to one term, and the sum is brought to normal form
    once, so non-canonical words are still reduced.  A record is read after
    one type test over all its fields; one that fails it takes the per-field
    checks, in schema order, which name its first bad field or pass it (an
    ``int`` subclass, say).  Rational records are built at one conductor, the
    lcm of the twist's and every phase denominator, so sums and twist phases
    need no lift.  A fully interior sphere word, 2^n - 1 words in normal
    form, is refused when 2^(n-1) exceeds ``MAX_SIZE``."""
    _expect(isinstance(records, list), path, "expected a list")
    n, rational, parsed = ctx.n, ctx.mode == RATIONAL, []
    fields = itemgetter("p", "q", "re", "im", *(_RATIONAL_FIELDS if rational else ()))
    not_word = f"expected {n} non-negative integers"

    def is_word(v):
        return isinstance(v, list) and len(v) == n and all(_is_int(a) and a >= 0 for a in v)

    for idx, rec in enumerate(records):
        try:
            p, q, re, im, *v = fields(rec)
        except (KeyError, TypeError):           # missing field, or not an object
            plain = False
        else:
            plain = (type(rec) is dict and type(p) is type(q) is list and len(p) == n == len(q)
                     and set(map(type, p + q + v)) == {int} and min(p + q) >= 0
                     and type(re) in _REAL and type(im) in _REAL
                     and abs(re) <= _MAX and abs(im) <= _MAX and (not v or v[1] and v[3]))
        if not plain:
            _expect(isinstance(rec, dict), f"{path}[{idx}]", "expected an object")
            p, q = _checked(rec, ("p", "q"), is_word, not_word, path, idx)
            re, im = _checked(rec, ("re", "im"), _is_number, "expected a number", path, idx)
            if rational:
                v = _checked(rec, _RATIONAL_FIELDS, _is_int, "expected an integer", path, idx)
                _checked(rec, ("phase_den", "amp_den"), bool,
                         "denominator must be nonzero", path, idx)
        parsed.append(((tuple(p), tuple(q)), v if rational else complex(re, im)))
        if ctx.kind == SPHERE and 0 not in p + q and 2 ** (n - 1) > MAX_SIZE:
            raise SchemaError(f"{path}[{idx}]", f"a fully interior sphere word at n={n} "
                              f"exceeds the size cap: 2^(n-1) must be at most {MAX_SIZE}")
    D = lcm(ctx.theta.conductor, *(v[1] for _, v in parsed)) if rational else 1
    terms = {}
    for word, v in parsed:
        if rational:
            num, den, a, b = v
            w = a if b == 1 else Fraction(a, b)
            c = _new(Coeff, D, {num * (D // den) % D: w.numerator if w.denominator == 1 else w}
                     if a else {})
        else:
            c = Coeff.from_complex(v)
        terms[word] = terms[word] + c if word in terms else c
    return _canonicalize(ctx, terms)


# -- elements, tensors and projectors ---------------------------------------

def element_to_obj(x: AlgebraElement) -> Dict[str, Any]:
    return json.loads(to_json(x))


def element_from_obj(obj: Any, path: str = "element", known=None) -> AlgebraElement:
    ctx, terms = _fields(obj, path, "context", "terms")
    ctx = context_from_obj(ctx, f"{path}.context", known)
    return _terms_from_obj(ctx, terms, f"{path}.terms")


def tensor_to_obj(t: TensorElement) -> Dict[str, Any]:
    return json.loads(to_json(t))


def tensor_from_obj(obj: Any, path: str = "tensor") -> TensorElement:
    ctx, summands = _fields(obj, path, "context", "summands")
    ctx = context_from_obj(ctx, f"{path}.context")
    _expect(isinstance(summands, list), f"{path}.summands", "expected a list")
    pairs = []
    for idx, rec in enumerate(summands):
        p = f"{path}.summands[{idx}]"
        left, right = _fields(rec, p, "left", "right")
        pairs.append((_terms_from_obj(ctx, left, f"{p}.left.terms"),
                      _terms_from_obj(ctx, right, f"{p}.right.terms")))
    return TensorElement(ctx, pairs)


def projector_to_obj(e: ProjectorMatrix) -> Dict[str, Any]:
    return json.loads(to_json(e))


def projector_from_obj(obj: Any, path: str = "projector") -> ProjectorMatrix:
    n, size, ctx, entries = _fields(obj, path, "n", "size", "context", "entries")
    _expect(_is_int(n), f"{path}.n", "expected an integer")
    _expect(_is_int(size), f"{path}.size", "expected an integer")
    ctx = context_from_obj(ctx, f"{path}.context")
    _expect(size > 0, f"{path}.size", "must be a positive integer")
    _expect(isinstance(entries, list) and len(entries) == size,
            f"{path}.entries", "row count must equal size")
    rows = []
    for i, row in enumerate(entries):
        _expect(isinstance(row, list) and len(row) == size,
                f"{path}.entries[{i}]", "column count must equal size")
        rows.append(tuple(_terms_from_obj(ctx, cell, f"{path}.entries[{i}][{j}].terms")
                          for j, cell in enumerate(row)))
    return ProjectorMatrix(n, tuple(rows))


def to_json(obj) -> str:
    """Canonical rendering: sorted keys, no whitespace variation (module docstring)."""
    if not isinstance(obj, (AlgebraElement, TensorElement, ProjectorMatrix)):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    cache = {}

    def terms(x: AlgebraElement) -> str:
        records = []
        for (p, q), c in x.sorted_terms():
            p, q = ",".join(map(repr, p)), ",".join(map(repr, q))
            records += [f'{a},"p":[{p}]{b},"q":[{q}]{e}' for a, b, e in _pieces(c, cache)]
        return f'[{",".join(records)}]'

    if isinstance(obj, AlgebraElement):
        body = f'"terms":{terms(obj)}'
    elif isinstance(obj, TensorElement):
        pairs = ",".join(f'{{"left":{terms(a)},"right":{terms(r)}}}' for a, r in obj.summands)
        body = f'"summands":[{pairs}]'
    else:
        rows = ",".join(f'[{",".join(map(terms, row))}]' for row in obj.entries)
        body = f'"entries":[{rows}],"n":{obj.winding!r},"size":{obj.size!r}'
    ctx = obj.entries[0][0].ctx if isinstance(obj, ProjectorMatrix) else obj.ctx
    return f'{{"context":{to_json(context_to_obj(ctx))},{body}}}'


def from_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:   # also over-long ints, deep nesting
        raise SchemaError("$", f"invalid JSON: {exc}") from None
