"""Exact linear solving over phase-combination scalars.

Systems sum_j c_j * column_j = target are solved for scalars c_j, where the
columns and the target are finitely supported maps from abstract coordinate
keys to :class:`~heegaard.coeff.Coeff`.  In rational mode every phase present
has some denominator dividing a common D, so each unknown expands over the
rational vector space spanned by the D phases e^{2*pi*i*k/D}; phase
multiplication becomes an index shift mod D and the whole system becomes a
rational linear system.  In float mode the system is solved by least
squares with a residual threshold.

Each D-block of the expanded system is a circulant with one nonzero per row
for every phase of its coefficient, so the system is kept sparse: a row is
a dict from column index to ``Fraction``, and one elimination routine
(``_reduce``/``_insert``) brings rows to row-echelon form with pivots taken
in a fixed column order.  The particular solution sets the free unknowns to
zero and back-substitutes the pivot unknowns.  That is the right-hand side
of the reduced row-echelon form (RREF), which is unique for a fixed column
order whatever the order in which rows are eliminated, so the solution is
the one a dense Gauss-Jordan elimination of the same system gives.

Columns are ordered unknown by unknown, phase by phase (column j*D + k is
the weight of e^{2*pi*i*k/D} in c_j), with the right-hand side last.  Span
membership (:func:`first_outside_span`) eliminates the D phase shifts of
the spanning vectors once and reduces each candidate against them.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from .coeff import Coeff
from .phases import FLOAT, RATIONAL

Vector = Dict[Hashable, Coeff]

FLOAT_SOLVE_TOL = 1e-10


def _conductor(vectors) -> int:
    """Common denominator D of every phase in the vectors."""
    return lcm(1, *(t.denominator for v in vectors
                    for c in v.values() for t in c.parts))


def _shifts(c: Coeff, D: int):
    """(s, w) for each part w * e^{2*pi*i*s/D} of c."""
    return [(t.numerator * (D // t.denominator), w) for t, w in c.parts.items()]


def _reduce(rows: Dict[int, dict], v: dict) -> dict:
    """Subtract stored rows from v, in place, until no pivot column of
    ``rows`` is left in v.  Each stored row has entry 1 at its pivot, its
    smallest column, so pivots are cleared in ascending order."""
    heap = [c for c in v if c in rows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = v.pop(c, None)
        if f is None:
            continue
        for col, w in rows[c].items():
            if col == c:
                continue
            s = v.get(col)
            if s is None:
                v[col] = -f * w
                if col in rows:
                    heappush(heap, col)
            else:
                s -= f * w
                if s:
                    v[col] = s
                else:
                    del v[col]
    return v


def _insert(rows: Dict[int, dict], v: dict) -> Optional[int]:
    """Reduce v and store it under its pivot; returns the pivot, or None if
    v lies in the span of the stored rows."""
    _reduce(rows, v)
    if not v:
        return None
    p = min(v)
    inv = 1 / v[p]
    rows[p] = {c: w * inv for c, w in v.items()}
    return p


def solve_exact(columns: Sequence[Vector], target: Vector,
                mode: str = RATIONAL) -> Optional[List[Coeff]]:
    """Scalars c_j with sum_j c_j*column_j == target, or None if inconsistent.

    Free variables are set to zero, so the returned solution is particular,
    not unique.
    """
    if mode == FLOAT:
        return _solve_float(columns, target)
    D = _conductor(list(columns) + [target])
    rhs = len(columns) * D
    by_key: Dict[Hashable, list] = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            by_key.setdefault(key, []).append((j * D, _shifts(c, D)))
    for key in target:
        by_key.setdefault(key, [])
    rows: Dict[int, dict] = {}
    for key, entries in by_key.items():
        tv = dict(_shifts(target[key], D)) if key in target else {}
        # (c * x)[r] = sum_s c[s] x[(r - s) mod D]
        for r in range(D):
            v = {base + (r - s) % D: w for base, parts in entries for s, w in parts}
            if r in tv:
                v[rhs] = tv[r]
            if _insert(rows, v) == rhs:
                return None
    x = [Fraction(0)] * rhs
    for p in sorted(rows, reverse=True):
        row = rows[p]
        x[p] = row.get(rhs, 0) - sum(w * x[c] for c, w in row.items()
                                     if p < c < rhs)
    return [Coeff(RATIONAL, {Fraction(k, D): x[base + k] for k in range(D) if x[base + k]})
            for base in range(0, rhs, D)]


def first_outside_span(span: Sequence[Vector], vectors: Sequence[Vector],
                       mode: str = RATIONAL) -> Optional[int]:
    """Index of the first vector that is not a Coeff-combination of ``span``
    (``solve_exact(span, v, mode) is None``), or None if all of them are."""
    if mode == FLOAT:
        bad = np.flatnonzero(_float_residuals(span, vectors)[1] > FLOAT_SOLVE_TOL)
        return int(bad[0]) if bad.size else None
    D = _conductor(list(span) + list(vectors))
    index: Dict[Hashable, int] = {}

    def expand(v: Vector, shift: int) -> dict:
        out = {}
        for key, c in v.items():
            base = index.setdefault(key, len(index)) * D
            for s, w in _shifts(c, D):
                out[base + (s + shift) % D] = w
        return out

    rows: Dict[int, dict] = {}
    for v in span:
        for shift in range(D):
            _insert(rows, expand(v, shift))
    for idx, v in enumerate(vectors):
        if _reduce(rows, expand(v, 0)):
            return idx
    return None


# -- float mode ------------------------------------------------------------

def _float_residuals(columns: Sequence[Vector], targets: Sequence[Vector]):
    """Least-squares solutions for every target at once, and their residual
    norms.  The dense complex system has one row per key and is filled from
    each vector's own entries."""
    keys = sorted({k for v in list(columns) + list(targets) for k in v}, key=repr)
    row = {k: i for i, k in enumerate(keys)}

    def fill(vectors):
        m = np.zeros((len(keys), len(vectors)), dtype=complex)
        for j, v in enumerate(vectors):
            for key, c in v.items():
                m[row[key], j] = c.to_complex()
        return m

    a, b = fill(columns), fill(targets)
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    return x, np.linalg.norm(a @ x - b, axis=0)


def _solve_float(columns, target) -> Optional[List[Coeff]]:
    x, residual = _float_residuals(columns, [target])
    if residual[0] > FLOAT_SOLVE_TOL:
        return None
    return [Coeff.from_complex(z) for z in x[:, 0]]
