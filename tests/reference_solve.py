"""Reference solver for the tests: exact linear solving with phase columns.

This is the general solver ``heegaard.exactla`` had before glue's system
became phase-free, kept unchanged so that tests can compare the union-find
span check, the gauged glue lift and the phase-free solver against an
independent solve of the same systems with the phases in the columns.

Systems sum_j c_j * column_j = target are solved for scalars c_j, where the
columns and the target are finitely supported maps from abstract coordinate
keys to :class:`~heegaard.coeff.Coeff`, whose class picks the method.  Exact
phases all have some denominator dividing a common D, so each unknown
expands over the rational vector space spanned by the D phases
e^{2*pi*i*k/D}; phase multiplication becomes an index shift mod D and the
whole system becomes a rational linear system.  A
:class:`~heegaard.coeff.FloatCoeff` system is solved by least squares with a
residual threshold.

The system is expanded over the columns' own conductor D, not over the
conductor D_T = R*D of columns and target together.  The target splits into
its R cosets, t = sum_r e(r/D_T) * t_r with every t_r at conductor D, and
each coset is one right-hand column.  Expanded over D_T the system is
block-diagonal over the cosets: block r holds the unknowns' parts
e(r/D_T) e(s/D), in the same order, and is the D-expanded system with t_r
on the right.  So every block has the same pivots, and the particular
solution (below) of the D_T-fold expansion is read off one block's
elimination with R right-hand sides, as c_j = sum_r e(r/D_T) * x_{j,r}.

Each D-block is a circulant with one nonzero per row for every phase of its
coefficient, so the system is kept sparse: a row is a dict from column
index to a rational weight, and ``_insert`` brings rows to row-echelon form
with pivots taken in a fixed column order: column j*D + s is the weight of
e^{2*pi*i*s/D} in c_j, and coset r of the target is column rhs + r, last.
The system is inconsistent exactly when a right-hand column becomes a
pivot.  A row is divided by its pivot only when the pivot is not +-1, so
weights stay ints as long as they can, and integral solution weights are
returned as ints.  The particular solution sets the free unknowns to zero
and back-substitutes the pivot unknowns.  That is the right-hand side of the
reduced row-echelon form, which is unique for a fixed column order whatever
the order in which rows are eliminated, so the solution is the one a dense
Gauss-Jordan elimination of the same system gives.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from heegaard.coeff import Coeff, FloatCoeff, _new

Vector = Dict[Hashable, Coeff]

FLOAT_SOLVE_TOL = 1e-10


def _conductor(vectors) -> int:
    """Common denominator D of every phase in the vectors."""
    return lcm(1, *(c.D // gcd(c.D, *c.terms) for v in vectors for c in v.values()))


def _shifts(c: Coeff, D: int):
    """(s, w) for each part w * e^{2*pi*i*s/D} of c (D a multiple of every
    exponent's denominator)."""
    return [(k * D // c.D, w) for k, w in c.terms.items()]


def _insert(rows: Dict[int, dict], v: dict) -> Optional[int]:
    """Subtract stored rows from v, in place, until no pivot column of
    ``rows`` is left in v, and store the rest under its pivot, its smallest
    column.  Each stored row has entry 1 at its pivot, so pivots are cleared
    in ascending order.  Returns the pivot, or None if v lies in the span of
    the stored rows."""
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
    if not v:
        return None
    p = min(v)
    pivot = v[p]
    if pivot == 1:
        rows[p] = v
    elif pivot == -1:
        rows[p] = {c: -w for c, w in v.items()}
    else:
        inv = Fraction(1) / pivot
        rows[p] = {c: w * inv for c, w in v.items()}
    return p


def solve_exact(columns: Sequence[Vector], target: Vector) -> Optional[List[Coeff]]:
    """Scalars c_j with sum_j c_j*column_j == target, or None if inconsistent.

    Free variables are set to zero, so the returned solution is particular,
    not unique.
    """
    vectors = (*columns, target)
    if isinstance(next((c for v in vectors for c in v.values()), None), FloatCoeff):
        # dense least squares, one row per key, the target in the last column
        keys = sorted({k for v in vectors for k in v}, key=repr)
        row = {k: i for i, k in enumerate(keys)}
        m = np.zeros((len(keys), len(vectors)), dtype=complex)
        for j, v in enumerate(vectors):
            for key, c in v.items():
                m[row[key], j] = c.to_complex()
        a, b = m[:, :-1], m[:, -1]
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        return (None if np.linalg.norm(a @ x - b) > FLOAT_SOLVE_TOL
                else [Coeff.from_complex(z) for z in x])
    D = _conductor(columns)
    R = lcm(D, _conductor([target])) // D
    rhs = len(columns) * D
    # per key: the column parts, and the target parts as {phase: {column: weight}}
    by_key: Dict[Hashable, tuple] = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            by_key.setdefault(key, ([], {}))[0].append((j * D, _shifts(c, D)))
    for key, c in target.items():
        tv = by_key.setdefault(key, ([], {}))[1]
        for k, w in _shifts(c, D * R):
            s, r = divmod(k, R)
            tv.setdefault(s, {})[rhs + r] = w
    rows: Dict[int, dict] = {}
    for entries, tv in by_key.values():
        # (c * x)[k] = sum_s c[s] x[(k - s) mod D]
        for k in range(D):
            v = {base + (k - s) % D: w for base, parts in entries for s, w in parts}
            if k in tv:
                v.update(tv[k])
            p = _insert(rows, v)
            if p is not None and p >= rhs:
                return None
    # x[j*D + s]: {r: the weight of e(r/(R*D)) * e(s/D) in c_j}
    x = [{}] * rhs
    for p in sorted(rows, reverse=True):
        acc = {}
        for c, w in rows[p].items():
            if c >= rhs:
                acc[c - rhs] = acc.get(c - rhs, 0) + w
            elif c != p:
                for r, v in x[c].items():
                    acc[r] = acc.get(r, 0) - w * v
        x[p] = {r: v.numerator if type(v) is Fraction and v.denominator == 1 else v
                for r, v in acc.items() if v}
    return [_new(Coeff, D * R, dict(sorted((r + R * s, w) for s in range(D)
                                           for r, w in x[base + s].items())))
            for base in range(0, rhs, D)]
