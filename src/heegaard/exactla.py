"""Exact solving of the 0/1 linear systems that ``glue`` poses.

Each column of sum_j c_j * column_j = target is the set of keys where it
holds the rational 1; only the target {key: Coeff} carries phases.  The
matrix is brought to row-echelon form over Q with pivots in ascending
column order, and each row's right-hand side is one Coeff under the same
row operations.  Coeff arithmetic is componentwise in the group ring
Q[Z/D], and a ``FloatCoeff`` target takes the same path.  A row also
carries k, at least the l1 weight of the target entries its right-hand
side t combines (1 at a target key, else 0; a row operation with factor f
adds |f| * k_r, normalising multiplies by |1/pivot|).  A row left with no
column entry is inconsistent exactly when ``t.is_zero(k)`` fails: a float
t is zero within k times the tolerance by which ``quotients.is_compatible``
lets single coefficients differ.  The particular solution (free
unknowns zero) is the right-hand side of the reduced row-echelon form,
unique for the column order, so a dense Gauss-Jordan elimination gives it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Collection, Dict, Hashable, Optional, Sequence

from .coeff import Coeff


def _insert(rows: Dict[int, tuple], v: dict, t: Coeff, k) -> Optional[tuple]:
    """Subtract stored rows from the row (v, t, k), v in place, until v holds
    no pivot of ``rows``, in ascending order (stored rows have weight 1 at
    their pivot, their smallest column), and store the rest under its
    pivot.  Returns the (t, k) left if no column is, else None."""
    heap = [c for c in v if c in rows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = v.pop(c, None)
        if f is None:
            continue
        row, rhs, kr = rows[c]
        for col, w in row.items():
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
        t = t - rhs if f == 1 else t + rhs if f == -1 else t + rhs.scale(-f)
        k += abs(f) * kr
    if not v:
        return t, k
    p = min(v)
    pivot = v[p]
    if pivot == 1:
        rows[p] = v, t, k
    elif pivot == -1:
        rows[p] = {c: -w for c, w in v.items()}, -t, k
    else:
        inv = Fraction(1) / pivot
        rows[p] = {c: w * inv for c, w in v.items()}, t.scale(inv), k * abs(inv)
    return None


def solve_exact(columns: Sequence[Collection[Hashable]],
                target: Dict[Hashable, Coeff]) -> Optional[Dict[int, Coeff]]:
    """{j: c_j} for the nonzero c_j with sum_j c_j * 1_{column_j} == target,
    or None if the system is inconsistent.

    Free unknowns are set to zero, so the returned solution is particular,
    not unique.
    """
    if not target:
        return {}
    zero = next(iter(target.values())).scale(0)    # at the target's conductor
    by_key: Dict[Hashable, dict] = {key: {} for key in target}
    for j, col in enumerate(columns):
        for key in col:
            by_key.setdefault(key, {})[j] = 1
    rows: Dict[int, tuple] = {}
    for key, v in by_key.items():
        rest = _insert(rows, v, *((target[key], 1) if key in target else (zero, 0)))
        if rest and not rest[0].is_zero(rest[1]):
            return None
    x: Dict[int, Coeff] = {}
    for p in sorted(rows, reverse=True):
        row, c, _ = rows[p]
        for col, w in row.items():
            if col in x:
                c = c - x[col] if w == 1 else c + x[col] if w == -1 else c + x[col].scale(-w)
        if not c.is_zero():
            x[p] = c
    return dict(sorted(x.items()))
