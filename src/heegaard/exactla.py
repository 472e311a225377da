"""Exact solving of the 0/1 linear systems that ``glue`` poses.

Each column of sum_j c_j * column_j = target is the set of keys where it
holds the rational 1; only the target {key: Coeff} carries phases.  The
matrix is brought to row-echelon form over Q with pivots in ascending
column order, and each row's right-hand side is one Coeff under the same
row operations.  Coeff arithmetic is componentwise in the group ring
Q[Z/D], and a ``FloatCoeff`` target takes the same path.  A row left with
no column entry is inconsistent exactly when its Coeff is not zero (at a
float target, within a bound that ``_Bounded`` tracks).  The particular
solution (free unknowns zero) is the right-hand side of the reduced
row-echelon form, unique for the column order, so it is the one a dense
Gauss-Jordan elimination gives.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Collection, Dict, Hashable, Optional, Sequence

from .coeff import Coeff
from .phases import FLOAT, FLOAT_TOL


class _Bounded:
    """A float right-hand side c and k, at least the l1 weight of the target
    entries c combines.  ``quotients.is_compatible`` lets coefficients differ
    by up to ``FLOAT_TOL`` one at a time, and a row's residual adds such
    offsets with the row's weights, so a row left with no column is
    consistent when |c| < ``FLOAT_TOL`` * max(k, 1).  c takes the Coeff
    operations an untracked right-hand side takes, so it has the same value.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: Coeff, k: float):
        self.c, self.k = c, k

    def __add__(self, other: "_Bounded") -> "_Bounded":
        return _Bounded(self.c + other.c, self.k + other.k)

    def __neg__(self) -> "_Bounded":
        return _Bounded(-self.c, self.k)

    def __sub__(self, other: "_Bounded") -> "_Bounded":
        return _Bounded(self.c - other.c, self.k + other.k)

    def scale(self, w) -> "_Bounded":
        return _Bounded(self.c.scale(w), self.k * abs(w))

    def is_zero(self) -> bool:
        return abs(self.c.to_complex()) < FLOAT_TOL * max(self.k, 1)


def _insert(rows: Dict[int, tuple], v: dict, t: Coeff) -> Optional[Coeff]:
    """Subtract stored rows from the row (v, t), v in place, until v holds
    no pivot of ``rows``, in ascending order (stored rows have weight 1 at
    their pivot, their smallest column), and store the rest under its
    pivot.  Returns the right-hand side left if no column is, else None."""
    heap = [c for c in v if c in rows]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = v.pop(c, None)
        if f is None:
            continue
        row, rhs = rows[c]
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
    if not v:
        return t
    p = min(v)
    pivot = v[p]
    if pivot == 1:
        rows[p] = v, t
    elif pivot == -1:
        rows[p] = {c: -w for c, w in v.items()}, -t
    else:
        inv = Fraction(1) / pivot
        rows[p] = {c: w * inv for c, w in v.items()}, t.scale(inv)
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
    bounded = zero.mode == FLOAT                    # rational rows track nothing
    if bounded:
        zero = _Bounded(zero, 0)
        target = {key: _Bounded(c, 1) for key, c in target.items()}
    by_key: Dict[Hashable, dict] = {key: {} for key in target}
    for j, col in enumerate(columns):
        for key in col:
            by_key.setdefault(key, {})[j] = 1
    rows: Dict[int, tuple] = {}
    for key, v in by_key.items():
        rest = _insert(rows, v, target.get(key, zero))
        if rest is not None and not rest.is_zero():
            return None
    if bounded:
        rows = {p: (row, t.c) for p, (row, t) in rows.items()}
    x: Dict[int, Coeff] = {}
    for p in sorted(rows, reverse=True):
        row, c = rows[p]
        for col, w in row.items():
            if col in x:
                c = c - x[col] if w == 1 else c + x[col] if w == -1 else c + x[col].scale(-w)
        if not c.is_zero():
            x[p] = c
    return dict(sorted(x.items()))
