"""Exact linear solving over phase-combination scalars.

Systems sum_j c_j * column_j = target are solved for scalars c_j, where the
columns and the target are finitely supported maps from abstract coordinate
keys to :class:`~heegaard.coeff.Coeff`.  In rational mode every phase present
has some denominator dividing a common D, so each unknown expands over the
rational vector space spanned by the D phases e^{2*pi*i*k/D}; phase
multiplication becomes an index shift mod D and the whole system becomes a
rational linear system solved by Fraction Gaussian elimination.  In float
mode the system is solved by least squares with a residual threshold.

Connected components of the column/key incidence graph are solved
independently, which keeps the expanded systems small.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Hashable, List, Optional, Sequence

from .coeff import Coeff
from .phases import FLOAT, RATIONAL


def _components(columns: Sequence[Dict[Hashable, Coeff]]):
    """Group column indices by shared coordinate keys (union-find)."""
    parent = list(range(len(columns)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner: Dict[Hashable, int] = {}
    for j, col in enumerate(columns):
        for key in col:
            if key in owner:
                ra, rb = find(owner[key]), find(j)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[key] = j
    groups: Dict[int, List[int]] = {}
    for j in range(len(columns)):
        groups.setdefault(find(j), []).append(j)
    return groups.values(), owner, find


def _phase_den(c: Coeff) -> int:
    return lcm(1, *(t.denominator for t in c.parts))


def _gauss_solve(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """Particular solution of rows*x = rhs over the rationals, or None."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    aug = [rows[i] + [rhs[i]] for i in range(nr)]
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if aug[i][nc]:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return x


def _solve_component_rational(columns, target, col_idx, keys) -> Optional[List[Coeff]]:
    D = 1
    for j in col_idx:
        for c in columns[j].values():
            D = lcm(D, _phase_den(c))
    for key in keys:
        if key in target:
            D = lcm(D, _phase_den(target[key]))

    def expand(c: Coeff) -> List[Fraction]:
        v = [Fraction(0)] * D
        for t, w in c.parts.items():
            v[(t.numerator * (D // t.denominator)) % D] += w
        return v

    key_list = sorted(keys, key=repr)
    nrow = len(key_list) * D
    ncol = len(col_idx) * D
    rows = [[Fraction(0)] * ncol for _ in range(nrow)]
    rhs = [Fraction(0)] * nrow
    for ki, key in enumerate(key_list):
        if key in target:
            tv = expand(target[key])
            for r in range(D):
                rhs[ki * D + r] = tv[r]
        for cj, j in enumerate(col_idx):
            c = columns[j].get(key)
            if c is None:
                continue
            av = expand(c)
            # (a * x)[r] = sum_s a[s] x[(r - s) mod D]
            for s in range(D):
                if av[s]:
                    for k in range(D):
                        rows[ki * D + (s + k) % D][cj * D + k] += av[s]
    x = _gauss_solve(rows, rhs)
    if x is None:
        return None
    out = []
    for cj in range(len(col_idx)):
        parts = {}
        for k in range(D):
            w = x[cj * D + k]
            if w:
                parts[Fraction(k, D)] = w
        out.append(Coeff(RATIONAL, parts))
    return out


def solve_exact(columns: Sequence[Dict[Hashable, Coeff]],
                target: Dict[Hashable, Coeff],
                mode: str = RATIONAL) -> Optional[List[Coeff]]:
    """Scalars c_j with sum_j c_j*column_j == target, or None if inconsistent.

    Free variables are set to zero, so the returned solution is particular,
    not unique.
    """
    if mode == FLOAT:
        return _solve_float(columns, target)
    groups, owner, find = _components(columns)
    # target keys not touched by any column must carry zero
    for key, c in target.items():
        if key not in owner and not c.is_zero():
            return None
    result: List[Optional[Coeff]] = [None] * len(columns)
    for col_idx in groups:
        keys = set()
        for j in col_idx:
            keys.update(columns[j])
        sub = _solve_component_rational(columns, target, col_idx, keys)
        if sub is None:
            return None
        for j, c in zip(col_idx, sub):
            result[j] = c
    return [c if c is not None else Coeff.zero(RATIONAL) for c in result]


def _solve_float(columns, target, tol: float = 1e-10) -> Optional[List[Coeff]]:
    import numpy as np

    keys = sorted({k for col in columns for k in col} | set(target), key=repr)
    if not columns:
        ok = all(c.is_zero() for c in target.values())
        return [] if ok else None
    a = np.zeros((len(keys), len(columns)), dtype=complex)
    b = np.zeros(len(keys), dtype=complex)
    for ki, key in enumerate(keys):
        if key in target:
            b[ki] = target[key].to_complex()
        for j, col in enumerate(columns):
            if key in col:
                a[ki, j] = col[key].to_complex()
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ x - b) > tol:
        return None
    return [Coeff.from_complex(z) for z in x]

