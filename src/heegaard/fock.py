"""Truncated Fock representation, relation residuals, and numerical
K-class invariants.

The generators act on l2 of multi-indices mu with 0 <= mu_i <= M by
phase-twisted shifts; anything shifted past the cutoff is dropped.  Every
operator here is kept as bands on the grid of multi-indices:

* a band is a shift delta (a tuple, so nothing wraps across a boundary) and
  a complex array v of shape (M+1,)*n, acting by A e_mu = v[mu] e_{mu+delta};
  v is zero wherever mu + delta leaves the grid;
* the product of bands (da, va) and (db, vb) is the band da + db with values
  vb[mu] * va[mu + db], zero-filled off the grid, and a product of operators
  sums the products of their bands;
* the adjoint of (delta, v) is (-delta, w) with w[mu] = conj(v[mu - delta]);
* a sum adds the values of equal shifts, and the trace sums the delta = 0
  band;
* a single band is a weighted partial permutation, so its operator norm is
  max |v|.

Each generator, word and relation defect is a single band; generators and
defects are formed in closed form.  The invariant of a projector combines
the trace of its circle-averaged symbol (its rank) with a regularized trace:
the truncated trace of a lift grows like rank * (M+1)^{N+1}, and the
coefficient of (M+1)^N in the remainder is an integer charge that
distinguishes the line-bundle classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations
from math import prod
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


def _take(v: np.ndarray, d: Tuple[int, ...]) -> np.ndarray:
    """w[mu] = v[mu + d], zero where mu + d leaves the grid."""
    if not any(d):
        return v
    m = v.shape[0]
    out = np.zeros_like(v)
    if max(map(abs, d)) < m:
        out[tuple(slice(0, m - s) if s >= 0 else slice(-s, m) for s in d)] = \
            v[tuple(slice(s, m) if s >= 0 else slice(0, m + s) for s in d)]
    return out


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

    def adjoint(self) -> "SparseOperator":
        bands = {}
        for d, v in self.bands.items():
            back = tuple(-s for s in d)
            bands[back] = np.conj(_take(v, back))
        return SparseOperator(self.n, self.M, bands)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        out: Dict[Tuple[int, ...], np.ndarray] = {}
        for da, va in self.bands.items():
            for db, vb in other.bands.items():
                d = tuple(a + b for a, b in zip(da, db))
                if max(map(abs, d)) > self.M:
                    continue
                v = vb * _take(va, db)
                out[d] = out[d] + v if d in out else v
        return SparseOperator(self.n, self.M, out)

    def _merge(self, other: "SparseOperator", op) -> "SparseOperator":
        out = dict(self.bands)
        for d, v in other.bands.items():
            out[d] = op(out[d], v) if d in out else op(0, v)
        return SparseOperator(self.n, self.M, out)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self._merge(other, np.subtract)

    def scale(self, z) -> "SparseOperator":
        return SparseOperator(self.n, self.M, {d: v * z for d, v in self.bands.items()})

    def trace(self) -> complex:
        v = self.bands.get((0,) * self.n)
        return 0j if v is None else complex(v.sum())

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

    def toarray(self) -> np.ndarray:
        """Dense (dim, dim) matrix in the row-major order of the multi-indices."""
        shape = (self.M + 1,) * self.n
        out = np.zeros((self.dim, self.dim), dtype=complex)
        mus = np.indices(shape).reshape(self.n, -1)
        for d, v in self.bands.items():
            nus = mus + np.array(d)[:, None]
            ok = ((nus >= 0) & (nus <= self.M)).all(axis=0)
            out[np.ravel_multi_index(nus[:, ok], shape), ok.nonzero()[0]] += v.ravel()[ok]
        return out


def _identity(n: int, M: int) -> SparseOperator:
    return SparseOperator(n, M, {(0,) * n: np.ones((M + 1,) * n, complex)})


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


def represent(x: AlgebraElement, M: int) -> SparseOperator:
    """Linear extension of W_p W_q* -> S_0^{p_0}...S_N^{p_N} (adjoint word)."""
    ctx = x.ctx
    if ctx.unitary:
        raise ValueError("unitary-slot quotients have no truncated shift model")
    if ctx.kind == "sphere":
        x = x.with_context(ctx.ambient())        # any lift represents the class
        ctx = x.ctx
    gens = [fock_generator(i, M, ctx.theta) for i in range(ctx.n)]
    ident = _identity(ctx.n, M)

    def word(exps) -> SparseOperator:
        """S_0^{e_0} ... S_N^{e_N}."""
        return reduce(SparseOperator.__matmul__,
                      [g for g, e in zip(gens, exps) for _ in range(e)], ident)

    out = SparseOperator(ctx.n, M, {})
    for (p, q), c in x.terms.items():
        out = out + (word(p) @ word(q).adjoint()).scale(c.to_complex())
    return out


def relation_defects(N: int, theta: ThetaMatrix, M: int) -> Iterator[SparseOperator]:
    """The defects S_i*S_i - 1, S_iS_j - e(theta_ij)S_jS_i and
    S_iS_j* - e(-theta_ij)S_j*S_i on the interior mu_s <= M-2, where no shift
    leaves the grid: one band each, zero off the interior.  With v_i the band
    of S_i and ph = e(theta_ij), the band algebra's products at mu, formed in
    its operand order (so bit for bit), are v_i[mu] conj(v_i[mu]) - 1,
    v_j[mu] v_i[mu+e_j] - (v_i[mu] v_j[mu+e_i]) ph and conj(v_j[mu-e_j])
    v_i[mu-e_j] - (v_i[mu] conj(v_j[mu+e_i-e_j])) / ph, 0 where S_j* kills mu."""
    if M < 3:
        raise ValueError("truncation too small to leave an interior")
    if theta.n != N + 1:
        raise ValueError("twist size must be N+1")
    n = N + 1
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


def relation_residual(N: int, theta: ThetaMatrix, M: int) -> float:
    """Largest operator norm of the ``relation_defects``."""
    return max(d.norm() for d in relation_defects(N, theta, M))


def truncated_trace(x: AlgebraElement, M: int) -> complex:
    """Trace of represent(x, M), evaluated in closed form.

    Only diagonal words contribute: Tr rep(W_p W_p*) counts the multi-indices
    componentwise >= p, which is prod_i max(M+1-p_i, 0).
    """
    return sum((c.to_complex() * prod(max(M + 1 - v, 0) for v in p)
                for (p, q), c in x.terms.items() if p == q), 0j)


@dataclass(frozen=True)
class ClassInvariant:
    dimension_class: int
    compact_charge: int
    truncations_used: Tuple[int, ...]
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


def _longest_diagonal(diag: List[AlgebraElement]) -> int:
    """The longest exponent of the entries' diagonal words; a lift keeps
    every word, so the entries are read as they are."""
    return max((max(p) for x in diag for (p, q) in x.terms if p == q), default=0)


def default_truncations(diag: List[AlgebraElement]) -> List[int]:
    """The smallest truncations ``class_invariant`` admits: N+2 consecutive
    cutoffs from max(1, longest diagonal exponent - 1)."""
    start = max(1, _longest_diagonal(diag) - 1)
    return list(range(start, start + diag[0].ctx.n + 1))


def class_invariant(diag: List[AlgebraElement], m_list: List[int]) -> ClassInvariant:
    """K-class data (dimension class, compact charge) of a projector over the
    sphere quotient, from its diagonal entries (``bundles.projector_diagonal``).

    The dimension class is the trace sum_k scalar_part(E_kk), the torus
    average of the symbol's pointwise trace, which is its rank for any
    projector.  The compact charge is the coefficient of (M+1)^N in
    Tr rep_M(lift(E)) - d*(M+1)^{N+1}, read from its closed form
    (``compact_charge``).  The trace is that polynomial in M+1 once M+1 is at
    least every exponent of the diagonal words, so the truncations (at least
    N+2, ascending) must all lie in that range.  Both numbers sum coefficients
    +-1 (the diagonal lemma), so they are exact at zero and rational twists;
    ``residual``, their distance from integers, is bounded by ``CHARGE_TOL``.
    """
    n = diag[0].ctx.n               # N + 1
    if len(m_list) < n + 1:
        raise ValueError(f"need at least {n + 1} truncations")
    if sorted(m_list) != list(m_list):
        raise ValueError("truncations must be ascending")
    trace = sum(map(scalar_part, diag), 0j)
    longest = _longest_diagonal(diag)
    if m_list[0] + 1 < longest:
        raise UnstableInvariant(
            f"truncation {m_list[0]} is below the longest diagonal word "
            f"(exponent {longest}), where the truncated trace is not yet "
            f"polynomial; truncations {m_list}")
    charge = compact_charge([x.with_context(x.ctx.ambient()) for x in diag])
    d, chi = round(trace.real), round(charge.real)
    off = max(abs(trace.imag), abs(trace.real - d), abs(charge.imag), abs(charge.real - chi))
    if off > CHARGE_TOL:
        raise UnstableInvariant(f"trace {trace} or charge {charge} is not an integer")
    return ClassInvariant(dimension_class=d,
                          compact_charge=chi,
                          truncations_used=tuple(m_list),
                          residual=off)
