"""Reference Fock band algebra for the tests: products, adjoints, sums and
traces of band operators, and the truncated representation of algebra
elements.

``heegaard.fock`` forms each generator and relation defect in closed form and
only ever takes the norm of one band.  This module keeps the full band algebra
those closed forms were derived from, so that tests can cross-check them and
compare the representation with dense matrices and the exact product.

Every operator is kept as bands on the grid of multi-indices 0 <= mu_i <= M:

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

``BandOperator`` is ``fock.SparseOperator`` with that algebra (``@``, ``+``,
``-``, ``adjoint``, ``scale``, ``trace`` and ``toarray``); ``band`` gives an
operator of ``heegaard.fock`` the algebra.
"""

from __future__ import annotations

from functools import reduce
from math import prod
from typing import Dict, Tuple

import numpy as np

from heegaard.algebra import AlgebraElement
from heegaard.fock import SparseOperator, fock_generator


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


class BandOperator(SparseOperator):
    """A ``SparseOperator`` with the band algebra of the module docstring."""

    def adjoint(self) -> "BandOperator":
        bands = {}
        for d, v in self.bands.items():
            back = tuple(-s for s in d)
            bands[back] = np.conj(_take(v, back))
        return BandOperator(self.n, self.M, bands)

    def __matmul__(self, other: SparseOperator) -> "BandOperator":
        out: Dict[Tuple[int, ...], np.ndarray] = {}
        for da, va in self.bands.items():
            for db, vb in other.bands.items():
                d = tuple(a + b for a, b in zip(da, db))
                if max(map(abs, d)) > self.M:
                    continue
                v = vb * _take(va, db)
                out[d] = out[d] + v if d in out else v
        return BandOperator(self.n, self.M, out)

    def _merge(self, other: SparseOperator, op) -> "BandOperator":
        out = dict(self.bands)
        for d, v in other.bands.items():
            out[d] = op(out[d], v) if d in out else op(0, v)
        return BandOperator(self.n, self.M, out)

    def __add__(self, other: SparseOperator) -> "BandOperator":
        return self._merge(other, np.add)

    def __sub__(self, other: SparseOperator) -> "BandOperator":
        return self._merge(other, np.subtract)

    def scale(self, z) -> "BandOperator":
        return BandOperator(self.n, self.M, {d: v * z for d, v in self.bands.items()})

    def trace(self) -> complex:
        v = self.bands.get((0,) * self.n)
        return 0j if v is None else complex(v.sum())

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


def band(op: SparseOperator) -> BandOperator:
    """``op`` with the band algebra, sharing its bands."""
    return BandOperator(op.n, op.M, op.bands)


def identity(n: int, M: int) -> BandOperator:
    return BandOperator(n, M, {(0,) * n: np.ones((M + 1,) * n, complex)})


def represent(x: AlgebraElement, M: int) -> BandOperator:
    """Linear extension of W_p W_q* -> S_0^{p_0}...S_N^{p_N} (adjoint word)."""
    ctx = x.ctx
    if ctx.unitary:
        raise ValueError("unitary-slot quotients have no truncated shift model")
    if ctx.kind == "sphere":
        x = x.with_context(ctx.ambient())        # any lift represents the class
        ctx = x.ctx
    gens = [band(fock_generator(i, M, ctx.theta)) for i in range(ctx.n)]
    ident = identity(ctx.n, M)

    def word(exps) -> BandOperator:
        """S_0^{e_0} ... S_N^{e_N}."""
        return reduce(BandOperator.__matmul__,
                      [g for g, e in zip(gens, exps) for _ in range(e)], ident)

    out = BandOperator(ctx.n, M, {})
    for (p, q), c in x.terms.items():
        out = out + (word(p) @ word(q).adjoint()).scale(c.to_complex())
    return out


def truncated_trace(x: AlgebraElement, M: int) -> complex:
    """Trace of represent(x, M), evaluated in closed form.

    Only diagonal words contribute: Tr rep(W_p W_p*) counts the multi-indices
    componentwise >= p, which is prod_i max(M+1-p_i, 0).
    """
    return sum((c.to_complex() * prod(max(M + 1 - v, 0) for v in p)
                for (p, q), c in x.terms.items() if p == q), 0j)
