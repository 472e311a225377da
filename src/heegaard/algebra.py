"""Monomial calculus for the twisted multi-isometry algebra and its quotients.

Elements live in the dense *-subalgebra spanned by canonical words
W_p W_q* = w_0^{p_0}...w_N^{p_N} w_N^{*q_N}...w_0^{*q_0}, with creations in
ascending generator order and annihilations descending.  The defining
relations are

    w_i w_j   = e^{2*pi*i*theta_ij} w_j w_i,
    w_i w_j*  = e^{-2*pi*i*theta_ij} w_j* w_i   (i != j),
    w_i* w_i  = 1,

so the product of two basis words is a single basis word times a unimodular
phase, bilinear in the exponents.  With m = min(q, r) slot-wise,
r' = r - m and q' = q - m (at most one of r'_a, q'_a is nonzero),

    (W_p W_q*)(W_r W_t*) = e(phi) W_{p+r'} W_{q'+t}*,
    phi = sum_{a<c} [r'_a (q_c - p_c) + q'_a (t_c - r_c)] theta_ac,

with e(x) = e^{2*pi*i*x} and phi an integer exponent over the twist's
conductor (``ThetaMatrix.table``).  Quotient contexts impose extra relations:
unitary slots add w_s w_s* = 1, and the sphere quotient kills the
range-complement product prod_j (1 - w_j w_j*).

``AlgebraElement.__mul__`` evaluates this formula once per pair of terms
(``_word_product``, in a loop ``_add_products`` that the contraction of
``bundles`` shares; its projector entries and the chart check of
``quotients`` call the kernel alone): q - p of each left word and t - r of
each right word are taken once, and one pass over the slots builds the word
and sums phi.  Float twist entries are exact dyadic rationals, so phi is
an exact integer in both modes and the order of its sum does not matter.

Reducing W_p W_q* on a slot set V (``_unitary_reduce``) cancels the
min(p_s, q_s) pairs w_s w_s* of each s in V for the phase
sum_{s in V} min(p_s, q_s) sum_{j>s} theta_sj (p_j - q_j), additive over
slots and independent of their order, because a reduction leaves every
p_j - q_j unchanged.  In the sphere quotient every fully-interior word
(all k_s = min(p_s, q_s) >= 1) has the closed normal form

    W_p W_q*  =  sum_{V nonempty} (-1)^{|V|+1} (W_p W_q* reduced on V),

2^n - 1 words, each with min 0 on some slot.  Why: the projections
Q_s = w_s^{k_s} w_s*^{k_s} commute with the letters of every other slot, so
W_p W_q* is prod_s Q_s sandwiched between the reduced outer letters, and
dropping Q_s for s in V is the reduction on V.  The ideal contains
prod_s (1 - Q_s), since 1 - Q_s = sum_{i<k_s} w_s^i (1 - w_s w_s*) w_s*^i;
expanding that product and solving for prod_s Q_s gives the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import sub
from typing import Dict, Tuple

from .coeff import Coeff
from .phases import ThetaMatrix, check_dims

TOEPLITZ = "toeplitz"
SPHERE = "sphere"

MultiIndex = Tuple[int, ...]


class ContextMismatch(ValueError):
    pass


class SizeOverflow(ValueError):
    """A size over one of the module caps, refused before it is built."""


@dataclass(frozen=True)
class Context:
    """Algebra tag: which relations hold beyond the ambient twisted ones.

    kind "toeplitz" with empty ``unitary`` is the full algebra; nonempty
    ``unitary`` lists the slots whose generator has been made unitary (one
    slot for B_i, two for B_ij).  kind "sphere" is the quotient by the ideal
    generated by prod_j (1 - w_j w_j*).
    """

    kind: str
    theta: ThetaMatrix
    unitary: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in (TOEPLITZ, SPHERE):
            raise ValueError(f"unknown context kind {self.kind!r}")
        if self.kind == SPHERE and self.unitary:
            raise ValueError("sphere context admits no unitary slots")
        if len(set(self.unitary)) != len(self.unitary):
            raise ValueError("repeated unitary slot")
        for s in self.unitary:
            if not 0 <= s < self.theta.n:
                raise IndexError(f"unitary slot {s} out of range")
        object.__setattr__(self, "unitary", tuple(sorted(self.unitary)))

    @property
    def n(self) -> int:
        return self.theta.n

    @property
    def mode(self) -> str:
        return self.theta.mode

    @classmethod
    def toeplitz(cls, theta: ThetaMatrix) -> "Context":
        return cls(TOEPLITZ, theta)

    @classmethod
    def quotient(cls, theta: ThetaMatrix, *slots: int) -> "Context":
        return cls(TOEPLITZ, theta, tuple(slots))

    @classmethod
    def sphere(cls, theta: ThetaMatrix) -> "Context":
        return cls(SPHERE, theta)

    def ambient(self) -> "Context":
        """The plain algebra with the same twist (all extra relations dropped)."""
        return Context(TOEPLITZ, self.theta)


def _unitary_reduce(table, slots, p, q):
    """W_p W_q* reduced on ``slots``: (phase over ``table``'s conductor, p', q').

    Cancelling one w_s w_s* pair moves the innermost w_s right past the
    higher-index creations and the matching w_s* left past the higher-index
    stars, for a net exponent sum_{j>s} theta_sj (p_j - q_j) per pair.  The
    one slot reduction of the package: unitary quotients, the sphere normal
    form of a non-diagonal word, glue's gauge and the chart check.
    """
    phase, p, q, n = 0, list(p), list(q), len(p)
    for s in slots:
        k = min(p[s], q[s])
        if k:
            for j in range(s + 1, n):
                d = p[j] - q[j]
                if d:
                    phase += k * d * table[s][j]
            p[s] -= k
            q[s] -= k
    return phase, tuple(p), tuple(q)


def _word_product(table, p, q, qp, r, t, tr):
    """(phi, p + r', q' + t) of (W_p W_q*)(W_r W_t*) over ``table``'s conductor
    (module docstring), given qp = q - p and tr = t - r."""
    phase, pp, qq, n = 0, list(p), list(t), len(p)
    for a in range(n):
        d = r[a] - q[a]
        if d > 0:       # r'_a = d pairs with q_c - p_c
            pp[a] += d
            u = qp
        elif d:         # q'_a = -d pairs with t_c - r_c
            d = -d
            qq[a] += d
            u = tr
        else:
            continue
        row = table[a]
        for c in range(a + 1, n):
            k = d * u[c]
            if k:
                phase += k * row[c]
    return phase, tuple(pp), tuple(qq)


def _add_products(out, theta: ThetaMatrix, left, right) -> None:
    """Add the product of the term dicts ``left`` and ``right`` into ``out``."""
    table, D = theta.table, theta.conductor
    rights = [(r, t, tuple(map(sub, t, r)), c2) for (r, t), c2 in right.items()]
    for (p, q), c1 in left.items():
        qp = tuple(map(sub, q, p))
        for r, t, tr, c2 in rights:
            phase, pp, qq = _word_product(table, p, q, qp, r, t, tr)
            c, key = (c1 * c2).times_exponent(phase, D), (pp, qq)
            out[key] = out[key] + c if key in out else c


class AlgebraElement:
    """Finite linear combination of canonical monomials in a fixed context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Dict[Tuple[MultiIndex, MultiIndex], Coeff]):
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "AlgebraElement":
        return cls(ctx, {})

    @classmethod
    def monomial(cls, ctx: Context, p, q, coeff=None) -> "AlgebraElement":
        p, q = tuple(p), tuple(q)
        check_dims(ctx.theta, p, q)
        if any(v < 0 for v in p + q):
            raise ValueError("multi-index entries must be non-negative")
        c = coeff if coeff is not None else Coeff.from_exponent(0, ctx.theta)
        return _canonicalize(ctx, {(p, q): c})

    # -- linear structure --------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"contexts differ: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return AlgebraElement(self.ctx, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, w) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {m: c.scale(w) for m, c in self.terms.items()})

    def times_coeff(self, c: Coeff) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {m: cc * c for m, cc in self.terms.items()})

    def times_phase(self, t) -> "AlgebraElement":
        return AlgebraElement(self.ctx, {m: c.times_phase(t) for m, c in self.terms.items()})

    # -- multiplicative structure -----------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms: Dict[Tuple[MultiIndex, MultiIndex], Coeff] = {}
        _add_products(terms, self.ctx.theta, self.terms, other.terms)
        return _canonicalize(self.ctx, terms)

    def star(self) -> "AlgebraElement":
        # (W_p W_q*)* = W_q W_p* is already canonical, so no reordering phase
        return _canonicalize(self.ctx,
                             {(q, p): c.conj() for (p, q), c in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms   # both pruned

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0])

    def degrees(self):
        """Set of total U(1)-degrees |p| - |q| present."""
        return {sum(p) - sum(q) for p, q in self.terms}

    def with_context(self, ctx: Context) -> "AlgebraElement":
        """Reinterpret the same combination of words in another context.

        Moving toward a quotient re-canonicalizes; moving toward the ambient
        algebra is a (non-canonical) lift of representatives.
        """
        if ctx.theta != self.ctx.theta:
            raise ContextMismatch("contexts carry different twist matrices")
        return _canonicalize(ctx, self.terms)

    def __repr__(self):
        return " + ".join(f"{c!r}*W{list(p)}W{list(q)}^*"
                          for (p, q), c in self.sorted_terms()) or "0"


@lru_cache(maxsize=None)
def _signed_slot_sets(n: int):
    """The nonempty slot sets V of range(n), each listed after V minus its
    last slot s, as (index of that prefix or -1 for the empty set, s, the
    sign (-1)^{|V|+1}, V)."""
    sets = [v for k in range(1, n + 1) for v in combinations(range(n), k)]
    index = {v: i for i, v in enumerate(sets)}
    return tuple((index.get(v[:-1], -1), v[-1], (-1) ** (len(v) + 1), v) for v in sets)


def _canonicalize(ctx: Context,
                  terms: Dict[Tuple[MultiIndex, MultiIndex], Coeff]) -> AlgebraElement:
    """Apply the context's extra relations term-wise and prune zeros.

    Unitary contexts reduce on their unitary slots every word interior on
    one of them.  In the sphere quotient a fully-interior word (no zero
    exponent) is the inclusion-exclusion sum over the slot sets V of the
    module docstring, each term ``_unitary_reduce`` on V, and terms with
    none are wrapped as they are.  A diagonal word W_p W_p*, as in a
    connection's contraction, reduces at phase 0, so each reduction takes
    c.times_exponent(0, D, +-1), formed once, and its word from the one on
    V minus its last slot.
    """
    sphere, unitary = ctx.kind == SPHERE, ctx.unitary
    if not unitary and not (sphere and any(0 not in p + q for p, q in terms)):
        return AlgebraElement(ctx, terms)
    table, D = ctx.theta.table, ctx.theta.conductor
    tree, out = _signed_slot_sets(ctx.n) if sphere else (), {}
    for (p, q), c in terms.items():
        if not sphere:
            for s in unitary:
                if p[s] and q[s]:
                    phase, p, q = _unitary_reduce(table, unitary, p, q)
                    c = c.times_exponent(phase, D)
                    break
        if not sphere or 0 in p or 0 in q:
            out[p, q] = out[p, q] + c if (p, q) in out else c
        elif p == q:
            pos, neg, reduced = c.times_exponent(0, D), c.times_exponent(0, D, -1), []
            for prefix, s, sign, _ in tree:
                pp = reduced[prefix] if prefix >= 0 else p
                reduced.append(pp[:s] + (0,) + pp[s + 1:])
                key, cc = (reduced[-1],) * 2, pos if sign > 0 else neg
                out[key] = out[key] + cc if key in out else cc
        else:
            for _, _, sign, v in tree:
                phase, pp, qq = _unitary_reduce(table, v, p, q)
                key, cc = (pp, qq), c.times_exponent(phase, D, sign)
                out[key] = out[key] + cc if key in out else cc
    return AlgebraElement(ctx, out)


def generator(ctx: Context, i: int) -> AlgebraElement:
    if not 0 <= i < ctx.n:
        raise IndexError(f"generator index {i} out of range")
    p = tuple(1 if j == i else 0 for j in range(ctx.n))
    return AlgebraElement.monomial(ctx, p, (0,) * ctx.n)


def unit(ctx: Context) -> AlgebraElement:
    z = (0,) * ctx.n
    return AlgebraElement(ctx, {(z, z): Coeff.from_exponent(0, ctx.theta)})

