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

Reducing W_p W_q* on a slot set V cancels the min(p_s, q_s) pairs w_s w_s*
of each s in V for the phase sum_{s in V} min(p_s, q_s) sum_{j>s}
theta_sj (p_j - q_j).  It is additive over slots and independent of their
order, because a reduction leaves every p_j - q_j unchanged.  In the sphere
quotient every fully-interior word (all k_s = min(p_s, q_s) >= 1) has the
closed normal form

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
from itertools import combinations, product
from operator import add
from typing import Dict, Tuple

from .coeff import Coeff
from .phases import ThetaMatrix, check_dims

TOEPLITZ = "toeplitz"
SPHERE = "sphere"

MultiIndex = Tuple[int, ...]


class ContextMismatch(ValueError):
    pass


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


def _mono_product(theta: ThetaMatrix, p, q, r, t):
    """(W_p W_q*)(W_r W_t*) = e(phase/D) W_{p+r'} W_{q'+t}*; returns
    (phase, p', q') with phase an exponent over the conductor D.

    The closed form of the module docstring, with zero integer factors skipped.
    """
    table, n = theta.table, theta.n
    rr = [b - a if b > a else 0 for a, b in zip(q, r)]
    qq = [a - b if a > b else 0 for a, b in zip(q, r)]
    phase = 0
    for a in range(n):
        ra, qa = rr[a], qq[a]
        if not (ra or qa):
            continue
        row = table[a]
        for c in range(a + 1, n):
            k = ra * (q[c] - p[c]) + qa * (t[c] - r[c])
            if k:
                phase += k * row[c]
    return phase, tuple(map(add, p, rr)), tuple(map(add, qq, t))


def _unitary_reduce(theta: ThetaMatrix, slots, p, q):
    """Cancel w_s w_s* pairs in unitary slots; returns (phase over D, p', q').

    Cancelling one pair in slot s moves the innermost w_s right past the
    higher-index creations and the matching w_s* left past the higher-index
    stars, for a net exponent sum_{j>s} theta_sj (p_j - q_j) per pair.
    """
    table = theta.table
    phase = 0
    p = list(p)
    q = list(q)
    for s in slots:
        k = min(p[s], q[s])
        if k:
            for j in range(s + 1, theta.n):
                d = p[j] - q[j]
                if d:
                    phase += k * d * table[s][j]
            p[s] -= k
            q[s] -= k
    return phase, tuple(p), tuple(q)


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
    def unit(cls, ctx: Context) -> "AlgebraElement":
        z = (0,) * ctx.n
        return cls(ctx, {(z, z): Coeff.from_exponent(0, ctx.theta)})

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
        theta, D = self.ctx.theta, self.ctx.theta.conductor
        terms: Dict[Tuple[MultiIndex, MultiIndex], Coeff] = {}
        for (p, q), c1 in self.terms.items():
            for (r, t), c2 in other.terms.items():
                phase, pp, qq = _mono_product(theta, p, q, r, t)
                c = (c1 * c2).times_exponent(phase, D)
                key = (pp, qq)
                terms[key] = terms[key] + c if key in terms else c
        return _canonicalize(self.ctx, terms)

    def star(self) -> "AlgebraElement":
        # (W_p W_q*)* = W_q W_p* is already canonical, so no reordering phase
        return _canonicalize(self.ctx,
                             {(q, p): c.conj() for (p, q), c in self.terms.items()})

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = AlgebraElement.unit(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("AlgebraElement is not hashable")

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
        return _canonicalize(ctx, dict(self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{c!r}*W{list(p)}W{list(q)}^*" for (p, q), c in self.sorted_terms()]
        return " + ".join(bits)


def _reductions(ctx: Context, p, q):
    """The signed slot reductions a word expands into in ``ctx``.

    Unitary contexts reduce every word on their unitary slots; in the sphere
    quotient a fully-interior word is the inclusion-exclusion sum over the
    nonempty slot sets of the module docstring; any other word is itself.
    """
    if ctx.unitary:
        return [(ctx.unitary, 1)]
    if ctx.kind == SPHERE and all(min(a, b) for a, b in zip(p, q)):
        return [(v, (-1) ** (k + 1)) for k in range(1, ctx.n + 1)
                for v in combinations(range(ctx.n), k)]
    return [((), 1)]


def _canonicalize(ctx: Context,
                  terms: Dict[Tuple[MultiIndex, MultiIndex], Coeff]) -> AlgebraElement:
    """Apply the context's extra relations term-wise and prune zeros."""
    theta, D = ctx.theta, ctx.theta.conductor
    out: Dict[Tuple[MultiIndex, MultiIndex], Coeff] = {}
    for (p, q), c in terms.items():
        for slots, sign in _reductions(ctx, p, q):
            if slots:
                phase, pp, qq = _unitary_reduce(theta, slots, p, q)
                key, cc = (pp, qq), c.times_exponent(phase, D, sign)
            else:
                key, cc = (p, q), c
            out[key] = out[key] + cc if key in out else cc
    return AlgebraElement(ctx, out)


def generator(ctx: Context, i: int) -> AlgebraElement:
    if not 0 <= i < ctx.n:
        raise IndexError(f"generator index {i} out of range")
    p = tuple(1 if j == i else 0 for j in range(ctx.n))
    return AlgebraElement.monomial(ctx, p, (0,) * ctx.n)


def unit(ctx: Context) -> AlgebraElement:
    return AlgebraElement.unit(ctx)


def range_complement(ctx: Context, slots) -> AlgebraElement:
    """The ordered product prod_{s in slots} (1 - w_s w_s*) in closed form,
    sum_{T subset slots} (-1)^{|T|} W_{e_T} W_{e_T}*: the projections w_s w_s*
    commute, and by the product formula a product of them is the canonical
    word with phase 0.  Words come in ascending e_T, as the product makes them.
    """
    one, slots = Coeff.from_exponent(0, ctx.theta), set(slots)
    words = product(*((0, 1) if s in slots else (0,) for s in range(ctx.n)))
    return _canonicalize(ctx, {(e, e): -one if sum(e) % 2 else one for e in words})


def sphere_defect(ctx: Context) -> AlgebraElement:
    """prod_i (1 - w_i w_i*); in the sphere context it normalizes to 0."""
    return range_complement(ctx, range(ctx.n))


def compact_matrix_unit(p, q, ctx: Context) -> AlgebraElement:
    """W_p R W_q* with R the range-complement product; these multiply as
    matrix units up to a unimodular scalar."""
    left = AlgebraElement.monomial(ctx, p, (0,) * ctx.n)
    right = AlgebraElement.monomial(ctx, q, (0,) * ctx.n).star()
    return left * sphere_defect(ctx) * right

