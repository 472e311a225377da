"""Reference sphere-quotient maps, for the tests: the range complements and
the sphere relation, the compact matrix units, the quotient map onto the
sphere, the pullback of projectors to the three-sphere, and the strong
connection and projector of a negative winding by element products.

No command reaches these maps.  ``pullback_projector`` reads a projector's
connection from ``strong_connection(...).summands``; the products of
matrices go through ``heegaard.bundles.mat_mul``, looked up on each call so
that a test can substitute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Tuple

from heegaard import bundles
from heegaard.algebra import (AlgebraElement, Context, ContextMismatch, _canonicalize,
                              generator, unit)
from heegaard.bundles import ProjectorMatrix, TensorElement, check_size
from heegaard.coeff import Coeff
from heegaard.phases import ThetaMatrix


class NonzeroTwist(ValueError):
    pass


def range_complement(ctx: Context, slots) -> AlgebraElement:
    """The ordered product prod_{s in slots} (1 - w_s w_s*) in closed form,
    sum_{T subset slots} (-1)^{|T|} W_{e_T} W_{e_T}*: the projections w_s w_s*
    commute, and by the product formula a product of them is the canonical
    word with phase 0.  Words come in ascending e_T, as the product makes them.
    """
    one, slots = Coeff.from_exponent(0, ctx.theta), set(slots)
    words = product(*((0, 1) if s in slots else (0,) for s in range(ctx.n)))
    return _canonicalize(ctx, {(e, e): -one if sum(e) % 2 else one for e in words})


def h_tail(i: int, ctx: Context) -> AlgebraElement:
    """The ordered product of range complements in slots above i."""
    if not 0 <= i < ctx.n:
        raise IndexError(f"index {i} out of range")
    return range_complement(ctx, range(i + 1, ctx.n))


def product_connection(n: int, theta: ThetaMatrix) -> TensorElement:
    """``strong_connection`` for n < 0 by element products: each left factor
    a_k = s_k a over the non-decreasing slot sequences, and each right factor
    r_k = h_tail(k_1) * a_k.star() (lemma in the ``strong_connection``
    docstring)."""
    check_size(n, theta.n - 1)
    ctx = Context.sphere(theta)
    gens = [generator(ctx, k) for k in range(theta.n)]
    heads = [h_tail(k, ctx) for k in range(theta.n)]
    layer = [(k, k, g) for k, g in enumerate(gens)]     # (last slot, first slot, a)
    for _ in range(-n - 1):
        layer = [(k, first, gens[k] * a)
                 for k in range(theta.n) for last, first, a in layer if last <= k]
    return TensorElement(ctx, [(a, heads[f] * a.star()) for _, f, a in layer]).simplify()


def product_projector(n: int, theta: ThetaMatrix) -> ProjectorMatrix:
    """``chern_galois_projector`` for n < 0 by element products: E_kl = r_k a_l
    on ``product_connection`` for each pair the zero lemma keeps."""
    conn = product_connection(n, theta)
    lefts = [a for a, _ in conn.summands]
    zero = AlgebraElement.zero(conn.ctx)
    alphas = [next(iter(a.terms))[0] for a in lefts]
    tops = [next((j + 1 for j, e in enumerate(al) if e), len(al)) for al in alphas]
    entries = tuple(tuple(rk * al if all(b <= a for a, b in zip(alphas[k][t:], alphas[l][t:]))
                          else zero for l, al in enumerate(lefts))
                    for k, ((_, rk), t) in enumerate(zip(conn.summands, tops)))
    return ProjectorMatrix(n, entries)


def sphere_defect(ctx: Context) -> AlgebraElement:
    """prod_i (1 - w_i w_i*); in the sphere context it normalizes to 0."""
    return range_complement(ctx, range(ctx.n))


def compact_matrix_unit(p, q, ctx: Context) -> AlgebraElement:
    """W_p R W_q* with R the range-complement product; these multiply as
    matrix units up to a unimodular scalar."""
    left = AlgebraElement.monomial(ctx, p, (0,) * ctx.n)
    right = AlgebraElement.monomial(ctx, q, (0,) * ctx.n).star()
    return left * sphere_defect(ctx) * right


def sphere_reduce(x: AlgebraElement) -> AlgebraElement:
    if x.ctx.unitary:
        raise ContextMismatch("sphere_reduce expects a full-algebra element")
    return x.with_context(Context.sphere(x.ctx.theta))


def pullback_hom(x: AlgebraElement) -> AlgebraElement:
    """Untwisted sphere morphism collapsing all generators above 0 to the
    single generator 1 of the three-sphere quotient.  Lemma: at zero twist the
    collapse keeps every word ascending and adds no phase, so W_p W_q* maps to
    W_{(p_0, |p| - p_0)} W_{(q_0, |q| - q_0)}*; equal images are summed and
    brought to the three-sphere normal form once."""
    if x.ctx.kind != "sphere":
        raise ContextMismatch("expected a sphere-quotient element")
    if x.ctx.theta.upper:
        raise NonzeroTwist("generator collapse respects relations only at zero twist")
    terms = {}
    for (p, q), c in x.terms.items():
        key = ((p[0], sum(p) - p[0]), (q[0], sum(q) - q[0]))
        terms[key] = terms[key] + c if key in terms else c
    return _canonicalize(Context.sphere(ThetaMatrix.zero(2, x.ctx.mode)), terms)


@dataclass(frozen=True)
class ConjugationWitness:
    """Invertible G with G * E'' * G^{-1} == E' (+) 0, plus the summand
    permutation that puts the surviving columns first."""

    g: tuple
    g_inv: tuple
    permutation: Tuple[int, ...]
    gamma_beta_is_one: bool
    conjugation_holds: bool


def pullback_projector(e: ProjectorMatrix, summands):
    """Push a projector along the sphere morphism.

    ``summands`` are the (a_l, r_l) of the connection ``e`` was built from,
    ``strong_connection(e.winding, theta).summands``.  Returns
    (E', E'', witness): E' is the projector of the pushed-forward
    connection (f (x) f applied to the summands, zero lefts dropped), E'' is
    the entry-wise image of the source projector with the summands permuted
    so the zero-left columns come last, and the witness conjugates E' padded
    by zeros to E''.
    """
    if len(summands) != e.size:
        raise ValueError("need the connection summands the projector was built from")
    pushed = [(pullback_hom(a), pullback_hom(r)) for a, r in summands]
    perm = sorted(range(len(pushed)), key=lambda l: pushed[l][0].is_zero())
    gamma = [pushed[l][0] for l in perm]
    beta = [pushed[l][1] for l in perm]
    ctx = gamma[0].ctx
    m, mp = len(pushed), sum(not a.is_zero() for a in gamma)
    gamma_p, beta_p = gamma[:mp], beta[:mp]
    zero, one = AlgebraElement.zero(ctx), unit(ctx)

    e_prime = ProjectorMatrix(
        e.winding,
        tuple(tuple(rk * al for al in gamma_p) for rk in beta_p))
    e_pp = ProjectorMatrix(
        e.winding,
        tuple(tuple(beta[k] * gamma[l] if l < mp else zero for l in range(m))
              for k in range(m)))

    # gamma' beta'^T = sum of the surviving a_l r_l; the dropped summands
    # contribute zero, so this is the image of the full contraction
    gamma_beta_is_one = TensorElement(ctx, zip(gamma_p, beta_p)).contract() == one

    def unipotent(block):
        """The identity with block(B_kl) at k >= mp > l, B_kl = rho_k gamma_l = E''_kl."""
        return tuple(tuple(block(e_pp.entries[k][l]) if l < mp <= k else one if k == l
                           else zero for l in range(m)) for k in range(m))

    g, g_inv = unipotent(AlgebraElement.__neg__), unipotent(lambda b: b)    # 1 - B, 1 + B
    padded = tuple(tuple(e_prime.entries[i][j] if i < mp and j < mp else zero
                         for j in range(m)) for i in range(m))
    conj = bundles.mat_mul(bundles.mat_mul(g_inv, padded), g)
    holds = conj == e_pp.entries
    witness = ConjugationWitness(g, g_inv, tuple(perm),
                                 gamma_beta_is_one, holds)
    return e_prime, e_pp, witness
