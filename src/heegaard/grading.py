"""Circle grading, spectral subspaces, and the gauge isomorphisms between
the twisted quotients and the fixed-point algebras.

The diagonal circle action scales every generator, so a word W_p W_q* is
homogeneous of degree |p| - |q|.  The gauge maps regrade a one-unitary-slot
quotient B_i so that the whole degree sits in slot i; the fixed-point algebra
of the regraded quotient is then a twisted multi-isometry algebra on one
fewer generator, with twist matrix obtained by deleting row and column i
from the gauged matrix.  The fixed-point maps read one relabeling of slots
between the two algebras, ``phases.skip_slot`` and its inverse ``drop_slot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .algebra import (AlgebraElement, Context, ContextMismatch, generator, unit)
from .phases import (ThetaMatrix, drop_slot, kappa_check_matrix, kappa_inv_matrix,
                     kappa_matrix, skip_slot)


@dataclass(frozen=True)
class GradedComponent:
    degree: int
    element: AlgebraElement


def degree_decompose(x: AlgebraElement) -> List[GradedComponent]:
    """Split into homogeneous parts of the diagonal circle action."""
    buckets = {}
    for (p, q), c in x.terms.items():
        buckets.setdefault(sum(p) - sum(q), {})[(p, q)] = c
    return [GradedComponent(d, AlgebraElement(x.ctx, t))
            for d, t in sorted(buckets.items())]


def invariant_expectation(x: AlgebraElement) -> AlgebraElement:
    """Conditional expectation onto the degree-0 subalgebra (averaging over
    the circle action kills every other homogeneous part)."""
    terms = {m: c for m, c in x.terms.items() if sum(m[0]) == sum(m[1])}
    return AlgebraElement(x.ctx, terms)


def slot_degree(x: AlgebraElement, i: int):
    """Set of slot-i partial degrees p_i - q_i present."""
    return {p[i] - q[i] for p, q in x.terms}


def extend_hom(x: AlgebraElement, target: Context,
               images: Sequence[AlgebraElement]) -> AlgebraElement:
    """Multiplicative *-linear extension of a generator assignment.

    ``images[a]`` is the image of the a-th generator of x's algebra; the
    caller guarantees the images satisfy the target relations.
    """
    if len(images) != x.ctx.n:
        raise ValueError("need one image per generator")
    out = AlgebraElement.zero(target)
    for (p, q), c in x.terms.items():
        left = unit(target)
        right = unit(target)
        for a in range(x.ctx.n):
            if p[a]:
                left = left * images[a] ** p[a]
            if q[a]:
                right = right * images[a] ** q[a]
        out = out + (left * right.star()).times_coeff(c)
    return out


# -- gauge maps on the one-unitary-slot quotients ---------------------------

def _regrade(i: int, x: AlgebraElement, inverse: bool) -> AlgebraElement:
    """``kappa_gen_map``, or ``kappa_gen_inv`` when ``inverse``."""
    theta = x.ctx.theta
    if x.ctx != Context.quotient(theta, i):
        raise ContextMismatch("expected a slot-i quotient element")
    gauge = kappa_inv_matrix if inverse else kappa_matrix
    target = Context.quotient(gauge(theta, i), i)
    u = generator(target, i).star() if inverse else generator(target, i)
    images = [generator(target, k) if k == i else generator(target, k) * u
              for k in range(theta.n)]
    return extend_hom(x, target, images)


def kappa_gen_map(i: int, x: AlgebraElement) -> AlgebraElement:
    """Regrading isomorphism B_i(theta) -> B_i(kappa_i(theta)) sending
    w_k to w_k w_i for k != i and fixing w_i."""
    return _regrade(i, x, inverse=False)


def kappa_gen_inv(i: int, x: AlgebraElement) -> AlgebraElement:
    """Inverse regrading, w_k -> w_k w_i* for k != i."""
    return _regrade(i, x, inverse=True)


# -- fixed-point algebras ---------------------------------------------------

def fixed_point_context(theta: ThetaMatrix, i: int) -> Context:
    """The N-generator algebra isomorphic to the invariant subalgebra of the
    regraded B_i; its twist is the gauged matrix with row/column i deleted."""
    return Context.toeplitz(kappa_check_matrix(theta, i))


def fixed_quotient_context(theta: ThetaMatrix, a: int, b: int) -> Context:
    """Context of the two-chart overlap algebra on the fixed-point side: the
    chart-a algebra with full slot b, which is slot ``drop_slot(a, b)``, unitary."""
    if a == b:
        raise ValueError("charts must be distinct")
    return Context.quotient(kappa_check_matrix(theta, a), drop_slot(a, b))


def phi_iso(i: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Embed the N-generator fixed-point algebra into the regraded B_i by
    the order-preserving slot relabeling ``skip_slot(i, .)``, slot i set to 0.

    The relabeling is phase-free: ascending words map to ascending words and
    the deleted-row twist matrix matches the gauged one on surviving slots.
    """
    if x.ctx.theta != kappa_check_matrix(theta, i):
        raise ContextMismatch("element does not live over the slot-i fixed-point twist")
    target = Context.quotient(kappa_matrix(theta, i), i,
                              *(skip_slot(i, a) for a in x.ctx.unitary))
    return AlgebraElement(target, {(p[:i] + (0,) + p[i:], q[:i] + (0,) + q[i:]): c
                                   for (p, q), c in x.terms.items()})


def phi_iso_inv(i: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Inverse relabeling ``drop_slot(i, .)``, defined on elements with no
    slot-i letters: slot i of each word is deleted."""
    if x.ctx.theta != kappa_matrix(theta, i):
        raise ContextMismatch("element does not live over the gauged twist")
    if i not in x.ctx.unitary:
        raise ContextMismatch("expected a slot-i quotient element")
    if any(p[i] or q[i] for p, q in x.terms):
        raise ValueError("element is not invariant: slot-i letters present")
    source = Context.quotient(kappa_check_matrix(theta, i),
                              *(drop_slot(i, s) for s in x.ctx.unitary if s != i))
    return AlgebraElement(source, {(p[:i] + p[i + 1:], q[:i] + q[i + 1:]): c
                                   for (p, q), c in x.terms.items()})


def psi_map(i: int, j: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Overlap isomorphism (i < j) from the chart-j algebra with full slot i
    unitary to the chart-i algebra with full slot j unitary, u_j = v_{drop_slot(i, j)}.
    Generator a of the domain is full slot s = skip_slot(j, a); it maps to
    u_j* if s = i, and else to v_{drop_slot(i, s)} u_j*."""
    if not 0 <= i < j < theta.n:
        raise ValueError("need 0 <= i < j <= N")
    if x.ctx != fixed_quotient_context(theta, j, i):
        raise ContextMismatch("element is not in the chart-j overlap algebra")
    target = fixed_quotient_context(theta, i, j)
    uj_star = generator(target, drop_slot(i, j)).star()
    images = [uj_star if s == i else generator(target, drop_slot(i, s)) * uj_star
              for s in (skip_slot(j, a) for a in range(theta.n - 1))]
    return extend_hom(x, target, images)
