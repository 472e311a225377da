"""Circle grading, spectral subspaces, and the gauge isomorphisms between
the twisted quotients and the fixed-point algebras.

The diagonal circle action scales every generator, so a word W_p W_q* is
homogeneous of degree |p| - |q|.  The gauge maps regrade a one-unitary-slot
quotient B_i so that the whole degree sits in slot i; the fixed-point algebra
of the regraded quotient is then a twisted multi-isometry algebra on one
fewer generator, with twist matrix obtained by deleting row and column i
from the gauged matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .algebra import (AlgebraElement, Context, ContextMismatch, generator, unit)
from .phases import (ThetaMatrix, kappa_check_matrix, kappa_inv_matrix,
                     kappa_matrix)


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
    """Context of the two-chart overlap algebra on the fixed-point side.

    For a < b the slot made unitary is b (1-based), i.e. b-1 here; for
    a > b it is b+1 (1-based), i.e. b.
    """
    if a == b:
        raise ValueError("charts must be distinct")
    slot = b - 1 if a < b else b
    return Context.quotient(kappa_check_matrix(theta, a), slot)


def phi_iso(i: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Embed the N-generator fixed-point algebra into the regraded B_i by
    the order-preserving slot relabeling that skips slot i.

    The relabeling is phase-free: ascending words map to ascending words and
    the deleted-row twist matrix matches the gauged one on surviving slots.
    """
    if x.ctx.theta != kappa_check_matrix(theta, i):
        raise ContextMismatch("element does not live over the slot-i fixed-point twist")
    keep = [j for j in range(theta.n) if j != i]
    target_slots = (i,) + tuple(keep[a] for a in x.ctx.unitary)
    target = Context.quotient(kappa_matrix(theta, i), *target_slots)
    terms = {}
    for (p, q), c in x.terms.items():
        pp = [0] * theta.n
        qq = [0] * theta.n
        for a in range(theta.n - 1):
            pp[keep[a]] = p[a]
            qq[keep[a]] = q[a]
        terms[(tuple(pp), tuple(qq))] = c
    return AlgebraElement(target, terms)


def phi_iso_inv(i: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Inverse relabeling, defined on elements with no slot-i letters."""
    if x.ctx.theta != kappa_matrix(theta, i):
        raise ContextMismatch("element does not live over the gauged twist")
    if i not in x.ctx.unitary:
        raise ContextMismatch("expected a slot-i quotient element")
    keep = [j for j in range(theta.n) if j != i]
    pos = {j: a for a, j in enumerate(keep)}
    source_slots = tuple(pos[s] for s in x.ctx.unitary if s != i)
    source = Context.quotient(kappa_check_matrix(theta, i), *source_slots)
    terms = {}
    for (p, q), c in x.terms.items():
        if p[i] or q[i]:
            raise ValueError("element is not invariant: slot-i letters present")
        pp = tuple(p[j] for j in keep)
        qq = tuple(q[j] for j in keep)
        terms[(pp, qq)] = c
    return AlgebraElement(source, terms)


def psi_map(i: int, j: int, x: AlgebraElement, theta: ThetaMatrix) -> AlgebraElement:
    """Overlap isomorphism between the two fixed-point charts (i < j).

    The domain is the chart-j algebra with its (i+1)-st generator unitary;
    the image of that unitary generator is the adjoint of the chart-i
    unitary generator, and every other generator picks up that adjoint as a
    right factor, with the middle range of indices shifted down by one.
    """
    if not 0 <= i < j < theta.n:
        raise ValueError("need 0 <= i < j <= N")
    if x.ctx != fixed_quotient_context(theta, j, i):
        raise ContextMismatch("element is not in the chart-j overlap algebra")
    target = fixed_quotient_context(theta, i, j)
    uj = generator(target, j - 1)          # the unitary generator v_j^{i;j}
    images = []
    for a in range(theta.n - 1):
        k = a + 1                          # 1-based generator label
        if k == i + 1:
            images.append(uj.star())
        elif k > j or k < i + 1:
            images.append(generator(target, k - 1) * uj.star())
        else:                              # i+1 < k <= j
            images.append(generator(target, k - 2) * uj.star())
    return extend_hom(x, target, images)
