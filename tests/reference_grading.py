"""Reference circle grading, gauge maps and fixed-point charts, for the tests.

No command reaches these maps; the tests check the source paper's gauge
isomorphisms and charts of CP^N_T with them.

The diagonal circle action scales every generator, so a word W_p W_q* is
homogeneous of degree |p| - |q|.  The gauge maps regrade a one-unitary-slot
quotient B_i so that the whole degree sits in slot i; the fixed-point algebra
of the regraded quotient is then a twisted multi-isometry algebra on one
fewer generator, with twist matrix obtained by deleting row and column i
from the gauged matrix (``kappa_check_matrix``).  The fixed-point maps read
one relabeling of slots between the two algebras, ``skip_slot`` and its
inverse ``drop_slot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from heegaard.algebra import AlgebraElement, Context, ContextMismatch, generator, unit
from heegaard.phases import ThetaMatrix, check_dims


# -- twist-matrix gauges ----------------------------------------------------

def cocycle_phase(theta: ThetaMatrix, mu, nu):
    """Exponent t = (1/2) mu^T theta nu, so the scalar is e^{pi*i*mu^T.theta.nu}."""
    check_dims(theta, mu, nu)
    acc = Fraction(0)
    for (j, k), v in theta.upper:
        acc += v * (mu[j] * nu[k] - mu[k] * nu[j])
    return acc / 2


def _gauge(theta: ThetaMatrix, i: int, sign: int) -> ThetaMatrix:
    """``kappa_matrix`` for sign 1, ``kappa_inv_matrix`` for sign -1."""
    if not 0 <= i < theta.n:
        raise IndexError(f"index {i} out of range")
    entries = {}
    for j in range(theta.n):
        for k in range(j + 1, theta.n):
            if i in (j, k):
                entries[(j, k)] = theta.entry(j, k)
            else:
                entries[(j, k)] = (sign * theta.entry(i, j) + theta.entry(j, k)
                                   + sign * theta.entry(k, i))
    return ThetaMatrix.from_upper(theta.n, entries, theta.mode)


def kappa_matrix(theta: ThetaMatrix, i: int) -> ThetaMatrix:
    """Gauge transform: entry (j,k) becomes theta_ij + theta_jk + theta_ki for
    j,k != i, while row/column i is left unchanged."""
    return _gauge(theta, i, 1)


def kappa_inv_matrix(theta: ThetaMatrix, i: int) -> ThetaMatrix:
    """Inverse of :func:`kappa_matrix` for the same index."""
    return _gauge(theta, i, -1)


def skip_slot(i: int, a: int) -> int:
    """Slot a of the algebra with slot i deleted, as a slot of the full one."""
    return a + (a >= i)


def drop_slot(i: int, s: int) -> int:
    """Inverse of :func:`skip_slot`, for a slot s != i of the full algebra."""
    return s - (s > i)


def kappa_check_matrix(theta: ThetaMatrix, i: int) -> ThetaMatrix:
    """kappa_i(theta) with row and column i deleted, slots relabeled by ``drop_slot``."""
    entries = {(drop_slot(i, j), drop_slot(i, k)): v
               for (j, k), v in kappa_matrix(theta, i).upper if i not in (j, k)}
    return ThetaMatrix.from_upper(theta.n - 1, entries, theta.mode)


# -- circle grading ---------------------------------------------------------

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


def power(x: AlgebraElement, k: int) -> AlgebraElement:
    """x^k for k >= 0, as k products onto the unit."""
    out = unit(x.ctx)
    for _ in range(k):
        out = out * x
    return out


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
                left = left * power(images[a], p[a])
            if q[a]:
                right = right * power(images[a], q[a])
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
