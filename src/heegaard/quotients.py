"""Quotient maps, multipullback tuples, constructive gluing, and the
cocycle-condition checker.

The ambient algebra surjects onto B_i (slot-i generator unitary), B_ij (two
unitary slots) and the sphere quotient.  A multipullback tuple is one element
of each B_i; it is compatible when all pairwise images in B_ij agree, and
``glue`` reconstructs a common preimage by an exact finite-support linear
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, _unitary_reduce)
from .coeff import Coeff
from .exactla import first_outside_span, solve_exact
from .phases import ThetaMatrix


class IncompatibleTuple(ValueError):
    pass


class SupportOverflow(RuntimeError):
    pass


def sigma_i(x: AlgebraElement, i: int) -> AlgebraElement:
    """Quotient map making the slot-i generator unitary."""
    if x.ctx.kind != "toeplitz" or x.ctx.unitary:
        raise ContextMismatch("sigma_i expects an element of the full algebra")
    return x.with_context(Context.quotient(x.ctx.theta, i))


def pi_i_j(b: AlgebraElement, j: int) -> AlgebraElement:
    """Further quotient B_i -> B_ij, making slot j unitary as well."""
    if b.ctx.kind != "toeplitz" or len(b.ctx.unitary) != 1:
        raise ContextMismatch("pi_i_j expects a one-unitary-slot quotient element")
    (i,) = b.ctx.unitary
    if i == j:
        raise ValueError("slots must be distinct")
    return b.with_context(Context.quotient(b.ctx.theta, i, j))


def sphere_reduce(x: AlgebraElement) -> AlgebraElement:
    if x.ctx.unitary:
        raise ContextMismatch("sphere_reduce expects a full-algebra element")
    return x.with_context(Context.sphere(x.ctx.theta))


@dataclass(frozen=True)
class MultipullbackTuple:
    """One element of each B_i, sharing the twist matrix."""

    components: Tuple[AlgebraElement, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty tuple")
        theta = self.components[0].ctx.theta
        if len(self.components) != theta.n:
            raise ValueError("need one component per generator")
        for i, b in enumerate(self.components):
            if b.ctx != Context.quotient(theta, i):
                raise ContextMismatch(f"component {i} has wrong context {b.ctx}")

    @property
    def theta(self) -> ThetaMatrix:
        return self.components[0].ctx.theta

    @classmethod
    def from_element(cls, a: AlgebraElement) -> "MultipullbackTuple":
        return cls(tuple(sigma_i(a, i) for i in range(a.ctx.n)))


def is_compatible(t: MultipullbackTuple) -> bool:
    n = t.theta.n
    for i in range(n):
        for j in range(i + 1, n):
            if pi_i_j(t.components[i], j) != pi_i_j(t.components[j], i):
                return False
    return True


def glue(t: MultipullbackTuple, max_support: int = 4000) -> AlgebraElement:
    """A full-algebra element a with sigma_i(a) == components[i] for all i.

    Candidate monomials are the slot-i towers over the component supports;
    the coefficients are found by an exact linear solve (least squares within
    1e-10 in float mode).  The lift is not unique; any solution is returned.
    """
    if not is_compatible(t):
        raise IncompatibleTuple("pairwise images in B_ij do not agree")
    theta = t.theta
    n = theta.n
    ctx = Context.toeplitz(theta)
    maxdeg = max((sum(p) + sum(q)
                  for b in t.components for p, q in b.terms), default=0)
    for depth in range(maxdeg + 3):
        cands = set()
        for i, b in enumerate(t.components):
            for (p, q) in b.terms:
                for k in range(depth + 1):
                    pp = list(p)
                    qq = list(q)
                    pp[i] += k
                    qq[i] += k
                    cands.add((tuple(pp), tuple(qq)))
        if len(cands) > max_support:
            raise SupportOverflow(f"candidate support exceeds {max_support}")
        cand_list = sorted(cands)
        columns: List[Dict] = []
        for (p, q) in cand_list:
            col = {}
            for i in range(n):
                phase, pp, qq = _unitary_reduce(theta, (i,), p, q)
                col[(i, (pp, qq))] = Coeff.from_phase(phase, theta.mode)
            columns.append(col)
        target = {}
        for i, b in enumerate(t.components):
            for m, c in b.terms.items():
                target[(i, m)] = c
        sol = solve_exact(columns, target, theta.mode)
        if sol is not None:
            terms = {m: c for m, c in zip(cand_list, sol) if not c.is_zero()}
            return AlgebraElement(ctx, terms)
    raise SupportOverflow("no lift found within the candidate tower depth")


@dataclass(frozen=True)
class CocycleReport:
    passed: bool
    checked_degree: int
    failures: Tuple[tuple, ...] = field(default_factory=tuple)


def _basis_monomials(n: int, degree_bound: int, zero_slots=(), positive_slots=()):
    """Multi-index pairs (p, q) with |p|+|q| <= bound, min(p_s,q_s)=0 on
    zero_slots and min(p_s,q_s)>=1 on positive_slots."""
    def vecs(total):
        if n == 0:
            yield ()
            return
        def rec(i, rem):
            if i == n - 1:
                yield (rem,)
                return
            for v in range(rem + 1):
                for rest in rec(i + 1, rem - v):
                    yield (v,) + rest
        yield from rec(0, total)

    out = []
    for d in range(degree_bound + 1):
        for dp in range(d + 1):
            for p in vecs(dp):
                for q in vecs(d - dp):
                    if any(min(p[s], q[s]) for s in zero_slots):
                        continue
                    if any(min(p[s], q[s]) < 1 for s in positive_slots):
                        continue
                    out.append((p, q))
    return out


def _kernel_image_vectors(theta: ThetaMatrix, i: int, j: int, k: int,
                          degree_bound: int):
    """Spanning vectors of pi^i_j(ker pi^i_k) inside B_ij, up to degree."""
    bi = Context.quotient(theta, i)
    bij = Context.quotient(theta, i, j)
    vectors = []
    for (p, q) in _basis_monomials(theta.n, degree_bound,
                                   zero_slots=(i,), positive_slots=(k,)):
        m = AlgebraElement.monomial(bi, p, q)
        phase, pp, qq = _unitary_reduce(theta, (k,), p, q)
        hat = AlgebraElement.monomial(bi, pp, qq).times_phase(phase)
        v = (m - hat).with_context(bij)
        if not v.is_zero():
            vectors.append(dict(v.terms))
    return vectors


def _coherence_sides(theta: ThetaMatrix, i: int, j: int, k: int, p, q):
    """The monomial W_p W_q* of B_k carried to B_i via B_j and directly,
    each read modulo all three slots, as (phase, p', q').

    On a monomial the transport B_b -> B_a modulo the third slot (project
    to B_ab, read the canonical form in B_a) is the slot-(a, b) unitary
    reduction, so both routes are compositions of ``_unitary_reduce``."""
    def reduce(slots, phase, p, q):
        d, p, q = _unitary_reduce(theta, sorted(slots), p, q)
        return phase + d, p, q

    via_j = reduce((i, j), *reduce((j, k), 0, p, q))
    direct = reduce((i, k), 0, p, q)
    return reduce((i, j, k), *via_j), reduce((i, j, k), *direct)


def cocycle_check(theta: ThetaMatrix, degree_bound: int) -> CocycleReport:
    """Kernel-image equality and coherence of the induced isomorphisms.

    For all distinct i,j,k: (1) pi^i_j(ker pi^i_k) == pi^j_i(ker pi^j_k) as
    spans inside B_ij, on monomials up to the degree bound: each side is
    eliminated once and the other side's vectors are reduced against it,
    and the witness names the first vector outside the span; (2)
    transporting a class B_k -> B_j -> B_i agrees with B_k -> B_i modulo all
    three slots, compared monomial by monomial in closed form, with the
    phases equal as coefficients (within the float tolerance in float mode).
    """
    n = theta.n
    mode = theta.mode
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                side_a = _kernel_image_vectors(theta, i, j, k, degree_bound)
                side_b = _kernel_image_vectors(theta, j, i, k, degree_bound)
                bad = first_outside_span(side_b, side_a, mode)
                if bad is not None:
                    failures.append((i, j, k, sorted(side_a[bad])[0]))
                    continue
                bad = first_outside_span(side_a, side_b, mode)
                if bad is not None:
                    failures.append((j, i, k, sorted(side_b[bad])[0]))
    bases = [_basis_monomials(n, degree_bound, zero_slots=(k,)) for k in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) != 3:
                    continue
                for (p, q) in bases[k]:
                    (ph_a, *m_a), (ph_b, *m_b) = _coherence_sides(theta, i, j, k, p, q)
                    same = m_a == m_b and (ph_a == ph_b or Coeff.from_phase(ph_a, mode)
                                           == Coeff.from_phase(ph_b, mode))
                    if not same:
                        failures.append((i, j, k, (p, q)))
                        break
    return CocycleReport(passed=not failures,
                         checked_degree=degree_bound,
                         failures=tuple(failures))
