"""Quotient maps, multipullback tuples, constructive gluing, and the
cocycle-condition checker.

The ambient algebra surjects onto B_i (slot-i generator unitary), B_ij (two
unitary slots) and the sphere quotient.  A multipullback tuple is one element
of each B_i; it is compatible when all pairwise images in B_ij agree, and
``glue`` reconstructs a common preimage by an exact finite-support linear
solve.  ``cocycle_check`` compares kernel images by a union-find over the
words of their spanning vectors, with no linear solve (the gauge lemma is in
its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import ne
from typing import Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, _unitary_reduce)
from .coeff import Coeff
from .exactla import solve_exact
from .phases import ThetaMatrix


class IncompatibleTuple(ValueError):
    pass


class SupportOverflow(RuntimeError):
    pass


MAX_COCYCLE_WORDS = 100_000
"""Cap on the words ``cocycle_check`` enumerates, as ``bundles.MAX_SIZE``."""

MAX_GLUE_SUPPORT = 4000
"""Cap on the candidate words of one ``glue`` system."""


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
    """Whether all pairwise images in B_ij agree: the same words, and equal
    coefficients word by word (no difference element is formed)."""
    comps = t.components
    for i, j in combinations(range(len(comps)), 2):
        a, b = pi_i_j(comps[i], j).terms, pi_i_j(comps[j], i).terms
        if a.keys() != b.keys() or any(c != b[m] for m, c in a.items()):
            return False
    return True


def _shift(v: tuple, s: int, d: int) -> tuple:
    """The multi-index v with d added in slot s."""
    return v[:s] + (v[s] + d,) + v[s + 1:]


def glue(t: MultipullbackTuple) -> AlgebraElement:
    """A full-algebra element a with sigma_i(a) == components[i] for all i.

    Candidate monomials are the slot-i towers over the component supports,
    at most ``MAX_GLUE_SUPPORT``; the coefficients are the particular solution
    of one rational elimination (``exactla``) at every twist, exact or float.

    The twist enters only through phases, and a gauge removes them.  Let
    psi(m) be the phase of reducing the word m on every slot.  Slot
    reductions add their phases (``algebra`` docstring), so reducing m on
    slot i has phase phi_i(m) = psi(m) - psi(sigma_i m), and
    sum_{sigma_i m = w} e(phi_i(m)) c_m = b_i[w] holds exactly when
    c'_m = e(psi(m)) c_m solves sum_{sigma_i m = w} c'_m = e(psi(w)) b_i[w].
    So every column entry is the rational 1, and c_m = e(-psi(m)) c'_m.
    Over Q the phase-free system is one copy of the 0/1 system per phase, so
    an unknown's parts are all pivots or all free, and the gauge frees the
    same unknowns: the lift is the particular solution of the system with
    e(phi_i(m)) in the columns.  The lift is not unique.
    """
    if not is_compatible(t):
        raise IncompatibleTuple("pairwise images in B_ij do not agree")
    theta = t.theta
    n = theta.n
    D = theta.conductor
    ctx = Context.toeplitz(theta)

    def psi(p, q):
        return _unitary_reduce(theta, range(n), p, q)[0]

    target = {(i, m): c.times_exponent(psi(*m), D)
              for i, b in enumerate(t.components) for m, c in b.terms.items()}
    maxdeg = max((sum(p) + sum(q)
                  for b in t.components for p, q in b.terms), default=0)
    columns = {}            # candidate m: its keys (s, m reduced on slot s)
    for depth in range(maxdeg + 3):
        for i, b in enumerate(t.components):
            for p, q in b.terms:
                p, q = _shift(p, i, depth), _shift(q, i, depth)
                if (p, q) not in columns:
                    columns[p, q] = {(s, (_shift(p, s, -k), _shift(q, s, -k)))
                                     for s in range(n) for k in [min(p[s], q[s])]}
        if len(columns) > MAX_GLUE_SUPPORT:
            raise SupportOverflow(f"candidate support exceeds {MAX_GLUE_SUPPORT}")
        cand_list = sorted(columns)
        sol = solve_exact([columns[m] for m in cand_list], target)
        if sol is not None:
            terms = {cand_list[j]: c.times_exponent(-psi(*cand_list[j]), D)
                     for j, c in sol.items()}
            return AlgebraElement(ctx, terms)
    raise SupportOverflow("no lift found within the candidate tower depth")


@dataclass(frozen=True)
class CocycleReport:
    passed: bool
    checked_degree: int
    failures: Tuple[tuple, ...] = field(default_factory=tuple)


def _basis_monomials(n: int, degree_bound: int, zero_slots=(), positive_slots=()):
    """Multi-index pairs (p, q) with |p|+|q| <= bound, min(p_s,q_s)=0 on
    zero_slots and min(p_s,q_s)>=1 on positive_slots, ordered by |p|+|q|,
    then |p|, then p, then q.  A word positive on the slot set P is (e_P, e_P)
    plus a word of degree <= bound - 2|P|, so only those are enumerated (in
    ascending order, by stars and bars), and only zero_slots are filtered."""
    shift = [int(s in positive_slots) for s in range(n)]

    def vecs(total):
        for cut in combinations(range(total + n - 1), n - 1):
            yield tuple(b - a - 1 + e for a, b, e
                        in zip((-1,) + cut, cut + (total + n - 1,), shift))

    words = ((p, q) for d in range(degree_bound - 2 * sum(shift) + 1)
             for dp in range(d + 1) for p in vecs(dp) for q in vecs(d - dp))
    return [(p, q) for p, q in words if not any(min(p[s], q[s]) for s in zero_slots)]


def _kernel_image_vectors(theta: ThetaMatrix, i: int, j: int, k: int,
                          degree_bound: int):
    """Spanning vectors of pi^i_j(ker pi^i_k) inside B_ij, up to degree.

    Each is the image of m - e(phi_k) m_k for a word m of B_i with slot k
    interior and m_k its slot-k reduction: two words, A = m and then B = m_k
    reduced on {i, j}, distinct as only B has min 0 in slot k."""
    ij = tuple(sorted((i, j)))
    vectors = []
    for (p, q) in _basis_monomials(theta.n, degree_bound,
                                   zero_slots=(i,), positive_slots=(k,)):
        a, pa, qa = _unitary_reduce(theta, ij, p, q)
        phi, pk, qk = _unitary_reduce(theta, (k,), p, q)
        b, pb, qb = _unitary_reduce(theta, ij, pk, qk)
        vectors.append({(pa, qa): Coeff.from_exponent(a, theta),
                        (pb, qb): Coeff.from_exponent(phi, theta, -1)
                        * Coeff.from_exponent(b, theta)})
    return vectors


def _first_unjoined(span, vectors):
    """The first of ``vectors`` whose two words no path of the two-word
    vectors of ``span`` joins, or None: a union-find over words."""
    parent = {}

    def find(w):
        while w in parent:
            parent[w] = w = parent.get(parent[w], parent[w])    # path halving
        return w

    for v in span:
        ra, rb = map(find, v)
        if ra != rb:
            parent[ra] = rb
    return next((v for v in vectors if ne(*map(find, v))), None)


def check_cocycle_size(n: int, d: int) -> None:
    """Raise ``SupportOverflow`` if ``cocycle_check`` would enumerate more
    than ``MAX_COCYCLE_WORDS`` words, counted as C(d + 2n, 2n) for each of
    the n(n-1)(n-2) ordered triples (the binomial only once n is small)."""
    triples = n * (n - 1) * (n - 2)
    if d >= 0 and (triples > MAX_COCYCLE_WORDS
                   or triples * comb(d + 2 * n, 2 * n) > MAX_COCYCLE_WORDS):
        raise SupportOverflow(f"degree {d} at N={n - 1} exceeds the size cap: "
                              f"n(n-1)(n-2) C(d+2n, 2n) with n = N+1 must be at "
                              f"most {MAX_COCYCLE_WORDS}")


def cocycle_check(theta: ThetaMatrix, degree_bound: int) -> CocycleReport:
    """Kernel-image equality behind the induced isomorphisms.

    For all distinct i,j,k: pi^i_j(ker pi^i_k) == pi^j_i(ker pi^j_k) as spans
    inside B_ij, on monomials up to the degree bound.  A failure is
    (i, j, k, first word, vector) for the first vector outside the span
    (side a before side b): the vector is in pi^i_j(ker pi^i_k) but not in
    pi^j_i(ker pi^j_k).  A size over ``MAX_COCYCLE_WORDS`` raises
    ``SupportOverflow`` before anything is enumerated.

    Spans are compared by their vectors' words alone.  Let psi(w) be the
    phase of reducing the word w on every slot.  The vector of m is
    e(a) e_A - e(phi_k + b) e_B, with a, phi_k and b the phases of reducing
    m on {i, j}, m on k, and m_k on {i, j}.  Slot reductions add their
    phases (``algebra`` docstring), so psi(m) = a + psi(A) = phi_k + b +
    psi(B): in the coordinates e(psi(w)) x_w, the same on both sides, the
    vector is e(psi(m)) (e_A - e_B).  The Q[Z/D]-span of such vectors is
    {x supported on the graph of the pairs (A, B), every component summing
    to 0}, so a vector lies in the other side's span exactly when the other
    side's pairs join A and B: at float twists as exactly as at rational.

    The isomorphisms cohere for every twist: B_k -> B_j -> B_i and B_k ->
    B_i, modulo all three slots, both compose slot reductions, whose phase is
    additive over slots, since each leaves every p_j - q_j unchanged.
    """
    n = theta.n
    check_cocycle_size(n, degree_bound)
    if degree_bound < 2:        # no word of degree < 2 is interior on slot k
        return CocycleReport(passed=True, checked_degree=degree_bound)
    failures = []
    for i, j in combinations(range(n), 2):
        for k in (k for k in range(n) if k not in (i, j)):
            side_a = _kernel_image_vectors(theta, i, j, k, degree_bound)
            side_b = _kernel_image_vectors(theta, j, i, k, degree_bound)
            for a, b, vectors, span in ((i, j, side_a, side_b), (j, i, side_b, side_a)):
                bad = _first_unjoined(span, vectors)
                if bad is not None:
                    failures.append((a, b, k, min(bad), bad))
                    break
    return CocycleReport(passed=not failures,
                         checked_degree=degree_bound,
                         failures=tuple(failures))
