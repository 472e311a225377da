"""Quotient maps, multipullback tuples, constructive gluing, and the
cocycle-condition checker.

The ambient algebra surjects onto B_i (slot-i generator unitary), B_ij (two
unitary slots) and the sphere quotient.  A multipullback tuple is one element
of each B_i; it is compatible when all pairwise images in B_ij agree, and
``glue`` reconstructs a common preimage by one exact linear solve over the
words of its closed-form lift.  ``cocycle_check`` compares kernel images as
sets of words, and builds a scalar only for a failure (the gauge lemma is in
its docstring).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, SizeOverflow,
                      _unitary_reduce)
from .coeff import Coeff
from .exactla import solve_exact
from .phases import ThetaMatrix


class IncompatibleTuple(ValueError):
    pass


class LiftRounding(ArithmeticError):
    pass


MAX_COCYCLE_WORDS = 100_000
"""Cap on the words ``cocycle_check`` enumerates, as ``bundles.MAX_SIZE``."""

MAX_GLUE_SUPPORT = 4000
"""Cap on the words of one ``glue`` system, counted as ``_glue_support`` says."""


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
    return all(pi_i_j(comps[i], j).terms == pi_i_j(comps[j], i).terms
               for i, j in combinations(range(len(comps)), 2))


def _shift(v: tuple, s: int, d: int) -> tuple:
    """The multi-index v with d added in slot s."""
    return v[:s] + (v[s] + d,) + v[s + 1:]


def _glue_support(t: MultipullbackTuple):
    """Glue's unknowns, sorted, and the heights h(j, p, q) of its lift
    (``glue`` docstring).  h_j reads the word reduced on the slots <= j: it
    is the slot-j height most common among the words of b_k, k < j, with
    that key (ties to the lower), else 0.  A word of b_k at height h_j in a
    slot j > k adds nothing; each other adds 2^{N-k} words, counted against
    ``MAX_GLUE_SUPPORT`` before any is formed."""
    n = t.theta.n

    def key(j, p, q):
        return j, tuple(a - b for a, b in zip(p[:j + 1], q[:j + 1])), p[j + 1:], q[j + 1:]

    def h(j, p, q):
        return chosen.get(key(j, p, q), 0)

    words = [(k, p, q) for k, b in enumerate(t.components) for p, q in b.terms]
    votes = defaultdict(lambda: defaultdict(int))
    for k, p, q in words:
        for j in range(k + 1, n):
            votes[key(j, p, q)][min(p[j], q[j])] += 1
    chosen = {kj: max(sorted(c), key=c.get) for kj, c in votes.items()}
    alive = [(k, p, q) for k, p, q in words
             if all(h(j, p, q) != min(p[j], q[j]) for j in range(k + 1, n))]
    if sum(2 ** (n - 1 - k) for k, _, _ in alive) > MAX_GLUE_SUPPORT:
        raise SizeOverflow(f"candidate support exceeds {MAX_GLUE_SUPPORT}")
    support = set()
    for k, p, q in alive:
        low = [min(a, b) for a, b in zip(p, q)]
        for hs in product(*[(low[s],) if s < k else (h(s, p, q),) if s == k
                            else (low[s], h(s, p, q)) for s in range(n)]):
            support.add(tuple(zip(*((a - m + x, b - m + x)
                                    for a, b, m, x in zip(p, q, low, hs)))))
    return sorted(support), h


def glue(t: MultipullbackTuple) -> AlgebraElement:
    """A full-algebra element a with sigma_i(a) == components[i] for all i.

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
    e(phi_i(m)) in the columns.

    In these coordinates a compatible tuple (T_0, ..., T_N) has a lift in
    closed form.  Let l_k set slot k of a word of B_k to a height h_k that
    reads only the word reduced on the slots <= k.  Then a = 0 and
    a += l_k(T_k - sigma_k a) for k = 0, ..., N is a lift: sigma_k l_k = 1,
    and for j < k, sigma_j l_k reads a word w only through pi_kj w, while
    pi_kj(T_k - sigma_k a) = pi_jk(T_j - sigma_j a) = 0.  Expanded,
    a = sum_k (1 - l_N sigma_N) ... (1 - l_{k+1} sigma_{k+1}) l_k T_k, where
    1 - l_j sigma_j kills a word at height h_j in slot j and pairs any other
    with its copy at h_j: the words of ``_glue_support``, so one rational
    elimination (``exactla``) over them is consistent exactly for a
    compatible tuple (and only float rounding makes it miss).  At h = 0 the
    sum is the signed sum over slot sets S of b_{min S} reduced on S, with
    2^{N+1} - 1 words for W_e W_e*; at the most common heights it has one.
    """
    if not is_compatible(t):
        raise IncompatibleTuple("pairwise images in B_ij do not agree")
    theta, n, D = t.theta, t.theta.n, t.theta.conductor

    def psi(p, q):
        return _unitary_reduce(theta, range(n), p, q)[0]

    support = _glue_support(t)[0]
    target = {(i, m): c.times_exponent(psi(*m), D)
              for i, b in enumerate(t.components) for m, c in b.terms.items()}
    columns = [{(s, (_shift(p, s, -k), _shift(q, s, -k))) for s in range(n)
                for k in [min(p[s], q[s])]} for p, q in support]
    sol = solve_exact(columns, target)
    if sol is None:
        raise LiftRounding("the components agree within FLOAT_TOL on every overlap, but "
                           "the lift's system misses by more than FLOAT_TOL times the "
                           "target entries a row combines: float rounding")
    return AlgebraElement(Context.toeplitz(theta), {
        support[j]: c.times_exponent(-psi(*support[j]), D) for j, c in sol.items()})


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


def _kernel_image_words(n: int, i: int, j: int, k: int, degree_bound: int):
    """Pairs (A, m) up to degree: each word m of B_i with slot k interior,
    and A, m reduced on slot j (the ``cocycle_check`` lemma); no twist."""
    return [((_shift(p, j, -c), _shift(q, j, -c)), (p, q))
            for p, q in _basis_monomials(n, degree_bound, zero_slots=(i,), positive_slots=(k,))
            for c in [min(p[j], q[j])]]


def _kernel_image_vector(theta: ThetaMatrix, i: int, j: int, k: int, m) -> dict:
    """The image in B_ij of m - e(phi_k) m_k, m_k the slot-k reduction of the
    word m of B_i: two words, A = m and then B = m_k reduced on {i, j}."""
    ij = tuple(sorted((i, j)))
    a, pa, qa = _unitary_reduce(theta, ij, *m)
    phi, pk, qk = _unitary_reduce(theta, (k,), *m)
    b, pb, qb = _unitary_reduce(theta, ij, pk, qk)
    return {(pa, qa): Coeff.from_exponent(a, theta),
            (pb, qb): Coeff.from_exponent(phi, theta, -1) * Coeff.from_exponent(b, theta)}


def check_cocycle_size(n: int, d: int) -> None:
    """Raise ``SizeOverflow`` if ``cocycle_check`` would enumerate more
    than ``MAX_COCYCLE_WORDS`` words, counted as C(d + 2n, 2n) for each of
    the n(n-1)(n-2) ordered triples (the binomial only once n is small)."""
    triples = n * (n - 1) * (n - 2)
    if d >= 0 and (triples > MAX_COCYCLE_WORDS
                   or triples * comb(d + 2 * n, 2 * n) > MAX_COCYCLE_WORDS):
        raise SizeOverflow(f"degree {d} at N={n - 1} exceeds the size cap: "
                           f"n(n-1)(n-2) C(d+2n, 2n) with n = N+1 must be at "
                           f"most {MAX_COCYCLE_WORDS}")


def cocycle_check(theta: ThetaMatrix, degree_bound: int) -> CocycleReport:
    """Kernel-image equality behind the induced isomorphisms.

    For all distinct i,j,k: pi^i_j(ker pi^i_k) == pi^j_i(ker pi^j_k) as spans
    inside B_ij, on monomials up to the degree bound.  A failure is
    (i, j, k, first word, vector) for the first vector outside the span
    (side a before side b): the vector is in pi^i_j(ker pi^i_k) but not in
    pi^j_i(ker pi^j_k).  A size over ``MAX_COCYCLE_WORDS`` raises
    ``SizeOverflow`` before anything is enumerated.

    Spans are compared as sets of words.  Take a side (i, j, k) and m, a
    word of B_i (min 0 in slot i) interior on slot k.  Slot reductions add
    their phases (``algebra`` docstring), so if psi(w) is the phase of
    reducing w on every slot, m's vector is e(psi(m)) (e_A - e_B) in the
    coordinates e(psi(w)) x_w, the same on both sides.  A is m reduced on
    slot j, and B is A reduced on slot k, since word-level reductions on
    different slots commute.  So every edge of a side joins a k-interior word
    to its k-reduction: each side's graph is a union of stars, one around
    each k-reduced word, and its span is the x on it with every star summing
    to 0.  A vector (A, B) of one side thus lies in the other side's span
    exactly when A is one of the other side's k-interior words, at float
    twists as exactly as at rational.  Both sides' sets of A are the words
    with min 0 on i and j, interior on k, and of degree <= d (take m = A on
    either side), so the check passes at every twist and degree: it guards
    the enumeration (``_basis_monomials``) and the word reduction, not the
    twist or the product kernel.

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
            side_a = _kernel_image_words(n, i, j, k, degree_bound)
            side_b = _kernel_image_words(n, j, i, k, degree_bound)
            for a, b, words, other in ((i, j, side_a, side_b), (j, i, side_b, side_a)):
                leaves = {A for A, _ in other}
                m = next((m for A, m in words if A not in leaves), None)
                if m is not None:
                    v = _kernel_image_vector(theta, a, b, k, m)
                    failures.append((a, b, k, min(v), v))
                    break
    return CocycleReport(passed=not failures,
                         checked_degree=degree_bound,
                         failures=tuple(failures))
