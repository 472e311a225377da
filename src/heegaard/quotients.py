"""Quotient maps, multipullback tuples, constructive gluing, and the
chart-map check of CP^N_T.

The ambient algebra surjects onto B_i (slot-i generator unitary), B_ij (two
unitary slots) and the sphere quotient.  A multipullback tuple is one element
of each B_i; it is compatible when all pairwise images in B_ij agree, and
``glue`` reconstructs a common preimage by one exact linear solve over the
words of its closed-form lift.  ``cocycle_check`` checks that the transition
maps between the N + 1 Toeplitz charts of CP^N_T respect the chart relations,
each as two words and two integer phases from the kernel of products.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import sub
from typing import Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, SizeOverflow,
                      _unitary_reduce, _word_product)
from .exactla import solve_exact
from .phases import ThetaMatrix


class IncompatibleTuple(ValueError):
    def __str__(self):   # args[1], the witness, may hold ints too long to write
        return self.args[0]


class LiftRounding(ArithmeticError):
    pass


MAX_CHART_PRODUCTS = 100_000
"""Cap on the word products of ``cocycle_check`` (``check_cocycle_size``),
as ``bundles.MAX_SIZE``."""

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
    if not is_compatible(t):  # witness: the first pair i < j and word, c_i, c_j or None
        comps = t.components
        raise IncompatibleTuple("pairwise images in B_ij do not agree", next(
            (i, j, w, x.get(w), y.get(w)) for i, j in combinations(range(len(comps)), 2)
            for x, y in [(pi_i_j(comps[i], j).terms, pi_i_j(comps[j], i).terms)]
            for w in sorted(x.keys() | y.keys()) if x.get(w) != y.get(w)))
    theta, n, D = t.theta, t.theta.n, t.theta.conductor

    def psi(p, q):
        return _unitary_reduce(theta.table, range(n), p, q)[0]

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


def check_cocycle_size(n: int) -> None:
    """Raise ``SizeOverflow`` if ``cocycle_check`` on n = N + 1 slots would
    form more than ``MAX_CHART_PRODUCTS`` word products: N + 1 + 3N(N - 1)
    for each of the n(n - 1) ordered chart pairs (``_chart_relations``)."""
    N = n - 1
    if n * N * (N + 1 + 3 * N * (N - 1)) > MAX_CHART_PRODUCTS:
        raise SizeOverflow(f"the chart check at N={N} exceeds the size cap: "
                           f"n(n-1)(N + 1 + 3N(N-1)) word products with n = N+1 "
                           f"must be at most {MAX_CHART_PRODUCTS}")


def cocycle_check(theta: ThetaMatrix) -> Tuple[tuple, ...]:
    """The failures of the transition maps between the N + 1 charts of CP^N_T
    to respect the chart relations; empty when they all do.

    Chart c is the Toeplitz algebra on v_s = w_s w_c* (s != c) whose twist
    kappa_c(s, t) = theta_cs + theta_st + theta_tc is the integer table
    ``charts[c]`` over theta's conductor D, at the slot labels (row c is 0).
    On its overlap with chart d, where u = v_d is unitary, T_{c<-d} sends
    chart d's generator g_s to v_s u*, and g_c to u*.  For every ordered
    pair (c, d) the images must satisfy, in chart c with slot d unitary,
    chart d's relations: isometry g_a* g_a = 1, unitarity g_c g_c* = 1,
    g_a g_b = e(kappa_d(a, b)) g_b g_a (a < b) and g_a g_b* =
    e(-kappa_d(a, b)) g_b* g_a.  Each image is one word, so each side is one
    word times an integer phase mod D: the product kernel of
    ``AlgebraElement.__mul__`` (``algebra._word_product``), then the slot-d
    reduction.  No element, scalar, twist or degree is formed.  A failure is
    (c, d, relation, a, b, lhs, rhs) for the first failing relation of a
    pair, each side (p, q, t) for e(t) W_p W_q*.

    The transitions compose at every twist, so that is not checked: on
    generators T_{c<-d} T_{d<-e} g_s = v_s u* (v_e u*)* = v_s (u* u) v_e*
    (v_c = 1; for s = d both routes give v_d v_e*), which is T_{c<-e} g_s
    = v_s v_e* by u* u = 1, a product the kernel forms with no phase.
    """
    check_cocycle_size(theta.n)
    T, slots = theta.table, range(theta.n)
    charts = [[[T[c][s] + T[s][t] + T[t][c] for t in slots] for s in slots] for c in slots]
    failures = []
    for c, d in permutations(slots, 2):
        bad = next((r for r in _chart_relations(theta, charts, c, d) if r[3] != r[4]), None)
        if bad is not None:
            failures.append((c, d, *bad[:3], *((p, q, Fraction(t, theta.conductor))
                                               for p, q, t in bad[3:])))
    return tuple(failures)


def _chart_relations(theta: ThetaMatrix, charts, c: int, d: int):
    """Chart d's relations on its images in chart c (``cocycle_check``), as
    (relation, a, b, lhs, rhs), each side (p, q, t) for e(t/D) W_p W_q*."""
    D, table, kappa, zero = theta.conductor, charts[c], charts[d], (0,) * theta.n

    def side(x, y, shift=0):
        phase, p, q = _word_product(table, *x, *y)
        if p[d] and q[d]:
            extra, p, q = _unitary_reduce(table, (d,), p, q)
            phase += extra
        return p, q, (phase + shift) % D

    g = {s: (_shift(zero, s, int(s != c)), _shift(zero, d, 1)) for s in range(theta.n) if s != d}
    g, star = ({s: (p, q, tuple(map(sub, q, p))) for s, (p, q) in g.items()},
               {s: (q, p, tuple(map(sub, p, q))) for s, (p, q) in g.items()})
    yield from (("isometry", a, a, side(star[a], g[a]), (zero, zero, 0)) for a in g)
    yield "unitarity", c, c, side(g[c], star[c]), (zero, zero, 0)
    for a, b in combinations(g, 2):
        yield "commutation", a, b, side(g[a], g[b]), side(g[b], g[a], kappa[a][b])
    for a, b in permutations(g, 2):
        yield ("star commutation", a, b, side(g[a], star[b]),
               side(star[b], g[a], -kappa[a][b]))
