"""Strong connections and line-bundle projectors.

A strong connection value is a finite sum sum_l a_l (x) r_l of elementary
tensors over the sphere quotient with sum_l a_l r_l = 1 and bidegree
(-n, n).  The associated projector has entries E_kl = r_k a_l; idempotency
follows from the multiplicativity condition alone, so any presentation of
the connection value works.  ``strong_connection`` has one summand per
multi-index and writes each factor in closed form, a_k = c_k W_alpha and
r_k = H_{k_1} a_k*, word by word from integer phases.  A zero lemma on the
letters of a_k and a_l picks the entries that can be nonzero, all on or
below the diagonal in that order, and each is built word by word with the
product kernel's phase (lemmas in both docstrings).  No element product and
no sphere normal form is formed for a negative winding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import comb
from operator import add, mul
from typing import List, Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, SizeOverflow,
                      _add_products, _canonicalize, _word_product, unit)
from .coeff import Coeff
from .phases import ThetaMatrix


MAX_SIZE = 128
"""Cap on |n| + 1, on 2^N, the word count of a right factor r_k = H_0 a_k*
(``strong_connection``), and for n < 0 on C(|n|+N, N), the summand count (the
projector has its square for entries); n >= 0 is one summand of two words."""


def check_size(n: int, N: int) -> None:
    """Raise ``SizeOverflow`` unless winding n at N is within ``MAX_SIZE``.

    |n| and N are checked first, so a huge one is refused before a huge
    binomial or power is formed."""
    if max(abs(n), N) >= MAX_SIZE or 2 ** N > MAX_SIZE or n < 0 and comb(N - n, N) > MAX_SIZE:
        raise SizeOverflow(f"winding {n} at N={N} exceeds the size cap: |n| < {MAX_SIZE}, "
                           f"and 2^N and (n < 0) C(|n|+N, N) at most {MAX_SIZE}")


class TensorElement:
    """Finite sum of elementary tensors over a common sphere context."""

    __slots__ = ("ctx", "summands")

    def __init__(self, ctx: Context, summands):
        self.ctx = ctx
        pruned = []
        for a, r in summands:
            if a.ctx != ctx or r.ctx != ctx:
                raise ContextMismatch("tensor factors in the wrong context")
            if not (a.is_zero() or r.is_zero()):
                pruned.append((a, r))
        self.summands = pruned

    def simplify(self) -> "TensorElement":
        """Merge summands whose left factors are exact scalar multiples."""
        # insertion order is kept; only left factors with equal words are proportional
        merged, kept = [], {}       # kept: left words -> their indices in merged
        for a, r in self.summands:
            same = kept.setdefault(frozenset(a.terms), [])
            for idx in same:
                a0, r0 = merged[idx]
                lam = _proportionality(a, a0)
                if lam is not None:
                    merged[idx] = (a0, r0 + r.times_coeff(lam))
                    break
            else:
                same.append(len(merged))
                merged.append((a, r))
        return TensorElement(self.ctx, merged)

    def contract(self) -> AlgebraElement:
        """Multiplication map: sum_l a_l * r_l.  A sphere product is the
        ambient product followed by the linear normal form, so the word
        products of all summands go into one dict and are normalized once.
        For a connection each is diagonal, W_alpha W_{e_T} W_{e_T+alpha}* =
        W_{alpha+e_T} W_{alpha+e_T}*, so every reduction has phase 0."""
        terms = {}
        for a, r in self.summands:
            _add_products(terms, self.ctx.theta, a.terms, r.terms)
        return _canonicalize(self.ctx, terms)


def _proportionality(a: AlgebraElement, b: AlgebraElement):
    """Coeff lam with a == b*lam, or None; only single-phase ratios are
    recognized (sufficient: connection coefficients are phase monomials)."""
    if set(a.terms) != set(b.terms) or not a.terms:
        return None
    m0 = next(iter(a.terms))
    cb = b.terms[m0]
    if not cb.is_single_phase():
        return None
    lam = a.terms[m0] * cb.inverse()
    return lam if a == b.times_coeff(lam) else None


def strong_connection(n: int, theta: ThetaMatrix) -> TensorElement:
    """Connection value for winding n over the sphere quotient, N = theta.n - 1.

    Non-negative windings have the closed form s_0*^n (x) s_0^n, the two
    monomials W_0 W_{ne_0}* and W_{ne_0} W_0* (no phase).  Winding -m
    is the m-th power of sum_k s_k (x) s_k* H_k, H_k = prod_{j>k}
    (1 - s_j s_j*).  Each factor 1 - s_j s_j* of an H is idempotent, is
    killed by s_j* on its left, and commutes exactly with every letter of
    another slot (the phases cancel).  So (s_l* H_l)(s_k* H_k) = 0 for k < l,
    and the summands are a_k (x) r_k, a_k = s_{k_m}...s_{k_1}, one per
    k_1 <= ... <= k_m, ordered by k_m, then by the prefix.  In
    r_k = s_{k_1}* H_{k_1}...s_{k_m}* H_{k_m} the slot-j factor of H_{k_i}
    (j > k_i) stands before every s_j*, so it passes only letters of slots
    <= k_i to the front; there they all merge into H_{k_1}, and
    r_k = H_{k_1} a_k*.

    Both factors are built word by word from the product formula of
    ``algebra``, with D the twist's conductor, alpha the slot multiplicities
    of a_k and e_T the indicator of a slot set T:

    - a_k = c_k W_alpha.  Prepending s_k to a word whose slots are all
      <= k costs the phase -sum_{a<k} alpha_a theta_ak, so c_k is one
      ``times_exponent`` per letter after the first, from the unit phase.
      The product s_k a forms the same scalar, as the unit times c is exact.
    - r_k = H_{k_1} a_k* = sum_{T subset {k_1+1..N}} (-1)^{|T|} conj(c_k)
      e(psi_T) W_{e_T} W_{e_T+alpha}*, in ascending e_T.  The phase of
      (W_{e_T} W_{e_T}*)(W_alpha*) is psi_T = sum_{s in T} step_s with
      step_s = sum_{c>s} alpha_c theta_sc, additive over T, so the steps are
      formed once per summand and each word costs one
      ``conj(c_k).times_exponent(psi_T, D, +-1)``.  The sign moves from the
      product's left scalar onto the phase, which negates it exactly.
    - No word is fully interior (p_{k_1} = 0), so the sphere normal form
      leaves each as it is, and distinct T give distinct words.

    A size over ``MAX_SIZE`` raises ``SizeOverflow`` before anything is built.
    """
    N = theta.n - 1
    check_size(n, N)
    ctx = Context.sphere(theta)
    if n >= 0:
        empty, ne0 = (0,) * ctx.n, (n,) + (0,) * N
        return TensorElement(ctx, [(AlgebraElement.monomial(ctx, empty, ne0),
                                    AlgebraElement.monomial(ctx, ne0, empty))]).simplify()
    table, D, zeros = theta.table, theta.conductor, (0,) * (N + 1)
    cols = [[table[a][k] for a in range(k)] for k in range(N + 1)]
    one = Coeff.from_exponent(0, theta)
    layer = [(k, k, zeros[:k] + (1,) + zeros[k + 1:], one) for k in range(N + 1)]
    for _ in range(-n - 1):      # (last slot, first slot, alpha, c) of each a
        layer = [(k, first, alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:],
                  c.times_exponent(-sum(map(mul, alpha, cols[k])), D))
                 for k in range(N + 1) for last, first, alpha, c in layer if last <= k]
    summands = []
    for _, first, alpha, c in layer:
        cc = c.conj()
        steps = [sum(map(mul, alpha[s + 1:], table[s][s + 1:])) for s in range(N + 1)]
        right = {}
        for e in product(*((0, 1) if s > first else (0,) for s in range(N + 1))):
            right[e, tuple(map(add, e, alpha))] = \
                cc.times_exponent(sum(compress(steps, e)), D, -1 if sum(e) % 2 else 1)
        summands.append((AlgebraElement(ctx, {(alpha, zeros): c}), AlgebraElement(ctx, right)))
    return TensorElement(ctx, summands).simplify()


def check_connection(conn: TensorElement, n: int):
    """(sum_l a_l r_l, whether it is 1, the index of the first summand whose
    bidegree is not (-n, n), or None)."""
    contracted = conn.contract()
    bad = next((k for k, (a, r) in enumerate(conn.summands)
                if a.degrees() - {-n} or r.degrees() - {n}), None)
    return contracted, contracted == unit(conn.ctx), bad


def verify_connection(conn: TensorElement, n: int) -> bool:
    """Multiplicativity (contracts to 1) and bidegree (-n, n) on every summand."""
    _, is_one, bad = check_connection(conn, n)
    return is_one and bad is None


@dataclass(frozen=True)
class ProjectorMatrix:
    """Idempotent matrix of degree-0 sphere-quotient elements."""

    winding: int
    entries: Tuple[Tuple[AlgebraElement, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty projector")

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_idempotent(self) -> bool:
        return mat_mul(self.entries, self.entries) == self.entries

    def entries_degree_zero(self) -> bool:
        return all(e.degrees() <= {0} for row in self.entries for e in row)


def mat_mul(a, b):
    """Matrix product; a product with a zero factor adds nothing, so it is skipped."""
    zero = AlgebraElement.zero(a[0][0].ctx)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)
                            if not (x.is_zero() or y.is_zero())), zero)
                       for col in zip(*b)) for row in a)


def chern_galois_projector(n: int, theta: ThetaMatrix) -> ProjectorMatrix:
    """E_kl = r_k a_l from the winding-n connection sum_l a_l (x) r_l.

    Zero lemma: with alpha, beta the slot multiplicities of a_k, a_l (0 for
    n >= 0), E_kl = 0 unless beta_j <= alpha_j on every slot j > k_1, so only
    those entries are formed.  Proof: E_kl = H_{k_1} a_k* a_l (lemma in
    ``strong_connection``) and a_k* a_l ~ W_{(beta-alpha)+} W_{(alpha-beta)+}*
    has s_j among its creations if beta_j > alpha_j; the factor 1 - s_j s_j*
    of H_{k_1} commutes exactly with the letters of other slots, and
    (1 - s_j s_j*) s_j = 0.  It kills every l after k in the summand order:
    at the last position i with k_i != l_i, l_i > k_i >= k_1, and l has more
    letters s_{l_i} than k.

    For n < 0 an entry the lemma keeps is built word by word: each word
    W_{e_T} W_{e_T+alpha}* of r_k times W_beta is one ``_word_product``, and
    its scalar is (c_r * c_l).times_exponent(phi, D), the product kernel's
    two operations in its order, with c_r, c_l the scalars of the two words.
    By the product formula (``algebra``, q - p = alpha, t - r = -beta) the
    word is W_{e_T+(beta-alpha-e_T)+} W_{(alpha+e_T-beta)+}* and
    phi = sum_{a<c} [(beta-alpha-e_T)+_a alpha_c
    - (alpha+e_T-beta)+_a beta_c] theta_ac.  At slot k_1 (e_T = 0
    there) one of (beta-alpha)+ and (alpha-beta)+ is 0, so no word is fully
    interior and the sphere normal form leaves each as it is.  On a slot
    j > k_1 beta_j <= alpha_j makes the creation exponent e_T's, so distinct
    words of r_k give distinct words of E_kl.  For n >= 0 the one entry is
    the product r a.
    """
    conn = strong_connection(n, theta)
    if n >= 0:
        (a, r), = conn.summands
        return ProjectorMatrix(n, ((r * a,),))
    ctx, table, D = conn.ctx, theta.table, theta.conductor
    zero, zeros = AlgebraElement.zero(ctx), (0,) * theta.n
    lefts = [(beta, tuple(-b for b in beta), cl)
             for a, _ in conn.summands for (beta, _), cl in a.terms.items()]
    rows = []
    for (alpha, _, _), (_, rk) in zip(lefts, conn.summands):
        t = next(j for j, e in enumerate(alpha) if e) + 1     # k_1 + 1
        row = []
        for beta, tr, cl in lefts:
            if not all(b <= a for a, b in zip(alpha[t:], beta[t:])):
                row.append(zero)
                continue
            entry = {}
            for (p, q), cr in rk.terms.items():
                phase, pp, qq = _word_product(table, p, q, alpha, beta, zeros, tr)
                entry[pp, qq] = (cr * cl).times_exponent(phase, D)
            row.append(AlgebraElement(ctx, entry))
        rows.append(tuple(row))
    return ProjectorMatrix(n, tuple(rows))


def projector_diagonal(n: int, theta: ThetaMatrix) -> List[AlgebraElement]:
    """The diagonal E_kk = r_k a_k of ``chern_galois_projector``, one product
    each.  Lemma: E_kk = H_{k_1} a_k* a_k = H_{k_1} (``strong_connection``), as
    a_k is a product of isometries; for n >= 0 the one entry is W_{ne_0} W_{ne_0}*.
    So every entry sums words W_{e_T} W_{e_T}* with coefficients +-1."""
    return [r * a for a, r in strong_connection(n, theta).summands]
