"""Strong connections, line-bundle projectors, and projector pullback.

A strong connection value is a finite sum sum_l a_l (x) r_l of elementary
tensors over the sphere quotient with sum_l a_l r_l = 1 and bidegree
(-n, n).  The associated projector has entries E_kl = r_k a_l; idempotency
follows from the multiplicativity condition alone, so any presentation of
the connection value works.  ``strong_connection`` builds each right factor
in closed form, r_k = H_{k_1} a_k*, one summand per multi-index, in an order
that makes the projector lower-triangular (lemmas in both docstrings).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Tuple

from .algebra import (AlgebraElement, Context, ContextMismatch, generator,
                      range_complement, unit)
from .grading import extend_hom
from .phases import ThetaMatrix


MAX_SIZE = 128
"""Cap on both C(|n|+N, N), the summand count of winding n (the projector
has its square for entries), and 2^N, the word count of ``h_tail(0)``."""


class NonzeroTwist(ValueError):
    pass


class SizeOverflow(ValueError):
    pass


def check_size(n: int, N: int) -> None:
    """Raise ``SizeOverflow`` unless winding n at N is within ``MAX_SIZE``.

    C(|n|+N, N) exceeds both |n| and N, so a size with either at the cap
    is refused before a huge binomial or power is formed."""
    m = abs(n)
    if m >= MAX_SIZE or N >= MAX_SIZE or max(comb(m + N, N), 2 ** N) > MAX_SIZE:
        raise SizeOverflow(f"winding {n} at N={N} exceeds the size cap: C(|n|+N, N) "
                           f"and 2^N must be at most {MAX_SIZE}")


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
        """Multiplication map: sum_l a_l * r_l."""
        out = AlgebraElement.zero(self.ctx)
        for a, r in self.summands:
            out = out + a * r
        return out


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


def h_tail(i: int, ctx: Context) -> AlgebraElement:
    """The ordered product of range complements in slots above i."""
    if not 0 <= i < ctx.n:
        raise IndexError(f"index {i} out of range")
    return range_complement(ctx, range(i + 1, ctx.n))


def strong_connection(n: int, N: int, theta: ThetaMatrix) -> TensorElement:
    """Connection value for winding n over the sphere quotient.

    Non-negative windings have the closed form s_0*^n (x) s_0^n.  Winding -m
    is the m-th power of sum_k s_k (x) s_k* H_k, H_k = ``h_tail(k)``.  Each
    factor 1 - s_j s_j* of an H is idempotent, is killed by s_j* on its left,
    and commutes exactly with every letter of another slot (the phases
    cancel).  So (s_l* H_l)(s_k* H_k) = 0 for k < l, and the summands are
    a_k (x) r_k, a_k = s_{k_m}...s_{k_1}, one per k_1 <= ... <= k_m, ordered
    by k_m, then by the prefix.  In r_k = s_{k_1}* H_{k_1}...s_{k_m}* H_{k_m}
    the slot-j factor of H_{k_i} (j > k_i) stands before every s_j*, so it
    passes only letters of slots <= k_i to the front; there they all merge
    into H_{k_1}, and r_k = H_{k_1} a_k*.
    A size over ``MAX_SIZE`` raises ``SizeOverflow`` before anything is built.
    """
    if theta.n != N + 1:
        raise ValueError("twist size must be N+1")
    check_size(n, N)
    ctx = Context.sphere(theta)
    if n >= 0:
        s0 = generator(ctx, 0)
        return TensorElement(ctx, [(s0.star() ** n, s0 ** n)]).simplify()
    gens = [generator(ctx, k) for k in range(N + 1)]
    heads = [h_tail(k, ctx) for k in range(N + 1)]
    layer = [(k, k, g) for k, g in enumerate(gens)]     # (last slot, first slot, a)
    for _ in range(-n - 1):
        layer = [(k, first, gens[k] * a)
                 for k in range(N + 1) for last, first, a in layer if last <= k]
    return TensorElement(ctx, [(a, heads[f] * a.star()) for _, f, a in layer]).simplify()


def verify_connection(conn: TensorElement, n: int) -> bool:
    """Multiplicativity (contracts to 1) and bidegree (-n, n) on every
    summand."""
    if conn.contract() != unit(conn.ctx):
        return False
    for a, r in conn.summands:
        if a.degrees() - {-n} or r.degrees() - {n}:
            return False
    return True


@dataclass(frozen=True)
class ProjectorMatrix:
    """Idempotent matrix of degree-0 sphere-quotient elements, together
    with the connection data (lefts gamma, rights beta) it was built from."""

    winding: int
    entries: Tuple[Tuple[AlgebraElement, ...], ...]
    lefts: Tuple[AlgebraElement, ...] = ()
    rights: Tuple[AlgebraElement, ...] = ()

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty projector")

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_idempotent(self) -> bool:
        return mat_eq(mat_mul(self.entries, self.entries), self.entries)

    def entries_degree_zero(self) -> bool:
        return all(e.degrees() <= {0} for row in self.entries for e in row)


def mat_mul(a, b):
    """Matrix product; a product with a zero factor adds nothing, so it is skipped."""
    zero = AlgebraElement.zero(a[0][0].ctx)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)
                            if not (x.is_zero() or y.is_zero())), zero)
                       for col in zip(*b)) for row in a)


def mat_eq(a, b) -> bool:
    return (len(a) == len(b)
            and all(len(ra) == len(rb) for ra, rb in zip(a, b))
            and all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)))


def chern_galois_projector(n: int, N: int, theta: ThetaMatrix) -> ProjectorMatrix:
    """E_kl = r_k a_l from the winding-n connection sum_l a_l (x) r_l.

    E is lower-triangular in the summand order of ``strong_connection``, so
    only the entries with l <= k are multiplied.  Proof: E_kl = H_{k_1} a_k* a_l
    by the lemma there.  If l comes after k, then at the last position i with
    k_i != l_i, l_i > k_i.  The isometries s* s = 1 cancel the positions after
    i, and s_{l_i} moves to the front past letters of slots <= k_i < l_i.
    There H_{k_1} holds 1 - s_{l_i} s_{l_i}*, and (1 - s s*) s = 0.
    """
    conn = strong_connection(n, N, theta)
    lefts = tuple(a for a, _ in conn.summands)
    rights = tuple(r for _, r in conn.summands)
    zero = AlgebraElement.zero(conn.ctx)
    entries = tuple(tuple(rk * al if l <= k else zero for l, al in enumerate(lefts))
                    for k, rk in enumerate(rights))
    return ProjectorMatrix(n, entries, lefts, rights)


def pullback_hom(x: AlgebraElement) -> AlgebraElement:
    """Untwisted sphere morphism collapsing all generators above 0 to the
    single generator 1 of the three-sphere quotient."""
    if x.ctx.kind != "sphere":
        raise ContextMismatch("expected a sphere-quotient element")
    if not x.ctx.theta.is_zero():
        raise NonzeroTwist("generator collapse respects relations only at zero twist")
    target = Context.sphere(ThetaMatrix.zero(2, x.ctx.mode))
    images = [generator(target, 0)] + [generator(target, 1)] * (x.ctx.n - 1)
    return extend_hom(x, target, images)


@dataclass(frozen=True)
class ConjugationWitness:
    """Invertible G with G * E'' * G^{-1} == E' (+) 0, plus the summand
    permutation that puts the surviving columns first."""

    g: tuple
    g_inv: tuple
    permutation: Tuple[int, ...]
    gamma_beta_is_one: bool
    conjugation_holds: bool


def pullback_projector(e: ProjectorMatrix):
    """Push a projector along the sphere morphism.

    Returns (E', E'', witness): E' is the projector of the pushed-forward
    connection (f (x) f applied to the recorded summands, zero lefts
    dropped), E'' is the entry-wise image of the source projector with the
    summands permuted so the zero-left columns come last, and the witness
    conjugates E' padded by zeros to E''.
    """
    if not e.lefts:
        raise ValueError("projector carries no recorded connection data")
    pushed = [(pullback_hom(a), pullback_hom(r))
              for a, r in zip(e.lefts, e.rights)]
    keep = [l for l, (a, _) in enumerate(pushed) if not a.is_zero()]
    drop = [l for l, (a, _) in enumerate(pushed) if a.is_zero()]
    perm = keep + drop
    gamma_p = [pushed[l][0] for l in keep]
    beta_p = [pushed[l][1] for l in keep]
    rho_p = [pushed[l][1] for l in drop]
    ctx = gamma_p[0].ctx
    m, mp = len(pushed), len(keep)

    e_prime = ProjectorMatrix(
        e.winding,
        tuple(tuple(rk * al for al in gamma_p) for rk in beta_p),
        tuple(gamma_p), tuple(beta_p))
    beta_pp = beta_p + rho_p
    e_pp = ProjectorMatrix(
        e.winding,
        tuple(tuple(beta_pp[k] * gamma_p[l] if l < mp else AlgebraElement.zero(ctx)
                    for l in range(m)) for k in range(m)))

    zero = AlgebraElement.zero(ctx)
    one = unit(ctx)
    # gamma' beta'^T = sum of the surviving a_l r_l; the dropped summands
    # contribute zero, so this is the image of the full contraction
    gamma_beta_is_one = TensorElement(ctx, zip(gamma_p, beta_p)).contract() == one
    g = [[one if i == j else zero for j in range(m)] for i in range(m)]
    g_inv = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for i in range(m - mp):
        for j in range(mp):
            block = rho_p[i] * gamma_p[j]
            g[mp + i][j] = -block
            g_inv[mp + i][j] = block
    g = tuple(tuple(row) for row in g)
    g_inv = tuple(tuple(row) for row in g_inv)

    padded = tuple(tuple(e_prime.entries[i][j] if i < mp and j < mp else zero
                         for j in range(m)) for i in range(m))
    conj = mat_mul(mat_mul(g_inv, padded), g)
    holds = mat_eq(conj, e_pp.entries)
    witness = ConjugationWitness(g, g_inv, tuple(perm),
                                 gamma_beta_is_one, holds)
    return e_prime, e_pp, witness
