"""Reference kernel-image check of the quotient family, for the tests.

No command runs it: ``cocycle`` checks the chart maps of CP^N_T
(``heegaard.quotients.cocycle_check``).  This is the kernel-image equality

    pi^i_j(ker pi^i_k) == pi^j_i(ker pi^j_k)    inside B_ij,

for all distinct i, j, k, on the words of B_i up to a degree bound, and the
lemma that reduces it to a comparison of word sets.

Take a side (i, j, k) and m, a word of B_i (min 0 in slot i) interior on
slot k.  Slot reductions add their phases (``heegaard.algebra`` docstring),
so if psi(w) is the phase of reducing w on every slot, m's vector is
e(psi(m)) (e_A - e_B) in the coordinates e(psi(w)) x_w, the same on both
sides.  A is m reduced on slot j, and B is A reduced on slot k, since
word-level reductions on different slots commute.  So every edge of a side
joins a k-interior word to its k-reduction: each side's graph is a union of
stars, one around each k-reduced word, and its span is the x on it with
every star summing to 0.  A vector (A, B) of one side thus lies in the other
side's span exactly when A is one of the other side's k-interior words, at
float twists as exactly as at rational.  Both sides' sets of A are the words
with min 0 on i and j, interior on k, and of degree <= d (take m = A on
either side), so the check passes at every twist and degree: it guards the
enumeration (``basis_monomials``) and the word reduction, not the twist or
the product kernel.

The induced isomorphisms cohere for every twist: B_k -> B_j -> B_i and
B_k -> B_i, modulo all three slots, both compose slot reductions, whose phase
is additive over slots, since each leaves every p_j - q_j unchanged.
"""

from __future__ import annotations

from itertools import combinations

from heegaard.algebra import _unitary_reduce
from heegaard.coeff import Coeff
from heegaard.phases import ThetaMatrix


def shift(v: tuple, s: int, d: int) -> tuple:
    """The multi-index v with d added in slot s."""
    return v[:s] + (v[s] + d,) + v[s + 1:]


def basis_monomials(n: int, degree_bound: int, zero_slots=(), positive_slots=()):
    """Multi-index pairs (p, q) with |p|+|q| <= bound, min(p_s,q_s)=0 on
    zero_slots and min(p_s,q_s)>=1 on positive_slots, ordered by |p|+|q|,
    then |p|, then p, then q.  A word positive on the slot set P is (e_P, e_P)
    plus a word of degree <= bound - 2|P|, so only those are enumerated (in
    ascending order, by stars and bars), and only zero_slots are filtered."""
    lift = [int(s in positive_slots) for s in range(n)]

    def vecs(total):
        for cut in combinations(range(total + n - 1), n - 1):
            yield tuple(b - a - 1 + e for a, b, e
                        in zip((-1,) + cut, cut + (total + n - 1,), lift))

    words = ((p, q) for d in range(degree_bound - 2 * sum(lift) + 1)
             for dp in range(d + 1) for p in vecs(dp) for q in vecs(d - dp))
    return [(p, q) for p, q in words if not any(min(p[s], q[s]) for s in zero_slots)]


def kernel_image_words(n: int, i: int, j: int, k: int, degree_bound: int):
    """Pairs (A, m) up to degree: each word m of B_i with slot k interior,
    and A, m reduced on slot j (the module lemma); no twist."""
    return [((shift(p, j, -c), shift(q, j, -c)), (p, q))
            for p, q in basis_monomials(n, degree_bound, zero_slots=(i,), positive_slots=(k,))
            for c in [min(p[j], q[j])]]


def kernel_image_vector(theta: ThetaMatrix, i: int, j: int, k: int, m) -> dict:
    """The image in B_ij of m - e(phi_k) m_k, m_k the slot-k reduction of the
    word m of B_i: two words, A = m and then B = m_k reduced on {i, j}."""
    ij = tuple(sorted((i, j)))
    a, pa, qa = _unitary_reduce(theta.table, ij, *m)
    phi, pk, qk = _unitary_reduce(theta.table, (k,), *m)
    b, pb, qb = _unitary_reduce(theta.table, ij, pk, qk)
    return {(pa, qa): Coeff.from_exponent(a, theta),
            (pb, qb): Coeff.from_exponent(phi, theta, -1) * Coeff.from_exponent(b, theta)}


def kernel_image_failures(theta: ThetaMatrix, degree_bound: int) -> list:
    """Per pair i < j and third slot k, the first vector outside the other
    side's span (side a before side b), as (i, j, k, first word, vector):
    by the module lemma, the first whose A the other side lacks.  Below
    degree 2 no word is interior on a slot, so nothing is enumerated."""
    n, failures = theta.n, []
    if degree_bound < 2:
        return failures
    for i, j in combinations(range(n), 2):
        for k in (k for k in range(n) if k not in (i, j)):
            side_a = kernel_image_words(n, i, j, k, degree_bound)
            side_b = kernel_image_words(n, j, i, k, degree_bound)
            for a, b, words, other in ((i, j, side_a, side_b), (j, i, side_b, side_a)):
                leaves = {A for A, _ in other}
                m = next((m for A, m in words if A not in leaves), None)
                if m is not None:
                    v = kernel_image_vector(theta, a, b, k, m)
                    failures.append((a, b, k, min(v), v))
                    break
    return failures
