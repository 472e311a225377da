import cmath
from fractions import Fraction
from math import comb

import pytest

from conftest import random_element, random_float_theta, rng_for
from reference_grading import extend_hom, power
from reference_sphere import (NonzeroTwist, h_tail, product_connection, product_projector,
                               pullback_hom, pullback_projector, sphere_defect)
from heegaard import (AlgebraElement, Coeff, TensorElement, chern_galois_projector,
                      class_invariant, generator, projector_diagonal, relation_residual,
                      strong_connection, unit, verify_connection)
from heegaard import algebra
from heegaard.algebra import Context
from heegaard import bundles
from heegaard.bundles import MAX_SIZE, SizeOverflow, check_size, mat_mul
from heegaard.phases import FLOAT, RATIONAL, ThetaMatrix


def sphere(n, seed=None):
    th = ThetaMatrix.zero(n) if seed is None else ThetaMatrix.random_rational(n, seed=seed)
    return Context.sphere(th)


def test_h_tail_examples():
    ctx = sphere(2)
    s1 = generator(ctx, 1)
    assert h_tail(1, ctx) == unit(ctx)
    assert h_tail(0, ctx) == unit(ctx) - s1 * s1.star()
    with pytest.raises(IndexError):
        h_tail(2, ctx)


def test_connection_nonnegative_closed_form():
    for n_gen in (1, 2):
        th = ThetaMatrix.random_rational(n_gen + 1, seed=3)
        ctx = Context.sphere(th)
        s0 = generator(ctx, 0)
        conn = strong_connection(2, th)
        assert conn.summands == [(s0.star() * s0.star(), s0 * s0)]
        assert strong_connection(0, th).summands == [(unit(ctx), unit(ctx))]
    # the two monomials equal the power chain s_0*^n (x) s_0^n by repr
    for N in range(1, 5):
        for kind in ("zero", "den-8", "float"):
            th = twist(kind, N + 1)
            s0 = generator(Context.sphere(th), 0)
            for n in range(5):
                ((a, r),) = strong_connection(n, th).summands
                assert (repr(a), repr(r)) == (repr(power(s0.star(), n)), repr(power(s0, n))), \
                    (N, kind, n)


def test_connection_winding_minus_one_untwisted():
    th = ThetaMatrix.zero(2)
    ctx = Context.sphere(th)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    conn = strong_connection(-1, th)
    assert conn.summands == [
        (s0, s0.star() * (unit(ctx) - s1 * s1.star())),
        (s1, s1.star()),
    ]
    assert verify_connection(conn, -1)


def test_connection_sweep():
    for n_gen in (1, 2):
        for th in [ThetaMatrix.zero(n_gen + 1),
                   ThetaMatrix.random_rational(n_gen + 1, seed=5)]:
            for n in range(-3, 4):
                conn = strong_connection(n, th)
                assert verify_connection(conn, n)


def test_float_connection_verifies_within_float_tolerance():
    # rounding leaves the float contraction of this correct connection
    # 1e-14 to 5e-14 away from 1, which the comparison tolerance must absorb
    upper = {(0, 1): -0.546588, (0, 2): 0.92459, (0, 3): -0.747338,
             (1, 2): 0.409634, (1, 3): -0.829629, (2, 3): -0.505118}
    th = ThetaMatrix.from_upper(4, upper, mode="float")
    assert verify_connection(strong_connection(-4, th), -4)


def test_verify_connection_negative_cases():
    ctx = sphere(2)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    bad_product = TensorElement(ctx, [(s0.star(), s1)])
    assert not verify_connection(bad_product, 1)
    # contracts to 1 but wrong bidegree for the claimed winding
    good = strong_connection(1, ctx.theta)
    assert not verify_connection(good, 2)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("n", [-5, -1, 0, 3])
def test_one_slot_twist_is_the_circle_over_a_point(n, mode):
    # N = 0: S^1 over CP^0, where every line bundle is trivial
    th = ThetaMatrix.zero(1, mode)
    assert verify_connection(strong_connection(n, th), n)
    e = chern_galois_projector(n, th)
    assert e.size == 1 and e.is_idempotent()
    assert class_invariant(projector_diagonal(n, th)).as_pair() == (1, 0)
    assert relation_residual(6, th) == 0.0


def test_projector_small_windings():
    th = ThetaMatrix.zero(2)
    ctx = Context.sphere(th)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    e0 = chern_galois_projector(0, th)
    assert e0.entries == ((unit(ctx),),)
    e1 = chern_galois_projector(1, th)
    assert e1.entries == ((s0 * s0.star(),),)
    em1 = chern_galois_projector(-1, th)
    assert em1.entries == (
        (unit(ctx) - s1 * s1.star(), AlgebraElement.zero(ctx)),
        (s1.star() * s0, unit(ctx)),
    )


def test_projector_idempotent_degree_zero():
    for n_gen in (1, 2):
        for th in [ThetaMatrix.zero(n_gen + 1),
                   ThetaMatrix.random_rational(n_gen + 1, seed=7)]:
            for n in range(-2, 3):
                e = chern_galois_projector(n, th)
                assert e.is_idempotent()
                assert e.entries_degree_zero()
                assert e.winding == n


def test_pullback_hom_examples():
    th = ThetaMatrix.zero(3)
    ctx = Context.sphere(th)
    s = [generator(ctx, k) for k in range(3)]
    tctx = Context.sphere(ThetaMatrix.zero(2))
    t = [generator(tctx, k) for k in range(2)]
    assert pullback_hom(s[2] * s[1].star()) == t[1] * t[1].star()
    assert pullback_hom(unit(ctx)) == unit(tctx)
    assert pullback_hom(s[0]) == t[0]
    # the target sphere relation pulls back from the source one
    assert pullback_hom(sphere_defect(Context.toeplitz(th)).with_context(ctx)).is_zero()


def collapse_reference(x):
    """pullback_hom as the multiplicative extension of the generator collapse
    s_0 -> t_0, s_k -> t_1 (k >= 1)."""
    target = Context.sphere(ThetaMatrix.zero(2, x.ctx.mode))
    images = [generator(target, 0)] + [generator(target, 1)] * (x.ctx.n - 1)
    return extend_hom(x, target, images)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_pullback_hom_matches_the_generator_collapse(N, mode):
    ctx = Context.sphere(ThetaMatrix.zero(N + 1, mode))
    rng = rng_for(f"pullback-{N}-{mode}")
    for _ in range(20):
        x = random_element(ctx, rng, nterms=6, degree=6)
        got, want = pullback_hom(x), collapse_reference(x)
        assert got == want, (N, mode, x)
        if mode == "rational":
            assert repr(got) == repr(want), (N, x)
    for n in (-2, -1, 1):
        conn = strong_connection(n, ctx.theta)
        for a, r in conn.summands:
            assert pullback_hom(a) == collapse_reference(a)
            assert pullback_hom(r) == collapse_reference(r)


def test_pullback_hom_rejects_twist():
    th = ThetaMatrix.random_rational(3, seed=9)
    with pytest.raises(NonzeroTwist):
        pullback_hom(unit(Context.sphere(th)))


def test_pullback_projector_conjugation():
    th = ThetaMatrix.zero(3)
    for n in (-2, -1, 1):
        e = chern_galois_projector(n, th)
        e_prime, e_pp, witness = pullback_projector(e, strong_connection(n, th).summands)
        assert witness.gamma_beta_is_one
        assert witness.conjugation_holds
        assert e_prime.is_idempotent()
        assert e_pp.is_idempotent()
        assert e_prime.size <= e_pp.size == e.size
        assert sorted(witness.permutation) == list(range(e.size))


def test_pullback_projector_requires_connection_data():
    e = chern_galois_projector(-1, ThetaMatrix.zero(3))
    with pytest.raises(ValueError):
        pullback_projector(e, ())


def twist(kind, n):
    """The twist kinds the connection tests sweep: zero, random rational
    with denominator 8 or 12, and random float."""
    if kind == "zero":
        return ThetaMatrix.zero(n)
    if kind == "float":
        return random_float_theta(n, rng_for(f"connection-float-{n}"))
    return ThetaMatrix.random_rational(n, seed=n, den=int(kind[len("den-"):]))


TWISTS = ("zero", "den-8", "den-12", "float")


def reference_connection(n, N, theta):
    """The generate-and-filter loop over the product chain: every summand
    extended by every slot, its right factor by r * s_k* H_k, zero summands
    dropped and summands merged after each step."""
    ctx = Context.sphere(theta)
    tails = [generator(ctx, k).star() * h_tail(k, ctx) for k in range(N + 1)]
    conn = TensorElement(ctx, [(unit(ctx), unit(ctx))])
    for _ in range(-n):
        summands = []
        for k in range(N + 1):
            sk = generator(ctx, k)
            for a, r in conn.summands:
                summands.append((sk * a, r * tails[k]))
        conn = TensorElement(ctx, summands).simplify()
    return conn


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N, lowest", [(1, -5), (2, -5), (3, -5), (4, -2)])
def test_connection_matches_generate_and_filter_reference(N, lowest, kind):
    th = twist(kind, N + 1)
    for n in range(-1, lowest - 1, -1):
        got = strong_connection(n, th).summands
        want = reference_connection(n, N, th).summands
        assert len(got) == len(want) == comb(-n + N, N), (N, n, kind)
        assert [repr(a) for a, _ in got] == [repr(a) for a, _ in want], (N, n, kind)
        if kind != "float":
            assert [repr(r) for _, r in got] == [repr(r) for _, r in want], (N, n, kind)
            continue
        # the closed form rounds in another order than the chain, whose
        # phases drift by about 2e-15 per layer (1.1e-14 at n = -5)
        for (_, r), (_, r0) in zip(got, want):
            assert [w for w, _ in r.sorted_terms()] == \
                [w for w, _ in r0.sorted_terms()], (N, n, kind)
            assert all(abs(c.to_complex() - r0.terms[w].to_complex()) <= 4e-15 * -n
                       for w, c in r.terms.items()), (N, n, kind)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_connection_products_grow_with_the_multi_indices(N, monkeypatch):
    # winding -m has C(m+N, N) summands, built from words and integer phases
    # with no element product: one scalar operation per letter of a left
    # factor after its first (layer j >= 2 makes C(j+N, N) of them), one per
    # word of a right factor (2^{N-k_1} each), and one for the unit phase
    products, scalars = _counting_products(monkeypatch), [0]
    times_exponent = Coeff.times_exponent

    def counting(self, *args):
        scalars[0] += 1
        return times_exponent(self, *args)

    monkeypatch.setattr(Coeff, "times_exponent", counting)
    th = twist("den-8", N + 1)
    for m in range(1, 6):
        scalars[0] = 0
        conn = strong_connection(-m, th)
        lefts = sum(comb(j + N, N) for j in range(2, m + 1))
        rights = sum(2 ** (N - first_slot(a)) for a, _ in conn.summands)
        assert [len(r.terms) for _, r in conn.summands] == \
            [2 ** (N - first_slot(a)) for a, _ in conn.summands], (N, m)
        assert products[0] == 0, (N, m)
        assert scalars[0] == 1 + lefts + rights, (N, m)


def first_slot(a):
    """k_1 of a left factor s_{k_m}...s_{k_1}: the lowest slot of its word."""
    (p, _), = a.terms
    return min(i for i, e in enumerate(p) if e)


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_right_factor_closed_form(N, kind):
    # r_k = H_{k_1} a_k* on the product chain, and E_kl = H_{k_1} a_k* a_l
    th = twist(kind, N + 1)
    ctx = Context.sphere(th)
    for n in [n for n in range(-1, -6, -1) if comb(-n + N, N) <= MAX_SIZE]:
        where = (N, n, kind)
        ref = reference_connection(n, N, th)
        for a, r in ref.summands:
            assert r == h_tail(first_slot(a), ctx) * a.star(), where
        assert verify_connection(strong_connection(n, th), n), where
        e = chern_galois_projector(n, th)
        lefts = [a for a, _ in strong_connection(n, th).summands]
        for k, ak in enumerate(lefts):
            head, ak_star = h_tail(first_slot(ak), ctx), ak.star()
            for l, al in enumerate(lefts[:k + 1]):
                assert e.entries[k][l] == head * (ak_star * al), (where, k, l)


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_diagonal_lemma(N, kind):
    # E_kk = r_k a_k = H_{k_1} a_k* a_k = H_{k_1}: term by term at zero and
    # rational twists, where every coefficient is +-1 at exponent 0, and
    # within FLOAT_TOL at a float twist; W_{ne_0} W_{ne_0}* for n >= 0
    th = twist(kind, N + 1)
    ctx = Context.sphere(th)
    for n in [n for n in range(-1, -7, -1) if comb(-n + N, N) <= MAX_SIZE]:
        where = (N, n, kind)
        conn = strong_connection(n, th)
        diag = projector_diagonal(n, th)
        assert len(diag) == len(conn.summands) == comb(-n + N, N), where
        for (a, _), e in zip(conn.summands, diag):
            head = h_tail(first_slot(a), ctx)
            if kind == "float":
                assert e == head, where
            else:
                assert e.terms == head.terms, where
                assert all(c.terms in ({0: 1}, {0: -1}) for c in e.terms.values()), where
        if n >= -3:
            e = chern_galois_projector(n, th).entries
            assert [repr(x) for x in diag] == [repr(e[k][k]) for k in range(len(e))], where
    s0 = generator(ctx, 0)
    for n in range(4):
        (e,) = projector_diagonal(n, th)
        want = power(s0, n) * power(s0.star(), n)
        assert e == want and (kind == "float" or e.terms == want.terms), (N, n, kind)


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_descending_tail_products_vanish(N, kind):
    # (s_l* H_l)(s_k* H_k) = 0 for k < l: H_k holds 1 - s_l s_l*
    ctx = Context.sphere(twist(kind, N + 1))
    tails = [generator(ctx, k).star() * h_tail(k, ctx) for k in range(N + 1)]
    for l in range(N + 1):
        for k in range(l):
            assert (tails[l] * tails[k]).is_zero(), (N, kind, l, k)
        assert not (tails[l] * tails[l]).is_zero(), (N, kind, l)


def full_projector(conn):
    """Every entry r_k a_l of the projector, the zero ones above the
    diagonal included."""
    return [[r * a for a, _ in conn.summands] for _, r in conn.summands]


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N, lowest", [(1, -6), (2, -5), (3, -4), (4, -3)])
def test_projector_is_lower_triangular_in_summand_order(N, lowest, kind):
    th = twist(kind, N + 1)
    for n in range(lowest, 2):
        full = full_projector(strong_connection(n, th))
        assert all(full[k][l].is_zero()
                   for k in range(len(full)) for l in range(k + 1, len(full))), (N, n, kind)
        got = chern_galois_projector(n, th).entries
        assert [[repr(x) for x in row] for row in got] == \
            [[repr(x) for x in row] for row in full], (N, n, kind)


def live(ak, al):
    """The zero lemma's test for E_kl: beta_j <= alpha_j on every slot
    j > k_1, with alpha and beta the slot multiplicities of a_k and a_l."""
    (alpha, _), = ak.terms
    (beta, _), = al.terms
    top = first_slot(ak) + 1 if any(alpha) else len(alpha)
    return all(b <= a for a, b in zip(alpha[top:], beta[top:]))


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_projector_zero_lemma(N, kind):
    # every entry the lemma skips is a zero product r_k a_l, every entry
    # above the diagonal is skipped, and the entries are the full products
    th = twist(kind, N + 1)
    skipped = 0
    for n in [n for n in range(-6, 4) if comb(abs(n) + N, N) <= MAX_SIZE]:
        conn = strong_connection(n, th)
        lefts = [a for a, _ in conn.summands]
        full = full_projector(conn)
        for k, ak in enumerate(lefts):
            for l, al in enumerate(lefts):
                if not live(ak, al):
                    assert full[k][l].is_zero(), (N, n, kind, k, l)
                    skipped += l < k
                assert l <= k or not live(ak, al), (N, n, kind, k, l)
        got = chern_galois_projector(n, th).entries
        assert [[repr(x) for x in row] for row in got] == \
            [[repr(x) for x in row] for row in full], (N, n, kind)
    # above N = 1 the lemma kills entries below the diagonal too
    assert (skipped > 0) == (N > 1), (N, kind)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_projector_multiplies_only_the_lower_triangle(N, monkeypatch):
    # one word product per word of r_k for each pair (k, l) the zero lemma
    # keeps, all of them on or below the diagonal, and no element product
    products, words = _counting_products(monkeypatch), [0]
    word_product = bundles._word_product

    def counting(*args):
        words[0] += 1
        return word_product(*args)

    monkeypatch.setattr(bundles, "_word_product", counting)
    th = twist("den-8", N + 1)
    for m in range(1, 5):
        conn = strong_connection(-m, th)
        lefts = [a for a, _ in conn.summands]
        words[0] = 0
        chern_galois_projector(-m, th)
        pairs = [(k, l) for k, ak in enumerate(lefts) for l, al in enumerate(lefts)
                 if live(ak, al)]
        assert all(l <= k for k, l in pairs), (N, m)
        assert words[0] == sum(len(conn.summands[k][1].terms) for k, _ in pairs), (N, m)
        assert products[0] == 0, (N, m)
        if N > 1 and m > 1:
            assert len(pairs) < len(lefts) * (len(lefts) + 1) // 2, (N, m)


def exact_terms(x):
    """Words in order, with the class, conductor and bit-exact weights of each
    scalar (repr tells -0.0 from 0.0)."""
    return [(m, type(c), c.D, repr(c.terms)) for m, c in x.terms.items()]


def within_cap(N):
    """The negative windings n at N that ``MAX_SIZE`` admits."""
    return [n for n in range(-1, -MAX_SIZE, -1) if comb(-n + N, N) <= MAX_SIZE]


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_word_builders_match_the_product_reference(N, kind):
    # the connection and the projector built from words and integer phases
    # equal the element products of the reference word for word, with the
    # same float bits and the words in the same order.  Every admitted
    # winding up to 64 summands is checked, and the largest admitted one: at
    # N = 1 the reference takes about 60 s for the windings -64 ... -126
    th = twist(kind, N + 1)
    windings = within_cap(N)
    for n in [n for n in windings if comb(-n + N, N) <= 64] + windings[-1:]:
        got, want = strong_connection(n, th), product_connection(n, th)
        assert [(exact_terms(a), exact_terms(r)) for a, r in got.summands] == \
            [(exact_terms(a), exact_terms(r)) for a, r in want.summands], (N, n, kind)
        got, want = chern_galois_projector(n, th), product_projector(n, th)
        assert [[exact_terms(x) for x in row] for row in got.entries] == \
            [[exact_terms(x) for x in row] for row in want.entries], (N, n, kind)


@pytest.mark.parametrize("kind", TWISTS)
def test_negative_windings_form_no_product_and_no_normal_form(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("formed a product, an adjoint or a normal form")

    for owner, name in [(AlgebraElement, "__mul__"), (AlgebraElement, "star"),
                        (algebra, "_canonicalize"), (bundles, "_canonicalize")]:
        monkeypatch.setattr(owner, name, refuse)
    for N, n in [(1, -4), (2, -3), (3, -2), (4, -2)]:
        th = twist(kind, N + 1)
        assert len(strong_connection(n, th).summands) == comb(-n + N, N), (N, n, kind)
        assert chern_galois_projector(n, th).size == comb(-n + N, N), (N, n, kind)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_every_built_word_has_a_zero_exponent_at_the_first_slot(N):
    # so no word is fully interior and the sphere normal form is the identity
    # on them: p_{k_1} = 0 in r_k, and one of (beta - alpha)+ and
    # (alpha - beta)+ is 0 at k_1 in E_kl
    th = twist("den-12", N + 1)
    for n in within_cap(N)[:4]:
        conn = strong_connection(n, th)
        e = chern_galois_projector(n, th).entries
        for k, (a, r) in enumerate(conn.summands):
            k1 = first_slot(a)
            assert all(p[k1] == 0 for p, _ in r.terms), (N, n, k)
            assert all(p[k1] == 0 or q[k1] == 0 for x in e[k] for p, q in x.terms), (N, n, k)


def test_size_cap_bounds_summands_and_tail_words():
    # C(|n|+N, N) summands for n < 0 and the 2^N words of a right factor
    # with k_1 = 0, each at most MAX_SIZE, and |n| below it; a winding
    # n >= 0 is one summand at any N
    assert MAX_SIZE == 128
    for n, N in [(-14, 2), (14, 2), (15, 2), (10, 3), (127, 7), (-127, 1), (127, 1),
                 (-1, 7), (-5, 4), (0, 1)]:
        check_size(n, N)
    for n, N in [(-15, 2), (-128, 1), (128, 1), (0, 8), (-8, 4),
                 (-10 ** 400, 1), (1, 10 ** 400)]:
        with pytest.raises(SizeOverflow):
            check_size(n, N)
    with pytest.raises(SizeOverflow):
        strong_connection(-1, ThetaMatrix.zero(17))


def _counting_products(monkeypatch):
    """A one-element list counting ``AlgebraElement.__mul__`` calls from now on."""
    calls = [0]
    mul = AlgebraElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting)
    return calls


def reference_mat_mul(a, b):
    # every entry product is formed, zero factors included
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _reprs(matrix):
    return [[repr(x) for x in row] for row in matrix]


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N, n", [(1, -3), (2, -2), (2, 2), (3, -1)])
def test_mat_mul_forms_only_products_of_nonzero_factors(N, n, kind, monkeypatch):
    e = chern_galois_projector(n, twist(kind, N + 1)).entries
    want = reference_mat_mul(e, e)
    calls = _counting_products(monkeypatch)
    got = mat_mul(e, e)
    assert calls[0] == sum(1 for row in e for col in zip(*e)
                           for x, y in zip(row, col) if not (x.is_zero() or y.is_zero()))
    assert _reprs(got) == _reprs(want)


def test_pullback_projector_skips_products_with_a_zero_factor(monkeypatch):
    # 2545 entry products before, 1830 of them with a zero factor
    th = ThetaMatrix.zero(3)
    e, summands = chern_galois_projector(-3, th), strong_connection(-3, th).summands
    calls = _counting_products(monkeypatch)
    e_prime, e_pp, witness = pullback_projector(e, summands)
    assert calls[0] <= 715
    monkeypatch.undo()
    monkeypatch.setattr(bundles, "mat_mul", reference_mat_mul)
    want_prime, _, want = pullback_projector(e, summands)
    assert _reprs(e_prime.entries) == _reprs(want_prime.entries)
    # E'' unskipped: the pushed rights times the pushed lefts, both permuted;
    # a dropped left pushes to zero
    rights = [pullback_hom(summands[l][1]) for l in witness.permutation]
    lefts = [pullback_hom(summands[l][0]) for l in witness.permutation]
    assert _reprs(e_pp.entries) == _reprs([[r * a for a in lefts] for r in rights])
    assert (_reprs(witness.g), _reprs(witness.g_inv), witness.permutation) == \
        (_reprs(want.g), _reprs(want.g_inv), want.permutation)
    assert witness.gamma_beta_is_one and want.gamma_beta_is_one
    assert witness.conjugation_holds and want.conjugation_holds
    padded = [[e_prime.entries[i][j] if i < e_prime.size and j < e_prime.size
               else AlgebraElement.zero(e_pp.entries[0][0].ctx)
               for j in range(e.size)] for i in range(e.size)]
    assert _reprs(mat_mul(mat_mul(witness.g_inv, padded), witness.g)) == \
        _reprs(reference_mat_mul(reference_mat_mul(witness.g_inv, padded), witness.g))
    assert e_pp.is_idempotent() and e_prime.is_idempotent()


def reference_simplify(t):
    # the quadratic merge: each summand into the first kept summand with an
    # equal left factor
    merged = []
    for a, r in t.summands:
        for idx, (a0, r0) in enumerate(merged):
            if a == a0:
                merged[idx] = (a0, r0 + r)
                break
        else:
            merged.append((a, r))
    return merged


@pytest.mark.parametrize("kind", TWISTS)
def test_simplify_matches_the_quadratic_merge(kind):
    th = twist(kind, 3)
    ctx = Context.sphere(th)
    s0, s1, s2 = (generator(ctx, k) for k in range(3))
    rng = rng_for(f"simplify-{kind}")
    phase = (lambda t: Coeff.from_phase(t, th.mode, 3)) if th.mode == "rational" \
        else (lambda t: Coeff.from_complex(3 * cmath.exp(2j * cmath.pi * t)))
    x, y = s0 + s1, s0 - s1          # the same words, not proportional
    lefts = [x, y, x.times_coeff(phase(Fraction(1, 8))), y.scale(2), x, s0 * s1.star(),
             s2, y.times_coeff(phase(Fraction(3, 4))), s2.scale(-1), s0 * s1.star(),
             x + s2]
    rights = [random_element(ctx, rng, nterms=2, degree=2) for _ in lefts]
    for order in range(4):
        pairs = list(zip(lefts, rights))
        if order:
            rng.shuffle(pairs)
        t = TensorElement(ctx, pairs)
        want = reference_simplify(t)
        got = t.simplify().summands
        assert [(repr(a), repr(r)) for a, r in got] == [(repr(a), repr(r)) for a, r in want]
        assert len(got) < len(pairs)
        # x and x e(1/8) 3 are proportional, not equal: they stay apart
        kept = [a for a, _ in got]
        assert sum(a == x for a in kept) == sum(a == lefts[2] for a in kept) == 1


@pytest.mark.parametrize("kind", ("zero", "den-8", "float"))
def test_connection_simplify_compares_no_left_factors(kind, monkeypatch):
    # every summand of a connection has its own left word, so simplify
    # compares no two left factors at any winding the size cap admits
    def refuse(self, other):
        raise AssertionError("simplify compared two left factors")
    monkeypatch.setattr(AlgebraElement, "__eq__", refuse)
    built = 0
    for N in range(1, 5):
        th = twist(kind, N + 1)
        for n in range(-6, 7):
            try:
                check_size(n, N)
            except SizeOverflow:
                continue
            built += bool(strong_connection(n, th).summands)
    assert built == 13 + 13 + 13 + 12
    x = generator(Context.sphere(th), 0)
    with pytest.raises(AssertionError, match="compared"):
        TensorElement(x.ctx, [(x, x), (x, x)]).simplify()


def eager_contract(t):
    """sum_l a_l * r_l by sphere products, added one at a time."""
    out = AlgebraElement.zero(t.ctx)
    for a, r in t.summands:
        out = out + a * r
    return out


@pytest.mark.parametrize("kind", TWISTS)
@pytest.mark.parametrize("N", [1, 2, 3])
def test_contract_matches_the_eager_sum(N, kind):
    # the products summed in the ambient algebra and normalized once are the
    # sum of the sphere products: by repr at rational twists, within
    # FLOAT_TOL (AlgebraElement ==) at a float twist
    th = twist(kind, N + 1)
    ctx = Context.sphere(th)
    rng = rng_for(f"contract-{N}-{kind}")
    conns = [strong_connection(n, th) for n in (-3, -1, 2)]
    dropped = TensorElement(ctx, conns[0].summands[1:])
    randoms = [TensorElement(ctx, [(random_element(ctx, rng, 4, 2 * N + 2),
                                    random_element(ctx, rng, 4, 2 * N + 2))
                                   for _ in range(3)]) for _ in range(4)]
    for t in conns + [dropped] + randoms:
        got, want = t.contract(), eager_contract(t)
        assert got == want if kind == "float" else repr(got) == repr(want), (N, kind, t)
    assert dropped.contract() != unit(ctx) and all(c.contract() == unit(ctx) for c in conns)
    amb = ctx.ambient()
    assert any(0 not in p + q for t in randoms for a, r in t.summands
               for p, q in (a.with_context(amb) * r.with_context(amb)).terms)


@pytest.mark.parametrize("kind", ("zero", "den-8", "float"))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_contract_adds_word_products_and_normalizes_once(N, kind, monkeypatch):
    # the tensors of test_contract_matches_the_eager_sum: every summand's
    # word products go into one dict, with no element product, and the
    # sphere normal form runs once
    th = twist(kind, N + 1)
    ctx = Context.sphere(th)
    rng = rng_for(f"contract-{N}-{kind}")
    conns = [strong_connection(n, th) for n in (-3, -1, 2)]
    randoms = [TensorElement(ctx, [(random_element(ctx, rng, 4, 2 * N + 2),
                                    random_element(ctx, rng, 4, 2 * N + 2))
                                   for _ in range(3)]) for _ in range(4)]
    calls = {}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def refuse(*args):
        raise AssertionError("contract formed an element product")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(algebra, "_word_product",
                        counting("_word_product", algebra._word_product))
    normal_form = counting("_canonicalize", algebra._canonicalize)
    monkeypatch.setattr(algebra, "_canonicalize", normal_form)
    monkeypatch.setattr(bundles, "_canonicalize", normal_form)
    for t in conns + randoms:
        calls.update(_word_product=0, _canonicalize=0)
        t.contract()
        pairs = sum(len(a.terms) * len(r.terms) for a, r in t.summands)
        assert calls == {"_word_product": pairs, "_canonicalize": 1}, (N, kind)
    assert any(len(a.terms) > 1 for t in randoms for a, _ in t.summands)
