import cmath
from fractions import Fraction
from math import comb

import pytest

from conftest import random_element, random_float_theta, rng_for
from heegaard import (AlgebraElement, Coeff, NonzeroTwist, TensorElement,
                      chern_galois_projector, generator, h_tail, pullback_hom,
                      pullback_projector, sphere_defect, strong_connection,
                      unit, verify_connection)
from heegaard.algebra import Context
from heegaard import bundles
from heegaard.bundles import MAX_SIZE, SizeOverflow, _proportionality, check_size, mat_mul
from heegaard.phases import ThetaMatrix


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
        conn = strong_connection(2, n_gen, th)
        assert conn.summands == [(s0.star() * s0.star(), s0 * s0)]
        assert strong_connection(0, n_gen, th).summands == [(unit(ctx), unit(ctx))]


def test_connection_winding_minus_one_untwisted():
    th = ThetaMatrix.zero(2)
    ctx = Context.sphere(th)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    conn = strong_connection(-1, 1, th)
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
                conn = strong_connection(n, n_gen, th)
                assert verify_connection(conn, n)


def test_float_connection_verifies_within_float_tolerance():
    # rounding leaves the float contraction of this correct connection
    # 1e-14 to 5e-14 away from 1, which the comparison tolerance must absorb
    upper = {(0, 1): -0.546588, (0, 2): 0.92459, (0, 3): -0.747338,
             (1, 2): 0.409634, (1, 3): -0.829629, (2, 3): -0.505118}
    th = ThetaMatrix.from_upper(4, upper, mode="float")
    assert verify_connection(strong_connection(-4, 3, th), -4)


def test_verify_connection_negative_cases():
    ctx = sphere(2)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    bad_product = TensorElement(ctx, [(s0.star(), s1)])
    assert not verify_connection(bad_product, 1)
    # contracts to 1 but wrong bidegree for the claimed winding
    good = strong_connection(1, 1, ctx.theta)
    assert not verify_connection(good, 2)


def test_connection_size_mismatch():
    with pytest.raises(ValueError):
        strong_connection(1, 2, ThetaMatrix.zero(2))


def test_projector_small_windings():
    th = ThetaMatrix.zero(2)
    ctx = Context.sphere(th)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    e0 = chern_galois_projector(0, 1, th)
    assert e0.entries == ((unit(ctx),),)
    e1 = chern_galois_projector(1, 1, th)
    assert e1.entries == ((s0 * s0.star(),),)
    em1 = chern_galois_projector(-1, 1, th)
    assert em1.entries == (
        (unit(ctx) - s1 * s1.star(), AlgebraElement.zero(ctx)),
        (s1.star() * s0, unit(ctx)),
    )


def test_projector_idempotent_degree_zero():
    for n_gen in (1, 2):
        for th in [ThetaMatrix.zero(n_gen + 1),
                   ThetaMatrix.random_rational(n_gen + 1, seed=7)]:
            for n in range(-2, 3):
                e = chern_galois_projector(n, n_gen, th)
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


def test_pullback_hom_rejects_twist():
    th = ThetaMatrix.random_rational(3, seed=9)
    with pytest.raises(NonzeroTwist):
        pullback_hom(unit(Context.sphere(th)))


def test_pullback_projector_conjugation():
    th = ThetaMatrix.zero(3)
    for n in (-2, -1, 1):
        e = chern_galois_projector(n, 2, th)
        e_prime, e_pp, witness = pullback_projector(e)
        assert witness.gamma_beta_is_one
        assert witness.conjugation_holds
        assert e_prime.is_idempotent()
        assert e_pp.is_idempotent()
        assert e_prime.size <= e_pp.size == e.size
        assert sorted(witness.permutation) == list(range(e.size))


def test_pullback_projector_requires_connection_data():
    e = chern_galois_projector(-1, 2, ThetaMatrix.zero(3))
    bare = type(e)(e.winding, e.entries)
    with pytest.raises(ValueError):
        pullback_projector(bare)


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
        got = strong_connection(n, N, th).summands
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
    # winding -m has C(m+N, N) summands: layer j >= 2 makes one left product
    # per sequence of length j, and each right factor is one product
    calls = [0]
    mul = AlgebraElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting)
    th = twist("den-8", N + 1)
    for m in range(1, 6):
        calls[0] = 0
        strong_connection(-m, N, th)
        lefts = sum(comb(j + N, N) for j in range(2, m + 1))
        assert calls[0] == lefts + comb(m + N, N), (N, m)


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
        assert verify_connection(strong_connection(n, N, th), n), where
        e = chern_galois_projector(n, N, th)
        for k, ak in enumerate(e.lefts):
            head, ak_star = h_tail(first_slot(ak), ctx), ak.star()
            for l, al in enumerate(e.lefts[:k + 1]):
                assert e.entries[k][l] == head * (ak_star * al), (where, k, l)


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
        full = full_projector(strong_connection(n, N, th))
        assert all(full[k][l].is_zero()
                   for k in range(len(full)) for l in range(k + 1, len(full))), (N, n, kind)
        got = chern_galois_projector(n, N, th).entries
        assert [[repr(x) for x in row] for row in got] == \
            [[repr(x) for x in row] for row in full], (N, n, kind)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_projector_multiplies_only_the_lower_triangle(N, monkeypatch):
    # m summands give m(m+1)/2 entry products on top of the connection's own
    calls = [0]
    mul = AlgebraElement.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting)
    th = twist("den-8", N + 1)
    for m in range(1, 5):
        calls[0] = 0
        strong_connection(-m, N, th)
        connection = calls[0]
        calls[0] = 0
        chern_galois_projector(-m, N, th)
        size = comb(m + N, N)
        assert calls[0] - connection == size * (size + 1) // 2, (N, m)


def test_size_cap_bounds_summands_and_tail_words():
    # C(|n|+N, N) summands and 2^N words of h_tail(0), each at most MAX_SIZE
    assert MAX_SIZE == 128
    for n, N in [(-14, 2), (14, 2), (-127, 1), (127, 1), (-1, 7), (-5, 4), (0, 1)]:
        check_size(n, N)
    for n, N in [(-15, 2), (15, 2), (-128, 1), (128, 1), (0, 8), (-8, 4),
                 (-10 ** 400, 1), (1, 10 ** 400)]:
        with pytest.raises(SizeOverflow):
            check_size(n, N)
    with pytest.raises(SizeOverflow):
        strong_connection(-1, 16, ThetaMatrix.zero(17))


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
    e = chern_galois_projector(n, N, twist(kind, N + 1)).entries
    want = reference_mat_mul(e, e)
    calls = _counting_products(monkeypatch)
    got = mat_mul(e, e)
    assert calls[0] == sum(1 for row in e for col in zip(*e)
                           for x, y in zip(row, col) if not (x.is_zero() or y.is_zero()))
    assert _reprs(got) == _reprs(want)


def test_pullback_projector_skips_products_with_a_zero_factor(monkeypatch):
    # 2545 entry products before, 1830 of them with a zero factor
    e = chern_galois_projector(-3, 2, ThetaMatrix.zero(3))
    calls = _counting_products(monkeypatch)
    e_prime, e_pp, witness = pullback_projector(e)
    assert calls[0] <= 715
    monkeypatch.undo()
    monkeypatch.setattr(bundles, "mat_mul", reference_mat_mul)
    want_prime, _, want = pullback_projector(e)
    assert _reprs(e_prime.entries) == _reprs(want_prime.entries)
    # E'' unskipped: the pushed rights times the pushed lefts, both permuted;
    # a dropped left pushes to zero
    rights = [pullback_hom(e.rights[l]) for l in witness.permutation]
    lefts = [pullback_hom(e.lefts[l]) for l in witness.permutation]
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
    # the quadratic merge: each summand against every kept summand in order
    merged = []
    for a, r in t.summands:
        for idx, (a0, r0) in enumerate(merged):
            lam = _proportionality(a, a0)
            if lam is not None:
                merged[idx] = (a0, r0 + r.times_coeff(lam))
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
