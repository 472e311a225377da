import random
from fractions import Fraction

import pytest

from conftest import random_element, random_float_theta, rng_for
from reference_grading import (degree_decompose, extend_hom, fixed_point_context,
                               fixed_quotient_context, invariant_expectation,
                               kappa_gen_inv, kappa_gen_map, kappa_matrix, phi_iso,
                               phi_iso_inv, psi_map, slot_degree)
from heegaard import AlgebraElement, generator, unit
from heegaard.algebra import Context, ContextMismatch
from heegaard.phases import ThetaMatrix


def test_degree_decompose_example():
    ctx = Context.toeplitz(ThetaMatrix.zero(2))
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    x = s0 + s1 * s0.star() + unit(ctx) + s0 * s1
    parts = degree_decompose(x)
    assert [gc.degree for gc in parts] == [0, 1, 2]
    assert parts[0].element == s1 * s0.star() + unit(ctx)
    assert parts[1].element == s0
    assert parts[2].element == s0 * s1
    assert sum((gc.element for gc in parts), AlgebraElement.zero(ctx)) == x
    assert invariant_expectation(x) == parts[0].element


def test_invariant_expectation_is_idempotent_and_bimodular():
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=3))
    rng = rng_for("expectation")
    for _ in range(10):
        x = random_element(ctx, rng)
        e = invariant_expectation(x)
        assert invariant_expectation(e) == e
        y = invariant_expectation(random_element(ctx, rng))
        assert invariant_expectation(y * x) == y * invariant_expectation(x)
        assert invariant_expectation(x * y) == invariant_expectation(x) * y


def test_kappa_gen_roundtrip():
    th = ThetaMatrix.random_rational(3, seed=5)
    rng = rng_for("kappa-roundtrip")
    for i in range(3):
        ctx = Context.quotient(th, i)
        for _ in range(8):
            x = random_element(ctx, rng)
            assert kappa_gen_inv(i, kappa_gen_map(i, x)) == x


def test_float_kappa_gen_roundtrip():
    # the gauged twist of a float twist is exact, so the inverse regrading
    # lands back in B_i of the same twist, not of a rounded one
    for seed in range(50):
        rng = random.Random(seed)
        th = random_float_theta(3, rng)
        for i in range(3):
            x = random_element(Context.quotient(th, i), rng)
            assert kappa_gen_inv(i, kappa_gen_map(i, x)) == x, (seed, i)


def test_kappa_gen_regrades_into_slot():
    th = ThetaMatrix.random_rational(3, seed=7)
    i = 1
    ctx = Context.quotient(th, i)
    rng = rng_for("kappa-regrade")
    for _ in range(10):
        x = random_element(ctx, rng)
        for gc in degree_decompose(x):
            y = kappa_gen_map(i, gc.element)
            assert slot_degree(y, i) <= {gc.degree}


def test_gauge_relation_checks():
    """The six relations the gauged generator families must satisfy."""
    th = ThetaMatrix.random_rational(3, seed=11)
    for i in range(3):
        gauged = kappa_matrix(th, i)
        src = Context.quotient(th, i)
        src_g = Context.quotient(gauged, i)
        g = [kappa_gen_map(i, generator(src, k)) for k in range(3)]
        h = [kappa_gen_inv(i, generator(src_g, k)) for k in range(3)]
        one_g = unit(g[0].ctx)
        one_h = unit(h[0].ctx)
        for k in range(3):
            if k == i:
                continue
            assert g[k].star() * g[k] == one_g                       # (1)
            assert h[k].star() * h[k] == one_h                       # (2)
        for j in range(3):
            for k in range(3):
                if len({i, j, k}) != 3:
                    continue
                assert g[j] * g[k] == (g[k] * g[j]).times_phase(th.entry(j, k))          # (3)
                assert g[j].star() * g[k] == (g[k] * g[j].star()).times_phase(-th.entry(j, k))  # (4)
                assert h[j] * h[k] == (h[k] * h[j]).times_phase(gauged.entry(j, k))      # (5)
                assert h[j].star() * h[k] == (h[k] * h[j].star()).times_phase(-gauged.entry(j, k))  # (6)


def test_phi_iso_smallest_case():
    th = ThetaMatrix.random_rational(2, seed=13)
    fixed = fixed_point_context(th, 0)
    assert fixed.n == 1
    v1 = generator(fixed, 0)
    img = phi_iso(0, v1, th)
    assert img.ctx == Context.quotient(kappa_matrix(th, 0), 0)
    assert set(img.terms) == {((0, 1), (0, 0))}
    assert phi_iso_inv(0, img, th) == v1


def test_phi_iso_is_multiplicative_and_invertible():
    th = ThetaMatrix.random_rational(3, seed=15)
    rng = rng_for("phi-iso")
    for i in range(3):
        fixed = fixed_point_context(th, i)
        for _ in range(8):
            x = random_element(fixed, rng)
            y = random_element(fixed, rng)
            fx, fy = phi_iso(i, x, th), phi_iso(i, y, th)
            assert phi_iso(i, x * y, th) == fx * fy
            assert phi_iso(i, x.star(), th) == fx.star()
            assert phi_iso_inv(i, fx, th) == x


def test_phi_iso_inv_rejects_slot_letters():
    th = ThetaMatrix.zero(2)
    ctx = Context.quotient(kappa_matrix(th, 0), 0)
    with pytest.raises(ValueError):
        phi_iso_inv(0, generator(ctx, 0), th)


def case_split_psi_images(i, j, theta):
    """The psi_map generator images by the 1-based three-way case split."""
    target = fixed_quotient_context(theta, i, j)
    uj = generator(target, j - 1)
    images = []
    for a in range(theta.n - 1):
        k = a + 1
        if k == i + 1:
            images.append(uj.star())
        elif k > j or k < i + 1:
            images.append(generator(target, k - 1) * uj.star())
        else:
            images.append(generator(target, k - 2) * uj.star())
    return images


def test_psi_generator_images():
    th = ThetaMatrix.random_rational(3, seed=17)
    dom = fixed_quotient_context(th, 1, 0)
    tgt = fixed_quotient_context(th, 0, 1)
    # unitary generator of the chart-1 overlap maps to the adjoint of the
    # chart-0 overlap unitary
    u = generator(dom, 0)
    assert psi_map(0, 1, u, th) == generator(tgt, 0).star()
    # the other generator picks up that adjoint on the right
    v2 = generator(dom, 1)
    assert psi_map(0, 1, v2, th) == generator(tgt, 1) * generator(tgt, 0).star()
    # every pair of charts at N = 1..4 against the 1-based case split
    for n in range(2, 6):
        th = ThetaMatrix.random_rational(n, seed=n)
        for j in range(n):
            for i in range(j):
                dom = fixed_quotient_context(th, j, i)
                got = [psi_map(i, j, generator(dom, a), th) for a in range(n - 1)]
                want = case_split_psi_images(i, j, th)
                assert [repr(x) for x in got] == [repr(x) for x in want], (n, i, j)


def test_psi_preserves_relations():
    th = ThetaMatrix.random_rational(4, seed=19)
    for i in range(3):
        for j in range(i + 1, 4):
            dom = fixed_quotient_context(th, j, i)
            one = unit(fixed_quotient_context(th, i, j))
            imgs = [psi_map(i, j, generator(dom, a), th) for a in range(3)]
            for a in range(3):
                assert imgs[a].star() * imgs[a] == one
            (us,) = dom.unitary
            assert imgs[us] * imgs[us].star() == one
            for a in range(3):
                for b in range(3):
                    if a == b:
                        continue
                    lhs = imgs[a] * imgs[b]
                    rhs = (imgs[b] * imgs[a]).times_phase(dom.theta.entry(a, b))
                    assert lhs == rhs


def test_psi_is_multiplicative():
    th = ThetaMatrix.random_rational(3, seed=21)
    rng = rng_for("psi-mult")
    dom = fixed_quotient_context(th, 2, 0)
    for _ in range(8):
        x = random_element(dom, rng, nterms=3, degree=2)
        y = random_element(dom, rng, nterms=3, degree=2)
        assert psi_map(0, 2, x * y, th) == psi_map(0, 2, x, th) * psi_map(0, 2, y, th)
        assert psi_map(0, 2, x.star(), th) == psi_map(0, 2, x, th).star()


def test_extend_hom_identity():
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=23))
    rng = rng_for("extend-id")
    gens = [generator(ctx, k) for k in range(2)]
    for _ in range(8):
        x = random_element(ctx, rng)
        assert extend_hom(x, ctx, gens) == x
