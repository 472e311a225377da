"""End-to-end acceptance checks, one per criterion, each printing a
single PASS line with its pinned tolerance and time budget."""

import itertools
import time

from conftest import phase_inverse, random_element, rng_for
from reference_cocycle import kernel_image_failures
from reference_fock import represent
from reference_grading import (fixed_quotient_context, kappa_gen_inv, kappa_gen_map,
                               kappa_inv_matrix, kappa_matrix, psi_map)
from reference_sphere import (compact_matrix_unit, pullback_projector, sphere_defect,
                              sphere_reduce)
from heegaard import (MultipullbackTuple, chern_galois_projector, class_invariant,
                      cocycle_check, generator, glue, projector_diagonal,
                      relation_residual, sigma_i, strong_connection, unit,
                      verify_connection)
from heegaard.algebra import Context
from heegaard.phases import ThetaMatrix
from heegaard.serialize import element_from_obj, element_to_obj, from_json, to_json

import numpy as np


def theta_set(size, seeds=(1, 2, 3)):
    return [ThetaMatrix.zero(size)] + [
        ThetaMatrix.random_rational(size, seed=s) for s in seeds]


def report(idx, label, budget=None, elapsed=None):
    extra = f" ({elapsed:.1f}s < {budget}s)" if budget is not None else ""
    print(f"criterion {idx} [{label}]: PASS{extra}")


def test_criterion_01_strong_connections():
    t0 = time.time()
    for N in (1, 2, 3):
        for th in theta_set(N + 1):
            for n in range(-4, 5):
                assert verify_connection(strong_connection(n, th), n), (N, n)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, "strong connection exactness", 60, elapsed)


def test_criterion_02_projector_idempotency():
    t0 = time.time()
    for N in (1, 2):
        for th in theta_set(N + 1):
            for n in range(-3, 4):
                e = chern_galois_projector(n, th)
                assert e.is_idempotent(), (N, n)
                assert e.entries_degree_zero(), (N, n)
    elapsed = time.time() - t0
    assert elapsed < 120
    report(2, "projector idempotency", 120, elapsed)


def test_criterion_03_sphere_relation_and_matrix_units():
    for N in (1, 2):
        for th in [ThetaMatrix.zero(N + 1),
                   ThetaMatrix.random_rational(N + 1, seed=4)]:
            ctx = Context.toeplitz(th)
            assert sphere_reduce(sphere_defect(ctx)).is_zero()
            size = N + 1
            boxes = [v for v in itertools.product(range(3), repeat=size)
                     if sum(v) <= 2]
            units = {(p, q): compact_matrix_unit(p, q, ctx)
                     for p in boxes for q in boxes}
            for (p, q), u1 in units.items():
                for (a, b), u2 in units.items():
                    prod = u1 * u2
                    if q != a:
                        assert prod.is_zero(), (p, q, a, b)
                    else:
                        u3 = units[(p, b)]
                        m0, c0 = u3.sorted_terms()[0]
                        lam = prod.terms[m0] * phase_inverse(c0)
                        assert prod == u3.times_coeff(lam), (p, q, a, b)
    report(3, "sphere relation and matrix units")


def test_criterion_04_gluing():
    rng = rng_for("acceptance-glue")
    count = 0
    for trial in range(100):
        N = 1 + trial % 3
        seed = trial % 4
        th = ThetaMatrix.zero(N + 1) if seed == 0 \
            else ThetaMatrix.random_rational(N + 1, seed=seed)
        a = random_element(Context.toeplitz(th), rng, nterms=5, degree=4)
        t = MultipullbackTuple.from_element(a)
        lifted = glue(t)
        for i in range(N + 1):
            assert sigma_i(lifted, i) == t.components[i]
        count += 1
    assert count == 100
    report(4, "gluing 100 random tuples")


def test_criterion_05_cocycle_condition():
    # the kernel images of the quotient family agree (the reference check,
    # up to a degree bound), and the chart maps of CP^N_T respect the chart
    # relations (the `cocycle` command)
    for N in (1, 2, 3):
        for th in [ThetaMatrix.zero(N + 1),
                   ThetaMatrix.random_rational(N + 1, seed=6)]:
            for degree in (3, 4) if N == 3 else (3,):
                failures = kernel_image_failures(th, degree)
                assert not failures, (N, degree, failures)
            failures = cocycle_check(th)
            assert not failures, (N, failures)
    report(5, "cocycle condition at degree bound 3, and 4 at N = 3; chart maps")


def test_criterion_06_gauge_coherence():
    for size in (2, 3, 4):
        for th in theta_set(size, seeds=(7, 8)):
            for i in range(size):
                assert kappa_inv_matrix(kappa_matrix(th, i), i) == th
                assert kappa_matrix(kappa_inv_matrix(th, i), i) == th
    th = ThetaMatrix.random_rational(3, seed=9)
    for i in range(3):
        gauged = kappa_matrix(th, i)
        src = Context.quotient(th, i)
        src_g = Context.quotient(gauged, i)
        g = [kappa_gen_map(i, generator(src, k)) for k in range(3)]
        h = [kappa_gen_inv(i, generator(src_g, k)) for k in range(3)]
        for k in range(3):
            if k != i:
                assert g[k].star() * g[k] == unit(g[k].ctx)
                assert h[k].star() * h[k] == unit(h[k].ctx)
        for j in range(3):
            for k in range(3):
                if len({i, j, k}) != 3:
                    continue
                assert g[j] * g[k] == (g[k] * g[j]).times_phase(th.entry(j, k))
                assert g[j].star() * g[k] == \
                    (g[k] * g[j].star()).times_phase(-th.entry(j, k))
                assert h[j] * h[k] == (h[k] * h[j]).times_phase(gauged.entry(j, k))
                assert h[j].star() * h[k] == \
                    (h[k] * h[j].star()).times_phase(-gauged.entry(j, k))
    for i in range(2):
        for j in range(i + 1, 3):
            dom = fixed_quotient_context(th, j, i)
            one = unit(fixed_quotient_context(th, i, j))
            imgs = [psi_map(i, j, generator(dom, a), th) for a in range(2)]
            for a in range(2):
                assert imgs[a].star() * imgs[a] == one
            (us,) = dom.unitary
            assert imgs[us] * imgs[us].star() == one
            for a in range(2):
                for b in range(2):
                    if a != b:
                        assert imgs[a] * imgs[b] == \
                            (imgs[b] * imgs[a]).times_phase(dom.theta.entry(a, b))
    report(6, "gauge coherence")


def test_criterion_07_fock_consistency():
    t0 = time.time()
    for N in (1, 2):
        for th in [ThetaMatrix.zero(N + 1),
                   ThetaMatrix.random_rational(N + 1, seed=10)]:
            assert relation_residual(8, th) <= 1e-10, N
            for M in (3, 5):
                rep = represent(sphere_defect(Context.toeplitz(th)), M)
                dense = rep.toarray()
                expected = np.zeros_like(dense)
                expected[0, 0] = 1
                assert np.array_equal(dense, expected), (N, M)
    elapsed = time.time() - t0
    assert elapsed < 30
    report(7, "truncated relation residual <= 1e-10", 30, elapsed)


def test_criterion_08_class_separation():
    t0 = time.time()
    th = ThetaMatrix.zero(2)
    pairs = {}
    for m in range(-3, 4):
        inv = class_invariant(projector_diagonal(m, th))
        assert inv.residual < 1e-6
        # oracle-frozen expected integers
        assert inv.as_pair() == (1, -m), m
        pairs[m] = inv.as_pair()
    assert len(set(pairs.values())) == 7
    elapsed = time.time() - t0
    assert elapsed < 300
    report(8, "class separation, tolerance 1e-6", 300, elapsed)


def test_criterion_09_pullback_functoriality():
    th = ThetaMatrix.zero(3)
    for n in (-2, -1, 1):
        e = chern_galois_projector(n, th)
        e_prime, e_pp, witness = pullback_projector(e, strong_connection(n, th).summands)
        assert witness.gamma_beta_is_one, n
        assert witness.conjugation_holds, n
        assert e_prime.is_idempotent(), n
    report(9, "pullback conjugation identity")


def test_criterion_10_serialization_roundtrip():
    rng = rng_for("acceptance-serialize")
    for trial in range(200):
        size = 2 + trial % 3
        seed = trial % 5
        th = ThetaMatrix.zero(size) if seed == 0 \
            else ThetaMatrix.random_rational(size, seed=seed)
        ctx = Context.toeplitz(th) if trial % 2 else Context.sphere(th)
        x = random_element(ctx, rng, nterms=4, degree=3)
        text = to_json(element_to_obj(x))
        y = element_from_obj(from_json(text))
        assert y == x
        assert to_json(element_to_obj(y)) == text
    report(10, "byte-identical serialization, 200 elements")
