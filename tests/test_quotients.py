import json
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_element, random_float_theta, rng_for
from heegaard import cli, quotients, serialize
from heegaard import (AlgebraElement, CocycleReport, Coeff, IncompatibleTuple,
                      MultipullbackTuple, SupportOverflow, cocycle_check,
                      generator, glue, is_compatible, pi_i_j, sigma_i,
                      sphere_defect, sphere_reduce, unit)
from heegaard.algebra import Context, ContextMismatch
from heegaard.exactla import solve_exact
from heegaard.phases import ThetaMatrix


def ambient(n, seed=None):
    th = ThetaMatrix.zero(n) if seed is None else ThetaMatrix.random_rational(n, seed=seed)
    return Context.toeplitz(th)


def test_sigma_examples():
    ctx = ambient(2)
    w0, w1 = generator(ctx, 0), generator(ctx, 1)
    # w_0 w_1 w_0* collapses to w_1 once slot 0 is unitary
    x = w0 * w1 * w0.star()
    b0 = sigma_i(x, 0)
    assert b0 == generator(Context.quotient(ctx.theta, 0), 1)
    # slot-1 quotient leaves the word untouched
    b1 = sigma_i(x, 1)
    assert set(b1.terms) == {((1, 1), (1, 0))}


def test_sigma_twisted_cancellation_phase():
    th = ThetaMatrix.random_rational(2, seed=4)
    ctx = Context.toeplitz(th)
    x = AlgebraElement.monomial(ctx, (1, 1), (1, 0))
    b0 = sigma_i(x, 0)
    # cancelling the slot-0 pair moves it past the slot-1 surplus
    expected = generator(Context.quotient(th, 0), 1).times_phase(th.entry(0, 1))
    assert b0 == expected


def test_sigma_is_multiplicative():
    ctx = ambient(3, seed=6)
    rng = rng_for("sigma-mult")
    for _ in range(15):
        x = random_element(ctx, rng, nterms=3, degree=2)
        y = random_element(ctx, rng, nterms=3, degree=2)
        for i in range(3):
            assert sigma_i(x * y, i) == sigma_i(x, i) * sigma_i(y, i)
            assert sigma_i(x.star(), i) == sigma_i(x, i).star()


def test_pi_composition_is_symmetric():
    ctx = ambient(3, seed=8)
    rng = rng_for("pi-sym")
    for _ in range(10):
        x = random_element(ctx, rng)
        assert pi_i_j(sigma_i(x, 0), 2) == pi_i_j(sigma_i(x, 2), 0)


def test_sphere_reduce_untwisted_example():
    ctx = ambient(2)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    x = s0 * s1 * s1.star() * s0.star()
    reduced = sphere_reduce(x)
    sctx = Context.sphere(ctx.theta)
    expected = (generator(sctx, 0) * generator(sctx, 0).star()
                + generator(sctx, 1) * generator(sctx, 1).star()
                - unit(sctx))
    assert reduced == expected


def test_sphere_reduce_kills_defect():
    for n, seed in [(1, None), (2, None), (2, 3), (3, 5)]:
        ctx = ambient(n, seed)
        assert sphere_reduce(sphere_defect(ctx)).is_zero()


def test_sphere_reduce_idempotent_multiplicative():
    ctx = ambient(2, seed=10)
    rng = rng_for("sphere-mult")
    sctx = Context.sphere(ctx.theta)
    for _ in range(10):
        x = random_element(ctx, rng)
        y = random_element(ctx, rng)
        rx, ry = sphere_reduce(x), sphere_reduce(y)
        assert rx.with_context(sctx) == rx
        assert sphere_reduce(x * y) == rx * ry
        assert sphere_reduce(x.star()) == rx.star()


def test_tuple_validation():
    ctx = ambient(2)
    good = MultipullbackTuple.from_element(generator(ctx, 0))
    assert good.theta == ctx.theta
    with pytest.raises(ContextMismatch):
        MultipullbackTuple((sigma_i(generator(ctx, 0), 0),
                            sigma_i(generator(ctx, 1), 0)))
    with pytest.raises(ValueError):
        MultipullbackTuple((sigma_i(generator(ctx, 0), 0),))


def test_compatibility():
    ctx = ambient(2, seed=12)
    t = MultipullbackTuple.from_element(generator(ctx, 0) * generator(ctx, 1).star())
    assert is_compatible(t)
    # perturb one component by a unit: breaks compatibility
    bad = MultipullbackTuple((t.components[0] + unit(t.components[0].ctx),
                              t.components[1]))
    assert not is_compatible(bad)
    with pytest.raises(IncompatibleTuple):
        glue(bad)


def test_glue_roundtrip_examples():
    ctx = ambient(2)
    for x in [unit(ctx), generator(ctx, 0),
              generator(ctx, 0) * generator(ctx, 1).star(),
              sphere_defect(ctx)]:
        t = MultipullbackTuple.from_element(x)
        a = glue(t)
        assert MultipullbackTuple.from_element(a).components == t.components


def test_glue_roundtrip_random():
    rng = rng_for("glue-random")
    for n in (2, 3):
        for trial in range(12):
            ctx = ambient(n, seed=trial % 4 or None)
            x = random_element(ctx, rng, nterms=4, degree=3)
            t = MultipullbackTuple.from_element(x)
            a = glue(t)
            for i in range(n):
                assert sigma_i(a, i) == t.components[i]


def test_glue_support_cap():
    ctx = ambient(3, seed=2)
    rng = rng_for("glue-cap")
    x = random_element(ctx, rng, nterms=5, degree=4)
    with pytest.raises(SupportOverflow):
        glue(MultipullbackTuple.from_element(x), max_support=3)


def test_cocycle_small():
    # n = 2 has no distinct triple: vacuous pass
    rep = cocycle_check(ThetaMatrix.zero(2), degree_bound=2)
    assert isinstance(rep, CocycleReport)
    assert rep.passed and rep.failures == ()

    rep0 = cocycle_check(ThetaMatrix.zero(3), degree_bound=0)
    assert rep0.passed and rep0.checked_degree == 0


def test_cocycle_three_slots():
    for th in [ThetaMatrix.zero(3), ThetaMatrix.random_rational(3, seed=7)]:
        rep = cocycle_check(th, degree_bound=2)
        assert rep.passed, rep.failures


def test_partition_of_unity_in_quotients():
    # sum_k w_k w_k* prod_{j>k} (1 - w_j w_j*) telescopes to 1 minus the
    # defect; each sigma_i kills the defect, so each component sees 1.
    ctx = ambient(3, seed=9)
    total = AlgebraElement.zero(ctx)
    for k in range(3):
        g = generator(ctx, k)
        term = g * g.star()
        for j in range(k + 1, 3):
            gj = generator(ctx, j)
            term = term * (unit(ctx) - gj * gj.star())
        total = total + term
    assert total == unit(ctx) - sphere_defect(ctx)
    for i in range(3):
        assert sigma_i(total, i) == unit(Context.quotient(ctx.theta, i))


def _phi(a, b, x):
    """Reference transport B_b -> B_a: project to B_ab, then read the
    canonical form as a B_a element."""
    theta = x.ctx.theta
    return (x.with_context(Context.quotient(theta, a, b))
            .with_context(Context.quotient(theta, a)))


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_closed_form_coherence_matches_context_transport(twist):
    rng = rng_for(f"coherence-{twist}")
    for n in (2, 3, 4):
        if twist == "zero":
            th = ThetaMatrix.zero(n)
        elif twist == "rational":
            th = ThetaMatrix.random_rational(n, seed=n, den=12)
        else:
            th = random_float_theta(n, rng)
        for i, j, k in permutations(range(n), 3):
            bk = Context.quotient(th, k)
            triple = Context.quotient(th, i, j, k)
            for (p, q) in quotients._basis_monomials(n, 3, zero_slots=(k,)):
                m = AlgebraElement.monomial(bk, p, q)
                via_ref = _phi(i, j, _phi(j, k, m)).with_context(triple)
                direct_ref = _phi(i, k, m).with_context(triple)
                via, direct = quotients._coherence_sides(th, i, j, k, p, q)
                for (phase, pp, qq), ref in ((via, via_ref), (direct, direct_ref)):
                    assert AlgebraElement(triple, {(pp, qq): Coeff.from_phase(
                        phase, th.mode)}) == ref


def _per_vector_failures(theta, degree):
    """Span-equality witnesses from one exact solve per vector."""
    failures = []
    n = theta.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k in (i, j):
                    continue
                side_a = quotients._kernel_image_vectors(theta, i, j, k, degree)
                side_b = quotients._kernel_image_vectors(theta, j, i, k, degree)
                for v in side_a:
                    if solve_exact(side_b, v, theta.mode) is None:
                        failures.append([i, j, k, sorted(v)[0]])
                        break
                else:
                    for v in side_b:
                        if solve_exact(side_a, v, theta.mode) is None:
                            failures.append([j, i, k, sorted(v)[0]])
                            break
    return [[i, j, k, [list(p), list(q)]] for i, j, k, (p, q) in failures]


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_cocycle_span_failure_names_the_first_vector_outside(twist, monkeypatch, capsys):
    if twist == "zero":
        th_arg, th = "zero", ThetaMatrix.zero(3)
    elif twist == "rational":
        th_arg = '{"n":3,"mode":"rational","upper":[[0,1,1,8],[0,2,3,8],[1,2,5,8]]}'
        th = serialize.theta_from_obj(serialize.from_json(th_arg))
    else:
        th_arg = '{"n":3,"mode":"float","upper":[[0,1,0.31],[0,2,-0.17],[1,2,0.42]]}'
        th = serialize.theta_from_obj(serialize.from_json(th_arg))
    original = quotients._kernel_image_vectors
    one = Coeff.one(th.mode)

    def outside(d):
        # a monomial of degree above the bound lies in no span of the other side
        return {((d, 0, 0), (0, 0, 0)): one}

    def patched(theta, i, j, k, degree):
        vectors = original(theta, i, j, k, degree)
        if (i, j, k) == (0, 1, 2):
            # side a gains, after its third vector, one inside the other
            # side's span and then two outside it
            inside = original(theta, j, i, k, degree)[0]
            vectors[3:3] = [inside, outside(degree + 2), outside(degree + 1)]
        if (i, j, k) == (2, 1, 0):
            # side b of the pair (1, 2) gains one outside vector at the end
            vectors.append(outside(degree + 3))
        return vectors

    monkeypatch.setattr(quotients, "_kernel_image_vectors", patched)
    want = _per_vector_failures(th, 2)
    assert want == [[0, 1, 2, [[4, 0, 0], [0, 0, 0]]],
                    [2, 1, 0, [[5, 0, 0], [0, 0, 0]]]]
    code = cli.main(["cocycle", "--N", "2", "--degree", "2", "--theta", th_arg])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["passed"]
    assert out["failures"] == want
