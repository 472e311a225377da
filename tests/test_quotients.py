import json
import math
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_element, random_float_theta, rng_for
from heegaard import cli, quotients, serialize
from heegaard import (AlgebraElement, CocycleReport, Coeff, IncompatibleTuple,
                      MultipullbackTuple, SupportOverflow, cocycle_check,
                      generator, glue, is_compatible, pi_i_j, sigma_i,
                      sphere_defect, sphere_reduce, unit)
from heegaard.algebra import Context, ContextMismatch, _unitary_reduce
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


def _coherence_sides(theta, i, j, k, p, q):
    """The monomial W_p W_q* of B_k carried to B_i via B_j and directly,
    each read modulo all three slots, as (phase, p', q').

    On a monomial the transport B_b -> B_a modulo the third slot (project
    to B_ab, read the canonical form in B_a) is the slot-(a, b) unitary
    reduction, so both routes are compositions of ``_unitary_reduce``."""
    def reduce(slots, phase, p, q):
        d, p, q = _unitary_reduce(theta, sorted(slots), p, q)
        return phase + d, p, q

    via_j = reduce((i, j), *reduce((j, k), 0, p, q))
    direct = reduce((i, k), 0, p, q)
    return reduce((i, j, k), *via_j), reduce((i, j, k), *direct)


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_closed_form_coherence_matches_context_transport(twist):
    # the lemma in the cocycle_check docstring: both routes agree, and each
    # is the element-level transport
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
                via, direct = _coherence_sides(th, i, j, k, p, q)
                closed = [AlgebraElement(triple, {(pp, qq): Coeff.from_exponent(phase, th)})
                          for phase, pp, qq in (via, direct)]
                assert closed == [via_ref, direct_ref]
                assert closed[0] == closed[1]


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_kernel_image_vectors_match_the_element_arithmetic(twist):
    # reference: m - e(phi_k) m_k built as elements of B_i, carried to B_ij;
    # the same group-ring form, the same floats (up to the sign of a zero)
    rng = rng_for(f"kernel-image-{twist}")
    exact = repr if twist != "float" else Coeff.to_complex
    for n in (3, 4):
        th = {"zero": ThetaMatrix.zero(n),
              "rational": ThetaMatrix.random_rational(n, seed=n, den=12),
              "float": random_float_theta(n, rng)}[twist]
        for i, j, k in permutations(range(n), 3):
            bi, bij = Context.quotient(th, i), Context.quotient(th, i, j)
            want = []
            for (p, q) in quotients._basis_monomials(n, 3, zero_slots=(i,),
                                                     positive_slots=(k,)):
                phase, pp, qq = _unitary_reduce(th, (k,), p, q)
                hat = AlgebraElement.monomial(bi, pp, qq).times_coeff(
                    Coeff.from_exponent(phase, th))
                v = (AlgebraElement.monomial(bi, p, q) - hat).with_context(bij)
                want.append([(m, exact(c)) for m, c in v.terms.items()])
            got = quotients._kernel_image_vectors(th, i, j, k, 3)
            assert [[(m, exact(c)) for m, c in v.items()] for v in got] == want


def _reference_basis_monomials(n, degree_bound, zero_slots=(), positive_slots=()):
    """Every word of degree <= bound in the old generate-and-filter order."""
    def vecs(total, i=0):
        if i == n - 1:
            yield (total,)
            return
        for v in range(total + 1):
            for rest in vecs(total - v, i + 1):
                yield (v,) + rest

    return [(p, q) for d in range(degree_bound + 1) for dp in range(d + 1)
            for p in vecs(dp) for q in vecs(d - dp)
            if not any(min(p[s], q[s]) for s in zero_slots)
            and all(min(p[s], q[s]) >= 1 for s in positive_slots)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_basis_monomials_match_generate_and_filter(n):
    slot_sets = [()] + [(s,) for s in range(n)] + [(0, n - 1)] * (n > 1)
    for d in range(6):
        for zero in slot_sets:
            for positive in slot_sets:
                got = quotients._basis_monomials(n, d, zero, positive)
                assert got == _reference_basis_monomials(n, d, zero, positive), \
                    (d, zero, positive)


def _vector_records(v):
    return [[list(p), list(q), serialize._coeff_records(v[(p, q)])] for p, q in sorted(v)]


def _per_vector_failures(theta, degree):
    """Span-equality witnesses from one exact solve per vector: the triple,
    the first word and the whole vector, sorted by word."""
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
                    if solve_exact(side_b, v) is None:
                        failures.append([i, j, k, v])
                        break
                else:
                    for v in side_b:
                        if solve_exact(side_a, v) is None:
                            failures.append([j, i, k, v])
                            break
    return [[i, j, k, [list(m) for m in min(v)], _vector_records(v)]
            for i, j, k, v in failures]


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
    one_records = serialize._coeff_records(one)
    assert want == [[0, 1, 2, [[4, 0, 0], [0, 0, 0]], [[[4, 0, 0], [0, 0, 0], one_records]]],
                    [2, 1, 0, [[5, 0, 0], [0, 0, 0]], [[[5, 0, 0], [0, 0, 0], one_records]]]]
    code = cli.main(["cocycle", "--N", "2", "--degree", "2", "--theta", th_arg])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["passed"]
    assert out["failures"] == want


def test_cocycle_witness_carries_the_whole_vector(monkeypatch, capsys):
    th_arg = '{"n":3,"mode":"rational","upper":[[0,1,1,8],[0,2,3,8],[1,2,5,8]]}'
    th = serialize.theta_from_obj(serialize.from_json(th_arg))
    original = quotients._kernel_image_vectors
    # a word above the degree bound plus a vector of the other side's span:
    # outside that span, with three words and non-trivial phases, and the
    # word that sorts last stored first
    inside = original(th, 1, 0, 2, 2)[-1]
    bad = {((4, 0, 0), (0, 0, 0)): Coeff.from_exponent(3, th, -2), **inside}
    assert len(bad) == 3 and next(iter(bad)) == max(bad)

    def patched(theta, i, j, k, degree):
        vectors = original(theta, i, j, k, degree)
        return vectors + [bad] if (i, j, k) == (0, 1, 2) else vectors

    monkeypatch.setattr(quotients, "_kernel_image_vectors", patched)
    (i, j, k, first, vector), = quotients.cocycle_check(th, 2).failures
    assert (i, j, k, first) == (0, 1, 2, min(bad)) and vector is bad
    code = cli.main(["cocycle", "--N", "2", "--degree", "2", "--theta", th_arg])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["failures"] == [[0, 1, 2, [list(m) for m in min(bad)], _vector_records(bad)]]
    assert [w[:2] for w in out["failures"][0][4]] == sorted([list(p), list(q)] for p, q in bad)


def _phase_column_glue(t):
    """Reference lift: glue with the slot phases in the columns,
    e(phi_i(m)) at (i, sigma_i m), solved for the coefficients themselves.
    Returns the lift's terms and the tower depth that reached it."""
    theta, n = t.theta, t.theta.n
    target = {(i, m): c for i, b in enumerate(t.components) for m, c in b.terms.items()}
    maxdeg = max((sum(p) + sum(q) for b in t.components for p, q in b.terms), default=0)
    for depth in range(maxdeg + 3):
        cands = sorted({(tuple(a + k * (s == i) for s, a in enumerate(p)),
                         tuple(a + k * (s == i) for s, a in enumerate(q)))
                        for i, b in enumerate(t.components) for p, q in b.terms
                        for k in range(depth + 1)})
        columns = []
        for p, q in cands:
            col = {}
            for i in range(n):
                phase, pp, qq = _unitary_reduce(theta, (i,), p, q)
                col[(i, (pp, qq))] = Coeff.from_exponent(phase, theta)
            columns.append(col)
        sol = solve_exact(columns, target)
        if sol is not None:
            return {m: c for m, c in zip(cands, sol) if not c.is_zero()}, depth
    raise AssertionError("the reference found no lift")


def _glue_tuples(theta, rng, count):
    """Tuples of random elements, every other one plus a word W_e W_e* with
    e = (1, ..., 1): no component keeps it, so the tuple needs a tower of
    depth > 0."""
    ctx = Context.toeplitz(theta)
    ones = (1,) * theta.n
    for trial in range(count):
        x = random_element(ctx, rng, nterms=3, degree=3)
        if trial % 2:
            x = x + AlgebraElement.monomial(ctx, ones, ones, Coeff.from_phase(
                Fraction(rng.randrange(8), 8), theta.mode, rng.randint(1, 3)))
        yield MultipullbackTuple.from_element(x)


@pytest.mark.parametrize("den", [0, 2, 3, 4, 8, 12])
def test_gauged_glue_matches_the_phase_column_lift(den):
    # same words and the same exact coefficients as solving with the phases
    # in the columns, at every twist denominator, and towers of depth > 0
    rng = rng_for(f"glue-gauge-{den}")
    deep = 0
    for n in (2, 3, 4):
        theta = (ThetaMatrix.zero(n) if den == 0 else
                 ThetaMatrix.random_rational(n, seed=rng.randrange(100), den=den))
        for t in _glue_tuples(theta, rng, 8):
            want, depth = _phase_column_glue(t)
            got = glue(t)
            assert list(got.terms) == list(want)
            assert [repr(c) for c in got.terms.values()] == [repr(c) for c in want.values()]
            deep += depth > 0
    assert deep >= 6


def test_gauged_float_glue_matches_the_phase_column_lift():
    rng = rng_for("glue-gauge-float")
    for n in (2, 3, 4):
        theta = random_float_theta(n, rng)
        for t in _glue_tuples(theta, rng, 6):
            want, _ = _phase_column_glue(t)
            got = glue(t).terms
            for m in set(got) | set(want):
                z = got[m].to_complex() if m in got else 0
                w = want[m].to_complex() if m in want else 0
                assert abs(z - w) < 1e-12, (m, z, w)


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_glue_columns_are_phase_free(twist, monkeypatch):
    # the gauge leaves the rational 1 (or the complex 1) in every column entry
    rng = rng_for(f"glue-phase-free-{twist}")
    seen = []

    def recording(columns, target):
        seen.extend(c for col in columns for c in col.values())
        return solve_exact(columns, target)

    monkeypatch.setattr(quotients, "solve_exact", recording)
    theta = {"zero": ThetaMatrix.zero(3),
             "rational": ThetaMatrix.random_rational(3, seed=5, den=12),
             "float": random_float_theta(3, rng)}[twist]
    for t in _glue_tuples(theta, rng, 4):
        glue(t)
    assert seen
    assert all(c.D // math.gcd(c.D, *c.terms) == 1 for c in seen)
    assert all(c == Coeff.one(theta.mode) for c in seen)
