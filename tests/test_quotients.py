import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cocycle
from conftest import random_element, random_float_theta, rng_for
from reference_cocycle import kernel_image_failures
from reference_grading import drop_slot, kappa_check_matrix
from reference_serialize import vector_records
from reference_solve import solve_exact as reference_solve
from reference_sphere import sphere_defect, sphere_reduce
from heegaard import cli, exactla, quotients, serialize
from heegaard import (AlgebraElement, Coeff, IncompatibleTuple,
                      MultipullbackTuple, SizeOverflow, cocycle_check,
                      generator, glue, is_compatible, pi_i_j, sigma_i, unit)
from heegaard.algebra import Context, ContextMismatch, _unitary_reduce, _word_product
from heegaard.coeff import FloatCoeff
from heegaard.phases import FLOAT, FLOAT_TOL, RATIONAL, ThetaMatrix


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


def test_glue_support_cap(monkeypatch):
    assert quotients.MAX_GLUE_SUPPORT == 4000
    ctx = ambient(3, seed=2)
    rng = rng_for("glue-cap")
    x = random_element(ctx, rng, nterms=5, degree=4)
    monkeypatch.setattr(quotients, "MAX_GLUE_SUPPORT", 3)
    with pytest.raises(SizeOverflow, match="exceeds 3"):
        glue(MultipullbackTuple.from_element(x))


def test_cocycle_small():
    # N = 1: two charts, each with one generator, unitary on the overlap
    for th in (ThetaMatrix.zero(2), ThetaMatrix.random_rational(2, seed=1)):
        assert cocycle_check(th) == ()


def test_cocycle_below_degree_two_enumerates_nothing(monkeypatch):
    # the reference kernel-image check: a word interior on slot k has
    # degree >= 2, so both sides are empty
    def refuse(*args):
        raise AssertionError("enumerated kernel images below degree 2")

    monkeypatch.setattr(reference_cocycle, "kernel_image_words", refuse)
    for N, d in [(2, 1), (3, 0), (46, 0), (3, -1)]:
        assert kernel_image_failures(ThetaMatrix.zero(N + 1), d) == []


def test_cocycle_three_slots():
    for th in [ThetaMatrix.zero(3), ThetaMatrix.random_rational(3, seed=7)]:
        failures = cocycle_check(th)
        assert not failures, failures


def _chart_products(n):
    """The word products of ``cocycle_check`` at n = N + 1 slots."""
    N = n - 1
    return n * N * (N + 1 + 3 * N * (N - 1))


def test_cocycle_size_cap(monkeypatch):
    # n(n-1)(N + 1 + 3N(N-1)) word products at n = N + 1 against
    # MAX_CHART_PRODUCTS = 100000: every size of the tests, the README and
    # the decks is admitted, at any degree, and N = 13 is the largest
    assert quotients.MAX_CHART_PRODUCTS == 100_000
    for N in (1, 2, 3, 4, 8, 13):
        quotients.check_cocycle_size(N + 1)
    for N in (14, 46, 47, 10 ** 30):
        with pytest.raises(SizeOverflow, match="exceeds the size cap"):
            quotients.check_cocycle_size(N + 1)
    assert _chart_products(14) <= 100_000 < _chart_products(15)

    # the count is the products a passing check forms
    calls = []

    def counting(*args):
        calls.append(1)
        return _word_product(*args)

    monkeypatch.setattr(quotients, "_word_product", counting)
    for n in (2, 3, 4, 5):
        calls.clear()
        assert cocycle_check(ThetaMatrix.random_rational(n, seed=n)) == ()
        assert len(calls) == _chart_products(n)

    def refuse(*args):
        raise AssertionError("checked a chart of an oversized cocycle")

    monkeypatch.setattr(quotients, "_chart_relations", refuse)
    with pytest.raises(SizeOverflow):
        cocycle_check(ThetaMatrix.zero(15))


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_chart_check_passes_at_N_1_to_4(twist):
    rng = rng_for(f"chart-check-{twist}")
    for N in (1, 2, 3, 4):
        thetas = [_twists(N + 1, rng)[twist]]
        if twist == "rational":
            thetas += [ThetaMatrix.random_rational(N + 1, seed=s) for s in range(3)]
        for th in thetas:
            assert cocycle_check(th) == ()


def _chart_tables(theta):
    """The kappa tables ``cocycle_check`` builds for ``theta``, caught on
    their way to ``_chart_relations``."""
    seen, relations = [], quotients._chart_relations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quotients, "_chart_relations",
                   lambda th, charts, c, d: seen.append(charts) or relations(th, charts, c, d))
        assert cocycle_check(theta) == ()
    return seen[0]


def _chart_twist(theta, table):
    """The twist whose entries are the integer ``table`` over theta's conductor."""
    return ThetaMatrix.from_upper(theta.n, {
        (s, t): Fraction(table[s][t], theta.conductor)
        for s, t in combinations(range(theta.n), 2)}, theta.mode)


def _chart_side(ctx, side, D):
    """A side (p, q, t) of ``quotients._chart_relations`` as the element
    e(t/D) W_p W_q* of ``ctx``."""
    p, q, t = side
    return AlgebraElement.monomial(ctx, p, q, Coeff.from_phase(Fraction(t, D), ctx.mode))


def _chart_image(ctx, c, d, s):
    """T_{c<-d} of chart d's generator for slot s: v_s u* (u* for s = c)."""
    def e(k):
        return tuple(int(a == k) for a in range(ctx.n))

    return AlgebraElement.monomial(ctx, e(s) if s != c else (0,) * ctx.n, e(d))


def _element_sides(theta, charts, c, d, relation, a, b):
    """Both sides of chart d's relation (a, b) on the images in chart c with
    slot d unitary, by element arithmetic."""
    ctx = Context.quotient(_chart_twist(theta, charts[c]), d)
    x, y, one = _chart_image(ctx, c, d, a), _chart_image(ctx, c, d, b), unit(ctx)
    kappa = Coeff.from_phase(_chart_twist(theta, charts[d]).entry(a, b), theta.mode)
    return {"isometry": (x.star() * x, one), "unitarity": (x * x.star(), one),
            "commutation": (x * y, (y * x).times_coeff(kappa)),
            "star commutation": (x * y.star(), (y.star() * x).times_coeff(kappa.conj()))
            }[relation]


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_chart_relations_are_the_element_products(twist):
    # every side the word-level check compares is the product of the images
    # as elements of chart c with slot d unitary, chart d's twist phase
    # included; each chart twist is the reference kappa-check matrix, kept
    # at the full slot labels
    rng = rng_for(f"chart-elements-{twist}")
    for n in (2, 3, 4):
        th = _twists(n, rng)[twist]
        charts = _chart_tables(th)
        for c, chart in enumerate(charts):
            ref, chart = kappa_check_matrix(th, c), _chart_twist(th, chart)
            assert all(chart.entry(c, s) == 0 for s in range(n))
            assert all((chart.entry(s, t) - ref.entry(drop_slot(c, s), drop_slot(c, t))) % 1 == 0
                       for s, t in permutations(set(range(n)) - {c}, 2))
        for c, d in permutations(range(n), 2):
            ctx = Context.quotient(_chart_twist(th, charts[c]), d)
            relations = list(quotients._chart_relations(th, charts, c, d))
            N = n - 1
            assert len(relations) == N + 1 + N * (N - 1) // 2 + N * (N - 1)
            for relation, a, b, lhs, rhs in relations:
                want = _element_sides(th, charts, c, d, relation, a, b)
                assert [_chart_side(ctx, x, th.conductor) for x in (lhs, rhs)] == list(want)
                assert lhs == rhs


# One-line mutants of the twist phase: the product kernel's, the unitary
# reduction's, and the theta_tc term of the chart twist, each negated.
MUTANTS = {
    "kernel": ("algebra.py", "phase += k * row[c]", "phase -= k * row[c]"),
    "reduce": ("algebra.py", "phase += k * d * table[s][j]", "phase -= k * d * table[s][j]"),
    "kappa": ("quotients.py", "T[c][s] + T[s][t] + T[t][c]", "T[c][s] + T[s][t] - T[t][c]"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_cocycle_flags_each_twist_phase_mutant(mutant, tmp_path):
    # each mutant, applied to a copy of the package, makes `cocycle` exit 1
    # (at N = 3, and for the kernel and the reduction at N = 2 too), with one
    # witness per failing chart pair: a relation that holds on this tree,
    # with two sides that differ
    name, old, new = MUTANTS[mutant]
    shutil.copytree(Path(quotients.__file__).parent, tmp_path / "heegaard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "heegaard" / name
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    for N in (2, 3) if mutant != "kappa" else (3,):
        proc = subprocess.run(
            [sys.executable, "-m", "heegaard.cli", "cocycle", "--N", str(N),
             "--theta", "random-rational", "--seed", "1"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 1, proc.stderr
        out = json.loads(proc.stdout)
        assert out["passed"] is False and out["checked_degree"] == 3 and out["failures"]
        th = ThetaMatrix.random_rational(N + 1, seed=1)
        charts = _chart_tables(th)
        assert len({tuple(f[:2]) for f in out["failures"]}) == len(out["failures"])
        for c, d, relation, a, b, *sides in out["failures"]:
            assert all(set(x) == {"p", "q", "phase_num", "phase_den"} for x in sides)
            lhs, rhs = [(tuple(x["p"]), tuple(x["q"]), Fraction(x["phase_num"], x["phase_den"]))
                        for x in sides]
            assert lhs != rhs
            (ok,) = [r for r in quotients._chart_relations(th, charts, c, d)
                     if r[:3] == (relation, a, b)]
            assert ok[3] == ok[4]
            assert [(p, q, Fraction(t, th.conductor)) for p, q, t in ok[3:]] != [lhs, rhs]
def test_passing_cocycle_check_calls_nothing_in_exactla(monkeypatch):
    # the span check compares word sets: no linear solve, exact or float
    rng = rng_for("cocycle-no-solve")
    thetas = [ThetaMatrix.zero(4), ThetaMatrix.random_rational(4, seed=3, den=12),
              random_float_theta(4, rng)]

    def refuse(*args, **kwargs):
        raise AssertionError("a linear solve in a passing cocycle_check")

    own = [name for name, f in vars(exactla).items()
           if callable(f) and getattr(f, "__module__", None) == exactla.__name__]
    assert {"solve_exact", "_insert"} <= set(own)
    for name in own:
        monkeypatch.setattr(exactla, name, refuse)
    monkeypatch.setattr(quotients, "solve_exact", refuse)
    for th in thetas:
        assert cocycle_check(th) == ()


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_passing_cocycle_check_does_no_coeff_arithmetic(twist, monkeypatch):
    # only a failure's vector is built, so a pass forms no scalar at all,
    # and no twist either: the charts are integer tables over theta's conductor
    th = _twists(4, rng_for(f"cocycle-no-coeff-{twist}"))[twist]

    def refuse(*args, **kwargs):
        raise AssertionError("Coeff arithmetic or a twist in a passing cocycle_check")

    for cls in (Coeff, FloatCoeff):
        for name in ("__mul__", "__add__", "from_exponent", "times_exponent"):
            monkeypatch.setattr(cls, name, refuse)
    monkeypatch.setattr(ThetaMatrix, "__post_init__", refuse)
    assert cocycle_check(th) == ()


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
        d, p, q = _unitary_reduce(theta.table, sorted(slots), p, q)
        return phase + d, p, q

    via_j = reduce((i, j), *reduce((j, k), 0, p, q))
    direct = reduce((i, k), 0, p, q)
    return reduce((i, j, k), *via_j), reduce((i, j, k), *direct)


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_closed_form_coherence_matches_context_transport(twist):
    # the coherence lemma in tests/reference_cocycle.py: both routes agree,
    # and each is the element-level transport
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
            for (p, q) in reference_cocycle.basis_monomials(n, 3, zero_slots=(k,)):
                m = AlgebraElement.monomial(bk, p, q)
                via_ref = _phi(i, j, _phi(j, k, m)).with_context(triple)
                direct_ref = _phi(i, k, m).with_context(triple)
                via, direct = _coherence_sides(th, i, j, k, p, q)
                closed = [AlgebraElement(triple, {(pp, qq): Coeff.from_exponent(phase, th)})
                          for phase, pp, qq in (via, direct)]
                assert closed == [via_ref, direct_ref]
                assert closed[0] == closed[1]


def _twists(n, rng):
    return {"zero": ThetaMatrix.zero(n),
            "rational": ThetaMatrix.random_rational(n, seed=n, den=12),
            "float": random_float_theta(n, rng)}


def _element_vector(th, i, j, k, m):
    """m - e(phi_k) m_k built as elements of B_i, carried to B_ij."""
    bi, bij = Context.quotient(th, i), Context.quotient(th, i, j)
    phase, pp, qq = _unitary_reduce(th.table, (k,), *m)
    hat = AlgebraElement.monomial(bi, pp, qq).times_coeff(Coeff.from_exponent(phase, th))
    return (AlgebraElement.monomial(bi, *m) - hat).with_context(bij).terms


def _gauged_vector(th, m, a, b):
    """e(psi(m)) (e(-psi(A)) e_A - e(-psi(B)) e_B): the lemma's form of a
    kernel-image vector, for any words m, A and B."""
    psi = {w: _unitary_reduce(th.table, range(th.n), *w)[0] for w in (m, a, b)}
    return {a: Coeff.from_exponent(psi[m] - psi[a], th),
            b: Coeff.from_exponent(psi[m] - psi[b], th, -1)}


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_kernel_image_vectors_match_the_element_arithmetic(twist):
    # reference: m - e(phi_k) m_k built as elements of B_i, carried to B_ij;
    # the same group-ring form, the same floats (up to the sign of a zero).
    # The lemma in tests/reference_cocycle.py: each is e(psi(m)) (e(-psi(A))
    # e_A - e(-psi(B)) e_B), its words stored as A = m reduced on {i, j},
    # then B = A reduced on k
    rng = rng_for(f"kernel-image-{twist}")
    exact = repr if twist != "float" else Coeff.to_complex
    for n in (3, 4, 5):
        th = _twists(n, rng)[twist]
        for i, j, k in permutations(range(n), 3):
            words = reference_cocycle.basis_monomials(n, 3, zero_slots=(i,), positive_slots=(k,))
            pairs = reference_cocycle.kernel_image_words(n, i, j, k, 3)
            assert [m for _, m in pairs] == words
            for A, m in pairs:
                v = reference_cocycle.kernel_image_vector(th, i, j, k, m)
                want = _element_vector(th, i, j, k, m)
                assert [(w, exact(c)) for w, c in v.items()] == \
                    [(w, exact(c)) for w, c in want.items()]
                a, b = v
                assert a == A == _unitary_reduce(th.table, (i, j), *m)[1:]
                assert b == _unitary_reduce(th.table, (k,), *a)[1:]
                assert v == _gauged_vector(th, m, a, b)


def test_kernel_image_words_are_the_same_at_every_twist():
    # the check reads only the words, and they do not depend on the twist:
    # each vector joins A to A reduced on slot k at zero, den-8, den-12 and
    # float twists alike
    rng = rng_for("kernel-image-pairs")
    for n in (3, 4):
        thetas = [ThetaMatrix.zero(n), ThetaMatrix.random_rational(n, seed=1, den=8),
                  ThetaMatrix.random_rational(n, seed=2, den=12), random_float_theta(n, rng)]
        for i, j, k in permutations(range(n), 3):
            pairs = reference_cocycle.kernel_image_words(n, i, j, k, 3)
            stars = [[A, _unitary_reduce(thetas[0].table, (k,), *A)[1:]] for A, _ in pairs]
            assert stars
            for th in thetas:
                assert [list(reference_cocycle.kernel_image_vector(th, i, j, k, m))
                        for _, m in pairs] == stars


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kernel_image_words_are_the_lemma_set(n):
    # both sides' sets of A are the words with min 0 on i and j, interior on
    # k and of degree <= d: generated and filtered here, for every ordered
    # triple and every degree within the size cap
    checked = 0
    for d in range(6):
        if n * (n - 1) * (n - 2) * comb(d + 2 * n, 2 * n) > 100_000:
            continue        # over the word budget the check used to enumerate
        every = _reference_basis_monomials(n, d)
        for i, j, k in permutations(range(n), 3):
            want = {(p, q) for p, q in every if not min(p[i], q[i]) and not min(p[j], q[j])
                    and min(p[k], q[k]) >= 1}
            assert {A for A, _ in reference_cocycle.kernel_image_words(n, i, j, k, d)} == want
            assert bool(want) == (d >= 2)
            checked += 1
    assert checked >= 4 * n * (n - 1) * (n - 2)


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
                got = reference_cocycle.basis_monomials(n, d, zero, positive)
                assert got == _reference_basis_monomials(n, d, zero, positive), \
                    (d, zero, positive)


def _per_vector_failures(theta, degree):
    """Span-equality witnesses from one exact solve per vector over the
    element-arithmetic vectors of the (patched) word lists, independent of
    the word-set comparison: the triple, the first word and the whole
    vector, sorted by word."""
    failures = []
    n = theta.n

    def vectors_of(i, j, k):
        return [_element_vector(theta, i, j, k, m)
                for _, m in reference_cocycle.kernel_image_words(n, i, j, k, degree)]

    for i, j in combinations(range(n), 2):
        for k in (k for k in range(n) if k not in (i, j)):
            side_a, side_b = vectors_of(i, j, k), vectors_of(j, i, k)
            for a, b, vectors, span in ((i, j, side_a, side_b), (j, i, side_b, side_a)):
                v = next((v for v in vectors if reference_solve(span, v) is None), None)
                if v is not None:
                    failures.append([a, b, k, [list(m) for m in min(v)], vector_records(v)])
                    break
    return failures


def _cocycle_failures(theta, degree):
    """Reference kernel-image failures, each vector as its records."""
    return [[i, j, k, [list(m[0]), list(m[1])], vector_records(v)]
            for i, j, k, m, v in kernel_image_failures(theta, degree)]


def _inject(monkeypatch, edits):
    """Patch ``kernel_image_words`` so that the words m of a triple (i, j, k)
    in ``edits`` are ``edits[i, j, k](words)``, each paired with A, its
    reduction on {i, j} computed here."""
    original = reference_cocycle.kernel_image_words

    def patched(n, i, j, k, degree):
        words = edits.get((i, j, k), list)([m for _, m in original(n, i, j, k, degree)])
        return [(_unitary_reduce(ThetaMatrix.zero(n).table, (min(i, j), max(i, j)), *m)[1:], m)
                for m in words]

    monkeypatch.setattr(reference_cocycle, "kernel_image_words", patched)


def _inserted(*extra):
    """An edit for ``_inject``: each (position, word) inserted, None for the end."""
    def edit(words):
        for at, m in extra:
            words.insert(len(words) if at is None else at, m)
        return words
    return edit


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_cocycle_span_failure_names_the_first_vector_outside(twist, monkeypatch):
    if twist == "zero":
        th_arg, th = "zero", ThetaMatrix.zero(3)
    elif twist == "rational":
        th_arg = '{"n":3,"mode":"rational","upper":[[0,1,1,8],[0,2,3,8],[1,2,5,8]]}'
        th = serialize.theta_from_obj(serialize.from_json(th_arg))
    else:
        th_arg = '{"n":3,"mode":"float","upper":[[0,1,0.31],[0,2,-0.17],[1,2,0.42]]}'
        th = serialize.theta_from_obj(serialize.from_json(th_arg))
    # side a of (0, 1, 2) gains, after its first word, the other side's first
    # word, then two words above the degree bound: their words A are outside
    # the other side's graph
    (_, inside), = reference_cocycle.kernel_image_words(3, 1, 0, 2, 2)
    above = [((d, 0, 1), (0, 0, 1)) for d in (3, 2)]
    extra = {(0, 1, 2): _inserted((1, inside), (2, above[0]), (3, above[1])),
             # side b of the pair (1, 2) gains one such word at the end
             (2, 1, 0): _inserted((None, ((1, 0, 4), (1, 0, 0))))}
    _inject(monkeypatch, extra)
    want = _per_vector_failures(th, 2)
    assert [w[:4] for w in want] == [[0, 1, 2, [[3, 0, 0], [0, 0, 0]]],
                                     [2, 1, 0, [[0, 0, 4], [0, 0, 0]]]]
    assert [[w[:2] for w in f[4]] for f in want] == [
        [[[3, 0, 0], [0, 0, 0]], [[3, 0, 1], [0, 0, 1]]],
        [[[0, 0, 4], [0, 0, 0]], [[1, 0, 4], [1, 0, 0]]]]
    assert _cocycle_failures(th, 2) == want


def test_cocycle_witness_carries_the_whole_vector(monkeypatch):
    th_arg = '{"n":3,"mode":"rational","upper":[[0,1,1,8],[0,2,3,8],[1,2,5,8]]}'
    th = serialize.theta_from_obj(serialize.from_json(th_arg))
    # the vector of a word above the degree bound, with slot 1 interior: its
    # words are outside the other side's graph, reducing on slot 1 moves past
    # slot 2 (phase 5/8), and the word that sorts last is stored first
    m = ((2, 1, 2), (0, 1, 1))
    bad = _element_vector(th, 0, 1, 2, m)
    a, b = ((2, 0, 2), (0, 0, 1)), ((2, 0, 1), (0, 0, 0))
    e58 = Coeff.from_phase(Fraction(5, 8), th.mode)
    assert list(bad) == [a, b] and bad[a] == e58 and bad[b] == -e58
    assert bad == _gauged_vector(th, m, a, b)
    _inject(monkeypatch, {(0, 1, 2): _inserted((None, m))})
    (i, j, k, first, vector), = kernel_image_failures(th, 2)
    assert (i, j, k, first) == (0, 1, 2, b) and vector == bad and list(vector) == [a, b]
    failures = _cocycle_failures(th, 2)
    assert failures == [[0, 1, 2, [list(b[0]), list(b[1])], vector_records(bad)]]
    assert [w[:2] for w in failures[0][4]] == [[list(b[0]), list(b[1])],
                                               [list(a[0]), list(a[1])]]
    assert failures == _per_vector_failures(th, 2)


def _above(pair, k, degree):
    """The word m of the pair (A, m) raised in slot k on both sides until A,
    raised with it, passes the degree bound."""
    a, m = pair
    h = (degree - sum(a[0]) - sum(a[1])) // 2 + 1
    return tuple((*w[:k], w[k] + h, *w[k + 1:]) for w in m)


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_cocycle_check_matches_per_vector_solves(twist, monkeypatch):
    # the word-set comparison against one exact solve per vector, on random
    # twists, where both pass, and with the faults a word list can have: an
    # extra word on one side (a failure), the same extra word on both sides
    # (none), a word dropped from one side whose A no other word of that side
    # shares (a failure) and a duplicated word (none)
    rng = rng_for(f"cocycle-cross-{twist}")
    verdicts = {True: 0, False: 0}
    for trial in range(12):
        n, degree = rng.choice([(3, 3), (3, 4), (4, 3)])
        th = _twists(n, rng)[twist] if twist != "rational" else \
            ThetaMatrix.random_rational(n, seed=rng.randrange(100), den=rng.choice((8, 12)))
        i, j, k = rng.sample(range(n), 3)
        monkeypatch.undo()
        pairs = reference_cocycle.kernel_image_words(n, j, i, k, degree)
        at = rng.randrange(len(pairs) + 1)
        kind = trial % 4
        if kind == 0:       # a word of B_j above the bound, on one side only
            extra = _above(rng.choice(pairs), k, degree)
            edits = {(j, i, k): _inserted((at, extra))}
        elif kind == 1:     # a word of B_i and B_j above the bound, on both sides
            a = rng.choice(pairs)[0]
            extra = _above((a, a), k, degree)
            edits = {(j, i, k): _inserted((None, extra)), (i, j, k): _inserted((at, extra))}
        elif kind == 2:     # a word dropped, the only one of its side with its A
            counts = Counter(A for A, _ in pairs)
            drop = rng.choice([m for A, m in pairs if counts[A] == 1])
            edits = {(j, i, k): lambda words: [m for m in words if m != drop]}
        else:               # a word duplicated
            edits = {(j, i, k): _inserted((at, rng.choice(pairs)[1]))}
        want_clean = _per_vector_failures(th, degree)
        assert want_clean == [] and _cocycle_failures(th, degree) == []
        _inject(monkeypatch, edits)
        want = _per_vector_failures(th, degree)
        assert _cocycle_failures(th, degree) == want, (n, degree, (i, j, k), kind)
        assert bool(want) == (kind in (0, 2))
        verdicts[not want] += 1
    assert verdicts[True] == 6 and verdicts[False] == 6


def _phase_column_glue(t):
    """Reference lift: glue with the slot phases in the columns,
    e(phi_i(m)) at (i, sigma_i m), solved for the coefficients themselves
    over glue's own support by one solve."""
    theta, n = t.theta, t.theta.n
    target = {(i, m): c for i, b in enumerate(t.components) for m, c in b.terms.items()}
    cands = quotients._glue_support(t)[0]
    columns = []
    for p, q in cands:
        col = {}
        for i in range(n):
            phase, pp, qq = _unitary_reduce(theta.table, (i,), p, q)
            col[(i, (pp, qq))] = Coeff.from_exponent(phase, theta)
        columns.append(col)
    sol = reference_solve(columns, target)
    assert sol is not None, "the reference system over the support is inconsistent"
    return {m: c for m, c in zip(cands, sol) if not c.is_zero()}


def _glue_tuples(theta, rng, count):
    """Tuples of random elements, every other one plus a word W_e W_e* with
    e = (1, ..., 1): no component keeps it, so the support holds words that
    are in no component."""
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
    # in the columns, at every twist denominator, on supports that reach
    # beyond the component words
    rng = rng_for(f"glue-gauge-{den}")
    raised = 0
    for n in (2, 3, 4):
        theta = (ThetaMatrix.zero(n) if den == 0 else
                 ThetaMatrix.random_rational(n, seed=rng.randrange(100), den=den))
        for t in _glue_tuples(theta, rng, 8):
            want = _phase_column_glue(t)
            got = glue(t)
            assert list(got.terms) == list(want)
            assert [repr(c) for c in got.terms.values()] == [repr(c) for c in want.values()]
            raised += not set(quotients._glue_support(t)[0]) <= {
                m for b in t.components for m in b.terms}
    assert raised >= 6


def _as_float(t):
    """The tuple ``t`` of a rational twist at the float values of its twist
    and coefficients."""
    theta = ThetaMatrix.from_upper(t.theta.n, {jk: float(v) for jk, v in t.theta.upper},
                                   mode=FLOAT)
    return MultipullbackTuple(tuple(
        AlgebraElement(Context.quotient(theta, i),
                       {m: Coeff.from_complex(c.to_complex()) for m, c in b.terms.items()})
        for i, b in enumerate(t.components)))


def test_float_glue_matches_exact_glue():
    # one elimination at both twists: the float lift of the float values of
    # a den-8 tuple has the exact lift's words and its values
    rng = rng_for("glue-float-vs-exact")
    for n in (2, 3, 4):
        theta = ThetaMatrix.random_rational(n, seed=rng.randrange(100), den=8)
        for t in _glue_tuples(theta, rng, 6):
            exact = glue(t)
            ft = _as_float(t)
            got = glue(ft)
            assert list(got.terms) == list(exact.terms)
            for m, c in got.terms.items():
                assert abs(c.to_complex() - exact.terms[m].to_complex()) < 1e-12, m
            for i, b in enumerate(ft.components):
                assert sigma_i(got, i) == b


@pytest.mark.parametrize("twist", ["zero", "rational", "float"])
def test_glue_columns_are_phase_free(twist, monkeypatch):
    # the gauge leaves the rational 1 in every column entry, so a column is
    # its keys: one (slot, word) key for each of the n slots
    rng = rng_for(f"glue-phase-free-{twist}")
    seen = []

    def recording(columns, target):
        seen.extend(columns)
        return exactla.solve_exact(columns, target)

    monkeypatch.setattr(quotients, "solve_exact", recording)
    theta = {"zero": ThetaMatrix.zero(3),
             "rational": ThetaMatrix.random_rational(3, seed=5, den=12),
             "float": random_float_theta(3, rng)}[twist]
    for t in _glue_tuples(theta, rng, 4):
        glue(t)
    assert seen
    assert all(sorted(i for i, _ in col) == [0, 1, 2] for col in seen)


def _reference_is_compatible(t):
    # the difference-element test: every pairwise difference in B_ij is zero
    comps = t.components
    return all((pi_i_j(comps[i], j) - pi_i_j(comps[j], i)).is_zero()
               for i, j in combinations(range(len(comps)), 2))


def _theta(twist, n, rng):
    if twist == "zero":
        return ThetaMatrix.zero(n)
    if twist == "float":
        return random_float_theta(n, rng)
    return ThetaMatrix.random_rational(n, seed=rng.randrange(100), den=int(twist[4:]))


def _changed(t, rng):
    """``t`` with one component changed in one coefficient or in one word."""
    i = rng.randrange(len(t.components))
    b = t.components[i]
    terms = dict(b.terms)
    m = rng.choice(sorted(terms))
    if rng.random() < 0.5:
        terms[m] = terms[m] + terms[m].scale(Fraction(1, 2))
    else:
        p, q = m
        s = rng.choice([s for s in range(len(p)) if s != i])
        moved = (p[:s] + (p[s] + 1,) + p[s + 1:], q)
        if moved in terms:
            return None
        terms[moved] = terms.pop(m)
    comps = list(t.components)
    comps[i] = AlgebraElement(b.ctx, terms)
    return MultipullbackTuple(tuple(comps))


@pytest.mark.xfail(strict=True, reason="Coeff is not reduced mod the cyclotomic polynomial")
def test_unit_tuple_with_one_written_as_minus_the_half_phase_is_compatible():
    # at zero twist, component 1 of the unit's tuple written -e(1/2) is still 1
    t = MultipullbackTuple.from_element(unit(ambient(2)))
    b = t.components[1]
    ((m, _),) = b.terms.items()
    written = AlgebraElement(b.ctx, {m: -Coeff.from_phase(Fraction(1, 2), RATIONAL)})
    assert is_compatible(MultipullbackTuple((t.components[0], written)))


@pytest.mark.xfail(strict=True, reason="FLOAT_TOL is absolute, so the B_ij images of a "
                   "large coefficient differ by more than it through rounding alone")
def test_exact_float_tuple_of_a_large_coefficient_is_compatible():
    # the pi_01 images of W_(0,0,1) W_(0,1,0)* of the tuple of a are 2.57e-12 apart
    theta = ThetaMatrix.from_upper(3, {(0, 1): 0.1, (0, 2): 0.2, (1, 2): 0.3}, mode=FLOAT)
    a = AlgebraElement.monomial(Context.toeplitz(theta), (1, 1, 1), (1, 2, 0),
                                Coeff.from_complex(10000))
    t = MultipullbackTuple.from_element(a)
    assert is_compatible(t)
    lifted = glue(t)
    assert all(sigma_i(lifted, i) == b for i, b in enumerate(t.components))


@pytest.mark.parametrize("twist", ["zero", "den-8", "den-12", "float"])
def test_is_compatible_matches_the_difference_element_test(twist):
    rng = rng_for(f"compatible-{twist}")
    compatible = changed = 0
    for n in (2, 3, 4):
        theta = _theta(twist, n, rng)
        for _ in range(10):
            t = MultipullbackTuple.from_element(
                random_element(Context.toeplitz(theta), rng, nterms=4, degree=3))
            assert is_compatible(t) and _reference_is_compatible(t)
            compatible += 1
            bad = _changed(t, rng) if any(b.terms for b in t.components) else None
            if bad is not None:
                assert is_compatible(bad) == _reference_is_compatible(bad) == False  # noqa: E712
                changed += 1
    assert compatible == 30 and changed >= 20


def test_den12_glue_round_trip_lifts_no_conductor(monkeypatch):
    # every record of a component is read at one conductor, here 24 for the
    # twist's 12 and the element's eighths (the unit word's 1/8 reaches every
    # component), so comparing images, the right-hand sides and the lift take
    # no lcm, though records of phase 0 or in twelfths come in the same tuple
    from heegaard import coeff
    rng = rng_for("glue-one-conductor")
    lifts = []
    common = coeff._common
    monkeypatch.setattr(coeff, "_common", lambda a, b: lifts.append((a.D, b.D)) or common(a, b))
    for n in (2, 3, 4):
        theta = ThetaMatrix.from_upper(n, {(j, k): Fraction(rng.choice((1, 5, 7, 11)), 12)
                                           for j, k in combinations(range(n), 2)})
        zero, ones = (0,) * n, (1,) * n
        for _ in range(6):
            # W_e W_e* with e = (1, ..., 1) is in no component, and the
            # support holds it
            words = {(zero, zero), (ones, ones)} | {
                tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in "pq")
                for _ in range(6)}
            x = AlgebraElement(Context.toeplitz(theta), {m: Coeff.from_phase(
                Fraction(1 if m == (zero, zero) else rng.randrange(8), 8), "rational",
                Fraction(rng.randint(1, 9), rng.randint(1, 4))) for m in words})
            t = MultipullbackTuple.from_element(x)
            text = json.dumps({"components": [serialize.element_to_obj(b) for b in t.components]})
            lifts.clear()
            comps = tuple(serialize.element_from_obj(c, f"components[{i}]")
                          for i, c in enumerate(json.loads(text)["components"]))
            out = serialize.to_json(serialize.element_to_obj(glue(MultipullbackTuple(comps))))
            assert lifts == []
            back = serialize.element_from_obj(json.loads(out))
            assert all(sigma_i(back, i) == b for i, b in enumerate(comps))


def _closed_form_lift(t):
    """The signed sum over the nonempty slot sets S of the reduction of
    b_{min S} on S, read in the full algebra; no linear solve."""
    theta, n = t.theta, t.theta.n
    ctx = Context.toeplitz(theta)
    a = AlgebraElement.zero(ctx)
    for r in range(1, n + 1):
        for S in combinations(range(n), r):
            part = AlgebraElement(ctx, t.components[S[0]].with_context(
                Context.quotient(theta, *S)).terms)
            a = a + part if r % 2 else a - part
    return a


def _raised_lift(t, height):
    """The closed form in the ``glue`` docstring, with no linear solve:
    a = 0, then a += l_k(b_k - sigma_k a) for k = 0, ..., N, where l_k sets
    slot k of each word to height(k, p, q), times e(-phi_k) so that
    sigma_k l_k = 1."""
    theta = t.theta
    ctx = Context.toeplitz(theta)
    a = AlgebraElement.zero(ctx)
    for k, b in enumerate(t.components):
        terms = {}
        for (p, q), c in (b - sigma_i(a, k)).terms.items():
            h = height(k, p, q)
            m = (p[:k] + (p[k] + h,) + p[k + 1:], q[:k] + (q[k] + h,) + q[k + 1:])
            terms[m] = c.times_exponent(-_unitary_reduce(theta.table, (k,), *m)[0], theta.conductor)
        a = a + AlgebraElement(ctx, terms)
    return a


def _random_heights(theta, rng):
    """Heights h(k, p, q) in 0..2 that read only the word reduced on the
    slots <= k."""
    table = {}

    def height(k, p, q):
        key = (k,) + _unitary_reduce(theta.table, range(k + 1), p, q)[1:]
        return table.setdefault(key, rng.randrange(3))
    return height


def _glue_cases(n, twist, rng):
    """Random tuples, W_e W_e* with e = (1, ..., 1) alone and added to a
    random element, and the zero tuple, at the twist kind ``twist``."""
    theta = _theta(twist, n, rng)
    ctx, ones = Context.toeplitz(theta), (1,) * n
    we = AlgebraElement.monomial(ctx, ones, ones, Coeff.from_phase(
        Fraction(rng.randrange(8), 8), theta.mode, rng.randint(1, 3)))
    for x in (random_element(ctx, rng, nterms=4, degree=3), we,
              random_element(ctx, rng, nterms=3, degree=4) + we, AlgebraElement.zero(ctx)):
        yield MultipullbackTuple.from_element(x)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_lift_lies_in_the_glue_support(data):
    # the lemma in the glue docstring: at any heights that read only the word
    # reduced on the slots <= k the sum is a lift; at height 0 it is the
    # signed sum over slot sets, and at glue's heights its words are among
    # those glue solves over
    n = data.draw(st.integers(1, 5))
    twist = data.draw(st.sampled_from(["zero", "den-2", "den-8", "den-12", "float"]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    for t in _glue_cases(n, twist, rng):
        a = _raised_lift(t, _random_heights(t.theta, rng))
        assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))
        a = _closed_form_lift(t)
        assert _raised_lift(t, lambda k, p, q: 0) == a
        assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))
        a = _raised_lift(t, quotients._glue_support(t)[1])
        assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))
        assert set(a.terms) <= set(quotients._glue_support(t)[0])


@pytest.mark.parametrize("twist", ["zero", "den-2", "den-3", "den-12", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_glue_solves_once_and_consistently(n, twist, monkeypatch):
    rng = rng_for(f"glue-once-{n}-{twist}")
    results = []

    def recording(columns, target):
        results.append(exactla.solve_exact(columns, target))
        return results[-1]

    monkeypatch.setattr(quotients, "solve_exact", recording)
    for t in _glue_cases(n, twist, rng):
        results.clear()
        a = glue(t)
        assert len(results) == 1 and results[0] is not None
        assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))


def test_glue_cap_is_decided_before_any_solve(monkeypatch):
    calls = []

    def refuse(columns, target):
        raise AssertionError("a solve before the cap was decided")

    def counting(columns, target):
        calls.append(len(columns))
        return exactla.solve_exact(columns, target)

    # W_e W_e* + W_2e W_2e* at n = 3, e = (1, 1, 1).  Slot 2's height is 1
    # (heights 1 and 2 tie, to the lower), which drops the words of b_0 and
    # b_1 at slot-2 height 1; slot 1's heights, keyed by slot 2's, drop both
    # words of b_0.  Left: b_1's word at slot-2 height 2, counted 2, and
    # b_2's two words, counted 1 each: 4, for the 3 words (2,2,2), (2,2,1)
    # and (1,1,1)
    theta = ThetaMatrix.random_rational(3, seed=4, den=12)
    ctx, ones, twos = Context.toeplitz(theta), (1, 1, 1), (2, 2, 2)
    t = MultipullbackTuple.from_element(AlgebraElement.monomial(ctx, ones, ones)
                                        + AlgebraElement.monomial(ctx, twos, twos))
    monkeypatch.setattr(quotients, "solve_exact", refuse)
    monkeypatch.setattr(quotients, "MAX_GLUE_SUPPORT", 3)
    with pytest.raises(SizeOverflow, match="exceeds 3"):
        glue(t)
    monkeypatch.setattr(quotients, "solve_exact", counting)
    monkeypatch.setattr(quotients, "MAX_GLUE_SUPPORT", 4)
    a = glue(t)
    assert calls == [3] and len(a.terms) <= 3
    assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))
    # 40 generators: each unit component has one word, at height 0 in every slot
    monkeypatch.setattr(quotients, "MAX_GLUE_SUPPORT", 4000)
    calls.clear()
    t = MultipullbackTuple.from_element(unit(Context.toeplitz(ThetaMatrix.zero(40))))
    assert glue(t) == unit(Context.toeplitz(ThetaMatrix.zero(40)))
    assert calls == [1]


@pytest.mark.parametrize("n", [3, 8, 12, 24])
def test_glue_lifts_w_e_w_e_star_by_one_word(n, monkeypatch):
    # W_e W_e* with e = (1, ..., 1): every slot's height is 1, which drops
    # every word but b_N's, raised to W_e W_e* itself; with every height 0
    # the lift would have 2^n - 1 words, over the cap from n = 12
    calls = []

    def counting(columns, target):
        calls.append(len(columns))
        return exactla.solve_exact(columns, target)

    monkeypatch.setattr(quotients, "solve_exact", counting)
    ctx, ones = Context.toeplitz(ThetaMatrix.random_rational(n, seed=n, den=12)), (1,) * n
    we = AlgebraElement.monomial(ctx, ones, ones)
    assert glue(MultipullbackTuple.from_element(we)) == we
    assert calls == [1]


@pytest.mark.parametrize("n", [6, 9, 12])
def test_glue_lifts_words_interior_on_many_slots(n, monkeypatch):
    # random elements of degree 2n, most of whose words are interior on
    # most slots: one consistent solve under the default cap
    rng = rng_for(f"glue-interior-{n}")
    results = []

    def recording(columns, target):
        results.append(exactla.solve_exact(columns, target))
        return results[-1]

    monkeypatch.setattr(quotients, "solve_exact", recording)
    for twist in ("zero", "den-8", "float"):
        ctx = Context.toeplitz(_theta(twist, n, rng))
        for x in (random_element(ctx, rng, nterms=12, degree=2 * n),
                  random_element(ctx, rng, nterms=6, degree=3 * n)):
            results.clear()
            t = MultipullbackTuple.from_element(x)
            a = glue(t)
            assert len(results) == 1 and results[0] is not None
            assert all(sigma_i(a, i) == b for i, b in enumerate(t.components))


def _zero_twist_diagonal_tuple(*components):
    """The tuple at the zero float twist on three slots whose component i
    holds W_h W_h* with coefficient z for each h: z of ``components[i]``."""
    theta = ThetaMatrix.from_upper(3, {}, mode=FLOAT)
    return MultipullbackTuple(tuple(
        AlgebraElement(Context.quotient(theta, i), {
            (h, h): Coeff.from_complex(z) for h, z in terms.items()})
        for i, terms in enumerate(components)))


def _rounding_tuple():
    """(sigma_i(a))_i for a = 100000 W_p W_p* + 0.1 W_q W_q* (p = (0, 0, 2),
    q = (1, 0, 2)) at the zero float twist: the pairwise images agree, while
    the lift's system misses by 5.8e-12, more than FLOAT_TOL times the three
    target entries its row combines.  That is the rounding of 100000 + 0.1,
    which the absolute FLOAT_TOL does not scale with."""
    return _zero_twist_diagonal_tuple({(0, 0, 2): 100000.0 + 0.1},
                                      {(0, 0, 2): 100000.0, (1, 0, 2): 0.1},
                                      {(0, 0, 0): 100000.0, (1, 0, 0): 0.1})


def _moved_diagonal_tuple(rng):
    """(sigma_i(a))_i of a float element a of 1-30 diagonal words W_p W_p*
    (slot heights <= 2, n 2-4, twist entries in (-0.5, 0.5)), each
    component coefficient then moved by a real +-(0.2-0.6) FLOAT_TOL."""
    n = rng.randint(2, 4)
    theta = ThetaMatrix.from_upper(n, {(j, k): rng.uniform(-0.5, 0.5) for j in range(n)
                                       for k in range(j + 1, n)}, mode=FLOAT)
    terms = {}
    for _ in range(rng.randint(1, 30)):
        p = tuple(rng.randint(0, 2) for _ in range(n))
        terms[p, p] = Coeff.from_complex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    a = AlgebraElement(Context.toeplitz(theta), terms)
    return MultipullbackTuple(tuple(
        AlgebraElement(b.ctx, {m: c + Coeff.from_complex(
            rng.choice((-1, 1)) * rng.uniform(0.2, 0.6) * FLOAT_TOL) for m, c in b.terms.items()})
        for b in MultipullbackTuple.from_element(a).components))


def _lifts_within(a, t, tol):
    """Whether sigma_i(a) is within tol of component i, word by word (a word
    missing on one side counting as 0), for every i."""
    def gap(x, y):
        return max(abs((x[m].to_complex() if m in x else 0)
                       - (y[m].to_complex() if m in y else 0)) for m in x.keys() | y.keys())
    return all(gap(sigma_i(a, i).terms, b.terms) < tol for i, b in enumerate(t.components))


def test_float_glue_lifts_every_tuple_compatible_within_float_tol():
    # is_compatible compares single coefficients within FLOAT_TOL, and the
    # lift's rows combine several target entries, so their residual is held
    # to FLOAT_TOL times that weight: 45 of these tuples raised LiftRounding
    # under a bare FLOAT_TOL
    accepted = 0
    for seed in range(3000):
        t = _moved_diagonal_tuple(random.Random(seed))
        if is_compatible(t):
            accepted += 1
            assert _lifts_within(glue(t), t, 1e-10), seed
    assert accepted > 800


def test_float_glue_lifts_a_tuple_off_by_a_few_float_tol():
    # pairwise images off by 6e-13 each; the lift's row misses by 1.2e-12
    # after combining three target entries, within its bound of 3 FLOAT_TOL
    t = _zero_twist_diagonal_tuple({(0, 0, 2): 2 - 6e-13},
                                   {(0, 0, 2): 1.0, (1, 0, 2): 1.0},
                                   {(0, 0, 0): 1 - 6e-13, (1, 0, 0): 1 + 6e-13})
    assert is_compatible(t)
    assert _lifts_within(glue(t), t, 2e-12)


def test_float_rounding_in_the_lift_is_no_witness(tmp_path, capsys):
    # the components agree on every overlap, so exit 1 and its witness JSON
    # would be wrong: a rounding failure is exit 2, with stdout empty
    t = _rounding_tuple()
    assert is_compatible(t)
    with pytest.raises(quotients.LiftRounding, match="float rounding"):
        glue(t)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": [serialize.element_to_obj(b)
                                               for b in t.components]}))
    assert cli.main(["glue", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "float rounding" in out.err
