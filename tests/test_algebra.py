import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_float_theta, rng_for
from reference_sphere import compact_matrix_unit, h_tail, range_complement, sphere_defect
from heegaard import AlgebraElement, Coeff, generator, unit
from heegaard.algebra import Context, ContextMismatch, _unitary_reduce
from heegaard.phases import FLOAT_TOL, RATIONAL, ThetaMatrix


def toeplitz(n, seed=None):
    th = ThetaMatrix.zero(n) if seed is None else ThetaMatrix.random_rational(n, seed=seed)
    return Context.toeplitz(th)


def test_generator_shape():
    ctx = toeplitz(2)
    s0 = generator(ctx, 0)
    assert s0.terms == {((1, 0), (0, 0)): s0.terms[((1, 0), (0, 0))]}
    with pytest.raises(IndexError):
        generator(ctx, 2)


def test_isometry_relation():
    ctx = toeplitz(3, seed=2)
    for i in range(3):
        s = generator(ctx, i)
        assert s.star() * s == unit(ctx)
        (m,) = (s * s.star()).terms
        assert m == (tuple(int(j == i) for j in range(3)),) * 2


def test_twisted_commutation():
    ctx = toeplitz(3, seed=5)
    th = ctx.theta
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            si, sj = generator(ctx, i), generator(ctx, j)
            assert si * sj == (sj * si).times_phase(th.entry(i, j))
            assert si * sj.star() == (sj.star() * si).times_phase(-th.entry(i, j))


def test_generator_products_n1():
    ctx = toeplitz(2, seed=7)
    th = ctx.theta
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    # s_1 s_0 in canonical order picks up the inverse phase
    prod = s1 * s0
    assert prod == AlgebraElement.monomial(
        ctx, (1, 1), (0, 0),
        Coeff.from_phase(-th.entry(0, 1), ctx.mode))
    assert s0.star() * s0 == unit(ctx)
    assert s0.star() * s1 == AlgebraElement.monomial(
        ctx, (0, 1), (1, 0),
        Coeff.from_phase(-th.entry(0, 1), ctx.mode))


def test_single_monomial_products():
    ctx = toeplitz(2, seed=9)
    rng = rng_for("monomial-products")
    for _ in range(40):
        p, q, r, t = (tuple(rng.randrange(3) for _ in range(2)) for _ in range(4))
        x = AlgebraElement.monomial(ctx, p, q)
        y = AlgebraElement.monomial(ctx, r, t)
        prod = x * y
        assert len(prod.terms) == 1
        (c,) = prod.terms.values()
        assert abs(abs(c.to_complex()) - 1) < 1e-12


def test_star_involution_and_antihomomorphism():
    ctx = toeplitz(2, seed=11)
    rng = rng_for("star")
    for _ in range(25):
        x = random_element(ctx, rng)
        y = random_element(ctx, rng)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


def test_associativity():
    rng = rng_for("assoc")
    for ctx in (toeplitz(3, seed=13), Context.toeplitz(random_float_theta(3, rng))):
        for _ in range(15):
            x = random_element(ctx, rng, nterms=3, degree=2)
            y = random_element(ctx, rng, nterms=3, degree=2)
            z = random_element(ctx, rng, nterms=2, degree=2)
            assert (x * y) * z == x * (y * z)


def test_sphere_defect_shapes():
    ctx0 = toeplitz(1)
    assert sphere_defect(ctx0) == unit(ctx0) - AlgebraElement.monomial(ctx0, (1,), (1,))
    ctx = toeplitz(2)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    expected = (unit(ctx) - s0 * s0.star() - s1 * s1.star()
                + AlgebraElement.monomial(ctx, (1, 1), (1, 1)))
    assert sphere_defect(ctx) == expected
    assert len(sphere_defect(toeplitz(3, seed=1)).terms) == 8


def _ordered_range_complement(ctx, slots):
    """prod_{s in slots} (1 - w_s w_s*) by ordered products, slot by slot."""
    out = unit(ctx)
    for s in sorted(slots):
        g = generator(ctx, s)
        out = out * (unit(ctx) - g * g.star())
    return out


def _exact_terms(x):
    """Words in order, with the class, conductor and bit-exact weights of each
    scalar (repr tells -0.0 from 0.0)."""
    return [(m, type(c), c.D, repr(c.terms)) for m, c in x.terms.items()]


@pytest.mark.parametrize("twist", ["zero", "den-12", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_range_complement_matches_ordered_product(n, twist):
    rng = rng_for(f"range-complement-{n}-{twist}")
    th = {"zero": ThetaMatrix.zero(n),
          "den-12": ThetaMatrix.random_rational(n, seed=n, den=12),
          "float": random_float_theta(n, rng)}[twist]
    for ctx in (Context.toeplitz(th), Context.sphere(th)):
        for k in range(n + 1):
            for slots in itertools.combinations(range(n), k):
                got = range_complement(ctx, slots)
                want = _ordered_range_complement(ctx, slots)
                assert got == want
                assert _exact_terms(got) == _exact_terms(want), (ctx, slots)


def test_range_complements_multiply_no_elements(monkeypatch):
    calls = []
    mul = AlgebraElement.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counting)
    th = ThetaMatrix.random_rational(4, seed=3, den=12)
    for ctx in (Context.toeplitz(th), Context.sphere(th)):
        sphere_defect(ctx)
        for i in range(4):
            h_tail(i, ctx)
        range_complement(ctx, (1, 3))
    assert calls == []


def _reference_product(x, y):
    """x * y as a pair-by-pair rewrite: the closed-form word product of the
    module docstring, its phase summed a ascending then c ascending with zero
    integer factors skipped, the scalar step, then each word expanded over
    the context's signed slot reductions."""
    ctx = x.ctx
    th, D, n = ctx.theta, ctx.theta.conductor, ctx.n
    prods = {}
    for (p, q), c1 in x.terms.items():
        for (r, t), c2 in y.terms.items():
            rr = [max(b - a, 0) for a, b in zip(q, r)]
            qq = [max(a - b, 0) for a, b in zip(q, r)]
            phase = 0
            for a in range(n):
                for c in range(a + 1, n):
                    k = rr[a] * (q[c] - p[c]) + qq[a] * (t[c] - r[c])
                    if k:
                        phase += k * th.table[a][c]
            key = (tuple(map(sum, zip(p, rr))), tuple(map(sum, zip(qq, t))))
            cc = (c1 * c2).times_exponent(phase, D)
            prods[key] = prods[key] + cc if key in prods else cc
    out = {}
    for (p, q), c in prods.items():
        if ctx.unitary:
            reductions = [(ctx.unitary, 1)]
        elif ctx.kind == "sphere" and all(min(a, b) for a, b in zip(p, q)):
            reductions = [(v, (-1) ** (k + 1)) for k in range(1, n + 1)
                          for v in itertools.combinations(range(n), k)]
        else:
            reductions = [((), 1)]
        for slots, sign in reductions:
            if slots:
                phase, pp, qq = _unitary_reduce(th.table, slots, p, q)
                key, cc = (pp, qq), c.times_exponent(phase, D, sign)
            else:
                key, cc = (p, q), c
            out[key] = out[key] + cc if key in out else cc
    return AlgebraElement(ctx, out)


@pytest.mark.parametrize("twist", ["zero", "den-12", "float"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_matches_the_pairwise_reference(n, twist):
    rng = rng_for(f"product-kernel-{n}-{twist}")
    th = {"zero": ThetaMatrix.zero(n),
          "den-12": ThetaMatrix.random_rational(n, seed=n, den=12),
          "float": random_float_theta(n, rng)}[twist]
    contexts = [Context.toeplitz(th), Context.quotient(th, n - 1), Context.sphere(th)]
    if n > 1:
        contexts.append(Context.quotient(th, 0, n - 1))
    ones, zeros, interior = (1,) * n, (0,) * n, 0
    for ctx in contexts:
        # W_1 times W_1* is a fully-interior word, so the sphere expands it
        w1 = AlgebraElement.monomial(ctx, ones, zeros)
        for _ in range(4):
            x = random_element(ctx, rng, degree=2 * n) + w1
            y = random_element(ctx, rng, degree=2 * n) + w1.star()
            got, want = x * y, _reference_product(x, y)
            assert _exact_terms(got) == _exact_terms(want), (ctx, x, y)
            if ctx.kind == "sphere":
                amb = x.with_context(ctx.ambient()) * y.with_context(ctx.ambient())
                interior += any(0 not in p + q for p, q in amb.terms)
    assert interior


def test_products_call_the_scalar_product(monkeypatch):
    # the benchmark tracer counts products through Coeff.__mul__
    calls = []
    mul = Coeff.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Coeff, "__mul__", counting)
    ctx = Context.sphere(ThetaMatrix.random_rational(2, seed=3, den=12))
    assert not (generator(ctx, 0) * generator(ctx, 1).star()).is_zero()
    assert calls


def test_defect_killed_by_annihilation():
    ctx = toeplitz(3, seed=17)
    r = sphere_defect(ctx)
    for i in range(3):
        assert (generator(ctx, i).star() * r).is_zero()
        assert (r * generator(ctx, i)).is_zero()


def test_matrix_units():
    ctx = toeplitz(2, seed=19)
    boxes = list(itertools.product(range(2), repeat=2))
    for p, q, a, b in itertools.product(boxes, repeat=4):
        u1 = compact_matrix_unit(p, q, ctx)
        u2 = compact_matrix_unit(a, b, ctx)
        prod = u1 * u2
        if q != a:
            assert prod.is_zero()
        else:
            u3 = compact_matrix_unit(p, b, ctx)
            m0, c0 = u3.sorted_terms()[0]
            lam = prod.terms[m0] * c0.inverse()
            assert abs(abs(lam.to_complex()) - 1) < 1e-12
            assert prod == u3.times_coeff(lam)


def test_matrix_units_untwisted_exact():
    ctx = toeplitz(2)
    for p, q, b in itertools.product([(0, 0), (1, 0), (1, 1)], repeat=3):
        lhs = compact_matrix_unit(p, q, ctx) * compact_matrix_unit(q, b, ctx)
        assert lhs == compact_matrix_unit(p, b, ctx)


def test_context_mismatch():
    x = generator(toeplitz(2), 0)
    y = generator(toeplitz(2, seed=1), 0)
    with pytest.raises(ContextMismatch):
        x * y


def test_zero_pruning():
    ctx = toeplitz(2)
    x = generator(ctx, 0)
    assert (x - x).terms == {}
    assert (x - x).is_zero()


def test_equality_compares_the_terms_without_a_difference(monkeypatch):
    # terms are pruned at construction, so two elements are equal exactly
    # when their term dicts are, word by word under Coeff.__eq__
    def unreachable(*args):
        raise AssertionError("equality formed a difference")
    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(AlgebraElement, name, unreachable)
    ctx = Context.toeplitz(ThetaMatrix.from_upper(2, {(0, 1): 0.3}, mode="float"))
    u, v = ((1, 0), (0, 1)), ((0, 1), (0, 0))
    x = AlgebraElement(ctx, {u: Coeff.from_complex(0.5 + 0.25j)})
    assert x == AlgebraElement(ctx, {u: Coeff.from_complex(0.5 + 0.25j + 0.5 * FLOAT_TOL)})
    assert x != AlgebraElement(ctx, {u: Coeff.from_complex(0.5 + 0.25j + 2 * FLOAT_TOL)})
    # a word on one side only: pruned below FLOAT_TOL, so equal; kept above
    below = AlgebraElement(ctx, {**x.terms, v: Coeff.from_complex(0.5 * FLOAT_TOL)})
    above = AlgebraElement(ctx, {**x.terms, v: Coeff.from_complex(2 * FLOAT_TOL)})
    assert below == x and x == below and below.terms.keys() == x.terms.keys()
    assert above != x and x != above
    assert AlgebraElement.zero(ctx) != x
    # exact: one value at two conductors, and a word on one side only
    ctx = toeplitz(2, seed=3)
    half = Coeff.rational(Fraction(1, 2))
    lifted = (Coeff.from_phase(Fraction(1, 4), RATIONAL, Fraction(1, 2))
              * Coeff.from_phase(Fraction(-1, 4), RATIONAL))
    assert (lifted.D, lifted.terms) == (4, {0: Fraction(1, 2)}) and half.D == 1
    assert AlgebraElement(ctx, {u: half}) == AlgebraElement(ctx, {u: lifted})
    assert AlgebraElement(ctx, {u: half}) != AlgebraElement(ctx, {u: half, v: half})
    assert AlgebraElement(ctx, {u: half}) != AlgebraElement(toeplitz(2), {u: half})


@pytest.mark.parametrize("twist", ["den-8", "float"])
def test_equality_agrees_with_a_zero_difference(twist):
    rng = rng_for(f"eq-{twist}")
    for _ in range(40):
        th = (ThetaMatrix.random_rational(3, seed=rng.randrange(9)) if twist == "den-8"
              else random_float_theta(3, rng))
        ctx = Context.toeplitz(th)
        x = random_element(ctx, rng, nterms=4)
        for y in (x, x.scale(1), random_element(ctx, rng, nterms=4), x + random_element(
                ctx, rng, nterms=1).scale(rng.choice([0, 1e-13, 1e-11, 1]))):
            assert (x == y) == (y == x) == (x - y).is_zero()


def _rewrite_loop_normal_form(theta, terms):
    """The sphere normal form by a rewrite loop, the reference for the
    closed form.

    W_{p-1} R W_{q-1}* vanishes in the quotient; solving it for its top term
    W_p W_q* rewrites an interior word through words of lower degree, until
    no interior word is left.
    """
    ctx = Context.toeplitz(theta)
    z = (0,) * theta.n
    defect = sphere_defect(ctx)
    rewrites = {}

    def rewrite(p, q):
        if (p, q) not in rewrites:
            expr = (AlgebraElement.monomial(ctx, [a - 1 for a in p], z) * defect
                    * AlgebraElement.monomial(ctx, [a - 1 for a in q], z).star())
            inv = expr.terms[(p, q)].inverse()
            rewrites[(p, q)] = {m: -(c * inv) for m, c in expr.terms.items()
                                if m != (p, q)}
        return rewrites[(p, q)]

    work = {m: c for m, c in terms.items() if not c.is_zero()}
    while True:
        target = next((m for m in work if all(min(a, b) for a, b in zip(*m))), None)
        if target is None:
            return work
        c = work.pop(target)
        for m, w in rewrite(*target).items():
            cc = c * w
            s = work[m] + cc if m in work else cc
            if s.is_zero():
                work.pop(m, None)
            else:
                work[m] = s


def _random_word(rng, n, low, high):
    return (tuple(rng.randint(low, high) for _ in range(n)),
            tuple(rng.randint(low, high) for _ in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sphere_normal_form_matches_the_rewrite_loop(n):
    rng = rng_for(f"sphere-nf-{n}")
    diagonal_rng = rng_for(f"sphere-nf-diagonal-{n}")
    thetas = [ThetaMatrix.zero(n)] + [ThetaMatrix.random_rational(n, seed=n, den=d)
                                      for d in (2, 3, 4, 8, 12)]
    for th in thetas:
        sphere = Context.sphere(th)
        for _ in range(3 if n < 5 else 1):
            # interior words next to words that are not, so their images collide
            terms = {}
            for low in (1, 1, 0):
                c = Coeff.from_phase(Fraction(rng.randrange(12), 12), "rational",
                                     Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
                terms[_random_word(rng, n, low, 4)] = c
            # diagonal interior words W_p W_p* (the phase-0 branch), two of them
            # one slot apart so their reductions collide; conductor-12
            # scalars lift to the lcm against a den-8 twist
            p = tuple(diagonal_rng.randint(1, 4) for _ in range(n))
            s = diagonal_rng.randrange(n)
            for word in (p, p[:s] + (p[s] % 4 + 1,) + p[s + 1:]):
                terms[word, word] = Coeff.from_phase(
                    Fraction(diagonal_rng.randrange(12), 12), "rational",
                    Fraction(diagonal_rng.choice((-3, -1, 1, 2))))
            got = AlgebraElement(Context.toeplitz(th), terms).with_context(sphere)
            want = _rewrite_loop_normal_form(th, terms)
            assert got.terms.keys() == want.keys()
            assert {m: repr(c) for m, c in got.terms.items()} == \
                {m: repr(c) for m, c in want.items()}


def test_float_sphere_normal_form_has_one_term_per_slot_set():
    # the closed form is 2^n - 1 words, the slot-V reduction of W_p W_q* at
    # c.times_exponent(phi_V, D, +-1), bit for bit; a rewrite cascade
    # subtracts nearly equal floats and can leave residues above FLOAT_TOL
    rng = rng_for("sphere-nf-float")
    diagonal_rng = rng_for("sphere-nf-float-diagonal")
    for n in (2, 3, 4, 5):
        th = random_float_theta(n, rng)
        sphere, table = Context.sphere(th), th.table
        for _ in range(30):
            p, q = _random_word(rng, n, 1, 4)
            c = Coeff.from_complex(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            want, ks = {}, [min(a, b) for a, b in zip(p, q)]
            for k in range(1, n + 1):
                for v in itertools.combinations(range(n), k):
                    phi = sum(ks[s] * sum((p[j] - q[j]) * table[s][j] for j in range(s + 1, n))
                              for s in v)
                    w = [tuple(e - ks[s] if s in v else e for s, e in enumerate(x)) for x in (p, q)]
                    want[tuple(w)] = repr(c.times_exponent(phi, th.conductor, (-1) ** (k + 1)))
            nf = AlgebraElement.monomial(sphere, p, q, c)
            assert len(want) == 2 ** n - 1, (p, q)
            assert {m: repr(v) for m, v in nf.terms.items()} == want, (p, q)
        for _ in range(10):
            # a diagonal interior word W_p W_p*: the slot-V reduction zeroes p
            # on V at phase 0, with the scalar c.times_exponent(0, D, +-1) of
            # any other word, bit for bit (the rewrite loop leaves residues)
            p = tuple(diagonal_rng.randint(1, 4) for _ in range(n))
            c = Coeff.from_complex(complex(diagonal_rng.uniform(-2, 2),
                                           diagonal_rng.uniform(-2, 2)))
            want = {}
            for k in range(1, n + 1):
                for v in itertools.combinations(range(n), k):
                    w = tuple(0 if s in v else e for s, e in enumerate(p))
                    want[w, w] = repr(c.times_exponent(0, th.conductor, (-1) ** (k + 1)))
            nf = AlgebraElement.monomial(sphere, p, p, c)
            assert {m: repr(v) for m, v in nf.terms.items()} == want, p


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_slot_reductions_compose(data):
    # reducing on A u B is reducing on A, then on B, in either order: the
    # lemma behind the sphere normal form and the cocycle coherence check
    n = data.draw(st.integers(1, 5))
    den = data.draw(st.sampled_from([1, 2, 3, 8, 12]))
    th = ThetaMatrix.random_rational(n, seed=data.draw(st.integers(0, 99)), den=den)
    word = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    p, q = data.draw(word), data.draw(word)
    side = st.lists(st.sampled_from(["A", "B", None]), min_size=n, max_size=n)
    label = data.draw(side)
    a = [s for s in range(n) if label[s] == "A"]
    b = [s for s in range(n) if label[s] == "B"]
    both = _unitary_reduce(th.table, sorted(a + b), p, q)
    for first, second in ((a, b), (b, a)):
        ph1, p1, q1 = _unitary_reduce(th.table, first, p, q)
        ph2, p2, q2 = _unitary_reduce(th.table, second, p1, q1)
        assert (ph1 + ph2, p2, q2) == both
