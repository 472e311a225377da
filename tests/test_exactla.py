"""The phase-free solver and the phase-column reference solver against a
dense Fraction Gauss-Jordan reference, and the star rule of the cocycle
lemma (a vector lies in a span of star vectors exactly when its leaf is a
leaf of the span) against one reference solve per vector."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import rng_for
from heegaard.coeff import Coeff, FloatCoeff
from heegaard.exactla import solve_exact
from heegaard.phases import FLOAT_TOL, RATIONAL
from reference_solve import FLOAT_SOLVE_TOL
from reference_solve import solve_exact as reference_solve


def dense_solve(columns, target):
    """Expand over the common phase denominator D and solve densely with
    Gauss-Jordan over Fraction; free unknowns are zero."""
    D = lcm(1, *(t.denominator for v in list(columns) + [target]
                 for c in v.values() for t in c.parts))
    keys = sorted({k for v in list(columns) + [target] for k in v}, key=repr)

    def expand(c):
        out = [Fraction(0)] * D
        for t, w in c.parts.items():
            out[t.numerator * (D // t.denominator)] += w
        return out

    nc = len(columns) * D
    aug = []
    for key in keys:
        tv = expand(target[key]) if key in target else [Fraction(0)] * D
        for r in range(D):
            row = [Fraction(0)] * (nc + 1)
            for j, col in enumerate(columns):
                if key in col:
                    for s, w in enumerate(expand(col[key])):
                        if w:
                            row[j * D + (r - s) % D] += w
            row[nc] = tv[r]
            aug.append(row)
    r = 0
    pivots = []
    for c in range(nc):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(row[nc] for row in aug[r:]):
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return [phase_sum({Fraction(k, D): x[j * D + k] for k in range(D) if x[j * D + k]})
            for j in range(len(columns))]


def phase_sum(parts) -> Coeff:
    """sum_t w * e^{2*pi*i*t} over the {t: w} items of ``parts``."""
    return sum((Coeff.from_phase(t, RATIONAL, w) for t, w in parts.items()),
               Coeff.rational(0))


def random_coeff(rng: random.Random, D: int) -> Coeff:
    """Up to three phases k/D with small rational weights."""
    parts = {}
    for _ in range(rng.randint(1, 3)):
        t = Fraction(rng.randrange(D), D)
        parts[t] = parts.get(t, 0) + Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                              rng.randint(1, 3))
    return phase_sum({t: w for t, w in parts.items() if w})


def combine(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        for key, a in v.items():
            out[key] = out[key] + c * a if key in out else c * a
    return {k: a for k, a in out.items() if not a.is_zero()}


def random_system(rng: random.Random, D: int, consistent: bool):
    """Columns over a few keys, some of them combinations of the others
    (rank-deficient), and a target in their span or drawn at random."""
    keys = [(rng.randrange(3), (rng.randrange(4), rng.randrange(4)))
            for _ in range(rng.randint(2, 5))]
    columns = []
    for _ in range(rng.randint(1, 4)):
        columns.append({k: random_coeff(rng, D)
                        for k in rng.sample(keys, rng.randint(1, len(keys)))})
    for _ in range(rng.randint(0, 2)):
        columns.insert(rng.randrange(len(columns) + 1),
                       combine([random_coeff(rng, D) for _ in columns], columns))
    if consistent:
        target = combine([random_coeff(rng, D) for _ in columns], columns)
    else:
        target = {k: random_coeff(rng, D) for k in rng.sample(keys, 2)}
    return columns, target


def zero_one_system(rng: random.Random):
    """0/1 columns over a few keys as key sets, some of them repeated or the
    union of two disjoint others (rank-deficient), and more columns than
    keys at times."""
    keys = [(rng.randrange(3), rng.randrange(4)) for _ in range(rng.randint(2, 7))]
    columns = [set(rng.sample(keys, rng.randint(1, len(keys))))
               for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(columns), rng.choice(columns)
        extra = set(a) if a & b else a | b
        columns.insert(rng.randrange(len(columns) + 1), extra)
    return columns


def as_vectors(columns, one):
    return [{k: one for k in col} for col in columns]


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 12])
def test_phase_free_solve_matches_dense_reference(D):
    # the particular solution of the 0/1 system is the dense Gauss-Jordan
    # one, exactly, at every target conductor, and None comes back exactly
    # when the dense elimination finds the system inconsistent
    rng = rng_for(f"exactla-phase-free-{D}")
    one = Coeff.rational(1)
    solved = unsolvable = 0
    for trial in range(40):
        columns = zero_one_system(rng)
        vectors = as_vectors(columns, one)
        if trial % 2:
            keys = sorted(set().union(*columns)) + ["fresh"] * (trial % 3 == 0)
            target = {k: random_coeff(rng, D) for k in rng.sample(keys, min(2, len(keys)))}
        else:
            target = combine([random_coeff(rng, D) for _ in columns], vectors)
        got = solve_exact(columns, target)
        want = dense_solve(vectors, target)
        if want is None:
            assert got is None
            unsolvable += 1
            continue
        assert got is not None
        assert {j: c.parts for j, c in got.items()} == \
            {j: c.parts for j, c in enumerate(want) if not c.is_zero()}
        assert list(got) == sorted(got)
        residual = combine([Coeff.rational(-1)], [target])
        assert combine([Coeff.rational(1)] + list(got.values()),
                       [residual] + [vectors[j] for j in got]) == {}
        solved += 1
    assert solved >= 20 and unsolvable >= 5


def test_phase_free_solve_at_float_targets():
    # the same elimination with complex right-hand sides: the float values
    # of a Gaussian-rational target are solved to within FLOAT_TOL, and the
    # system is inconsistent exactly when the exact one is
    rng = rng_for("exactla-phase-free-float")
    one = Coeff.rational(1)

    def gaussian():
        return phase_sum({Fraction(0): Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                          Fraction(1, 4): Fraction(rng.randint(-9, 9), rng.randint(1, 4))})

    seen = set()
    for trial in range(40):
        columns = zero_one_system(rng)
        if trial % 2:
            keys = sorted(set().union(*columns)) + ["fresh"] * (trial % 3 == 0)
            exact = {k: gaussian() for k in rng.sample(keys, min(2, len(keys)))}
        else:
            exact = combine([gaussian() for _ in columns], as_vectors(columns, one))
        target = {k: Coeff.from_complex(c.to_complex()) for k, c in exact.items()}
        got = solve_exact(columns, target)
        want = dense_solve(as_vectors(columns, one), exact)
        assert (got is None) == (want is None)
        seen.add(got is None)
        if got is None:
            continue
        assert all(type(c) is FloatCoeff for c in got.values())
        for k in set(target).union(*columns):
            z = sum((c.to_complex() for j, c in got.items() if k in columns[j]), 0j)
            assert abs(z - (target[k].to_complex() if k in target else 0)) < FLOAT_TOL, k
        for j, w in enumerate(want):
            assert abs((got[j].to_complex() if j in got else 0) - w.to_complex()) < 1e-12
    assert seen == {True, False}


def test_phase_free_solve_edge_cases():
    one = Coeff.rational(1)
    assert solve_exact([], {}) == {}
    assert solve_exact([{"a"}], {}) == {}
    assert solve_exact([], {"a": one}) is None
    assert solve_exact([{"a"}], {"b": one}) is None
    assert solve_exact([{"a"}, set()], {"a": Coeff.rational(0)}) == {}
    assert solve_exact([{"a"}, {"a"}], {"a": one}) == {0: one}
    # a pivot 2: x0 + x2 = x0 + x1 = x1 + x2 = 1 has x = (1/2, 1/2, 1/2)
    half = Coeff.rational(Fraction(1, 2))
    got = solve_exact([{"a", "b"}, {"b", "c"}, {"a", "c"}], {k: one for k in "abc"})
    assert got == {0: half, 1: half, 2: half}
    assert solve_exact([{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}],
                       {k: one for k in "abd"}) is None


@pytest.mark.parametrize("eps, consistent", [(2.4e-12, True), (2.6e-12, False)])
def test_float_bound_through_a_non_unit_pivot(eps, consistent):
    # row c leaves pivot 2 and is halved, so the leftover row of key e,
    # x2 = 1/2 + eps less row c, combines target weight 1 + 3/2: it is zero
    # within FLOAT_TOL * 5/2, and an exact target ignores the weight
    columns = [{"a", "b"}, {"b", "c"}, {"a", "c", "e"}]
    exact = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1), "e": Fraction(1, 2)}
    got = solve_exact(columns, {k: Coeff.from_complex(float(v) + eps * (k == "e"))
                                for k, v in exact.items()})
    assert (got is not None) == consistent
    if consistent:
        assert sorted(got) == [0, 1, 2]
        assert all(abs(c.to_complex() - 0.5) < FLOAT_TOL for c in got.values())
    half = Coeff.rational(Fraction(1, 2))
    assert solve_exact(columns, {k: Coeff.rational(v) for k, v in exact.items()}) \
        == {0: half, 1: half, 2: half}
    exact["e"] += Fraction(1, 10 ** 30)
    assert solve_exact(columns, {k: Coeff.rational(v) for k, v in exact.items()}) is None


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 12])
def test_sparse_solve_matches_dense_reference(D):
    rng = rng_for(f"exactla-{D}")
    solved = unsolvable = 0
    for trial in range(20):
        columns, target = random_system(rng, D, consistent=trial % 2 == 0)
        got = reference_solve(columns, target)
        want = dense_solve(columns, target)
        if want is None:
            assert got is None
            unsolvable += 1
            continue
        assert got is not None
        assert [c.parts for c in got] == [c.parts for c in want]
        residual = combine([Coeff.rational(-1)], [target])
        assert combine([Coeff.rational(1)] + got, [residual] + columns) == {}
        solved += 1
    assert solved >= 10 and unsolvable >= 3


@pytest.mark.parametrize("D", [1, 2, 3, 8, 12])
def test_solution_weights_are_exact(D):
    # integer weights make the pivot inverse 1 / w a float unless the
    # elimination divides in Fraction
    rng = rng_for(f"exactla-weights-{D}")
    for trial in range(20):
        columns, target = random_system(rng, D, consistent=True)
        if trial % 2:
            columns = [{k: Coeff.from_phase(Fraction(rng.randrange(D), D), RATIONAL,
                                            rng.randint(2, 5)) for k in col}
                       for col in columns]
            target = combine([Coeff.rational(rng.randint(-3, 3)) for _ in columns],
                             columns)
        got = reference_solve(columns, target)
        assert got is not None
        assert all(type(w) in (int, Fraction) for c in got for w in c.parts.values())
        residual = combine([Coeff.rational(-1)], [target])
        assert combine([Coeff.rational(1)] + got, [residual] + columns) == {}


@pytest.mark.parametrize("D", [1, 2, 3, 8, 12])
def test_integral_solution_weights_are_ints(D):
    # unit pivots keep the elimination in ints, and an integral weight that
    # passed through a Fraction comes back as an int, as in Coeff
    rng = rng_for(f"exactla-int-weights-{D}")
    ints = fractions = 0
    for trial in range(20):
        columns, target = random_system(rng, D, consistent=True)
        if trial % 2:
            columns = [{k: Coeff.from_phase(Fraction(rng.randrange(D), D), RATIONAL,
                                            rng.choice((-1, 1))) for k in col}
                       for col in columns]
            target = combine([Coeff.rational(rng.randint(-3, 3)) for _ in columns],
                             columns)
        got = reference_solve(columns, target)
        assert got is not None
        for w in (w for c in got for w in c.terms.values()):
            if w.denominator == 1:
                assert type(w) is int, w
                ints += 1
            else:
                fractions += 1
    assert ints >= 10 and fractions >= 1


def test_solve_edge_cases():
    one = Coeff.rational(1)
    assert reference_solve([], {}) == []
    assert reference_solve([], {"a": one}) is None
    assert reference_solve([{"a": one}], {"b": one}) is None
    zero_target = reference_solve([{"a": one}, {}], {"a": Coeff.rational(0)})
    assert [c.is_zero() for c in zero_target] == [True, True]
    # 1 + e(1/2) is a zero divisor of the group ring: it does not reach 1
    half = phase_sum({Fraction(0): Fraction(1), Fraction(1, 2): Fraction(1)})
    assert reference_solve([{"a": half}], {"a": one}) is None
    assert reference_solve([{"a": half}], {"a": half})[0].parts == one.parts


def per_vector_first_failure(span, vectors):
    return next((i for i, v in enumerate(vectors)
                 if reference_solve(span, v) is None), None)


def star_systems(rng: random.Random, unit, count: int):
    """Spans and vectors in the form of the cocycle lemma: u (g_A e_A - g_B
    e_B) for a leaf A and its centre B, with one fixed invertible g_w per
    word and an invertible u per vector, drawn by ``unit``.  Each vector
    comes as (A, vector)."""
    for _ in range(count):
        centres = [("B", c) for c in range(rng.randint(1, 3))]
        leaves = {("A", a): rng.choice(centres) for a in range(rng.randint(2, 6))}
        g = {w: unit() for w in centres + list(leaves)}

        def vec(a):
            u = unit()
            return a, {a: u * g[a], leaves[a]: -(u * g[leaves[a]])}

        def draw(lo, hi):
            return [vec(rng.choice(list(leaves))) for _ in range(rng.randint(lo, hi))]

        yield draw(0, 5), draw(1, 5)


def check_star_rule(systems):
    """Per system: the first vector whose leaf is not a leaf of the span is
    the first that a reference solve finds outside the span.  Returns the
    positions seen."""
    seen = set()
    for span, vectors in systems:
        leaves = {a for a, _ in span}
        want = per_vector_first_failure([v for _, v in span], [v for _, v in vectors])
        assert next((x for x, (a, _) in enumerate(vectors) if a not in leaves), None) == want
        seen.add(want)
    return seen


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 12])
def test_span_helper_matches_per_vector_solves(D):
    # the kernel-image check (tests/reference_cocycle.py) decides span
    # membership of the cocycle's star vectors by leaf membership alone;
    # exact per-vector solves agree
    rng = rng_for(f"exactla-span-{D}")

    def unit():
        return Coeff.from_phase(Fraction(rng.randrange(D), D), RATIONAL,
                                Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                         rng.randint(1, 3)))

    seen = check_star_rule(star_systems(rng, unit, 30))
    # the first failure occurs at several positions, and sometimes never
    assert None in seen and len(seen) >= 3


def test_span_helper_float_matches_per_vector_solves():
    # the same at float scalars, where solve_exact is least squares with a
    # residual tolerance and the leaf rule needs none
    rng = rng_for("exactla-span-float")

    def unit():
        return Coeff.from_complex(complex(rng.uniform(0.2, 1), rng.uniform(-1, 1)))

    seen = check_star_rule(star_systems(rng, unit, 30))
    assert None in seen and len(seen) >= 3


def test_float_solve_matches_dense_least_squares():
    rng = rng_for("exactla-float")
    for _ in range(20):
        keys = list(range(rng.randint(2, 6)))
        columns = [{k: Coeff.from_complex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                    for k in rng.sample(keys, rng.randint(1, len(keys)))}
                   for _ in range(rng.randint(1, 4))]
        w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in columns]
        target = combine([Coeff.from_complex(z) for z in w], columns)
        got = reference_solve(columns, target)
        rows = sorted({k for col in columns for k in col} | set(target), key=repr)
        a = np.array([[col[k].to_complex() if k in col else 0 for col in columns]
                      for k in rows])
        b = np.array([target[k].to_complex() if k in target else 0 for k in rows])
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose([c.to_complex() for c in got], x, atol=1e-12)
    assert reference_solve([{0: Coeff.from_complex(1)}], {1: Coeff.from_complex(1)}) is None


def test_float_scalars_pick_least_squares():
    # no mode argument: FloatCoeff inputs are read as complex and solved by
    # dense least squares, and a residual over the tolerance is no solution
    rng = rng_for("exactla-float-class")

    def z():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    seen = set()
    for _ in range(20):
        keys = list(range(rng.randint(2, 6)))
        span = [{k: Coeff.from_complex(z()) for k in rng.sample(keys, rng.randint(1, 2))}
                for _ in range(rng.randint(1, 3))]
        target = (combine([Coeff.from_complex(z()) for _ in span], span)
                  if rng.random() < 0.5 else
                  {k: Coeff.from_complex(z()) for k in rng.sample(keys, 2)})
        rows = sorted({k for v in span + [target] for k in v})
        a = np.array([[v[k].to_complex() if k in v else 0 for v in span] for k in rows])
        b = np.array([target[k].to_complex() if k in target else 0 for k in rows])
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        outside = np.linalg.norm(a @ x - b) > FLOAT_SOLVE_TOL
        got = reference_solve(span, target)
        if outside:
            assert got is None
        else:
            assert all(type(c) is FloatCoeff for c in got)
            assert np.allclose([c.to_complex() for c in got], x, atol=1e-12)
        seen.add(bool(outside))
    assert seen == {True, False}


def coset_system(rng: random.Random, Dc: int, DT: int, kind: str):
    """Columns at conductor Dc (rank-deficient ones among them) and a target
    at DT: a combination of the columns with coefficients at DT, plus, for
    kind "coset", a stray vector at Dc times e(r/L) for a coset r > 0 of
    L = lcm(Dc, DT), so that coset 0 stays consistent.  The stray vector
    sits on the columns' keys, and sometimes on one key that no column has."""
    columns, _ = random_system(rng, Dc, consistent=True)
    target = combine([random_coeff(rng, DT) for _ in columns], columns)
    if kind == "coset":
        L = lcm(Dc, DT)
        keys = sorted({k for col in columns for k in col}, key=repr)
        keys = rng.sample(keys, min(2, len(keys))) + ["fresh"] * (rng.random() < 0.3)
        stray = {k: random_coeff(rng, Dc) for k in keys}
        r = rng.randrange(1, L // Dc)
        target = combine([Coeff.rational(1), Coeff.from_phase(Fraction(r, L), RATIONAL)],
                         [target, stray])
    return columns, target


@pytest.mark.parametrize("Dc", [1, 2, 3, 4])
@pytest.mark.parametrize("DT", [4, 8, 12])
def test_target_cosets_match_the_target_conductor_expansion(Dc, DT):
    # the system is expanded over the columns' conductor with one right-hand
    # column per target coset; the dense reference expands over the lcm
    rng = rng_for(f"exactla-cosets-{Dc}-{DT}")
    solved = unsolvable = 0
    kinds = ["consistent", "coset"] if lcm(Dc, DT) > Dc else ["consistent"]
    for trial in range(16):
        columns, target = coset_system(rng, Dc, DT, kinds[trial % len(kinds)])
        got = reference_solve(columns, target)
        want = dense_solve(columns, target)
        if want is None:
            assert got is None
            unsolvable += 1
            continue
        assert got is not None
        assert [repr(c) for c in got] == [repr(c) for c in want]
        solved += 1
    assert solved >= 6
    assert unsolvable >= 3 or len(kinds) == 1


@pytest.mark.parametrize("Dc", [1, 2, 3])
@pytest.mark.parametrize("DT", [4, 8, 12])
def test_span_helper_finds_a_failure_in_a_nonzero_coset(Dc, DT):
    # span membership by solve_exact: the stray vector of a "coset" target
    # sits in one nonzero coset of the target phases, so an inconsistency is
    # a pivot in a right-hand column after the first; a combination of the
    # columns at DT stays solvable
    rng = rng_for(f"exactla-span-cosets-{Dc}-{DT}")
    hits = 0
    for _ in range(10):
        span, bad = coset_system(rng, Dc, DT, "coset")
        good = combine([random_coeff(rng, DT) for _ in span], span)
        assert reference_solve(span, good) is not None
        got = reference_solve(span, bad)
        if dense_solve(span, bad) is None:
            assert got is None
            hits += 1
        else:
            assert [repr(c) for c in got] == [repr(c) for c in dense_solve(span, bad)]
    assert hits >= 3
