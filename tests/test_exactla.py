"""The sparse exact solver against a dense Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import rng_for
from heegaard.coeff import Coeff
from heegaard.exactla import first_outside_span, solve_exact
from heegaard.phases import FLOAT, RATIONAL


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
    return [Coeff(RATIONAL, {Fraction(k, D): x[j * D + k]
                             for k in range(D) if x[j * D + k]})
            for j in range(len(columns))]


def random_coeff(rng: random.Random, D: int) -> Coeff:
    """Up to three phases k/D with small rational weights."""
    parts = {}
    for _ in range(rng.randint(1, 3)):
        t = Fraction(rng.randrange(D), D)
        parts[t] = parts.get(t, 0) + Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                              rng.randint(1, 3))
    return Coeff(RATIONAL, {t: w for t, w in parts.items() if w})


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


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 12])
def test_sparse_solve_matches_dense_reference(D):
    rng = rng_for(f"exactla-{D}")
    solved = unsolvable = 0
    for trial in range(20):
        columns, target = random_system(rng, D, consistent=trial % 2 == 0)
        got = solve_exact(columns, target)
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


def test_solve_edge_cases():
    one = Coeff.rational(1)
    assert solve_exact([], {}) == []
    assert solve_exact([], {"a": one}) is None
    assert solve_exact([{"a": one}], {"b": one}) is None
    zero_target = solve_exact([{"a": one}, {}], {"a": Coeff.zero(RATIONAL)})
    assert [c.is_zero() for c in zero_target] == [True, True]
    # 1 + e(1/2) is a zero divisor of the group ring: it does not reach 1
    half = Coeff(RATIONAL, {Fraction(0): Fraction(1), Fraction(1, 2): Fraction(1)})
    assert solve_exact([{"a": half}], {"a": one}) is None
    assert solve_exact([{"a": half}], {"a": half})[0].parts == one.parts


def per_vector_first_failure(span, vectors, mode):
    return next((i for i, v in enumerate(vectors)
                 if solve_exact(span, v, mode) is None), None)


@pytest.mark.parametrize("D", [1, 2, 3, 4, 8, 12])
def test_span_helper_matches_per_vector_solves(D):
    rng = rng_for(f"exactla-span-{D}")
    seen = set()
    for _ in range(15):
        span, _ = random_system(rng, D, consistent=True)
        vectors = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.6:
                vectors.append(combine([random_coeff(rng, D) for _ in span], span))
            else:
                vectors.append(random_system(rng, D, consistent=False)[1])
        want = per_vector_first_failure(span, vectors, RATIONAL)
        assert first_outside_span(span, vectors) == want
        seen.add(want)
    # the first failure occurs at several positions, and sometimes never
    assert None in seen and len(seen) >= 3


def test_span_helper_float_matches_per_vector_solves():
    rng = rng_for("exactla-span-float")

    def vec(keys):
        return {k: Coeff.from_complex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for k in keys}

    keys = list(range(6))
    seen = set()
    for _ in range(30):
        span = [vec(rng.sample(keys, 3)) for _ in range(rng.randint(0, 3))]
        vectors = []
        for _ in range(rng.randint(1, 4)):
            if span and rng.random() < 0.6:
                w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in span]
                vectors.append(combine([Coeff.from_complex(z) for z in w], span))
            else:
                vectors.append(vec(rng.sample(keys, 2)))
        want = per_vector_first_failure(span, vectors, FLOAT)
        assert first_outside_span(span, vectors, FLOAT) == want
        seen.add(want)
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
        got = solve_exact(columns, target, FLOAT)
        rows = sorted({k for col in columns for k in col} | set(target), key=repr)
        a = np.array([[col[k].to_complex() if k in col else 0 for col in columns]
                      for k in rows])
        b = np.array([target[k].to_complex() if k in target else 0 for k in rows])
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose([c.to_complex() for c in got], x, atol=1e-12)
    assert solve_exact([{0: Coeff.from_complex(1)}], {1: Coeff.from_complex(1)},
                       FLOAT) is None
