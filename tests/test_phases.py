import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_float_theta, rng_for
from reference_grading import (cocycle_phase, kappa_check_matrix, kappa_inv_matrix,
                               kappa_matrix)
from heegaard.phases import FLOAT, DimensionMismatch, ThetaMatrix, frac_part

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)
vectors3 = st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3)


def random_theta(n, seed):
    return ThetaMatrix.random_rational(n, seed=seed)


def test_antisymmetry_is_structural():
    th = ThetaMatrix.from_upper(3, {(0, 1): Fraction(1, 3), (2, 1): Fraction(1, 5)})
    assert th.entry(0, 1) == Fraction(1, 3)
    assert th.entry(1, 0) == -Fraction(1, 3)
    assert th.entry(1, 2) == -Fraction(1, 5)
    assert th.entry(2, 2) == 0
    with pytest.raises(ValueError):
        ThetaMatrix.from_upper(2, {(0, 0): Fraction(1, 2)})


@pytest.mark.parametrize("entries,mode", [
    ({(0, 1): 0.25, (1, 0): 0.5}, "float"),
    ({(0, 1): Fraction(1, 4), (1, 0): Fraction(-1, 4)}, "rational"),
    ({(1, 2): Fraction(1, 3), (2, 1): 0}, "rational"),
])
def test_from_upper_refuses_a_pair_given_both_ways(entries, mode):
    with pytest.raises(ValueError, match=r"pair \((0, 1|1, 2)\)"):
        ThetaMatrix.from_upper(3, entries, mode)
    # each orientation alone is fine
    one_way = {jk: v for jk, v in entries.items() if jk[0] < jk[1]}
    assert ThetaMatrix.from_upper(3, one_way, mode).upper == \
        tuple((jk, v) for jk, v in one_way.items() if v)


def test_cocycle_zero_matrix():
    th = ThetaMatrix.zero(3)
    assert cocycle_phase(th, (1, 2, 3), (4, 5, 6)) == 0


def test_cocycle_unit_vectors():
    th = random_theta(3, seed=1)
    for j in range(3):
        for k in range(3):
            ej = tuple(int(a == j) for a in range(3))
            ek = tuple(int(a == k) for a in range(3))
            assert cocycle_phase(th, ej, ek) == th.entry(j, k) / 2


def test_cocycle_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cocycle_phase(ThetaMatrix.zero(2), (1,), (0, 0))


@settings(max_examples=40, deadline=None)
@given(mu=vectors3, nu=vectors3, seed=st.integers(0, 5))
def test_cocycle_antisymmetric(mu, nu, seed):
    th = random_theta(3, seed)
    s = cocycle_phase(th, mu, nu) + cocycle_phase(th, nu, mu)
    assert s.denominator == 1


@settings(max_examples=40, deadline=None)
@given(mu=vectors3, mu2=vectors3, nu=vectors3, seed=st.integers(0, 5))
def test_cocycle_bilinear(mu, mu2, nu, seed):
    th = random_theta(3, seed)
    total = tuple(a + b for a, b in zip(mu, mu2))
    lhs = cocycle_phase(th, total, nu)
    rhs = cocycle_phase(th, mu, nu) + cocycle_phase(th, mu2, nu)
    assert (lhs - rhs).denominator == 1


@settings(max_examples=40, deadline=None)
@given(lam=vectors3, mu=vectors3, nu=vectors3, seed=st.integers(0, 5))
def test_cocycle_identity(lam, mu, nu, seed):
    # c(mu,nu) c(lam, mu+nu) == c(lam,mu) c(lam+mu, nu) as exponents
    th = random_theta(3, seed)
    mu_nu = tuple(a + b for a, b in zip(mu, nu))
    lam_mu = tuple(a + b for a, b in zip(lam, mu))
    lhs = cocycle_phase(th, mu, nu) + cocycle_phase(th, lam, mu_nu)
    rhs = cocycle_phase(th, lam, mu) + cocycle_phase(th, lam_mu, nu)
    assert (lhs - rhs).denominator == 1


def _table_twists(n):
    """Zero, rational (entries beyond +-1 and mixed denominators among them)
    and float twists (integral entries and entries beyond +-1 among them)."""
    rng = rng_for(f"table-{n}")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    yield ThetaMatrix.zero(n)
    yield ThetaMatrix.zero(n, FLOAT)
    yield ThetaMatrix.random_rational(n, seed=n, den=12)
    dens = [1, 3, 4, 6]
    yield ThetaMatrix.from_upper(n, {jk: Fraction(rng.randrange(-40, 41), rng.choice(dens))
                                     for jk in pairs})
    yield random_float_theta(n, rng)
    yield ThetaMatrix.from_upper(n, {jk: rng.choice([1.0, -2.0, 0.5, rng.uniform(-5, 5)])
                                     for jk in pairs}, mode=FLOAT)
    # some pairs absent: their entries are the mode's zero on both sides
    yield ThetaMatrix.from_upper(n, {jk: rng.uniform(-3, 3) for jk in pairs[::2]}, mode=FLOAT)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_table_matches_the_entrywise_definition(n):
    # table[j][k] == frac_part(entry(j, k)) * conductor exactly, as an int in
    # both modes: a float entry is its exact double, over a power of 2
    for th in _table_twists(n):
        D = th.conductor
        expected = tuple(tuple(int(frac_part(th.entry(j, k)) * D) for k in range(n))
                         for j in range(n))
        assert th.table == expected, th
        assert all(type(v) is int for row in th.table for v in row)
        assert all((th.entry(j, k) * D).denominator == 1 for j in range(n) for k in range(n))


def test_kappa_zero_fixed():
    th = ThetaMatrix.zero(4)
    for i in range(4):
        assert kappa_matrix(th, i) == th
        assert kappa_inv_matrix(th, i) == th


def test_kappa_explicit_entry():
    a, b, c = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    th = ThetaMatrix.from_upper(3, {(0, 1): a, (0, 2): b, (1, 2): c})
    assert kappa_matrix(th, 0).entry(1, 2) == a + c - b
    assert kappa_inv_matrix(th, 0).entry(1, 2) == -a + c + b
    assert kappa_matrix(th, 0).entry(0, 1) == a
    assert kappa_matrix(th, 0).entry(0, 2) == b


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 50), i=st.integers(0, 3))
def test_kappa_roundtrip(seed, i):
    th = random_theta(4, seed)
    assert kappa_inv_matrix(kappa_matrix(th, i), i) == th
    assert kappa_matrix(kappa_inv_matrix(th, i), i) == th


def test_float_kappa_roundtrip_is_exact():
    # a float entry is its exact double, so the gauge sums are exact and
    # kappa_i^{-1} kappa_i is the identity on float twists too
    for seed in range(200):
        rng = random.Random(seed)
        th = ThetaMatrix.from_upper(4, {(j, k): rng.uniform(-1, 1)
                                        for j in range(4) for k in range(j + 1, 4)},
                                    mode=FLOAT)
        for i in range(4):
            assert kappa_inv_matrix(kappa_matrix(th, i), i) == th, (seed, i)


def keep_loop_check_matrix(theta, i):
    """kappa_check_matrix as the loop over the kept slots built it."""
    km = kappa_matrix(theta, i)
    keep = [j for j in range(theta.n) if j != i]
    entries = {}
    for a, ja in enumerate(keep):
        for b in range(a + 1, len(keep)):
            entries[(a, b)] = km.entry(ja, keep[b])
    return ThetaMatrix.from_upper(theta.n - 1, entries, theta.mode)


def test_kappa_check_reindexing():
    th = random_theta(4, seed=3)
    km = kappa_matrix(th, 1)
    checked = kappa_check_matrix(th, 1)
    keep = [0, 2, 3]
    for a in range(3):
        for b in range(3):
            assert checked.entry(a, b) == km.entry(keep[a], keep[b])
    # every deleted slot, at rational and float twists, against the keep loop
    rng = rng_for("kappa-check")
    for n in range(2, 6):
        for th in (random_theta(n, seed=n), ThetaMatrix.zero(n),
                   random_float_theta(n, rng)):
            for i in range(n):
                assert kappa_check_matrix(th, i) == keep_loop_check_matrix(th, i), (n, i)


def test_index_range_errors():
    th = ThetaMatrix.zero(3)
    with pytest.raises(IndexError):
        kappa_matrix(th, 3)
    with pytest.raises(IndexError):
        kappa_inv_matrix(th, -1)
