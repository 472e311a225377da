import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_serialize import coeff_records
from heegaard.algebra import AlgebraElement, Context, unit
from heegaard.coeff import Coeff, FloatCoeff
from heegaard.phases import FLOAT, FLOAT_TOL, RATIONAL, ThetaMatrix

phases = st.fractions(min_value=0, max_value=1, max_denominator=12)
weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def coeffs():
    return st.lists(st.tuples(phases, weights), max_size=3).map(
        lambda parts: sum((Coeff.from_phase(t, RATIONAL, w) for t, w in parts),
                          Coeff.rational(0)))


def test_i_is_a_quarter_phase():
    i = Coeff.from_phase(Fraction(1, 4), RATIONAL)
    # formal phases: the square is the half phase, not the rational -1
    # (the representation is finer than evaluation in the complex numbers)
    assert i * i == Coeff.from_phase(Fraction(1, 2), RATIONAL)
    assert abs((i * i).to_complex() + 1) < 1e-15
    assert abs(i.to_complex() - 1j) < 1e-15


def test_conj_and_phase():
    c = Coeff.from_phase(Fraction(1, 3), RATIONAL, Fraction(2, 5))
    assert c * c.conj() == Coeff.rational(Fraction(4, 25))
    assert c.times_phase(Fraction(2, 3)) == Coeff.rational(Fraction(2, 5))


def test_inverse_single_phase_only():
    c = Coeff.from_phase(Fraction(1, 8), RATIONAL, Fraction(3))
    assert c * c.inverse() == Coeff.rational(1)
    s = Coeff.rational(1) + Coeff.from_phase(Fraction(1, 3), RATIONAL)
    with pytest.raises(ArithmeticError):
        s.inverse()


def test_float_mode_tolerance():
    a = Coeff.from_complex(1 + 0j)
    b = Coeff.from_complex(1 + 1e-16j)
    assert a == b
    assert (a - b).is_zero()


@settings(max_examples=50, deadline=None)
@given(a=coeffs(), b=coeffs(), c=coeffs())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + (-a) == Coeff.rational(0)
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=50, deadline=None)
@given(a=coeffs())
def test_complex_evaluation_consistent(a):
    b = Coeff.from_phase(Fraction(1, 8), RATIONAL, Fraction(1, 2))
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-12


# -- reference: the Fraction-exponent group ring -----------------------------

def _mod1(t):
    return t - (t.numerator // t.denominator)


class RefCoeff:
    """Rational-mode Coeff keyed by Fraction exponents in [0, 1), reduced
    with ``_mod1`` after every product: the representation the integer
    exponents replaced, kept as the reference for their arithmetic."""

    def __init__(self, parts):
        self.parts = dict(parts)

    @classmethod
    def from_phase(cls, t, w):
        return cls({_mod1(Fraction(t)): Fraction(w)} if w else {})

    def __add__(self, other):
        parts = dict(self.parts)
        for t, w in other.parts.items():
            s = parts.get(t, Fraction(0)) + w
            if s:
                parts[t] = s
            else:
                parts.pop(t, None)
        return RefCoeff(parts)

    def __neg__(self):
        return RefCoeff({t: -w for t, w in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        parts = {}
        for t1, w1 in self.parts.items():
            for t2, w2 in other.parts.items():
                t = _mod1(t1 + t2)
                s = parts.get(t, Fraction(0)) + w1 * w2
                if s:
                    parts[t] = s
                else:
                    parts.pop(t, None)
        return RefCoeff(parts)

    def conj(self):
        return RefCoeff({_mod1(-t): w for t, w in self.parts.items()})

    def scale(self, w):
        w = Fraction(w)
        return RefCoeff({t: c * w for t, c in self.parts.items()} if w else {})

    def inverse(self):
        if len(self.parts) != 1:
            raise ArithmeticError("can only invert single-phase coefficients exactly")
        (t, w), = self.parts.items()
        return RefCoeff({_mod1(-t): 1 / w})

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return (self - other).is_zero()

    def to_complex(self):
        return sum((complex(w) * cmath.exp(2j * cmath.pi * float(t))
                    for t, w in self.parts.items()), 0j)

    def records(self):
        out = []
        for t, w in sorted(self.parts.items()):
            z = complex(w) * cmath.exp(2j * cmath.pi * float(t))
            out.append({"re": z.real, "im": z.imag,
                        "phase_num": t.numerator, "phase_den": t.denominator,
                        "amp_num": w.numerator, "amp_den": w.denominator})
        return out


def _any_phase(den):
    return st.integers(0, den - 1).map(lambda k: Fraction(k, den))


any_phases = st.integers(1, 24).flatmap(_any_phase)
nonzero_weights = weights.filter(bool)


@st.composite
def pairs(draw, max_size=3):
    """The same sum of phases as a Coeff and as a RefCoeff."""
    terms = draw(st.lists(st.tuples(any_phases, nonzero_weights), max_size=max_size))
    c, ref = Coeff.rational(0), RefCoeff({})
    for t, w in terms:
        c, ref = c + Coeff.from_phase(t, RATIONAL, w), ref + RefCoeff.from_phase(t, w)
    return c, ref


def assert_same(c, ref):
    assert c.parts == ref.parts
    assert coeff_records(c) == ref.records()
    assert c.is_zero() == ref.is_zero()
    assert c.to_complex() == ref.to_complex()


@settings(max_examples=300, deadline=None)
@given(a=pairs(), b=pairs(), w=weights, single=pairs(max_size=1))
def test_integer_exponents_match_the_fraction_reference(a, b, w, single):
    (x, rx), (y, ry) = a, b
    assert_same(x, rx)
    for op in (operator.add, operator.mul, operator.sub):
        assert_same(op(x, y), op(rx, ry))
    assert_same(-x, -rx)
    assert_same(x.conj(), rx.conj())
    assert_same(x.scale(w), rx.scale(w))
    assert (x == y) == (rx == ry)
    assert x == x * Coeff.rational(1) and (x == x + Coeff.rational(1)) is False
    k, D = w.numerator % 48, w.denominator * 4
    for sign in (1, -1):
        assert_same(x.times_exponent(k, D, sign), rx * RefCoeff.from_phase(Fraction(k, D), sign))
    s, rs = single
    if rs.is_zero():
        with pytest.raises(ArithmeticError):
            s.inverse()
    else:
        assert_same(s.inverse(), rs.inverse())
        assert_same(x * s * s.inverse(), rx * rs * rs.inverse())


# -- float mode: the conductor-1 subclass -------------------------------------

reals = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_nan=False)
complexes = st.builds(complex, reals, reals)


def assert_bits(c, z):
    """``c`` is the complex z; a nonzero z matches on each component's sign bit."""
    assert type(c) is FloatCoeff
    got = c.to_complex()
    assert got == z
    if z:
        for x, y in ((got.real, z.real), (got.imag, z.imag)):
            assert math.copysign(1.0, x) == math.copysign(1.0, y)


@settings(max_examples=300, deadline=None)
@given(za=complexes, zb=complexes, k=st.sampled_from([0, 0.0]) | reals,
       weight=st.sampled_from([1, -1]), r=reals, w=complexes)
def test_float_coeff_matches_plain_complex_arithmetic(za, zb, k, weight, r, w):
    # the formulas are those of the complex-valued float Coeff it replaced
    a, b = Coeff.from_complex(za), Coeff.from_complex(zb)
    assert_bits(a, za)
    assert_bits(a + b, za + zb)
    assert_bits(a - b, za + (-zb))
    assert_bits(a * b, za * zb)
    assert_bits(-a, -za)
    assert_bits(a.conj(), za.conjugate())
    assert_bits(a.times_exponent(k, 1, weight),
                za * (weight * cmath.exp(2j * cmath.pi * k)))
    assert_bits(a.scale(r), za * r)
    assert_bits(a.scale(w), za * w)
    if za:
        assert_bits(a.inverse(), 1.0 / za)
    assert (a == b) == (abs(za - zb) < 1e-12)


def test_class_closure():
    fa, fb = Coeff.from_complex(1 + 2j), Coeff.from_phase(Fraction(1, 3), FLOAT, 2)
    ea, eb = Coeff.from_phase(Fraction(1, 4), RATIONAL, 3), Coeff.rational(1)
    for x, y, cls in ((fa, fb, FloatCoeff), (ea, eb, Coeff)):
        for c in (x + y, x - y, x * y, -x, x.conj(), x.times_phase(Fraction(1, 6)),
                  x.times_exponent(1, 4), x.scale(2), x.inverse()):
            assert type(c) is cls
    assert FloatCoeff.rational(1) != Coeff.rational(1)
    assert FloatCoeff.rational(0) != Coeff.rational(0)


def test_float_coeff_inherits_the_traced_arithmetic():
    # The benchmark's layer tracer hooks Coeff.__mul__ and Coeff.__add__ for
    # both modes, so the float class must not define its own.
    for name in ("__mul__", "__add__"):
        assert name in Coeff.__dict__ and name not in FloatCoeff.__dict__


def test_unit_coefficients_are_built_at_the_twist_conductor():
    theta = ThetaMatrix.from_upper(3, {(0, 1): Fraction(1, 8), (1, 2): Fraction(1, 3)})
    ctx = Context.toeplitz(theta)
    for x in (unit(ctx), AlgebraElement.monomial(ctx, (1, 0, 0), (0, 0, 1))):
        assert [c.D for c in x.terms.values()] == [theta.conductor] == [24]
    assert Coeff.from_exponent(5, theta, -1) == Coeff.from_phase(Fraction(5, 24), RATIONAL, -1)


def test_float_zero_test_takes_any_finite_value():
    # the modulus of this value is past the largest float: abs() raised
    # OverflowError, so building an element that held it failed
    big = Coeff.from_complex(complex(1.2711610061536462e+308, 1.2711610061536464e+308))
    assert not big.is_zero()
    assert Coeff.from_complex(complex(FLOAT_TOL / 2, -FLOAT_TOL / 2)).is_zero()
    assert not Coeff.from_complex(complex(FLOAT_TOL, FLOAT_TOL)).is_zero()


def test_zero_weight_gives_no_terms():
    th = ThetaMatrix.random_rational(2, seed=1)
    for c in (Coeff.from_exponent(3, th, 0), Coeff.rational(2).times_exponent(1, 4, 0),
              Coeff.from_phase(Fraction(1, 3), RATIONAL).times_exponent(0, 1, Fraction(0))):
        assert c.terms == {}
        assert c.is_zero()
        assert c == Coeff.rational(0)


def test_unit_weight_shifts_the_terms_unmultiplied():
    # weight 1 keeps each weight object as it is: the same terms, with the
    # same weight types, class and conductor as multiplying them by 1
    th = ThetaMatrix.from_upper(2, {(0, 1): Fraction(1, 12)})
    for ws in ((3, -1), (Fraction(1, 3), Fraction(-5, 2)), (2, Fraction(7, 4))):
        c = Coeff.from_exponent(1, th, ws[0]) + Coeff.from_exponent(4, th, ws[1])
        for k, D in ((0, 1), (5, 12), (1, 8), (3, 4)):
            got = c.times_exponent(k, D)
            L = math.lcm(c.D, D)
            want = {(t * (L // c.D) + k * (L // D)) % L: w * 1 for t, w in c.terms.items()}
            assert type(got) is Coeff and got.D == L and got.terms == want, (ws, k, D)
            assert [type(w) for w in got.terms.values()] == [type(w) for w in want.values()]
            assert [w is v for w, v in zip(got.terms.values(), c.terms.values())] \
                == [True, True], (ws, k, D)


def test_rational_keeps_an_int_and_normalises_the_rest():
    for w, want in ((3, 3), (-2, -2), (0, None), (Fraction(4, 2), 2), (Fraction(1, 3), Fraction(1, 3)),
                    (0.5, Fraction(1, 2)), (True, 1)):
        c = Coeff.rational(w)
        assert c.D == 1 and c.terms == ({} if want is None else {0: want})
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in c.terms.values())


@settings(max_examples=200, deadline=None)
@given(a=pairs(), b=pairs(), k=st.integers(0, 23))
def test_equality_at_one_conductor_agrees_with_the_difference(a, b, k):
    # operands lifted to one conductor compare their terms; the weights may
    # be ints or integral Fractions, and the sum x + y - y may re-form terms
    (x, _), (y, _) = a, b
    D = math.lcm(x.D, y.D, 120)
    theta = ThetaMatrix.from_upper(2, {(0, 1): Fraction(1, D)})
    x, y = x * Coeff.from_exponent(0, theta), y * Coeff.from_exponent(k * D // 24, theta)
    assert x.D == y.D == D
    for u, v in ((x, y), (x, x + y - y), (x + y, y + x), (x.scale(2), x + x)):
        assert (u == v) == (u - v).is_zero()
    assert x + y - y == x and (x == x + Coeff.rational(1).times_exponent(0, D)) is False


# Exact coefficients are sums in the group ring Q[Z/D], not numbers of the
# cyclotomic field Q(zeta_D): a vanishing sum of roots of unity is a nonzero
# dict.  These hold once every Coeff is reduced to a basis of Q(zeta_D).
CYCLOTOMIC = pytest.mark.xfail(strict=True, reason="Coeff is not reduced mod the "
                               "cyclotomic polynomial")


@CYCLOTOMIC
def test_one_plus_minus_one_phase_is_zero():
    assert (Coeff.rational(1) + Coeff.from_phase(Fraction(1, 2), RATIONAL)).is_zero()


@CYCLOTOMIC
def test_the_cube_roots_of_unity_sum_to_zero():
    roots = [Coeff.from_phase(Fraction(k, 3), RATIONAL) for k in range(3)]
    assert (roots[0] + roots[1] + roots[2]).is_zero()


@CYCLOTOMIC
def test_minus_one_equals_the_half_phase():
    assert Coeff.rational(-1) == Coeff.from_phase(Fraction(1, 2), RATIONAL)
