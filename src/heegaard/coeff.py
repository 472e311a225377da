"""Scalar coefficients: exact combinations of unimodular phases.

A coefficient is a finite sum  sum_k  w_k * e^{2*pi*i*k/D}, stored as
``terms`` {k mod D: w_k} over a conductor D; mixed conductors lift to the
lcm.  In rational mode (``Coeff``) the weights are rational (ints when
integral) and all arithmetic is exact; i itself is the phase 1/4, so
Gaussian-rational amplitudes need no real/imaginary bookkeeping.

In float mode (``FloatCoeff``) a complex z is the one-term sum {0: z}: C is
the group ring at conductor 1.  So the float class inherits the arithmetic
and overrides only how a phase is applied (folded into the weight), the
zero test (``FLOAT_TOL``) and the readers.  A phase e(k/D) arrives in both
modes as an exact integer k over the twist's conductor D.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import hypot, lcm
from operator import add, sub

from .phases import FLOAT, FLOAT_TOL, RATIONAL


def _common(a: "Coeff", b: "Coeff"):
    """The lcm D of two conductors, and the terms of a and of b lifted to it."""
    D = lcm(a.D, b.D)
    return D, *({k * (D // c.D): w for k, w in c.terms.items()} for c in (a, b))


def _new(cls, D: int, terms: dict) -> "Coeff":
    """A ``cls`` coefficient of {exponent mod D: weight}, unchecked."""
    c = object.__new__(cls)
    c.D, c.terms = D, terms
    return c


class Coeff:
    """Immutable exact scalar; results have the class of their operands."""

    __slots__ = ("D", "terms")
    mode = RATIONAL

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, w) -> "Coeff":
        w = w if type(w) is int else Fraction(w)
        w = w.numerator if w.denominator == 1 else w
        return _new(cls, 1, {0: w} if w else {})

    @classmethod
    def from_phase(cls, t, mode, weight=1) -> "Coeff":
        """weight * e^{2*pi*i*t}."""
        t = Fraction(t)
        return _CLASS[mode].rational(weight).times_exponent(t.numerator, t.denominator)

    @classmethod
    def from_exponent(cls, k, theta, weight=1) -> "Coeff":
        """weight * e(k/D) for an exponent k over ``theta``'s conductor D, kept
        at D so that its products with the twist's phases need no lift."""
        D = theta.conductor
        return _new(_CLASS[theta.mode], D, {0: 1}).times_exponent(k, D, weight)

    @classmethod
    def from_complex(cls, z) -> "FloatCoeff":
        return _new(FloatCoeff, 1, {0: complex(z)})

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Coeff", op) -> "Coeff":
        """self op other, op being + or -, part by part at a common conductor."""
        D = self.D
        if D == other.D:
            terms, others = dict(self.terms), other.terms
        else:
            D, terms, others = _common(self, other)
        for k, w in others.items():
            s = op(terms.get(k, 0), w)
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return _new(type(self), D, terms)

    def __add__(self, other: "Coeff") -> "Coeff":
        return self._combine(other, add)

    def __neg__(self) -> "Coeff":
        return _new(type(self), self.D, {k: -w for k, w in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self._combine(other, sub)

    def __mul__(self, other: "Coeff") -> "Coeff":
        D = self.D
        if D == other.D:
            terms, others = self.terms, other.terms
        else:
            D, terms, others = _common(self, other)
        out = {}
        for k1, w1 in terms.items():
            for k2, w2 in others.items():
                # no 0 + w1*w2 on a first product: it would flip a -0.0 part
                k, s = (k1 + k2) % D, w1 * w2
                if k in out:
                    s += out[k]
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _new(type(self), D, out)

    def conj(self) -> "Coeff":
        D = self.D
        return _new(type(self), D, {-k % D: w.conjugate() for k, w in self.terms.items()})

    def times_phase(self, t) -> "Coeff":
        """Multiply by e^{2*pi*i*t}."""
        return self * Coeff.from_phase(t, self.mode)

    def times_exponent(self, k, D, weight=1) -> "Coeff":
        """Multiply by weight * e(k/D) for an exponent k over a conductor D; at
        weight 1 free when k = 0 mod D, else shifted unmultiplied; no terms at 0."""
        L = lcm(self.D, D)
        a, b = L // self.D, k * (L // D) % L
        ts = self.terms.items()
        if weight == 1:
            return _new(Coeff, L, {(t * a + b) % L: w for t, w in ts}) if b else self
        return _new(Coeff, L, {(t * a + b) % L: w * weight for t, w in ts} if weight else {})

    def scale(self, w) -> "Coeff":
        """Multiply by a rational (or real/complex in float mode) scalar; it
        is built at this conductor, so the product needs no lift."""
        return self * _new(type(self), self.D, self.rational(w).terms)

    def inverse(self) -> "Coeff":
        """Exact inverse; only single-phase coefficients
        (weight * e^{2*pi*i*t}) are invertible here."""
        if len(self.terms) != 1:
            raise ArithmeticError("can only invert single-phase coefficients exactly")
        (k, w), = self.terms.items()
        return Coeff.rational(Fraction(1) / w).times_exponent(-k, self.D)

    # -- queries -----------------------------------------------------------

    @property
    def parts(self):
        """Read-only {Fraction exponent in [0, 1): weight}; None in float mode."""
        return {Fraction(k, self.D): w for k, w in self.terms.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def is_single_phase(self) -> bool:
        return len(self.terms) == 1

    def to_complex(self) -> complex:
        return sum((complex(w) * cmath.exp(2j * cmath.pi * (k / self.D))
                    for k, w in self.terms.items()), 0j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        if type(self) is not type(other):
            return False
        if self.D == other.D and self.mode == RATIONAL:   # no zero weight is stored
            return self.terms == other.terms
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Coeff is not hashable")

    def __repr__(self):
        body = " + ".join(f"{w}*e(2pi*{t})" for t, w in sorted(self.parts.items()))
        return f"Coeff({body or 0})"


class FloatCoeff(Coeff):
    """Complex scalar z, held as {0: z} at conductor 1; compares within ``FLOAT_TOL``."""

    __slots__ = ()
    mode = FLOAT

    @classmethod
    def rational(cls, w) -> "FloatCoeff":
        return _new(cls, 1, {0: complex(w)})

    def times_exponent(self, k, D, weight=1) -> "FloatCoeff":
        z = weight * cmath.exp(2j * cmath.pi * (k / D))
        return _new(FloatCoeff, 1, self.terms and {0: self.terms[0] * z})

    def inverse(self) -> "FloatCoeff":
        return _new(FloatCoeff, 1, {0: 1.0 / self.to_complex()})

    @property
    def parts(self):
        return None

    def is_zero(self) -> bool:
        return not self.terms or hypot(self.terms[0].real, self.terms[0].imag) < FLOAT_TOL

    def to_complex(self) -> complex:
        return self.terms.get(0, 0j)

    def __repr__(self):
        return f"Coeff({self.to_complex()!r})"


_CLASS = {RATIONAL: Coeff, FLOAT: FloatCoeff}
