"""Scalar coefficients: exact combinations of unimodular phases.

In rational mode a coefficient is a finite sum  sum_k  w_k * e^{2*pi*i*k/D}
with rational weights w_k (ints when integral) and integer exponents k mod
a conductor D; operands with different conductors are lifted to the lcm.
Addition, multiplication, conjugation and equality are exact; in particular
i itself is the phase 1/4, so Gaussian-rational amplitudes need no separate
real/imaginary bookkeeping.

In float mode a coefficient is a plain complex number and comparisons use
``FLOAT_TOL``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

from .phases import FLOAT, FLOAT_TOL, RATIONAL


def _common(a: "Coeff", b: "Coeff"):
    """The lcm D of two conductors, and the terms of a and of b over it."""
    if a.D == b.D:
        return a.D, a.terms, b.terms
    D = lcm(a.D, b.D)
    return D, *({k * (D // c.D): w for k, w in c.terms.items()} for c in (a, b))


class Coeff:
    """Immutable scalar; ``mode`` selects exact or floating arithmetic."""

    __slots__ = ("mode", "D", "terms", "value")

    def __init__(self, mode, parts=None, value=0j):
        self.mode = mode
        if mode == RATIONAL:
            c = sum((Coeff.from_phase(t, mode, w) for t, w in (parts or {}).items()),
                    Coeff.zero(mode))
            self.D, self.terms, self.value = c.D, c.terms, None
        else:
            self.value = complex(value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode):
        return cls(mode) if mode == FLOAT else _exact(1, {})

    @classmethod
    def one(cls, mode):
        return _exact(1, {0: 1}) if mode == RATIONAL else cls(FLOAT, value=1.0)

    @classmethod
    def rational(cls, w) -> "Coeff":
        w = Fraction(w)
        w = w.numerator if w.denominator == 1 else w
        return _exact(1, {0: w} if w else {})

    @classmethod
    def from_phase(cls, t, mode, weight=1) -> "Coeff":
        """weight * e^{2*pi*i*t}."""
        if mode == RATIONAL:
            t = Fraction(t)
            return cls.rational(weight).times_exponent(t.numerator, t.denominator)
        return cls(FLOAT, value=weight * cmath.exp(2j * cmath.pi * float(t)))

    @classmethod
    def from_exponent(cls, k, theta, weight=1) -> "Coeff":
        """weight * e(k/D) for an exponent k over ``theta``'s conductor D."""
        return cls.one(theta.mode).times_exponent(k, theta.conductor, weight)

    @classmethod
    def from_complex(cls, z) -> "Coeff":
        return cls(FLOAT, value=z)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value + other.value)
        D, terms, others = _common(self, other)
        terms = dict(terms)
        for k, w in others.items():
            s = terms.get(k, 0) + w
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return _exact(D, terms)

    def __neg__(self) -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=-self.value)
        return _exact(self.D, {k: -w for k, w in self.terms.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value * other.value)
        D, terms, others = _common(self, other)
        out = {}
        for k1, w1 in terms.items():
            for k2, w2 in others.items():
                k = (k1 + k2) % D
                s = out.get(k, 0) + w1 * w2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _exact(D, out)

    def conj(self) -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value.conjugate())
        return _exact(self.D, {-k % self.D: w for k, w in self.terms.items()})

    def times_phase(self, t) -> "Coeff":
        """Multiply by e^{2*pi*i*t}."""
        return self * Coeff.from_phase(t, self.mode)

    def times_exponent(self, k, D, weight=1) -> "Coeff":
        """Multiply by weight * e(k/D) for an exponent k over a conductor D
        (1 in float mode); free when k = 0 mod D and weight is 1."""
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value * (weight * cmath.exp(2j * cmath.pi * k)))
        L = lcm(self.D, D)
        a, b = L // self.D, k * (L // D) % L
        if not b and weight == 1:
            return self
        return _exact(L, {(t * a + b) % L: w * weight for t, w in self.terms.items()})

    def scale(self, w) -> "Coeff":
        """Multiply by a rational (or real/complex in float mode) scalar."""
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value * w)
        return self * Coeff.rational(w)

    def inverse(self) -> "Coeff":
        """Exact inverse; in rational mode only single-phase coefficients
        (weight * e^{2*pi*i*t}) are invertible here."""
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=1.0 / self.value)
        if len(self.terms) != 1:
            raise ArithmeticError("can only invert single-phase coefficients exactly")
        (k, w), = self.terms.items()
        return Coeff.rational(Fraction(1) / w).times_exponent(-k, self.D)

    # -- queries -----------------------------------------------------------

    @property
    def parts(self):
        """Read-only {Fraction exponent in [0, 1): weight}; None in float mode."""
        if self.mode == FLOAT:
            return None
        return {Fraction(k, self.D): w for k, w in self.terms.items()}

    def is_zero(self) -> bool:
        if self.mode == FLOAT:
            return abs(self.value) < FLOAT_TOL
        return not self.terms

    def is_single_phase(self) -> bool:
        return self.mode == FLOAT or len(self.terms) == 1

    def to_complex(self) -> complex:
        if self.mode == FLOAT:
            return self.value
        return sum((complex(w) * cmath.exp(2j * cmath.pi * (k / self.D))
                    for k, w in self.terms.items()), 0j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        if self.mode != other.mode:
            return False
        if self.mode == FLOAT:
            return abs(self.value - other.value) < FLOAT_TOL
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("Coeff is not hashable")

    def __repr__(self):
        if self.mode == FLOAT:
            return f"Coeff({self.value!r})"
        body = " + ".join(f"{w}*e(2pi*{t})" for t, w in sorted(self.parts.items()))
        return f"Coeff({body or 0})"


def _exact(D: int, terms: dict) -> Coeff:
    """Rational-mode Coeff of {exponent mod D: nonzero weight}, unchecked."""
    c = object.__new__(Coeff)
    c.mode, c.D, c.terms, c.value = RATIONAL, D, terms, None
    return c
