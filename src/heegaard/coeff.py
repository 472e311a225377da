"""Scalar coefficients: exact combinations of unimodular phases.

In rational mode a coefficient is a finite sum  sum_t  w_t * e^{2*pi*i*t}
with rational weights w_t and rational exponents t in [0, 1).  Addition,
multiplication, conjugation and equality are exact; in particular i itself
is the phase t = 1/4, so Gaussian-rational amplitudes need no separate
real/imaginary bookkeeping.

In float mode a coefficient is a plain complex number and comparisons use
``FLOAT_TOL``.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .phases import FLOAT, FLOAT_TOL, RATIONAL, phase_mod1


class Coeff:
    """Immutable scalar; ``mode`` selects exact or floating arithmetic."""

    __slots__ = ("mode", "parts", "value")

    def __init__(self, mode, parts=None, value=0j):
        self.mode = mode
        if mode == RATIONAL:
            self.parts = dict(parts or {})   # Fraction phase -> Fraction weight
            self.value = None
        else:
            self.parts = None
            self.value = complex(value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode):
        return cls(mode) if mode == FLOAT else cls(mode, {})

    @classmethod
    def one(cls, mode):
        return cls.rational(Fraction(1)) if mode == RATIONAL else cls(FLOAT, value=1.0)

    @classmethod
    def rational(cls, w) -> "Coeff":
        w = Fraction(w)
        return cls(RATIONAL, {Fraction(0): w} if w else {})

    @classmethod
    def from_phase(cls, t, mode, weight=1) -> "Coeff":
        """weight * e^{2*pi*i*t}."""
        if mode == RATIONAL:
            w = Fraction(weight)
            return cls(RATIONAL, {phase_mod1(Fraction(t)): w} if w else {})
        return cls(FLOAT, value=weight * cmath.exp(2j * cmath.pi * float(t)))

    @classmethod
    def from_complex(cls, z) -> "Coeff":
        return cls(FLOAT, value=z)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Coeff") -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value + other.value)
        parts = dict(self.parts)
        for t, w in other.parts.items():
            s = parts.get(t, Fraction(0)) + w
            if s:
                parts[t] = s
            else:
                parts.pop(t, None)
        return Coeff(RATIONAL, parts)

    def __neg__(self) -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=-self.value)
        return Coeff(RATIONAL, {t: -w for t, w in self.parts.items()})

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value * other.value)
        parts = {}
        for t1, w1 in self.parts.items():
            for t2, w2 in other.parts.items():
                t = phase_mod1(t1 + t2)
                s = parts.get(t, Fraction(0)) + w1 * w2
                if s:
                    parts[t] = s
                else:
                    parts.pop(t, None)
        return Coeff(RATIONAL, parts)

    def conj(self) -> "Coeff":
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value.conjugate())
        return Coeff(RATIONAL, {phase_mod1(-t): w for t, w in self.parts.items()})

    def times_phase(self, t) -> "Coeff":
        """Multiply by e^{2*pi*i*t}."""
        return self * Coeff.from_phase(t, self.mode)

    def scale(self, w) -> "Coeff":
        """Multiply by a rational (or real/complex in float mode) scalar."""
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=self.value * w)
        w = Fraction(w)
        if not w:
            return Coeff.zero(RATIONAL)
        return Coeff(RATIONAL, {t: c * w for t, c in self.parts.items()})

    def inverse(self) -> "Coeff":
        """Exact inverse; in rational mode only single-phase coefficients
        (weight * e^{2*pi*i*t}) are invertible here."""
        if self.mode == FLOAT:
            return Coeff(FLOAT, value=1.0 / self.value)
        if len(self.parts) != 1:
            raise ArithmeticError("can only invert single-phase coefficients exactly")
        (t, w), = self.parts.items()
        return Coeff(RATIONAL, {phase_mod1(-t): 1 / w})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.mode == FLOAT:
            return abs(self.value) < FLOAT_TOL
        return not self.parts

    def is_single_phase(self) -> bool:
        return self.mode == FLOAT or len(self.parts) == 1

    def to_complex(self) -> complex:
        if self.mode == FLOAT:
            return self.value
        return sum((complex(w) * cmath.exp(2j * cmath.pi * float(t))
                    for t, w in self.parts.items()), 0j)

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
