"""Twist matrices and exact phase exponents.

Phases are kept as exponents t of e^{2*pi*i*t}: a ``Fraction``, or the
integer t*D over the twist's conductor D, exact in both modes.  A float
twist entry is its exact double, a dyadic m/2^e (0.1 is
3602879701896397/2^55), so the mode chooses only the scalar class:
float-mode scalars are complex amplitudes that compare with tolerance
``FLOAT_TOL``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable

RATIONAL = "rational"
FLOAT = "float"

FLOAT_TOL = 1e-12


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ThetaMatrix:
    """Antisymmetric (N+1)x(N+1) twist matrix.

    Only the strict upper triangle is stored, which makes antisymmetry a
    structural invariant rather than a runtime check.  Every entry is a
    ``Fraction``; ``mode`` picks the scalar class of the algebra over it.
    """

    n: int                      # number of generators, N+1
    mode: str
    upper: tuple                # tuple of ((j, k), value) with j < k, sorted

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one generator")
        if self.mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {self.mode!r}")
        for (j, k), v in self.upper:
            if not (0 <= j < k < self.n):
                raise ValueError(f"bad index pair ({j},{k})")
            if not isinstance(v, Fraction):
                raise TypeError("twist entries must be Fractions")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, mode: str = RATIONAL) -> "ThetaMatrix":
        return cls(n, mode, ())

    @classmethod
    def from_upper(cls, n: int, entries: dict, mode: str = RATIONAL) -> "ThetaMatrix":
        """Build from a {(j, k): value} dict; (k, j) stands for (j, k) with the
        value negated, and a pair may be given only one way.  A float value
        is kept as its exact double."""
        items = {}
        for (j, k), v in entries.items():
            if j == k:
                if v:
                    raise ValueError("diagonal must vanish")
                continue
            if j > k:
                j, k, v = k, j, -v
            if (j, k) in items:
                raise ValueError(f"pair {(j, k)} given as both {(j, k)} and {(k, j)}")
            items[(j, k)] = Fraction(v)
        return cls(n, mode, tuple(sorted((jk, v) for jk, v in items.items() if v)))

    @classmethod
    def random_rational(cls, n: int, seed: int, den: int = 8) -> "ThetaMatrix":
        """Reproducible rational twist with entries j/den, antisymmetrized."""
        rng = random.Random(seed)
        entries = {}
        for j in range(n):
            for k in range(j + 1, n):
                entries[(j, k)] = Fraction(rng.randrange(1 - den, den), den)
        return cls.from_upper(n, entries)

    # -- access ------------------------------------------------------------

    def entry(self, j: int, k: int):
        if not (0 <= j < self.n and 0 <= k < self.n):
            raise IndexError(f"index out of range: ({j},{k})")
        if j != k:
            key = (j, k) if j < k else (k, j)
            for kk, v in self.upper:
                if kk == key:
                    return v if j < k else -v
        return Fraction(0)

    @cached_property
    def conductor(self) -> int:
        """D with every entry in (1/D)Z: the lcm of the entries' denominators,
        a power of 2 for a float twist."""
        return lcm(1, *(v.denominator for _, v in self.upper))

    @cached_property
    def table(self) -> tuple:
        """Dense antisymmetric table of ints ``table[j][k] ==
        frac_part(entry(j, k)) * conductor``, from one read of each pair
        j < k.  A phase reads an entry only mod 1, and an integer part left
        in would reach a float phase's argument: at an entry of 1e300 e(k/D)
        would be evaluated at k/D near 1e300 and lose every digit."""
        n, D = self.n, self.conductor
        rows = [[0] * n for _ in range(n)]
        for j, k in combinations(range(n), 2):
            v = frac_part(self.entry(j, k))
            rows[j][k] = v.numerator * (D // v.denominator)
            rows[k][j] = -rows[j][k]
        return tuple(map(tuple, rows))

    def __repr__(self):
        return f"ThetaMatrix(n={self.n}, mode={self.mode}, upper={dict(self.upper)})"


def frac_part(t):
    """t - int(t), the fractional part on which a phase e(t) depends alone;
    exact for ``Fraction`` and ``float``, and t untouched when |t| < 1."""
    whole = int(t)
    return t - whole if whole else t


def check_dims(theta: ThetaMatrix, *indices: Iterable[int]) -> None:
    for mu in indices:
        if len(mu) != theta.n:
            raise DimensionMismatch(
                f"multi-index of length {len(mu)} against matrix of size {theta.n}")
