import random
import zlib
from fractions import Fraction

from heegaard import AlgebraElement, Coeff
from heegaard.algebra import Context
from heegaard.phases import ThetaMatrix


def random_element(ctx: Context, rng: random.Random,
                   nterms: int = 3, degree: int = 3) -> AlgebraElement:
    """Random combination of canonical words with phase-times-rational
    coefficients; exact in rational mode."""
    out = AlgebraElement.zero(ctx)
    for _ in range(nterms):
        d = rng.randrange(degree + 1)
        p = [0] * ctx.n
        q = [0] * ctx.n
        for _ in range(d):
            (p if rng.random() < 0.5 else q)[rng.randrange(ctx.n)] += 1
        c = Coeff.from_phase(Fraction(rng.randrange(8), 8), ctx.mode,
                             Fraction(rng.randrange(-3, 4) or 1))
        out = out + AlgebraElement.monomial(ctx, p, q, c)
    return out


def rng_for(name: str) -> random.Random:
    return random.Random(zlib.crc32(name.encode()))


def random_float_theta(n: int, rng: random.Random) -> ThetaMatrix:
    """Float-mode twist with entries drawn from (-1, 1)."""
    return ThetaMatrix.from_upper(
        n, {(j, k): rng.uniform(-1, 1) for j in range(n) for k in range(j + 1, n)},
        mode="float")
