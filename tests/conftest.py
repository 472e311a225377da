import json
import random
import zlib
from fractions import Fraction

from heegaard import AlgebraElement, Coeff, unit
from heegaard.algebra import Context
from heegaard.phases import ThetaMatrix
from heegaard.quotients import MultipullbackTuple
from heegaard.serialize import element_to_obj


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


def power_twist(n: int, pairs) -> ThetaMatrix:
    """The rational twist with theta_jk = 1/3^3000, 1/5^2100, 1/7^1750 at
    the three ``pairs`` (j, k): each denominator has about 1450 digits and
    the conductor has 4379, over the 4300 digits ``repr`` writes of an int."""
    return ThetaMatrix.from_upper(n, {jk: Fraction(1, b ** e) for jk, (b, e)
                                      in zip(pairs, [(3, 3000), (5, 2100), (7, 1750)])})


def overlong_glue_inputs() -> dict:
    """Two glue inputs, by name, whose output needs an int of over 4300
    digits.  "split-unit.json": the tuple of the unit at N = 1 and the zero
    twist, each component's record split into the amplitudes 1/3^4500 and
    1/5^3100, so the lift's amplitude has a denominator of 4314 digits.
    "power-witness.json": at N = 3 over ``power_twist``, component 1 is
    W_(1,1,1,1) W_(1,0,0,0)* and the others 0, an incompatible tuple whose
    exit-1 witness has a phase over the 4379-digit conductor."""
    comps = [element_to_obj(c) for c in MultipullbackTuple.from_element(
        unit(Context.toeplitz(ThetaMatrix.zero(2)))).components]
    for c in comps:
        (rec,) = c["terms"]
        c["terms"] = [{**rec, "amp_num": 1, "amp_den": b} for b in (3 ** 4500, 5 ** 3100)]
    theta = power_twist(4, [(0, 1), (0, 2), (0, 3)])
    witness = [AlgebraElement.zero(Context.quotient(theta, i)) for i in range(4)]
    witness[1] = AlgebraElement.monomial(witness[1].ctx, (1, 1, 1, 1), (1, 0, 0, 0))
    return {"split-unit.json": json.dumps({"components": comps}),
            "power-witness.json": json.dumps({"components": list(map(element_to_obj, witness))})}
