"""Float twists are exact: each entry is its exact double, a dyadic m/2^e.

A float twist and the rational twist of the same ``Fraction`` entries share
one table and one conductor, so the words of every construction agree and
only the float amplitudes round.
"""

import json
import random
from fractions import Fraction

import pytest

from conftest import random_float_theta, rng_for
from heegaard.bundles import chern_galois_projector, strong_connection
from heegaard.cli import main
from heegaard.phases import FLOAT, RATIONAL, ThetaMatrix
from heegaard.quotients import cocycle_check
from heegaard.serialize import theta_from_obj, theta_to_obj

EXTREME = {"n": 3, "mode": "float",
           "upper": [[0, 1, 5e-324], [0, 2, 1e300], [1, 2, 0.1]]}


def _assert_close(got, want):
    """Same words, and coefficients within 1e-12."""
    assert got.terms.keys() == want.terms.keys()
    for m, c in got.terms.items():
        assert abs(c.to_complex() - want.terms[m].to_complex()) < 1e-12, m


def test_a_float_entry_is_its_exact_double():
    th = theta_from_obj(EXTREME)
    assert th.entry(1, 2) == Fraction(0.1) == Fraction(3602879701896397, 2 ** 55)
    assert th.entry(0, 1) == Fraction(1, 2 ** 1074)
    assert th.entry(2, 0) == -Fraction(1e300) and Fraction(1e300).denominator == 1
    assert th.conductor == 2 ** 1074


@pytest.mark.parametrize("N", [1, 2, 3])
def test_float_and_rational_twists_of_the_same_entries_agree(N):
    fl = random_float_theta(N + 1, rng_for(f"cross-mode-{N}"))
    ex = ThetaMatrix.from_upper(N + 1, dict(fl.upper), mode=RATIONAL)
    assert fl.table == ex.table and fl.conductor == ex.conductor
    for n in (-2, 1):
        a, b = strong_connection(n, fl), strong_connection(n, ex)
        assert len(a.summands) == len(b.summands)
        for (la, ra), (lb, rb) in zip(a.summands, b.summands):
            _assert_close(la, lb)
            _assert_close(ra, rb)
        e, f = chern_galois_projector(n, fl), chern_galois_projector(n, ex)
        assert e.size == f.size
        for row_e, row_f in zip(e.entries, f.entries):
            for x, y in zip(row_e, row_f):
                _assert_close(x, y)
    assert [w[:4] for w in cocycle_check(fl)] == [w[:4] for w in cocycle_check(ex)]


def test_a_float_entry_is_read_mod_one():
    # an integral entry (every double from 2^53 on) gives the phases of 0, and
    # an entry past 1 gives those of its fractional part, to float rounding
    for upper, reduced in [
            ({(0, 1): 5e-324, (0, 2): 1e300, (1, 2): 0.1},
             {(0, 1): 5e-324, (1, 2): 0.1}),
            ({(0, 1): 0.3, (0, 2): 100000.3, (1, 2): -2.75},
             {(0, 1): 0.3, (0, 2): 100000.3 - 100000, (1, 2): -0.75})]:
        th, fr = (ThetaMatrix.from_upper(3, u, mode=FLOAT) for u in (upper, reduced))
        assert th.table == fr.table
        for n in (-3, 2):
            e, f = chern_galois_projector(n, th), chern_galois_projector(n, fr)
            for row_e, row_f in zip(e.entries, f.entries):
                for x, y in zip(row_e, row_f):
                    _assert_close(x, y)


@pytest.mark.parametrize("argv", [("verify", "--n", "-2"), ("invariant", "--n", "-2"),
                                  ("cocycle",), ("residual", "--M", "3"),
                                  ("projector", "--n", "-2"), ("connection", "--n", "-2")])
def test_extreme_float_entries_run_every_command(capsys, argv):
    code = main([*argv, "--N", "2", "--theta", json.dumps(EXTREME)])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_float_twist_json_roundtrips_to_the_same_document():
    rng = random.Random(7)
    docs = [EXTREME,
            {"n": 3, "mode": "float",
             "upper": [[0, 1, -5e-324], [0, 2, -1e300], [1, 2, -0.1]]}]
    docs += [{"n": 4, "mode": "float",
              "upper": [[j, k, rng.choice([1, -1]) * rng.uniform(1e-9, 1e9)]
                        for j in range(4) for k in range(j + 1, 4)]} for _ in range(20)]
    for o in docs:
        assert theta_to_obj(theta_from_obj(o)) == o
