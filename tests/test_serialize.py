from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, rng_for
from heegaard import (AlgebraElement, Coeff, chern_galois_projector, generator,
                      strong_connection, unit)
from heegaard.algebra import Context
from heegaard.phases import RATIONAL, ThetaMatrix
from heegaard.serialize import (SchemaError, element_from_obj, element_to_obj,
                                from_json, projector_from_obj,
                                projector_to_obj, tensor_from_obj,
                                tensor_to_obj, theta_from_obj, theta_to_obj,
                                to_json)


def test_theta_roundtrip():
    for th in [ThetaMatrix.zero(3),
               ThetaMatrix.random_rational(4, seed=5),
               ThetaMatrix.from_upper(2, {(0, 1): 0.25}, mode="float")]:
        assert theta_from_obj(theta_to_obj(th)) == th


def test_element_roundtrip_examples():
    th = ThetaMatrix.random_rational(2, seed=1)
    ctx = Context.toeplitz(th)
    s0, s1 = generator(ctx, 0), generator(ctx, 1)
    x = s0 * s1.star() + unit(ctx).scale(Fraction(2, 3)) \
        + s1.times_coeff(Coeff.from_phase(Fraction(1, 8), RATIONAL))
    obj = element_to_obj(x)
    assert element_from_obj(obj) == x
    # byte-identical canonical JSON round trip
    text = to_json(obj)
    assert to_json(element_to_obj(element_from_obj(from_json(text)))) == text


def test_element_roundtrip_random():
    rng = rng_for("serialize-random")
    for seed in (None, 2, 3):
        th = ThetaMatrix.zero(3) if seed is None else ThetaMatrix.random_rational(3, seed=seed)
        for kind in ("toeplitz", "sphere"):
            ctx = Context.toeplitz(th) if kind == "toeplitz" else Context.sphere(th)
            for _ in range(10):
                x = random_element(ctx, rng)
                text = to_json(element_to_obj(x))
                y = element_from_obj(from_json(text))
                assert y == x and y.ctx == ctx
                assert to_json(element_to_obj(y)) == text


phases = st.fractions(min_value=0, max_value=1, max_denominator=12)
weights = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
vecs = st.lists(st.integers(0, 3), min_size=2, max_size=2).map(tuple)


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(st.tuples(vecs, vecs, phases, weights), max_size=4),
       seed=st.integers(0, 3))
def test_element_roundtrip_hypothesis(terms, seed):
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=seed))
    x = AlgebraElement.zero(ctx)
    for p, q, t, w in terms:
        x = x + AlgebraElement.monomial(ctx, p, q, Coeff.from_phase(t, RATIONAL, w))
    text = to_json(element_to_obj(x))
    y = element_from_obj(from_json(text))
    assert y == x
    assert to_json(element_to_obj(y)) == text


def test_tensor_roundtrip():
    th = ThetaMatrix.random_rational(2, seed=4)
    for n in (-2, 0, 2):
        conn = strong_connection(n, 1, th)
        obj = tensor_to_obj(conn)
        back = tensor_from_obj(obj)
        assert back.summands == conn.summands
        assert to_json(tensor_to_obj(back)) == to_json(obj)


def test_projector_roundtrip():
    th = ThetaMatrix.random_rational(2, seed=6)
    e = chern_galois_projector(-1, 1, th)
    obj = projector_to_obj(e)
    back = projector_from_obj(obj)
    assert back.winding == e.winding
    assert back.entries == e.entries
    assert back.is_idempotent()
    assert to_json(projector_to_obj(back)) == to_json(obj)


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as exc:
        theta_from_obj({"n": 2, "mode": "rational",
                        "upper": [[0, 1, 1, 0]]})
    assert "upper[0][3]" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        theta_from_obj({"n": 2, "mode": "rational", "upper": [[1, 0, 1, 2]]})
    assert "0 <= j < k < n" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        theta_from_obj({"n": 2, "mode": "rational",
                        "upper": [[0, 1, 1, 3], [0, 1, 1, 4]]})
    assert exc.value.path == "theta.upper[1]"
    assert "duplicate entry (0, 1)" in str(exc.value)

    ctx_obj = {"kind": "toeplitz", "unitary": [],
               "theta": theta_to_obj(ThetaMatrix.zero(2))}
    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": ctx_obj,
                          "terms": [{"p": [1, 0], "q": [0, 0],
                                     "re": 1.0, "im": 0.0,
                                     "phase_num": 0, "phase_den": 0,
                                     "amp_num": 1, "amp_den": 1}]})
    assert "phase_den" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": ctx_obj,
                          "terms": [{"p": [1], "q": [0, 0],
                                     "re": 1.0, "im": 0.0,
                                     "phase_num": 0, "phase_den": 1,
                                     "amp_num": 1, "amp_den": 1}]})
    assert "terms[0].p" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": ctx_obj,
                          "terms": [{"p": [True, 0], "q": [0, 0],
                                     "re": 1.0, "im": 0.0,
                                     "phase_num": 0, "phase_den": 1,
                                     "amp_num": 1, "amp_den": 1}]})
    assert "terms[0].p" in str(exc.value)

    with pytest.raises(SchemaError):
        from_json("{not json")


def test_unknown_mode_rejected():
    with pytest.raises(SchemaError):
        theta_from_obj({"n": 2, "mode": "decimal", "upper": []})
