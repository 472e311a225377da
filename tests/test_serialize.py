from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_float_theta, rng_for
from heegaard import (AlgebraElement, Coeff, chern_galois_projector, generator,
                      serialize, strong_connection, unit)
from heegaard.algebra import Context
from heegaard.bundles import ProjectorMatrix
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


def _record(p, q, num, den, a=1, b=1):
    return {"p": p, "q": q, "re": 0.0, "im": 0.0,
            "phase_num": num, "phase_den": den, "amp_num": a, "amp_den": b}


def test_cell_term_errors_keep_their_paths():
    th = ThetaMatrix.random_rational(2, seed=6)
    conn = tensor_to_obj(strong_connection(-1, 1, th))
    conn["summands"][0]["left"][0]["p"] = [1]
    with pytest.raises(SchemaError) as exc:
        tensor_from_obj(conn)
    assert exc.value.path == "tensor.summands[0].left.terms[0].p"

    proj = projector_to_obj(chern_galois_projector(-1, 1, th))
    proj["entries"][1][0][0]["phase_den"] = 0
    with pytest.raises(SchemaError) as exc:
        projector_from_obj(proj)
    assert exc.value.path == "projector.entries[1][0].terms[0].phase_den"

    proj["entries"][1][0] = {}
    with pytest.raises(SchemaError) as exc:
        projector_from_obj(proj)
    assert exc.value.path == "projector.entries[1][0].terms"


def test_projector_context_is_read_once_at_its_own_path():
    th = ThetaMatrix.random_rational(2, seed=6)
    proj = projector_to_obj(chern_galois_projector(-1, 1, th))
    proj["context"]["theta"]["upper"] = [[0, 1, 1, 0]]
    with pytest.raises(SchemaError) as exc:
        projector_from_obj(proj)
    assert exc.value.path == "projector.context.theta.upper[0][3]"
    # an empty projector's context is validated too
    empty = {"n": 0, "size": 0, "entries": [], "context": {"kind": "sphere"}}
    with pytest.raises(SchemaError) as exc:
        projector_from_obj(empty)
    assert exc.value.path == "projector.context.unitary"


def test_theta_is_parsed_once_per_document(monkeypatch):
    th = ThetaMatrix.random_rational(2, seed=6)
    docs = [(tensor_from_obj, tensor_to_obj(strong_connection(-2, 1, th))),
            (projector_from_obj, projector_to_obj(chern_galois_projector(-2, 1, th))),
            (element_from_obj, element_to_obj(generator(Context.sphere(th), 0)))]
    calls = []
    parse = serialize.theta_from_obj

    def counting(obj, path="theta"):
        calls.append(path)
        return parse(obj, path)

    monkeypatch.setattr(serialize, "theta_from_obj", counting)
    for reader, obj in docs:
        calls.clear()
        reader(obj)
        assert len(calls) == 1, (reader.__name__, calls)


def test_records_of_one_word_sum_into_one_term(monkeypatch):
    th = ThetaMatrix.random_rational(2, seed=3)
    ctx = Context.toeplitz(th)
    obj = {"context": serialize.context_to_obj(ctx),
           "terms": [_record([1, 0], [0, 1], 1, 8, 2, 3),
                     _record([0, 0], [0, 0], 0, 1),
                     _record([1, 0], [0, 1], 1, 4, -1, 1),
                     _record([1, 0], [0, 1], 1, 8, 1, 3)]}
    want = AlgebraElement.monomial(ctx, (1, 0), (0, 1), Coeff.from_phase(Fraction(1, 8), RATIONAL)
                                   - Coeff.from_phase(Fraction(1, 4), RATIONAL)) + unit(ctx)
    sums = []
    add = AlgebraElement.__add__
    monkeypatch.setattr(AlgebraElement, "__add__",
                        lambda a, b: sums.append(1) or add(a, b))
    x = element_from_obj(obj)
    assert not sums
    monkeypatch.undo()
    assert len(x.terms) == 2 and x == want
    assert to_json(element_to_obj(x)) == to_json(element_to_obj(want))


def test_noncanonical_words_are_reduced():
    th = ThetaMatrix.random_rational(2, seed=5)
    for ctx in (Context.sphere(th), Context.quotient(th, 0), Context.quotient(th, 0, 1)):
        obj = {"context": serialize.context_to_obj(ctx),
               "terms": [_record([2, 1], [1, 1], 3, 8), _record([0, 1], [0, 0], 1, 2),
                         _record([2, 1], [1, 1], 1, 8, 1, 2)]}
        c = Coeff.from_phase(Fraction(3, 8), RATIONAL) \
            + Coeff.from_phase(Fraction(1, 8), RATIONAL, Fraction(1, 2))
        want = AlgebraElement.monomial(ctx, (2, 1), (1, 1), c) \
            + AlgebraElement.monomial(ctx, (0, 1), (0, 0), Coeff.from_phase(Fraction(1, 2), RATIONAL))
        assert element_from_obj(obj) == want


def test_rational_records_are_parsed_at_the_conductor():
    th = ThetaMatrix.random_rational(3, seed=2, den=8)
    assert th.conductor == 8
    ctx = Context.toeplitz(th)
    cases = [((0, 1), 8), ((1, 2), 8), ((3, 4), 8), ((-1, -8), 8), ((5, 8), 8),
             ((1, 3), 24), ((1, -6), 24)]
    for (num, den), D in cases:
        obj = {"context": serialize.context_to_obj(ctx),
               "terms": [_record([1, 0, 0], [0, 0, 1], num, den, 2, 3)]}
        (c,) = element_from_obj(obj).terms.values()
        assert c.D == D, (num, den)
        assert c == Coeff.from_phase(Fraction(num, den), RATIONAL, Fraction(2, 3))
    # a zero amplitude adds nothing
    obj["terms"].append(_record([1, 0, 0], [0, 0, 1], 1, 8, 0, 5))
    assert element_from_obj(obj) == element_from_obj({**obj, "terms": obj["terms"][:1]})


def _float_cases():
    th = random_float_theta(2, rng_for("serialize-float"))
    rng = rng_for("serialize-float-elements")
    for ctx in (Context.toeplitz(th), Context.sphere(th)):
        yield element_to_obj, element_from_obj, random_element(ctx, rng, nterms=5)
    yield tensor_to_obj, tensor_from_obj, strong_connection(-2, 1, th)
    yield projector_to_obj, projector_from_obj, chern_galois_projector(-1, 1, th)


def _value(x):
    if isinstance(x, ProjectorMatrix):
        return x.winding, x.entries
    if isinstance(x, AlgebraElement):
        return x.ctx, x
    return x.ctx, x.summands


@pytest.mark.parametrize("emit,parse,x", list(_float_cases()),
                         ids=["toeplitz", "sphere", "tensor", "projector"])
def test_float_roundtrip(emit, parse, x):
    text = to_json(emit(x))
    assert '"re":' in text and "phase_num" not in text
    y = parse(from_json(text))
    assert _value(y) == _value(x)
    assert to_json(emit(y)) == text


def test_unknown_mode_rejected():
    with pytest.raises(SchemaError):
        theta_from_obj({"n": 2, "mode": "decimal", "upper": []})


def test_empty_projector_is_refused():
    with pytest.raises(ValueError, match="empty projector"):
        ProjectorMatrix(0, ())
    th = ThetaMatrix.random_rational(2, seed=6)
    empty = {"n": 0, "size": 0, "entries": [],
             "context": serialize.context_to_obj(Context.sphere(th))}
    with pytest.raises(SchemaError) as exc:
        projector_from_obj(empty)
    assert exc.value.path == "projector.size"
