import json
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_float_theta, rng_for
from reference_serialize import reference_dict
from heegaard import (AlgebraElement, Coeff, chern_galois_projector, generator,
                      serialize, strong_connection, unit)
from heegaard.algebra import Context
from heegaard.bundles import ProjectorMatrix, TensorElement
from heegaard.coeff import _new
from heegaard.phases import FLOAT, RATIONAL, ThetaMatrix
from heegaard import serialize
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
        conn = strong_connection(n, th)
        obj = tensor_to_obj(conn)
        back = tensor_from_obj(obj)
        assert back.summands == conn.summands
        assert to_json(tensor_to_obj(back)) == to_json(obj)


def test_projector_roundtrip():
    th = ThetaMatrix.random_rational(2, seed=6)
    e = chern_galois_projector(-1, th)
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
    conn = tensor_to_obj(strong_connection(-1, th))
    conn["summands"][0]["left"][0]["p"] = [1]
    with pytest.raises(SchemaError) as exc:
        tensor_from_obj(conn)
    assert exc.value.path == "tensor.summands[0].left.terms[0].p"

    proj = projector_to_obj(chern_galois_projector(-1, th))
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
    proj = projector_to_obj(chern_galois_projector(-1, th))
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
    docs = [(tensor_from_obj, tensor_to_obj(strong_connection(-2, th))),
            (projector_from_obj, projector_to_obj(chern_galois_projector(-2, th))),
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
    # a fully interior sphere word is read up to n = 8, where 2^(n-1) meets
    # the size cap, and reduces to its 2^n - 1 word normal form
    for n in range(1, 9):
        ctx = Context.sphere(ThetaMatrix.random_rational(n, seed=n))
        p, q = [2] + [1] * (n - 1), [1] * n
        obj = {"context": serialize.context_to_obj(ctx), "terms": [_record(p, q, 1, 4)]}
        want = AlgebraElement.monomial(ctx, p, q, Coeff.from_phase(Fraction(1, 4), RATIONAL))
        got = element_from_obj(obj)
        assert len(got.terms) == 2 ** n - 1 and repr(got) == repr(want), n


@pytest.mark.parametrize("twist", ["den-12", "float"])
def test_canonical_words_are_read_without_a_reduction(twist, monkeypatch):
    # the emitter writes only canonical words, so reading them back reduces
    # none on a unitary slot and gives the same bytes
    from heegaard import algebra
    rng = rng_for(f"serialize-canonical-{twist}")
    th = (ThetaMatrix.random_rational(3, seed=1, den=12) if twist == "den-12"
          else random_float_theta(3, rng))
    reduce, calls = algebra._unitary_reduce, []
    for ctx in (Context.quotient(th, 1), Context.quotient(th, 0, 2)):
        for _ in range(5):
            text = to_json(element_to_obj(random_element(ctx, rng, nterms=6, degree=4)))
            monkeypatch.setattr(algebra, "_unitary_reduce",
                                lambda *args: calls.append(args) or reduce(*args))
            y = element_from_obj(from_json(text))
            monkeypatch.undo()
            assert to_json(element_to_obj(y)) == text
    assert calls == []


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
    yield tensor_to_obj, tensor_from_obj, strong_connection(-2, th)
    yield projector_to_obj, projector_from_obj, chern_galois_projector(-1, th)


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


def _bad_record_cases():
    """(mutation of the second record, path, message) for every malformed
    record the reader refuses, in the words the schema has always used."""
    at = "element.terms[1]"
    for key in ("p", "q", "re", "im", "phase_num", "phase_den", "amp_num", "amp_den"):
        yield f"missing {key}", lambda r, k=key: r.pop(k), f"{at}.{key}", "missing field"
    words = "expected 2 non-negative integers"
    yield "true in p", lambda r: r.update(p=[True, 0]), f"{at}.p", words
    yield "false in q", lambda r: r.update(q=[0, False]), f"{at}.q", words
    for key in ("phase_num", "phase_den", "amp_num", "amp_den"):
        yield f"true as {key}", lambda r, k=key: r.update({k: True}), f"{at}.{key}", \
            "expected an integer"
        yield f"float as {key}", lambda r, k=key: r.update({k: 1.0}), f"{at}.{key}", \
            "expected an integer"
    yield "true as re", lambda r: r.update(re=True), f"{at}.re", "expected a number"
    for name, v in (("nan", float("nan")), ("inf", float("inf")), ("-inf", float("-inf")),
                    ("huge int", 10 ** 400)):
        yield f"{name} as re", lambda r, v=v: r.update(re=v), f"{at}.re", "expected a number"
        yield f"{name} as im", lambda r, v=v: r.update(im=v), f"{at}.im", "expected a number"
    yield "zero phase_den", lambda r: r.update(phase_den=0), f"{at}.phase_den", \
        "denominator must be nonzero"
    yield "zero amp_den", lambda r: r.update(amp_den=0), f"{at}.amp_den", \
        "denominator must be nonzero"
    yield "both denominators zero", lambda r: r.update(phase_den=0, amp_den=0), \
        f"{at}.phase_den", "denominator must be nonzero"
    yield "short p", lambda r: r.update(p=[1]), f"{at}.p", words
    yield "long q", lambda r: r.update(q=[0, 0, 0]), f"{at}.q", words
    yield "p not a list", lambda r: r.update(p=(1, 0)), f"{at}.p", words
    yield "negative exponent", lambda r: r.update(q=[0, -1]), f"{at}.q", words
    # the first failing check in schema order wins
    yield "bad p before missing re", lambda r: (r.pop("re"), r.update(p=[-1, 0])), \
        f"{at}.p", words
    yield "missing q before bad p", lambda r: (r.pop("q"), r.update(p=[-1, 0])), \
        f"{at}.q", "missing field"
    yield "bad im before missing amp_num", lambda r: (r.pop("amp_num"), r.update(im="0")), \
        f"{at}.im", "expected a number"
    yield "missing amp_den before bad phase_num", \
        lambda r: (r.pop("amp_den"), r.update(phase_num=0.5)), f"{at}.amp_den", "missing field"
    yield "bad amp_num before zero phase_den", \
        lambda r: r.update(amp_num=None, phase_den=0), f"{at}.amp_num", "expected an integer"


@pytest.mark.parametrize("mutate,path,message",
                         [case[1:] for case in _bad_record_cases()],
                         ids=[case[0] for case in _bad_record_cases()])
def test_malformed_records_raise_their_literal_path_and_message(mutate, path, message):
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=4))
    records = [_record([1, 0], [0, 1], 1, 8, 2, 3), _record([0, 2], [1, 0], 3, 4, -1, 2)]
    mutate(records[1])
    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": serialize.context_to_obj(ctx), "terms": records})
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


class _Int(int):
    pass


class _Float(float):
    pass


class _Record(dict):
    pass


def _accepted_variants():
    """(name, twist mode, change to the second record) for records that fail
    the one type test over a record's fields, yet pass every per-field check,
    so they read as their plain forms."""
    yield "int subclass in p", RATIONAL, lambda r: r.update(p=[_Int(a) for a in r["p"]])
    yield "int subclass as amp_num", RATIONAL, lambda r: r.update(amp_num=_Int(r["amp_num"]))
    yield "int subclass as phase_den", RATIONAL, \
        lambda r: r.update(phase_den=_Int(r["phase_den"]))
    for mode in (RATIONAL, "float"):
        yield f"float subclass as re ({mode})", mode, lambda r: r.update(re=_Float(r["re"]))
        yield f"extra keys ({mode})", mode, lambda r: r.update(note="x", phase=None)
        yield f"int as im ({mode})", mode, lambda r: r.update(im=int(r["im"]))
        yield f"dict subclass ({mode})", mode, lambda r: _Record(r)


def _records(mode):
    if mode == RATIONAL:
        ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=4))
        return ctx, [_record([1, 0], [0, 1], 1, 8, 2, 3), _record([0, 2], [1, 0], 3, 4, -1, 2)]
    ctx = Context.toeplitz(ThetaMatrix.from_upper(2, {(0, 1): 0.3}, mode="float"))
    return ctx, [{"p": [1, 0], "q": [0, 1], "re": 0.5, "im": -1.0},
                 {"p": [0, 2], "q": [1, 0], "re": -0.25, "im": 2.0}]


def _read(ctx, records):
    """The canonical JSON of the element ``records`` read to, or the error."""
    try:
        x = element_from_obj({"context": serialize.context_to_obj(ctx), "terms": records})
    except SchemaError as exc:
        return str(exc)
    return to_json(element_to_obj(x))


@pytest.mark.parametrize("mode,change", [case[1:] for case in _accepted_variants()],
                         ids=[case[0] for case in _accepted_variants()])
def test_records_outside_the_type_test_read_as_their_plain_forms(mode, change):
    ctx, records = _records(mode)
    plain = _read(ctx, records)
    records[1] = change(records[1]) or records[1]
    assert _read(ctx, records) == plain and not plain.startswith("element")


def test_the_type_test_and_the_per_field_checks_agree(monkeypatch):
    # every record, well formed or not, reads to the same element or the same
    # error whether the type test runs or every record takes the checks
    refused = [(RATIONAL, mutate) for _, mutate, _, _ in _bad_record_cases()]
    refused += [("float", lambda r: r.update(re=float("inf"))),
                ("float", lambda r: r.update(q=[0, True]))]
    refused += [(mode, MappingProxyType) for mode in (RATIONAL, "float")]   # not a dict
    accepted = [(mode, change) for _, mode, change in _accepted_variants()]
    accepted += [(RATIONAL, lambda r: None), ("float", lambda r: None)]
    outcomes = []
    for everything_checked in (False, True):
        if everything_checked:
            monkeypatch.setattr(serialize, "_REAL", ())     # no record passes the test
        outcomes.append([])
        for mode, change in refused + accepted:
            ctx, records = _records(mode)
            records[1] = change(records[1]) or records[1]
            outcomes[-1].append(_read(ctx, records))
    assert outcomes[0] == outcomes[1]
    assert [o.startswith("element.terms[1]") for o in outcomes[0]] == \
        [True] * len(refused) + [False] * len(accepted)


@pytest.mark.parametrize("twist", ["den-12", "float"])
def test_well_formed_records_skip_the_per_field_checks(twist, monkeypatch):
    rng = rng_for(f"type-test-{twist}")
    th = (ThetaMatrix.random_rational(3, seed=1, den=12) if twist == "den-12"
          else random_float_theta(3, rng))
    ctx = Context.toeplitz(th)
    x = random_element(ctx, rng, nterms=6, degree=4)

    def unreachable(*args):
        raise AssertionError("a well-formed record took the per-field checks")
    monkeypatch.setattr(serialize, "_checked", unreachable)
    assert element_from_obj(element_to_obj(x)) == x


@pytest.mark.parametrize("record", [3, "p", None, [], [1, 0]])
def test_a_record_that_is_not_an_object_is_refused(record):
    ctx = Context.sphere(ThetaMatrix.zero(2))
    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": serialize.context_to_obj(ctx),
                          "terms": [_record([1, 0], [0, 0], 0, 1), record]})
    assert str(exc.value) == "element.terms[1]: expected an object"


@pytest.mark.parametrize("terms", [{}, "terms", None, 7])
def test_terms_that_are_not_a_list_are_refused(terms):
    ctx = Context.sphere(ThetaMatrix.zero(2))
    with pytest.raises(SchemaError) as exc:
        element_from_obj({"context": serialize.context_to_obj(ctx), "terms": terms})
    assert str(exc.value) == "element.terms: expected a list"


def test_float_records_need_only_their_words_and_numbers():
    th = ThetaMatrix.from_upper(2, {(0, 1): 0.3}, mode="float")
    obj = {"context": serialize.context_to_obj(Context.toeplitz(th)),
           "terms": [{"p": [1, 0], "q": [0, 0], "re": 0.5, "im": -1}]}
    (c,) = element_from_obj(obj).terms.values()
    assert c.to_complex() == complex(0.5, -1)
    for key, value, message in (("im", None, "expected a number"),
                                ("re", float("nan"), "expected a number"),
                                ("p", [0, -2], "expected 2 non-negative integers")):
        rec = dict(obj["terms"][0], **{key: value})
        with pytest.raises(SchemaError) as exc:
            element_from_obj({**obj, "terms": [rec]}, "components[1]")
        assert str(exc.value) == f"components[1].terms[0].{key}: {message}"


def test_records_of_an_element_share_one_conductor():
    # the lcm of the twist's conductor and every phase denominator of the
    # element, also for records of phase 0
    th = ThetaMatrix.from_upper(2, {(0, 1): Fraction(3, 8)})
    ctx = Context.toeplitz(th)
    obj = {"context": serialize.context_to_obj(ctx),
           "terms": [_record([1, 0], [0, 1], 0, 1), _record([0, 0], [0, 0], 1, 3),
                     _record([1, 0], [0, 1], 1, -6, 5, 2), _record([2, 0], [0, 0], 1, 2)]}
    x = element_from_obj(obj)
    assert {c.D for c in x.terms.values()} == {24}
    want = (AlgebraElement.monomial(ctx, (1, 0), (0, 1), Coeff.rational(1)
                                    + Coeff.from_phase(Fraction(-1, 6), RATIONAL, Fraction(5, 2)))
            + unit(ctx).times_coeff(Coeff.from_phase(Fraction(1, 3), RATIONAL))
            + AlgebraElement.monomial(ctx, (2, 0), (0, 0), Coeff.from_phase(Fraction(1, 2),
                                                                              RATIONAL)))
    assert x == want
    assert to_json(element_to_obj(x)) == to_json(element_to_obj(want))


# -- the record writer against the dict layout --------------------------------

_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, float("inf"), float("-inf"), float("nan")]


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@st.composite
def _documents(draw):
    """An element, tensor or projector of random words whose scalars are drawn
    from a small pool, so amplitudes repeat across words: rational ones at
    conductors up to 2^56 with large-denominator amplitudes, float ones with
    -0.0, infinite and NaN parts."""
    n, mode = draw(st.integers(1, 3)), draw(st.sampled_from([RATIONAL, FLOAT]))
    if mode == RATIONAL:
        D = draw(st.sampled_from([1, 4, 24]) | st.integers(1, 2 ** 56))
        amps = st.integers(-5, 5) | st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 30)
        scalar = st.dictionaries(st.integers(0, D - 1), amps.filter(bool), max_size=3).map(
            lambda terms: _new(Coeff, D, {k: w.numerator if w.denominator == 1 else w
                                          for k, w in terms.items()}))
    else:
        parts = st.sampled_from(_PARTS) | st.floats(allow_nan=True, allow_infinity=True)
        scalar = st.builds(complex, parts, parts).map(Coeff.from_complex)
    pool = draw(st.lists(scalar, min_size=1, max_size=4))
    if mode == FLOAT:       # equal scalars whose zero parts differ in sign
        pool += [Coeff.from_complex(c.to_complex().conjugate()) for c in pool]
    word = st.tuples(*[st.integers(0, 3)] * n)
    ctx = Context.sphere(ThetaMatrix.zero(n, mode))
    elements = st.dictionaries(st.tuples(word, word), st.sampled_from(pool), max_size=5).map(
        lambda terms: AlgebraElement(ctx, terms))
    kind = draw(st.sampled_from(["element", "tensor", "projector"]))
    if kind == "element":
        return draw(elements)
    if kind == "tensor":
        return TensorElement(ctx, draw(st.lists(st.tuples(elements, elements), max_size=3)))
    size = draw(st.integers(1, 3))
    cells = draw(st.lists(elements, min_size=size * size, max_size=size * size))
    return ProjectorMatrix(draw(st.integers(-9, 9)), tuple(
        tuple(cells[i * size:(i + 1) * size]) for i in range(size)))


@settings(max_examples=300, deadline=None)
@given(x=_documents())
def test_to_json_writes_the_dict_layout(x):
    assert to_json(x) == _canonical(reference_dict(x))


def test_signed_zero_parts_are_rendered_apart():
    ctx = Context.toeplitz(ThetaMatrix.zero(1, FLOAT))
    zs = [complex(1, 0.0), complex(1, -0.0), complex(0.0, 1), complex(-0.0, 1)]
    x = AlgebraElement(ctx, {((k,), (0,)): Coeff.from_complex(z) for k, z in enumerate(zs)})
    assert to_json(x) == _canonical(reference_dict(x))
    assert [(repr(r["re"]), repr(r["im"])) for r in element_to_obj(x)["terms"]] == [
        ("1.0", "0.0"), ("1.0", "-0.0"), ("0.0", "1.0"), ("-0.0", "1.0")]


class _CountingDict(dict):
    """A dict that counts its lookups, by any of the three ways to make one."""
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_each_record_looks_its_scalar_up_once(mode):
    # a key's hash is Python code for a Fraction, so each record hashes it
    # once: one lookup per record, hits and misses alike, and the same text
    theta = ThetaMatrix.random_rational(3, seed=0, den=8) if mode == RATIONAL else \
        random_float_theta(3, rng_for("pieces-lookups"))
    e = chern_galois_projector(-2, theta)
    scalars = [c for row in e.entries for x in row for c in x.terms.values()]
    cache, plain = _CountingDict(), {}
    counted = [piece for c in scalars for piece in serialize._pieces(c, cache)]
    assert counted == [piece for c in scalars for piece in serialize._pieces(c, plain)]
    assert cache.lookups == len(counted) > len(cache)     # hits and misses


def test_an_integer_over_the_digit_limit_still_raises():
    ctx = Context.toeplitz(ThetaMatrix.zero(1))
    x = AlgebraElement(ctx, {((0,), (0,)): _new(Coeff, 1, {0: Fraction(1, 10 ** 5000)})})
    with pytest.raises(ValueError, match="integer string conversion"):
        to_json(x)


def test_writing_a_projector_allocates_a_quarter_of_the_reference_path():
    e = chern_galois_projector(-3, ThetaMatrix.random_rational(4, seed=0, den=8))

    def peak(emit):
        emit()
        tracemalloc.start()
        try:
            emit()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(to_json(e)) > 50_000
    assert 4 * peak(lambda: to_json(e)) < peak(lambda: _canonical(reference_dict(e)))
