import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import overlong_glue_inputs, power_twist
from heegaard import AlgebraElement, bundles, cli, generator, quotients, serialize, unit
from heegaard.algebra import Context
from heegaard.cli import FLAGS, main
from heegaard.phases import ThetaMatrix
from heegaard.quotients import MultipullbackTuple, sigma_i
from heegaard.serialize import element_from_obj, element_to_obj, theta_to_obj


README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "--N", "1", "--n", "-2")
    assert code == 0
    assert json.loads(out) == {"bidegree": True, "m_circ_l": "1"}


def _patched_connection(monkeypatch, edit):
    """Make ``cli.strong_connection`` hand ``edit(ctx, summands)`` to verify;
    the connections it returns are collected in the list returned."""
    made = []

    def patched(n, theta):
        conn = bundles.strong_connection(n, theta)
        made.append(bundles.TensorElement(conn.ctx, edit(conn.ctx, conn.summands)))
        return made[-1]

    monkeypatch.setattr(cli, "strong_connection", patched)
    return made


@pytest.mark.parametrize("theta", ["zero", "random-rational"])
def test_verify_reports_a_contraction_other_than_one(capsys, monkeypatch, theta):
    # one summand dropped: the witness is the sum of the other a_l r_l,
    # as the sphere products give it one at a time
    made = _patched_connection(monkeypatch, lambda ctx, summands: summands[1:])
    code, out, _ = run(capsys, "verify", "--N", "2", "--n", "-2",
                       "--theta", theta, "--seed", "3")
    eager = AlgebraElement.zero(made[0].ctx)
    for a, r in made[0].summands:
        eager = eager + a * r
    assert code == 1 and not eager.is_zero()
    assert json.loads(out) == {"bidegree": True,
                               "m_circ_l": json.loads(json.dumps(element_to_obj(eager)))}


def test_verify_reports_a_summand_of_the_wrong_degree(capsys, monkeypatch):
    # (1 - s_1 s_1*) (x) s_1 has degrees (0, 1) and contracts to 0, so the
    # sum is still 1 and the bidegree alone fails
    def extra(ctx, summands):
        s1 = generator(ctx, 1)
        return summands + [(unit(ctx) - s1 * s1.star(), s1)]

    _patched_connection(monkeypatch, extra)
    code, out, _ = run(capsys, "verify", "--N", "1", "--n", "-1")
    assert (code, json.loads(out)) == (1, {"bidegree": False, "m_circ_l": "1",
                                           "summand": {"index": 2, "degrees": [[0], [1]]}})


def test_connection_and_projector_json(capsys):
    code, out, _ = run(capsys, "connection", "--N", "1", "--n", "1",
                       "--theta", "random-rational", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["context"]["kind"] == "sphere"
    assert len(obj["summands"]) == 1

    code, out, _ = run(capsys, "projector", "--N", "1", "--n", "-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 2 and obj["n"] == -1
    assert len(obj["entries"]) == 2


def test_invariant(capsys):
    code, out, _ = run(capsys, "invariant", "--N", "1", "--n", "-2",
                       "--truncations", "8,16,24")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension_class"] == 1
    assert obj["compact_charge"] == 2
    assert obj["truncations"] == [8, 16, 24]
    assert obj["residual"] <= 1e-6


@pytest.mark.parametrize("N, n, truncations", [
    (2, -1, [1, 2, 3, 4]), (2, 4, [3, 4, 5, 6]), (3, 3, [2, 3, 4, 5, 6]),
    (2, 3, [1, 2, 3, 4]),
    (2, -3, [1, 2, 3, 4]), (2, -3, [5, 9, 13, 100]), (2, -3, [40, 41, 42, 43, 44]),
    # C(10+3, 3) = 286 is over MAX_SIZE, but a winding n >= 0 is one summand
    (3, 10, [1, 2, 3, 4])])
def test_invariant_default_truncations(capsys, N, n, truncations):
    # the invariant takes no cutoff: without the flag the document echoes
    # null, and any list, even one below the longest diagonal word
    # (W_{3e_0} W_{3e_0}* at n = 3), is only echoed beside the same numbers
    for twist in (("--theta", "zero"), ("--theta", "random-rational", "--seed", "2")):
        argv = ("invariant", "--N", str(N), "--n", str(n), *twist)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        assert obj["truncations"] is None
        assert (obj["dimension_class"], obj["compact_charge"]) == (1, -n)
        code, out, _ = run(capsys, *argv, "--truncations", ",".join(map(str, truncations)))
        assert (code, json.loads(out)) == (0, {**obj, "truncations": truncations})


def test_invariant_builds_no_projector(capsys, monkeypatch):
    # the m diagonal entries E_kk = r_k a_k are all `invariant` multiplies
    def refuse(*args):
        raise AssertionError("chern_galois_projector called")

    monkeypatch.setattr(cli, "chern_galois_projector", refuse)
    monkeypatch.setattr(bundles, "chern_galois_projector", refuse)
    for theta in ("zero", "random-rational"):
        code, out, _ = run(capsys, "invariant", "--N", "2", "--n", "-3",
                           "--theta", theta, "--seed", "2")
        assert code == 0
        assert json.loads(out) == {"dimension_class": 1, "compact_charge": 3,
                                   "truncations": None, "residual": 0.0}


def test_invariant_refuses_a_negative_dimension_class(capsys, monkeypatch):
    # a projector's rank cannot be negative: a diagonal of -1 is a witness
    def negative(n, theta):
        return [-unit(Context.sphere(theta))]

    monkeypatch.setattr(cli, "projector_diagonal", negative)
    code, out, err = run(capsys, "invariant", "--N", "2", "--n", "-2")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "negative dimension class",
                               "dimension_class": -1, "compact_charge": 0}


def test_invariant_lifts_each_diagonal_entry_once(capsys, monkeypatch):
    # class_invariant lifts each of the C(3+2, 2) = 10 diagonal entries once
    calls = []
    with_context = AlgebraElement.with_context

    def counting(self, ctx):
        calls.append(1)
        return with_context(self, ctx)

    monkeypatch.setattr(AlgebraElement, "with_context", counting)
    code, out, _ = run(capsys, "invariant", "--N", "2", "--n", "-3")
    assert code == 0 and json.loads(out)["truncations"] is None
    assert len(calls) == 10


def test_cocycle(capsys):
    code, out, _ = run(capsys, "cocycle", "--N", "2", "--degree", "2",
                       "--theta", "random-rational", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["failures"] == []


def test_residual(capsys):
    code, out, _ = run(capsys, "residual", "--N", "1", "--M", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] <= obj["tolerance"]


def _refuse_the_twist(monkeypatch):
    def refuse(*args):
        raise AssertionError("read the twist before checking the flags")

    monkeypatch.setattr(cli, "_parse_theta", refuse)


@pytest.mark.parametrize("argv, cap", [
    (("connection", "--N", "1000000000", "--n", "-1"), "at most 128"),
    (("verify", "--N", "1", "--n", "-1000000"), "at most 128"),
    (("projector", "--N", "16", "--n", "-1"), "at most 128"),
    (("invariant", "--N", "4", "--n", "-8", "--truncations", "8,9,10,11,12,13"),
     "at most 128"),
    (("cocycle", "--N", "1000000000"), "at most 100000"),
    (("residual", "--N", "800", "--M", "3", "--theta", "random-rational"),
     "at most 100000 (fock.MAX_DIM)"),
    (("residual", "--N", "10000", "--M", "3"), "at most 100000 (fock.MAX_DIM)"),
    (("residual", "--N", "1000000000", "--M", "1000000"), "at most 100000 (fock.MAX_DIM)"),
    (("residual", "--N", "1", "--M", "316"), "at most 100000 (fock.MAX_DIM)"),
])
def test_over_cap_sizes_are_refused_before_the_twist(capsys, monkeypatch, argv, cap):
    # nothing is built first: the twist is never read, and a huge N never
    # forms a huge power (4^10001 would trip the 4300-digit int limit)
    _refuse_the_twist(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "exceeds the size cap" in err and cap in err
    assert "4300" not in err


@pytest.mark.parametrize("argv, message", [
    (("connection", "--N", "0", "--n", "1"), "need N >= 1"),
    (("cocycle", "--N", "2", "--degree", "-1"), "--degree must be non-negative"),
    (("residual", "--N", "1", "--M", "2"), "truncation too small to leave an interior"),
    (("invariant", "--N", "2", "--n", "-1", "--truncations", "1,x"),
     "--truncations expects an integer, got '1,x'"),
])
def test_bad_flags_are_refused_before_the_twist(capsys, monkeypatch, argv, message):
    _refuse_the_twist(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {message}\n" in err


def _tuple_text():
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    x = generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx)
    t = MultipullbackTuple.from_element(x)
    return json.dumps({"components": [element_to_obj(c) for c in t.components]})


@pytest.mark.parametrize("command", ["verify", "glue"])
def test_an_input_over_the_read_cap_is_refused(tmp_path, capsys, monkeypatch, command):
    # the cap admits a file of its length and refuses one a byte longer
    path = tmp_path / "input.json"
    if command == "verify":
        path.write_text(json.dumps(theta_to_obj(ThetaMatrix.random_rational(2, seed=1))))
        argv = ("verify", "--N", "1", "--n", "1", "--theta", str(path))
    else:
        path.write_text(_tuple_text())
        argv = ("glue", "--input", str(path))
    size = path.stat().st_size
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"exceeds the size cap: at most {size - 1} bytes" in err


def test_standard_input_is_read_up_to_the_cap(capsys, monkeypatch):
    data = _tuple_text().encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(capsys, "glue", "--input", "-")[0] == 0
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(data) - 1)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "glue", "--input", "-")
    assert (code, out) == (2, "")
    assert f"exceeds the size cap: at most {len(data) - 1} bytes" in err


@pytest.mark.parametrize("argv", [("verify", "--N", "1", "--n", "1", "--theta", "/dev/zero"),
                                  ("glue", "--input", "/dev/zero")])
def test_an_endless_input_is_refused_at_the_read_cap(capsys, argv):
    # at most MAX_INPUT_BYTES + 1 bytes are read, so memory stays bounded
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"exceeds the size cap: at most {cli.MAX_INPUT_BYTES} bytes" in err


def test_theta_file_and_output(tmp_path, capsys):
    th = ThetaMatrix.random_rational(2, seed=5)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps(theta_to_obj(th)))
    out_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "verify", "--N", "1", "--n", "1",
                       "--theta", str(theta_path), "--output", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text()) == {"bidegree": True, "m_circ_l": "1"}


def test_glue_roundtrip(tmp_path, capsys):
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    x = generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx)
    t = MultipullbackTuple.from_element(x)
    payload = {"components": [element_to_obj(c) for c in t.components]}
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "glue", "--input", str(path))
    assert code == 0
    lifted = element_from_obj(json.loads(out))
    for i in range(2):
        assert sigma_i(lifted, i) == t.components[i]


def _four_slot_components():
    ctx = Context.toeplitz(ThetaMatrix.random_rational(4, seed=3))
    x = generator(ctx, 0) * generator(ctx, 3).star() + generator(ctx, 2) + unit(ctx)
    return [element_to_obj(c) for c in MultipullbackTuple.from_element(x).components]


def test_glue_components_share_one_parsed_twist(tmp_path, capsys, monkeypatch):
    tuples, parses, parse = [], [], serialize.theta_from_obj
    monkeypatch.setattr(cli, "glue", lambda t: tuples.append(t) or quotients.glue(t))
    monkeypatch.setattr(serialize, "theta_from_obj",
                        lambda *args: parses.append(args) or parse(*args))
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": _four_slot_components()}))
    assert run(capsys, "glue", "--input", str(path))[0] == 0
    (t,) = tuples
    assert len(t.components) == 4 and len(parses) == 1
    assert all(c.ctx.theta is t.components[0].ctx.theta for c in t.components)


@pytest.mark.parametrize("other", [ThetaMatrix.random_rational(4, seed=4), "den 8.0"])
def test_glue_parses_a_component_with_another_twist_on_its_own(tmp_path, capsys, other):
    # another twist is refused with the message of a separate parse; one that
    # differs in a JSON type alone (8.0 for 8) is refused by its schema check
    comps = _four_slot_components()
    theta = comps[2]["context"]["theta"]
    if other == "den 8.0":
        theta["upper"][0][3] = float(theta["upper"][0][3])
        message = "components[2].context.theta.upper[0]: expected integers"
    else:
        comps[2]["context"]["theta"] = theta_to_obj(other)
        with pytest.raises(ValueError) as exc:
            MultipullbackTuple(tuple(element_from_obj(c) for c in comps))
        message = str(exc.value)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": comps}))
    code, out, err = run(capsys, "glue", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_read_takes_small_inputs_in_small_chunks(tmp_path):
    # not one MAX_INPUT_BYTES buffer up front
    path = tmp_path / "input.json"
    path.write_text("0" * 4096)
    tracemalloc.start()
    try:
        text = cli._read(str(path), "input")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 4096 and peak < 1 << 20


def test_glue_incompatible(tmp_path, capsys):
    ctx = Context.toeplitz(ThetaMatrix.zero(2))
    t = MultipullbackTuple.from_element(generator(ctx, 0))
    bad = (t.components[0] + unit(t.components[0].ctx), t.components[1])
    payload = {"components": [element_to_obj(c) for c in bad]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "glue", "--input", str(path))
    assert code == 1
    # the witness: the first pair and word whose B_ij images differ, and each
    # side's records of that word ([] where it lacks the word)
    one = {"amp_den": 1, "amp_num": 1, "im": 0.0, "re": 1.0, "phase_den": 1, "phase_num": 0,
           "p": [0, 0], "q": [0, 0]}
    assert json.loads(out) == {"error": "incompatible tuple",
                               "detail": "pairwise images in B_ij do not agree",
                               "pair": [0, 1], "word": {"p": [0, 0], "q": [0, 0]},
                               "images": [[one], []]}


def test_glue_support_overflow_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an unsupported size is exit 2 with stdout empty; exit 1 needs a witness
    monkeypatch.setattr(quotients, "MAX_GLUE_SUPPORT", 1)
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    x = generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx)
    t = MultipullbackTuple.from_element(x)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": [element_to_obj(c) for c in t.components]}))
    code, out, err = run(capsys, "glue", "--input", str(path))
    assert (code, out) == (2, "")
    assert "candidate support exceeds 1" in err


@pytest.mark.parametrize("amp_num, amp_den", [(10 ** 400, 1), (-10 ** 400, 3),
                                              (1, (3 ** 4500, 5 ** 3100))])
def test_glue_amplitude_outside_float_range_is_a_usage_error(tmp_path, capsys, amp_num, amp_den):
    # the lift is exact, but its records carry re/im floats and ints that
    # repr writes: an amplitude beyond float range, or one of 4314 digits
    # summed from two records (a tuple of amp_den), is exit 2 with stdout
    # empty, not a crash
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    t = MultipullbackTuple.from_element(generator(ctx, 0) + unit(ctx))
    comps = [element_to_obj(c) for c in t.components]
    dens = amp_den if isinstance(amp_den, tuple) else (amp_den,)
    for c in comps:
        c["terms"] = [new for rec in c["terms"] for new in
                      ([{**rec, "amp_num": amp_num, "amp_den": d} for d in dens]
                       if rec["p"] == rec["q"] == [0, 0] else [rec])]
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": comps}))
    code, out, err = run(capsys, "glue", "--input", str(path))
    assert (code, out) == (2, "")
    assert ("coefficient too long" if len(dens) > 1 else "coefficient outside float range") in err


@pytest.mark.parametrize("argv", [["projector", "--N", "2", "--n", "-2"],
                                  ["connection", "--N", "2", "--n", "-3"], ["glue"]],
                         ids=["projector", "connection", "glue-witness"])
def test_a_number_over_4300_digits_is_a_usage_error(tmp_path, capsys, argv):
    # repr writes no int over 4300 digits: a projector or connection entry
    # whose phase has a denominator of 4379 digits, and glue's exit-1 witness
    # with such a phase, are exit 2 with stdout empty, not a traceback
    twist, tuple_ = tmp_path / "twist.json", tmp_path / "tuple.json"
    twist.write_text(json.dumps(theta_to_obj(power_twist(3, [(0, 1), (0, 2), (1, 2)]))))
    tuple_.write_text(overlong_glue_inputs()["power-witness.json"])
    extra = ["--input", str(tuple_)] if argv == ["glue"] else ["--theta", str(twist)]
    code, out, err = run(capsys, *argv, *extra)
    assert (code, out) == (2, "")
    assert "error: coefficient too long" in err


def test_an_overflow_inside_glue_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # only writing the lift's re/im is a usage error; a fault in glue itself
    # must not read as "coefficient outside float range"
    def broken(t):
        raise OverflowError("a fault inside glue")

    monkeypatch.setattr(cli, "glue", broken)
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    t = MultipullbackTuple.from_element(generator(ctx, 0) + unit(ctx))
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": [element_to_obj(c) for c in t.components]}))
    with pytest.raises(OverflowError, match="a fault inside glue"):
        main(["glue", "--input", str(path)])


@pytest.mark.parametrize("n", [9, 12, 30])
def test_a_fully_interior_sphere_word_over_the_cap_is_refused_unread(tmp_path, capsys,
                                                                     monkeypatch, n):
    # its normal form would have 2^n - 1 words; refused before any normal form
    normal_forms = []
    canonicalize = serialize._canonicalize
    monkeypatch.setattr(serialize, "_canonicalize",
                        lambda ctx, terms: normal_forms.append(ctx) or canonicalize(ctx, terms))
    ctx = Context.sphere(ThetaMatrix.zero(n))
    word = AlgebraElement.monomial(Context.toeplitz(ctx.theta), [1] * n, [1] * n)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": [{**element_to_obj(word),
                                                "context": serialize.context_to_obj(ctx)}]}))
    code, out, err = run(capsys, "glue", "--input", str(path))
    assert (code, out) == (2, "")
    assert "components[0].terms[0]" in err
    assert f"exceeds the size cap: 2^(n-1) must be at most {bundles.MAX_SIZE}" in err
    assert normal_forms == []


@pytest.mark.parametrize("command", ["connection", "verify", "projector", "invariant"])
@pytest.mark.parametrize("N, n", [(16, -1), (4, -8), (2, -15), (1, 128), (8, 0),
                                  (1, -10 ** 30), (10 ** 30, 1)])
def test_oversized_windings_are_usage_errors(capsys, tmp_path, command, N, n):
    # refused before the twist is read: the missing twist file is never opened
    code, out, err = run(capsys, command, "--N", str(N), "--n", str(n),
                         "--theta", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert "exceeds the size cap" in err


@pytest.mark.parametrize("N, degree", [(14, 0), (47, 0), (10 ** 30, 3), (14, 10 ** 30)])
def test_oversized_cocycles_are_usage_errors(capsys, tmp_path, N, degree):
    # refused before the twist is read: the missing twist file is never opened
    code, out, err = run(capsys, "cocycle", "--N", str(N), "--degree", str(degree),
                         "--theta", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert "exceeds the size cap" in err


@pytest.mark.parametrize("N, degree", [(2, 12), (3, 7), (4, 5), (2, 10 ** 30), (13, 3)])
def test_cocycle_degree_drives_no_work_and_is_echoed(capsys, N, degree):
    # the chart check has no degree: sizes the degree-bounded enumeration
    # refused are admitted, and the degree comes back as checked_degree
    code, out, err = run(capsys, "cocycle", "--N", str(N), "--degree", str(degree),
                         "--theta", "random-rational", "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"passed": True, "checked_degree": degree, "failures": []}


def test_usage_errors(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "verify", "--N", "1")[0] == 2          # missing --n
    assert run(capsys, "verify", "--N", "0", "--n", "1")[0] == 2
    code, _, err = run(capsys, "verify", "--N", "1", "--n", "1",
                       "--theta", "{bad json")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "residual", "--N", "1", "--M", "2")
    assert code == 2
    # twist size mismatch
    th3 = theta_to_obj(ThetaMatrix.zero(3))
    code, _, err = run(capsys, "verify", "--N", "1", "--n", "1",
                       "--theta", json.dumps(th3))
    assert code == 2
    for argv in [
            ("verify", "--N", "1", "--n", "1", "--theta", "random-rational", "--den", "0"),
            ("verify", "--N", "1", "--n", "1", "--den", "0"),
            ("verify", "--N", "1", "--n", "1", "--den", "0", "--theta",
             json.dumps(theta_to_obj(ThetaMatrix.zero(2)))),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "float", "upper": [[0, 1, "abc"]]})),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "float", "upper": [[0, 1, float("nan")]]})),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "float", "upper": [[0, 1, 10 ** 400]]})),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "rational", "upper": [[0, True, 1, True]]})),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "rational", "upper": [[0, 1, 1, 3], [0, 1, 1, 4]]})),
            ("verify", "--N", "1", "--n", "1", "--theta",
             json.dumps({"n": 2, "mode": "float", "upper": [[0, 1, 0.25], [0, 1, 0.5]]})),
            ("cocycle", "--N", "2", "--degree", "-1")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "error:" in err, argv


@pytest.mark.parametrize("t", [0.3, 100000.3])
def test_float_verify_reads_the_twist_mod_one(capsys, t):
    upper = [[0, 1, t], [0, 2, 0.2], [1, 2, -t], [2, 3, t], [0, 3, 0.7]]
    code, out, _ = run(capsys, "verify", "--N", "3", "--n", "-4", "--theta",
                       json.dumps({"n": 4, "mode": "float", "upper": upper}))
    assert (code, json.loads(out)) == (0, {"bidegree": True, "m_circ_l": "1"})


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    ctx = Context.toeplitz(ThetaMatrix.zero(2))
    t = MultipullbackTuple.from_element(generator(ctx, 0))
    tuple_path = tmp_path / "tuple.json"
    tuple_path.write_text(json.dumps({"components": [element_to_obj(c)
                                                     for c in t.components]}))
    for argv in [("verify", "--N", "1", "--n", "1"),
                 ("glue", "--input", str(tuple_path))]:
        for output in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, *argv, "--output", str(output))
            assert (code, out) == (2, ""), (argv, output)
            assert "error: cannot write output:" in err


def test_undecodable_and_deeply_nested_files_are_usage_errors(tmp_path, capsys):
    binary, deep = tmp_path / "binary.json", tmp_path / "deep.json"
    binary.write_bytes(b"\xff\xfe{")
    deep.write_text("[" * 100_000)
    for path in (binary, deep):
        for argv in [("verify", "--N", "1", "--n", "1", "--theta", str(path)),
                     ("glue", "--input", str(path))]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and "error:" in err, argv
    code, out, err = run(capsys, "verify", "--N", "1", "--n", "1", "--theta",
                         '{"n": ' + "9" * 5000 + "}")
    assert (code, out) == (2, "") and "error: malformed twist JSON" in err


@pytest.mark.parametrize("N, flag, ms", [
    (2, ("--truncations", "1,2,3"), [1, 2, 3]), (1, ("--truncations", "24,8"), [24, 8]),
    (1, ("--truncations=-3,-2,-1",), [-3, -2, -1]),
    (1, ("--truncations", "-3,-2,-1"), [-3, -2, -1])],
    ids=["too-few", "descending", "negative-joined", "negative-separate"])
def test_truncation_lists_are_not_refused(capsys, N, flag, ms):
    # the length, order and sign rules went with the cutoffs: nothing reads
    # the list but the echo
    argv = ("invariant", "--N", str(N), "--n", "-1")
    code, out, err = run(capsys, *argv, *flag)
    assert (code, err) == (0, "")
    expected = json.loads(run(capsys, *argv)[1])
    assert json.loads(out) == {**expected, "truncations": ms}


def test_flag_forms_negative_values_and_last_value_wins(capsys):
    expected = run(capsys, "connection", "--N", "1", "--n", "-2")
    assert expected[0] == 0
    for argv in [("connection", "--N=1", "--n=-2"),
                 ("connection", "--n", "-2", "--N", "1"),
                 ("connection", "--N", "1", "--n", "5", "--n", "-2"),
                 ("connection", "--N", "1", "--n=3", "--n", "-2"),
                 ("connection", "--theta=zero", "--N", "1", "--n", "-2")]:
        assert run(capsys, *argv)[:2] == expected[:2], argv


@pytest.mark.parametrize("argv, message", [
    (("residual", "--N", "1", "--M", "4", "--bogus", "1"), "unrecognized argument '--bogus'"),
    (("residual", "--th", "zero", "--N", "1", "--M", "4"), "unrecognized argument '--th'"),
    (("residual", "--N", "1", "--M", "4", "extra"), "unrecognized argument 'extra'"),
    (("residual", "-N", "1", "--M", "4"), "unrecognized argument '-N'"),
    (("residual", "--N", "1", "--M"), "--M expects a value"),
    (("residual", "--N", "one", "--M", "4"), "--N expects an integer, got 'one'"),
    (("residual", "--N=", "--M", "4"), "--N expects an integer, got ''"),
    (("residual", "--N", "1"), "missing required flag --M"),
    (("glue",), "missing required flag --input"),
    (("glue", "--N", "1"), "unrecognized argument '--N'"),
    (("unknown-command",), "unknown command 'unknown-command'"),
    ((), "no command"),
])
def test_parse_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: heegaard ")
    assert f"error: {message}\n" in err


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("verify", "--help"),
                                  ("residual", "--N", "1", "-h")])
def test_help_lists_every_command_and_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    assert set(lines) == set(FLAGS)
    for command, flags in FLAGS.items():
        named = [w.strip("[]") for w in lines[command] if w.lstrip("[").startswith("--")]
        assert named == [f"--{f}" for f in flags]


def test_cli_imports_numpy_and_no_other_third_party_package():
    # numpy stays imported at start-up on purpose: benchmark and batch jobs
    # fork from a parent that has imported heegaard, and a lazy numpy import
    # would cost each fock or invariant job about 0.2 s; argparse stays out,
    # because building its parser was most of a small job
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "def added():\n"
            "    tops = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "    return ' '.join(sorted(tops - set(sys.stdlib_module_names)))\n"
            "import heegaard.cli\n"
            "print(added(), 'argparse' in sys.modules)\n"
            "code = heegaard.cli.main(['residual', '--N', '2', '--M', '4'])\n"
            "print(code, added(), 'argparse' in sys.modules)\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "heegaard numpy False"
    assert json.loads(lines[1])["residual"] <= 1e-10
    assert lines[2] == "0 heegaard numpy False"


README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for line in README.read_text(encoding="utf-8").splitlines()
                   if line.startswith("heegaard ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_commands_print_one_json_document(argv, tmp_path, capsys, monkeypatch):
    # glue reads tuple.json from the working directory
    monkeypatch.chdir(tmp_path)
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    t = MultipullbackTuple.from_element(generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx))
    (tmp_path / "tuple.json").write_text(
        json.dumps({"components": [element_to_obj(c) for c in t.components]}))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    json.loads(out)     # one document: a second one would be "Extra data"
