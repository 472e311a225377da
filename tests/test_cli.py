import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heegaard import generator, quotients, unit
from heegaard.algebra import Context
from heegaard.cli import FLAGS, main
from heegaard.phases import ThetaMatrix
from heegaard.quotients import MultipullbackTuple, sigma_i
from heegaard.serialize import element_from_obj, element_to_obj, theta_to_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


def test_verify_success(capsys):
    code, out, _ = run(capsys, "verify", "--N", "1", "--n", "-2")
    assert code == 0
    assert json.loads(out) == {"bidegree": True, "m_circ_l": "1"}


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


@pytest.mark.parametrize("N, n, truncations", [(2, -1, [1, 2, 3, 4]),
                                                (2, 4, [3, 4, 5, 6]),
                                                (3, 3, [2, 3, 4, 5, 6])])
def test_invariant_default_truncations(capsys, N, n, truncations):
    # without the flag: N+2 consecutive cutoffs from the longest diagonal
    # exponent (n for n > 0, 1 for n < 0) minus one, at least 1
    code, out, _ = run(capsys, "invariant", "--N", str(N), "--n", str(n),
                       "--theta", "random-rational", "--seed", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["truncations"] == truncations
    assert (obj["dimension_class"], obj["compact_charge"]) == (1, -n)
    code, out, _ = run(capsys, "invariant", "--N", str(N), "--n", str(n),
                       "--theta", "random-rational", "--seed", "4",
                       "--truncations", ",".join(map(str, truncations)))
    assert code == 0 and json.loads(out) == obj


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


@pytest.mark.parametrize("cap", ["abc", "0"])
def test_bad_dimension_cap_names_the_variable(capsys, monkeypatch, cap):
    monkeypatch.setenv("NCG_MAX_DIM", cap)
    code, out, err = run(capsys, "residual", "--N", "1", "--M", "4")
    assert (code, out) == (2, "")
    assert f"error: NCG_MAX_DIM must be a positive integer, got '{cap}'" in err


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


def test_glue_incompatible(tmp_path, capsys):
    ctx = Context.toeplitz(ThetaMatrix.zero(2))
    t = MultipullbackTuple.from_element(generator(ctx, 0))
    bad = (t.components[0] + unit(t.components[0].ctx), t.components[1])
    payload = {"components": [element_to_obj(c) for c in bad]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "glue", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "incompatible tuple"


def test_glue_support_overflow_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an unsupported size is exit 2 with stdout empty; exit 1 needs a witness
    monkeypatch.setattr(quotients.glue, "__defaults__", (1,))
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=7))
    x = generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx)
    t = MultipullbackTuple.from_element(x)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"components": [element_to_obj(c) for c in t.components]}))
    code, out, err = run(capsys, "glue", "--input", str(path))
    assert (code, out) == (2, "")
    assert "candidate support exceeds 1" in err


def test_usage_errors(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "verify", "--N", "1")[0] == 2          # missing --n
    assert run(capsys, "verify", "--N", "0", "--n", "1")[0] == 2
    code, _, err = run(capsys, "verify", "--N", "1", "--n", "1",
                       "--theta", "{bad json")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "invariant", "--N", "1", "--n", "1",
                       "--truncations", "24,8")
    assert code == 2
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


@pytest.mark.parametrize("form", ["joined", "separate"])
def test_negative_truncations_are_a_usage_error(capsys, form):
    argv = ["invariant", "--N", "1", "--n", "-1"]
    argv += (["--truncations=-3,-2,-1"] if form == "joined"
             else ["--truncations", "-3,-2,-1"])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: need a non-empty ascending list of truncations >= 0" in err


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
