"""Fuzz of the CLI contract: ``cli.main`` on argv built from ``cli.FLAGS``
plus junk tokens, at small sizes (N <= 2, |n| <= 3, M <= 6, degree <= 2)
and one size over a cap for each: N = 10^9 and M = 10^6 (refused by every
command's check before the twist is built), n = -200, and degree 200
(refused at N = 2, admitted at N = 1, which has no triple).

Whatever the argv, the exit status is 0, 1 or 2 and no exception escapes;
exit 2 leaves stdout empty and writes ``error:`` to stderr; exits 0 and 1
write one JSON document (to stdout, or to ``--output``), except that help
exits 0 with a usage text.  A twist of conductor 4379 digits and two glue
inputs whose output needs an int over the 4300 digits ``repr`` writes
(``conftest``) are among the inputs: those outputs exit 2.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overlong_glue_inputs, power_twist
from heegaard import generator, unit
from heegaard.algebra import Context
from heegaard.cli import FLAGS, main
from heegaard.phases import ThetaMatrix
from heegaard.quotients import MultipullbackTuple
from heegaard.serialize import element_to_obj, theta_to_obj

SIZES = {"N": st.sampled_from([1, 2, 10 ** 9]),
         "n": st.sampled_from([*range(-3, 4), -200]),
         "M": st.sampled_from([*range(3, 7), 10 ** 6]),
         "degree": st.sampled_from([*range(3), 200]),
         "seed": st.integers(-2 ** 70, 2 ** 70),
         "den": st.sampled_from([8, 1, 2, 3, 12, 10 ** 30])}
JUNK = st.sampled_from(["0", "-1", "2", "", "x", "1.5", "0x10", "1e3", "--N", "-",
                        " 2", "٣", "9" * 5000]) | st.text(max_size=8)
TOKEN_JUNK = st.sampled_from(["--bogus", "--th", "--n-", "-N", "--", "=", "--N=",
                              "extra", "-h", "--help", "{}"]) | st.text(max_size=6)
TWISTS = ["zero", "random-rational", "inline", "file", "mutant", "oversized", "cut",
          "text", "power"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Twist, tuple and output paths, good and bad."""
    d = tmp_path_factory.mktemp("fuzz")
    ctx = Context.toeplitz(ThetaMatrix.random_rational(2, seed=3))
    x = generator(ctx, 0) * generator(ctx, 1).star() + unit(ctx)
    good = MultipullbackTuple.from_element(x).components
    bad = (good[0] + unit(good[0].ctx), good[1])            # not compatible
    texts = {name: json.dumps({"components": [element_to_obj(c) for c in comps]})
             for name, comps in [("tuple.json", good), ("incompatible.json", bad),
                                 ("mismatched.json", (good[0], good[0]))]}
    texts.update({"schema.json": '{"components": 3}', "list.json": "[1, 2]",
                  "junk.json": "not json", "deep.json": "[" * 100_000,
                  **overlong_glue_inputs()})
    for n in (2, 3):
        texts[f"theta{n}.json"] = json.dumps(theta_to_obj(
            ThetaMatrix.random_rational(n, seed=1)))
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "binary.json").write_bytes(b"\xff\xfe{")
    inputs = [str(d / name) for name in [*texts, "binary.json", "missing.json"]]
    return {"inputs": inputs + [str(d)], "out": d / "out.json",
            "outputs": [str(d / "out.json"), str(d / "missing" / "out.json"), str(d)]}


def _twist(data, files):
    kind = data.draw(st.sampled_from(TWISTS))
    if kind in ("zero", "random-rational"):
        return kind
    if kind == "file":
        return data.draw(st.sampled_from(files["inputs"]))
    if kind == "text":
        return "{" + data.draw(st.text(max_size=20))
    if kind == "power":     # a conductor of 4379 digits, over the 4300 repr writes
        return json.dumps(theta_to_obj(power_twist(3, [(0, 1), (0, 2), (1, 2)])))
    n = data.draw(st.integers(1, 4))
    obj = theta_to_obj(ThetaMatrix.random_rational(n, seed=data.draw(st.integers(0, 9)),
                                                   den=data.draw(st.integers(1, 12))))
    if kind == "mutant":
        key = data.draw(st.sampled_from(["n", "mode", "upper", "extra"]))
        obj[key] = data.draw(st.sampled_from([None, -1, 0, 2, 1.5, "float", "rational",
                                              [[0, 1, 1, 0]], [[0, 1, "abc"]],
                                              [[1, 0, 1, 2]], [[0, 1, 10 ** 400]],
                                              [[0, 1, float("nan")]], {}]))
    if kind == "oversized":
        obj = {"n": 40, "mode": "rational",
               "upper": [[j, j + 1, 1, 7] for j in range(39)]}
    text = json.dumps(obj)
    return text[:data.draw(st.integers(1, len(text)))] if kind == "cut" else text


def _often(data):
    return data.draw(st.integers(0, 9)) != 9


def _value(data, files, flag):
    """Mostly a plausible value for ``flag``, else junk.  ``--output`` and
    ``--input`` are always prepared paths: no run writes a stray file or
    waits on standard input."""
    if flag == "output":
        return data.draw(st.sampled_from([""] + files["outputs"]))
    if flag == "input":       # the good or the incompatible tuple half the time
        return data.draw(st.sampled_from(files["inputs"][:2 if data.draw(st.booleans())
                                                         else None]))
    if not _often(data):
        return data.draw(JUNK)
    if flag in SIZES:
        return str(data.draw(SIZES[flag]))
    if flag == "theta":
        return _twist(data, files)
    ms = data.draw(st.lists(st.integers(-1, 8), max_size=5))      # --truncations
    return ",".join(map(str, sorted(ms) if _often(data) else ms))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_cli_contract_on_generated_argv(files, data):
    command = data.draw(st.sampled_from([*FLAGS, "bogus", "-h"]))
    argv = [command]
    for flag in data.draw(st.permutations(list(FLAGS.get(command, {})))):
        if _often(data):
            value = _value(data, files, flag)
            argv += ([f"--{flag}={value}"] if data.draw(st.booleans())
                     else [f"--{flag}", value])
    if not _often(data):
        argv.insert(data.draw(st.integers(1, len(argv))), data.draw(TOKEN_JUNK))
    files["out"].unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and "error:" in err, argv
        return
    if code == 0 and out.startswith("usage:"):
        return
    document = out or files["out"].read_text()
    assert isinstance(json.loads(document), dict), argv
