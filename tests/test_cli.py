"""Command-line interface: verbs, formats, inputs, exit codes."""

import json
import math
import os
import random
import subprocess
import sys

import pytest

from poisson_forge import verify
from poisson_forge.exactnum import Matrix, Polynomial, SolutionSpace
from poisson_forge.goldens import default_goldens
from poisson_forge.linclass import Witness
from poisson_forge.verify import (
    _check_criterion_two_routes,
    _check_solver_equivariance,
)


def run_cli(*argv, stdin=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "poisson_forge.cli", *argv],
        capture_output=True, text=True, input=stdin, env=env,
    )


def run_json(*argv, stdin=None):
    proc = run_cli(*argv, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


CASE8_PAIR = {"k": ["0", "0", "1"],
              "A": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "0"]]}
BOOK_PAIR = {"k": ["0", "0", "1"],
             "A": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
OPEN_BOOK_PAIR = {"k": ["0", "0", "1"],
                  "A": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
XYZ_SIXTH = {"vars": ["x", "y", "z"],
             "terms": [{"exp": [1, 1, 1], "coef": "1/6"}]}


# --- classify --------------------------------------------------------------


def test_classify_scaled_rotation_invariant():
    out = run_json("classify", json.dumps(CASE8_PAIR))
    assert out["case"] == 8
    assert out["a_squared"] == "4"
    assert set(out["witness"]) == {"R", "d"}


def test_classify_zero_structure():
    pair = {"k": ["0", "0", "0"],
            "A": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]}
    assert run_json("classify", json.dumps(pair))["case"] == 1


def test_classify_sheared_hyperbolic():
    # gram of x^2 - 2xy, rank 2 with signature (+,-)
    pair = {"k": ["0", "0", "0"],
            "A": [["1", "-1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]}
    assert run_json("classify", json.dumps(pair))["case"] == 5


def test_classify_table_format():
    proc = run_cli("classify", json.dumps(CASE8_PAIR), "--format", "table")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "case: 8"
    assert lines[1] == "a_squared: 4"


def test_classify_witness_roundtrips():
    out = run_json("classify", json.dumps(CASE8_PAIR))
    witness = Witness.from_json(out["witness"])
    assert witness.to_json() == out["witness"]


def test_incompatible_pair_exits_1():
    pair = {"k": ["0", "0", "1"],
            "A": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]}
    proc = run_cli("classify", json.dumps(pair))
    assert proc.returncode == 1
    assert "A k != 0" in proc.stderr


def test_bad_json_exits_2():
    proc = run_cli("classify", "this is not json")
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_deeply_nested_json_exits_2_without_traceback(closed):
    # the payload is built as a string: no deep Python object is made
    payload = '{"k": [0, 0, 0], "A": ' + "[" * 5000
    if closed:
        payload += "]" * 5000 + "}"
    proc = run_cli("classify", payload)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error: input is not valid JSON")
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr) < 200


def test_missing_fields_exit_2():
    proc = run_cli("classify", '{"k": ["0", "0", "0"]}')
    assert proc.returncode == 2


_ZERO_GRAM = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]


@pytest.mark.parametrize("verb, payload", [
    ("classify", {"k": ["a", "0", "1"], "A": _ZERO_GRAM}),
    ("is-poisson", {"n": 3, "grade": 2, "components": {"1,2": {
        "vars": ["x", "y", "z"], "terms": [{"exp": [1, 0], "coef": "1"}]}}}),
    ("classify", {"k": ["1/0", "0", "1"], "A": _ZERO_GRAM}),
    ("is-poisson", {"n": 3, "grade": 2, "components": {"1,b": {
        "vars": ["x", "y", "z"], "terms": []}}}),
], ids=["bad-literal", "short-exponent-tuple", "zero-denominator",
        "bad-component-index"])
def test_malformed_values_exit_2_without_traceback(verb, payload):
    proc = run_cli(verb, json.dumps(payload))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("pair", [
    {"k": [0, 0, 0], "A": [[1, 0, 0], [0, 1, 0], [0, 0, [1, 1, 0, 0]]]},
    {"k": [[1, 1, 0, 0], 0, 0], "A": _ZERO_GRAM},
], ids=["gram-entry", "k-entry"])
def test_irrational_pair_entry_is_named_as_the_output_prints_it(pair, capsys):
    from poisson_forge import cli

    assert cli.main(["classify", json.dumps(pair)]) == 2
    err = capsys.readouterr().err
    assert err == ("parse error: malformed input (expected a rational value, "
                   "got 1 + sqrt2)\n")
    assert "Fraction(" not in err


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="this Python parses ints of any length")


@needs_digit_limit
def test_overlong_literal_exits_2_with_a_short_message():
    digits = INT_DIGIT_LIMIT + 700
    proc = run_cli("classify", json.dumps(
        {"k": ["1" * digits, "0", "1"], "A": _ZERO_GRAM}))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error: bad rational literal '1111")
    assert "%d characters" % digits in proc.stderr
    assert "at most %d digits" % INT_DIGIT_LIMIT in proc.stderr
    assert len(proc.stderr) < 200
    assert "Traceback" not in proc.stderr


@needs_digit_limit
def test_overlong_exponent_and_bare_number_exit_2_with_short_messages():
    digits = INT_DIGIT_LIMIT + 700
    field = {"n": 3, "grade": 0, "components": {"": {
        "vars": ["x", "y", "z"],
        "terms": [{"exp": ["1" * digits, 0, 0], "coef": "1"}]}}}
    bare = '{"k": [%s, "0", "1"], "A": %s}' % ("1" * digits,
                                              json.dumps(_ZERO_GRAM))
    for verb, payload in (("is-poisson", json.dumps(field)),
                          ("classify", bare)):
        proc = run_cli(verb, payload)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("parse error")
        assert len(proc.stderr) < 300
        assert "Traceback" not in proc.stderr


@needs_digit_limit
def test_literal_under_the_digit_limit_is_accepted():
    literal = "1" * (INT_DIGIT_LIMIT - 300)
    out = run_json("classify", json.dumps(
        {"k": [literal, "0", "1"], "A": _ZERO_GRAM}))
    assert out["case"] == 7


@needs_digit_limit
def test_result_over_the_digit_limit_exits_1_naming_the_limit():
    # the literal passes the exponent cap, but the witness has an integer
    # of 4301 digits, which the interpreter refuses to convert to a string
    proc = run_cli("classify", json.dumps(
        {"k": ["1.5e-%d" % INT_DIGIT_LIMIT, "0", "1"], "A": _ZERO_GRAM}))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: a result has an integer of more "
                                  "than %d digits" % INT_DIGIT_LIMIT)
    assert "set_int_max_str_digits" not in proc.stderr


@pytest.mark.parametrize("literal", ["1e5000", "1e1000000000", "1E-4301",
                                     "2.5e+0010_000"])
def test_exponent_over_the_digit_limit_exits_2_before_the_number_is_built(
        literal):
    # 10^(10^9) would take minutes and gigabytes: the timeout proves it is
    # never built
    proc = subprocess.run(
        [sys.executable, "-m", "poisson_forge.cli", "classify",
         json.dumps({"k": [literal, "0", "1"], "A": _ZERO_GRAM})],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error: bad rational literal %r"
                                  % literal)
    assert "an exponent may be at most" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_small_exponent_literal_is_accepted():
    out = run_json("classify", json.dumps(
        {"k": ["1e3", "0", "1"], "A": _ZERO_GRAM}))
    assert out["case"] == 7
    assert out["witness"]["R"][0][2] == "1000"


def _field_with(exp=(1, 0, 0), n=3, grade=2):
    return json.dumps({"n": n, "grade": grade, "components": {"1,2": {
        "vars": ["x", "y", "z"], "terms": [{"exp": list(exp), "coef": "1"}]}}})


@pytest.mark.parametrize("verb, payload", [
    ("is-poisson", _field_with(exp=(1.5, 0, 0))),
    ("modular", _field_with(exp=(True, 0, 0))),
    ("is-poisson", _field_with(n=3.0)),
    ("modular", _field_with(n=True)),
    ("is-poisson", _field_with(grade=2.0)),
    ("modular", _field_with(grade=True)),
], ids=["exp-float", "exp-bool", "n-float", "n-bool", "grade-float",
        "grade-bool"])
def test_float_and_boolean_integers_exit_2_without_traceback(verb, payload):
    proc = run_cli(verb, payload)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error: bad integer")
    assert "Traceback" not in proc.stderr


def test_integer_fields_accept_ints_and_digit_strings():
    for payload in (_field_with(), _field_with(exp=("1", "0", "0"))):
        assert run_json("is-poisson", payload)["is_poisson"] is True


def test_unexpected_exception_exits_3_without_traceback(monkeypatch, capsys):
    from poisson_forge import cli

    def broken(args):
        raise RuntimeError("invariant broke")

    monkeypatch.setitem(cli._HANDLERS, "classify", broken)
    assert cli.main(["classify", "{}"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: invariant broke\n"


def test_closed_stdout_exits_0_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "poisson_forge.cli", "classify",
         json.dumps(CASE8_PAIR)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_unknown_verb_exits_2():
    proc = run_cli("frobnicate", "{}")
    assert proc.returncode == 2


def test_stdin_and_file_inputs(tmp_path):
    payload = json.dumps(CASE8_PAIR)
    from_stdin = run_json("classify", "-", stdin=payload)
    path = tmp_path / "pair.json"
    path.write_text(payload)
    from_file = run_json("classify", str(path))
    from_inline = run_json("classify", payload)
    assert from_stdin == from_file == from_inline


def test_byte_determinism():
    first = run_cli("classify", json.dumps(CASE8_PAIR))
    second = run_cli("classify", json.dumps(CASE8_PAIR))
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


# --- decompose / bracket / modular / is-poisson ----------------------------


def test_decompose_pair():
    out = run_json("decompose", json.dumps(CASE8_PAIR))
    assert out["k"] == ["0", "0", "1"]
    assert out["square_closed"] is True
    assert out["twist_commutes"] is True


def test_decompose_accepts_field_json():
    # feed the bivector of the same pair through its explicit encoding
    xvar = {"vars": ["x", "y", "z"], "terms": [{"exp": [1, 0, 0], "coef": "4"}]}
    yvar = {"vars": ["x", "y", "z"], "terms": [{"exp": [0, 1, 0], "coef": "-4"}]}
    half_x = {"vars": ["x", "y", "z"], "terms": [{"exp": [1, 0, 0], "coef": "1/2"}]}
    half_y = {"vars": ["x", "y", "z"], "terms": [{"exp": [0, 1, 0], "coef": "1/2"}]}
    field = {"n": 3, "grade": 2, "components": {
        "1,3": {"vars": ["x", "y", "z"],
                "terms": yvar["terms"] + half_x["terms"]},
        "2,3": {"vars": ["x", "y", "z"],
                "terms": xvar["terms"] + half_y["terms"]},
    }}
    out = run_json("decompose", json.dumps(field))
    assert out["k"] == ["0", "0", "1"]


def test_bracket_of_structure_with_itself_vanishes():
    payload = {"u": CASE8_PAIR, "v": CASE8_PAIR}
    out = run_json("bracket", json.dumps(payload))
    assert out == {"n": 3, "grade": 3, "components": {}}


def test_bracket_of_rotation_generators():
    y_dx = {"n": 3, "grade": 1, "components": {
        "1": {"vars": ["x", "y", "z"], "terms": [{"exp": [0, 1, 0], "coef": "1"}]}}}
    x_dy = {"n": 3, "grade": 1, "components": {
        "2": {"vars": ["x", "y", "z"], "terms": [{"exp": [1, 0, 0], "coef": "1"}]}}}
    proc = run_cli("bracket", json.dumps({"u": y_dx, "v": x_dy}),
                   "--format", "table")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(-x)·∂x + (y)·∂y"


def test_modular_is_the_axis_field():
    out = run_json("modular", json.dumps(CASE8_PAIR))
    assert out["grade"] == 1
    assert list(out["components"]) == ["3"]
    assert out["components"]["3"]["terms"] == [{"exp": [0, 0, 0], "coef": "1"}]


def test_is_poisson_verdicts():
    assert run_json("is-poisson", json.dumps(CASE8_PAIR)) == {"is_poisson": True}
    zvar = {"vars": ["x", "y", "z"], "terms": [{"exp": [0, 0, 1], "coef": "1"}]}
    xvar = {"vars": ["x", "y", "z"], "terms": [{"exp": [1, 0, 0], "coef": "1"}]}
    broken = {"n": 3, "grade": 2, "components": {"1,2": zvar, "1,3": xvar}}
    assert run_json("is-poisson", json.dumps(broken)) == {"is_poisson": False}


def _bivector_with_terms(count):
    """A bivector whose one component has ``count`` terms."""
    terms = [{"exp": [i, 0, 0], "coef": "1"} for i in range(count)]
    return {"n": 3, "grade": 2,
            "components": {"1,2": {"vars": ["x", "y", "z"], "terms": terms}}}


@pytest.mark.parametrize("verb", ["bracket", "is-poisson"])
def test_term_product_over_the_cap_is_a_domain_error(verb, monkeypatch,
                                                     capsys):
    from poisson_forge import cli

    def unreachable(*args):
        raise AssertionError("the bracket ran on an input over the cap")

    monkeypatch.setattr(cli, "schouten", unreachable)
    monkeypatch.setattr(cli, "is_poisson", unreachable)
    side = math.isqrt(cli.MAX_TERM_PRODUCT) + 1
    field = _bivector_with_terms(side)
    payload = {"u": field, "v": field} if verb == "bracket" else field
    assert cli.main([verb, json.dumps(payload)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: input too large: %d x %d terms exceed the "
                   "bracket's cap of %d\n" % (side, side, cli.MAX_TERM_PRODUCT))


def test_term_product_at_the_cap_is_bracketed(monkeypatch, capsys):
    from poisson_forge import cli

    u, v = _bivector_with_terms(3), _bivector_with_terms(2)
    monkeypatch.setattr(cli, "MAX_TERM_PRODUCT", 6)
    assert cli.main(["bracket", json.dumps({"u": u, "v": v})]) == 0
    assert cli.main(["bracket", json.dumps({"u": u, "v": u})]) == 1
    assert capsys.readouterr().err.count("\n") == 1


# --- deform-solve / deform-check -------------------------------------------


def test_deform_solve_axis_pair_distinct_twist():
    payload = {"pair": BOOK_PAIR,
               "K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]]}
    out = run_json("deform-solve", json.dumps(payload))
    assert out["empty"] is False
    assert out["basis"] == []
    assert Polynomial.from_json(out["particular"]) == Polynomial.from_json(XYZ_SIXTH)


def test_deform_solve_open_book_repeated_twist():
    payload = {"pair": OPEN_BOOK_PAIR,
               "K": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}
    out = run_json("deform-solve", json.dumps(payload))
    assert out["empty"] is False
    assert out["basis"] == []
    expected = {"vars": ["x", "y", "z"],
                "terms": [{"exp": [2, 0, 1], "coef": "-2"}]}
    assert Polynomial.from_json(out["particular"]) == Polynomial.from_json(expected)


def test_deform_solve_empty_stratum():
    payload = {"pair": BOOK_PAIR,
               "K": [["-3", "0", "0"], ["0", "3/2", "-1/2"],
                     ["0", "-1/2", "3/2"]]}
    assert run_json("deform-solve", json.dumps(payload)) == {"empty": True}


def test_deform_solve_table_format():
    payload = {"pair": OPEN_BOOK_PAIR,
               "K": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}
    proc = run_cli("deform-solve", json.dumps(payload), "--format", "table")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["particular: -2·x^2z", "basis: (none)"]


def test_deform_solve_rejects_trace():
    payload = {"pair": BOOK_PAIR,
               "K": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    proc = run_cli("deform-solve", json.dumps(payload))
    assert proc.returncode == 1
    assert "traceless" in proc.stderr


@pytest.mark.parametrize("verb, payload", [
    ("deform-solve", {"pair": BOOK_PAIR, "K": [["1", "0"], ["0", "-1"]]}),
    ("orbits", {"K": [["1", "0"], ["0", "-1"]]}),
])
def test_two_by_two_twist_is_a_domain_error(verb, payload):
    proc = run_cli(verb, json.dumps(payload))
    assert proc.returncode == 1
    assert proc.stderr == "error: twist matrix must be 3x3\n"


def test_deform_check_verdicts():
    base = {"pair": BOOK_PAIR,
            "K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]]}
    good = dict(base, F=XYZ_SIXTH)
    assert run_json("deform-check", json.dumps(good)) == {"deforms": True}
    bad = dict(base, F={"vars": ["x", "y", "z"],
                        "terms": [{"exp": [1, 1, 1], "coef": "1"}]})
    assert run_json("deform-check", json.dumps(bad)) == {"deforms": False}


def test_deform_check_rejects_inhomogeneous_potential():
    payload = {"pair": BOOK_PAIR,
               "K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]],
               "F": {"vars": ["x", "y", "z"],
                     "terms": [{"exp": [1, 0, 0], "coef": "1"}]}}
    proc = run_cli("deform-check", json.dumps(payload))
    assert proc.returncode == 1


# --- orbits ----------------------------------------------------------------


def test_orbits_distinct_eigenvalues():
    payload = {"K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]]}
    out = run_json("orbits", json.dumps(payload))
    assert out["family"] == "DIAG_DISTINCT"
    assert out["lambdas"] == ["1", "2", "-3"]
    assert out["orbit_count"] == 7
    assert [o["orbit"] for o in out["orbits"]] == [1, 2, 3, 4, 5, 6, 7]
    assert out["orbits"][0]["cubics"] == ["xyz"]
    # every emitted twist re-parses to an exact matrix
    for o in out["orbits"]:
        Matrix.from_json(o["K"])


def test_orbits_with_exact_point():
    payload = {"K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]],
               "point": ["0", "3", "4"]}
    out = run_json("orbits", json.dumps(payload))
    assert out["point"]["orbit"] == 5
    assert out["point"]["unit"] == ["0", "3/5", "4/5"]


def test_orbits_point_float_fallback():
    payload = {"K": [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]],
               "point": ["1", "2", "3"]}
    out = run_json("orbits", json.dumps(payload))
    assert out["family"] == "NILPOTENT_FULL"
    assert out["point"]["orbit"] == 3
    unit = out["point"]["unit"]
    assert all(isinstance(v, float) for v in unit)
    assert abs(sum(v * v for v in unit) - 1) < 1e-12


_FLOAT_POINT_QUERY = {"K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]],
                      "point": ["1", "2", "3"]}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "abc"])
def test_orbits_tolerance_must_be_finite_and_positive(value):
    # nan would disarm the residual check, inf accept a wrong rotation and
    # a bound <= 0 fail every point with "residual exceeds tolerance"
    proc = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY),
                   "--tolerance=" + value)
    assert proc.returncode == 2, proc.stdout
    assert "--tolerance" in proc.stderr
    assert proc.stdout == ""


def test_orbits_accepts_a_finite_positive_tolerance():
    default = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY))
    loose = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY),
                    "--tolerance", "1e-9")
    assert default.returncode == loose.returncode == 0
    assert loose.stdout == default.stdout


def test_orbits_tolerance_bounds_the_residual_only():
    # a loose bound once snapped the unit (1, 2, 3)/sqrt(14) to e3
    default = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY))
    loose = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY),
                    "--tolerance", "0.5")
    assert default.returncode == loose.returncode == 0
    assert loose.stdout == default.stdout


def test_orbits_accepts_a_rational_entry_written_as_four_coordinates():
    plain = run_cli("orbits", json.dumps(_FLOAT_POINT_QUERY))
    query = dict(_FLOAT_POINT_QUERY,
                 K=[[["1", "0", "0", "0"], "0", "0"], ["0", "2", "0"],
                    ["0", "0", "-3"]])
    coords = run_cli("orbits", json.dumps(query))
    assert coords.returncode == plain.returncode == 0, coords.stderr
    assert coords.stdout == plain.stdout


@pytest.mark.parametrize("verb", ["classify", "decompose", "bracket", "modular",
                                  "is-poisson", "deform-solve", "deform-check",
                                  "verify-paper"])
def test_tolerance_belongs_to_orbits_alone(verb):
    argv = [verb] if verb == "verify-paper" else [verb, json.dumps(CASE8_PAIR)]
    proc = run_cli(*argv, "--tolerance", "5")
    assert proc.returncode == 2
    assert "unrecognized arguments: --tolerance" in proc.stderr


_DIAG_123 = [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]]


def test_orbits_float_unit_keeps_small_components():
    # a fixed snap once printed the unit [0.0, 0.0, 1.0] here
    out = run_json("orbits", json.dumps({"K": _DIAG_123,
                                         "point": ["1/1000000", "0", "1"]}))
    assert out["point"]["orbit"] == 6
    assert out["point"]["unit"] == [9.999999999995e-07, 0.0, 0.9999999999995]


def test_orbits_float_unit_of_a_point_beyond_the_float_range():
    out = run_json("orbits", json.dumps({"K": _DIAG_123,
                                         "point": ["1e400", "2", "3"]}))
    assert out["point"]["orbit"] == 7
    assert out["point"]["unit"] == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("entry, message", [
    ("1e400", "1e+200"),
    ("1e700", "an eigenvalue is beyond the float range"),
])
def test_orbits_eigenvalue_report_of_huge_entries_exits_1(entry, message):
    payload = {"K": [["0", entry, "0"], ["-1", "0", "0"], ["0", "0", "0"]]}
    proc = run_cli("orbits", json.dumps(payload))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and message in proc.stderr


def test_orbits_rejects_unstructured_matrix():
    payload = {"K": [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "-2"]]}
    proc = run_cli("orbits", json.dumps(payload))
    assert proc.returncode == 1
    assert "outside" in proc.stderr


# --- verify-paper -----------------------------------------------------------


def test_verify_paper_all_pass():
    proc = run_cli("verify-paper")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-1] == "35/35 items passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_paper_rejects_a_non_integer_seed():
    proc = run_cli("verify-paper",
                   env=dict(os.environ, POISSON_FORGE_SEED="abc"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "POISSON_FORGE_SEED" in proc.stderr


def test_verify_paper_is_reproducible_across_hash_seeds():
    outputs = []
    for hash_seed in ("1", "2"):
        proc = run_cli("verify-paper", "--format", "json",
                       env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_criterion_item_passes_when_the_sample_holds_one_verdict():
    # this item seed draws 60 random tuples that all fail to deform
    details = _check_criterion_two_routes(None, random.Random(1390410980))
    assert "(1 deform, 61 do not)" in details


def test_equivariance_item_fails_on_a_wrongly_transported_space(monkeypatch):
    # the item transports a nonempty space in each case, so a solver that
    # answers a conjugated twist with a moved particular cubic is caught
    real = verify.solve_F

    def skewed(lp, twist):
        space = real(lp, twist)
        if space.is_empty or twist.is_diagonal():
            return space
        moved = tuple(2 * c for c in space.particular)
        return SolutionSpace(10, moved, space.basis)

    assert _check_solver_equivariance(None, random.Random(0))
    monkeypatch.setattr(verify, "solve_F", skewed)
    with pytest.raises(verify._Mismatch, match="failed to transport"):
        _check_solver_equivariance(None, random.Random(0))


def test_verify_paper_corrupted_goldens(tmp_path):
    goldens = default_goldens()
    goldens["ten_forms"]["8"]["a_squared"] = "5"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(goldens))
    proc = run_cli("verify-paper", "--goldens", str(path), "--format", "json")
    assert proc.returncode == 1
    items = json.loads(proc.stdout)
    assert len(items) == 35
    assert all(set(it) == {"item", "status", "details"} for it in items)
    failed = [it for it in items if it["status"] == "FAIL"]
    assert failed, "corruption must surface as FAIL items"
    assert any("expected '5'" in it["details"] for it in failed)
