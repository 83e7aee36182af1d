"""Command-line interface: verbs, formats, inputs, exit codes."""

import io
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

    def broken(data, args):
        raise RuntimeError("invariant broke")

    monkeypatch.setattr(cli, "_cmd_classify", broken)
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


def test_term_product_check_builds_no_fraction_view():
    from poisson_forge import cli

    u, v = (cli._field_from(_bivector_with_terms(count)) for count in (3, 2))
    cli._check_term_product(u, v)
    assert all(p._terms is None for f in (u, v)
               for p in f.components.values())


def test_term_product_at_the_cap_is_bracketed(monkeypatch, capsys):
    from poisson_forge import cli

    u, v = _bivector_with_terms(3), _bivector_with_terms(2)
    monkeypatch.setattr(cli, "MAX_TERM_PRODUCT", 6)
    assert cli.main(["bracket", json.dumps({"u": u, "v": v})]) == 0
    assert cli.main(["bracket", json.dumps({"u": u, "v": u})]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def _linear_bivector_on(n, terms_of):
    """A linear bivector on R^n with the terms ``terms_of(i, j)`` (a list of
    (variable, coefficient)) on each component (i, j), zero-based."""
    names = ["x%d" % (t + 1) for t in range(n)]
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = [{"exp": [int(t == m) for t in range(n)], "coef": str(c)}
                     for m, c in terms_of(i, j)]
            if terms:
                comps["%d,%d" % (i + 1, j + 1)] = {"vars": names,
                                                   "terms": terms}
    return {"n": n, "grade": 2, "components": comps}


@pytest.mark.parametrize("field", [
    # sum_i x_{i+1} d_i^d_{i+1} on R^60: 59 terms, a bound of 12.5 million
    _linear_bivector_on(60, lambda i, j: [(j, 1)] if j == i + 1 else []),
    # 780 components of up to 20 terms each on R^40: 18.2 million
    _linear_bivector_on(40, lambda i, j: [(m, 1 + (i + j + m) % 7)
                                          for m in range(20) if (i + m) % 3]),
])
def test_decompose_refuses_an_input_too_large(field, monkeypatch, capsys):
    from poisson_forge import cli

    def unreachable(pi):
        raise AssertionError("decompose ran on an input over the cap")

    monkeypatch.setattr(cli, "decompose", unreachable)
    assert cli.main(["decompose", json.dumps(field)]) == 1
    assert capsys.readouterr().err == "error: input too large\n"


def test_decompose_work_at_the_cap_is_decomposed(monkeypatch, capsys):
    from poisson_forge import cli
    from poisson_forge.linclass import decompose_work
    from poisson_forge.multivec import MultiVectorField

    field = _linear_bivector_on(5, lambda i, j: [(i, 1), (j, 2)])
    work = decompose_work(MultiVectorField.from_json(field))
    assert work == (20 + 20) * 5 * 3
    monkeypatch.setattr(cli, "MAX_DECOMPOSE_WORK", work)
    assert cli.main(["decompose", json.dumps(field)]) == 0
    monkeypatch.setattr(cli, "MAX_DECOMPOSE_WORK", work - 1)
    assert cli.main(["decompose", json.dumps(field)]) == 1
    assert capsys.readouterr().err == "error: input too large\n"


def test_decompose_takes_a_dense_input_on_ten_variables(capsys):
    # 45 components of 10 terms, refused by the cap on
    # (terms + n(n - 1))^2 that the Jacobi bound replaced
    import form_reference
    from poisson_forge import cli
    from poisson_forge.multivec import MultiVectorField

    field = _linear_bivector_on(10, lambda i, j: [(m, 1 + (i * j + m) % 5)
                                                  for m in range(10)])
    assert cli.main(["decompose", json.dumps(field)]) == 0
    want = form_reference.decompose(MultiVectorField.from_json(field))
    assert json.loads(capsys.readouterr().out) == want.to_json()


def _unimodular(n, rng):
    """(T, T^-1) for T = (I + U)(I + L): U has entries -1, 0 and 1 from the
    last half of the indices into the first, and L the other way round,
    so that U^2 = L^2 = 0 and T^-1 = (I - L)(I - U)."""
    half = n // 2
    entries = [[rng.choice((-1, 0, 0, 0, 0, 1)) if (i < half) != (j < half)
                else 0 for j in range(n)] for i in range(n)]

    def shear(upper, sign):
        return [[int(i == j) + (sign * v if (i < half) is upper else 0)
                 for j, v in enumerate(row)] for i, row in enumerate(entries)]

    def product(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a]

    return (product(shear(True, 1), shear(False, 1)),
            product(shear(False, -1), shear(True, -1)))


def _conjugated(n, constants, t, t_inv):
    """The Lie-Poisson bivector of [e_i, e_j] = c e_m, for each
    (i, j, m): c of ``constants``, on the basis f_a = sum_i T_ia e_i: its
    constants on (a, b) are sum T_ia T_jb c (T^-1)_cm."""
    rows = {}
    for (i, j, m), c in constants.items():
        for a in range(n):
            for b in range(a + 1, n):
                f = c * (t[i][a] * t[j][b] - t[j][a] * t[i][b])
                if f:
                    row = rows.setdefault((a, b), [0] * n)
                    for r in range(n):
                        row[r] += f * t_inv[r][m]
    return _linear_bivector_on(n, lambda a, b: [
        (m, c) for m, c in enumerate(rows.get((a, b), ())) if c])


#: so(3)^9 on e_0..e_26 and [e_27, e_29] = e_27, [e_28, e_29] = e_28
SO3_SUM_AND_BOOK = dict(
    [((b, b + 1, b + 2), 1) for b in range(0, 27, 3)]
    + [((b + 1, b + 2, b), 1) for b in range(0, 27, 3)]
    + [((b, b + 2, b + 1), -1) for b in range(0, 27, 3)]
    + [((27, 29, 27), 1), ((28, 29, 28), 1)])
#: [e_0, e_i] = i e_i: R acting on the abelian ideal R^29
SEMIDIRECT = {(0, i, i): i for i in range(1, 30)}


@pytest.mark.parametrize("constants, modular, closed", [
    # k_j = sum_i c_ij^i: 2 e_29 and -(1 + ... + 29) e_0
    (SO3_SUM_AND_BOOK, (29, 2), False),
    (SEMIDIRECT, (0, -435), True),
])
def test_decompose_takes_a_dense_poisson_input_on_thirty_variables(
        constants, modular, closed, capsys):
    # for k != 0 the curl-free part of a Lie algebra is Poisson exactly
    # when the kernel of k, an ideal, is abelian: not so when it holds an
    # so(3), and so on the semidirect product, where the Jacobi test runs
    # every one of the 4,060 triples
    import time
    from poisson_forge import cli

    # a fixed draw, so that the input's size, about 8,000 of the 13,050
    # possible terms and a bound near 7.5 million, does not move with the
    # suite's seed
    t, t_inv = _unimodular(30, random.Random(30))
    field = _conjugated(30, constants, t, t_inv)
    start = time.perf_counter()
    assert cli.main(["decompose", json.dumps(field)]) == 0
    assert time.perf_counter() - start < 10
    out = json.loads(capsys.readouterr().out)
    # k is a covector: on the basis f it is T' k
    index, value = modular
    assert out["k"] == [str(value * t[index][b]) for b in range(30)]
    assert set(out["k"]) != {"0"}
    assert out["square_closed"] is closed
    assert out["twist_commutes"] is True


def test_decompose_finds_a_non_poisson_input_on_six_variables(capsys):
    from poisson_forge import cli

    field = _linear_bivector_on(6, lambda i, j: [(m, 1 + (i * j + m) % 5)
                                                 for m in range(6)])
    assert cli.main(["is-poisson", json.dumps(field)]) == 0
    assert json.loads(capsys.readouterr().out) == {"is_poisson": False}
    assert cli.main(["decompose", json.dumps(field)]) == 0
    assert json.loads(capsys.readouterr().out)["square_closed"] is False


def test_decompose_takes_the_corpus_input_on_four_variables(capsys):
    from corpus import record
    from poisson_forge import cli

    (case,) = [c for c in record.load_cases()
               if c["name"] == "decompose-four-vars"]
    assert cli.main(case["argv"]) == case["code"] == 0
    out = capsys.readouterr().out
    assert out == (record.CORPUS / "decompose-four-vars.out").read_text()


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


_SQRT2, _SQRT3 = ["0", "1", "0", "0"], ["0", "0", "1", "0"]


#: twists outside the three structured families, rational and not, with
#: the eigenvalue report that each one's error names
@pytest.mark.parametrize("twist, report", [
    ([[0, -1, 0], [1, 0, 0], [0, 0, 0]],
     "((0.0, -1.0), (0.0, 0.0), (0.0, 1.0))"),
    ([[1, 0, 0], [0, -1, 0], [0, 0, 0]],
     "((-1.0, 0.0), (0.0, 0.0), (1.0, 0.0))"),
    ([[1, 1, 0], [0, 1, 0], [0, 0, -2]],
     "((-2.0, 0.0), (1.0, 0.0), (1.0, 0.0))"),
    ([[_SQRT2, 0, 0], [0, 0, 0], [0, 0, ["0", "-1", "0", "0"]]],
     "((-1.4142135623730951, 0.0), (0.0, 0.0), (1.4142135623730951, 0.0))"),
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]],
     "((-0.5, -0.8660254037844386), (-0.5, 0.8660254037844386), (1.0, 0.0))"),
    ([[_SQRT2, 0, 0], [0, _SQRT3, 0], [0, 0, ["0", "-1", "-1", "0"]]],
     "((-3.1462643699419726, 0.0), (1.414213562373099, 0.0), "
     "(1.7320508075688736, 0.0))"),
], ids=["rotation", "diag-1-minus-1-0", "jordan-block", "diag-sqrt2",
        "cyclic", "diag-sqrt2-sqrt3"])
def test_orbits_names_the_eigenvalues_of_a_twist_outside_the_families(
        twist, report, capsys):
    from poisson_forge import cli

    assert cli.main(["orbits", json.dumps({"K": twist})]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: matrix is outside the three structured families "
        "(eigenvalue report: %s)\n" % report)


_VERBS = ["classify", "decompose", "bracket", "modular", "is-poisson",
          "deform-solve", "deform-check", "orbits", "verify-paper"]

#: each verb's own option, with a value and the one verb that owns it
_OWNED_OPTIONS = [("--tolerance", "5", "orbits"),
                  ("--goldens", "{}", "verify-paper")]


# a --tolerance case keeps the bare verb as its id
@pytest.mark.parametrize("verb, option, value", [
    pytest.param(verb, option, value,
                 id=verb if option == "--tolerance" else verb + option[1:])
    for option, value, owner in _OWNED_OPTIONS
    for verb in _VERBS if verb != owner
])
def test_tolerance_belongs_to_orbits_alone(verb, option, value):
    """--tolerance and --goldens: every other verb refuses the option."""
    argv = [verb] if verb == "verify-paper" else [verb, json.dumps(CASE8_PAIR)]
    proc = run_cli(*argv, option, value)
    assert proc.returncode == 2
    assert "unrecognized arguments: %s" % option in proc.stderr


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


def test_orbits_float_unit_of_a_point_whose_norm_has_over_4300_digits():
    # the exact square root fails on a norm past str's digit limit; its
    # error must not print the value, or the float fallback is never reached
    out = run_json("orbits", json.dumps({"K": _DIAG_123,
                                         "point": ["1e2200", "1", "1"]}))
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


def test_verify_paper_takes_goldens_inline_like_every_input(capsys):
    from poisson_forge import cli

    goldens = default_goldens()
    goldens["ten_forms"]["8"]["a_squared"] = "5"
    assert cli.main(["verify-paper", "--goldens", json.dumps(goldens),
                     "--format", "json"]) == 1
    items = json.loads(capsys.readouterr().out)
    failed = [it for it in items if it["status"] == "FAIL"]
    assert any("expected '5'" in it["details"] for it in failed)


def test_goldens_eigenvalues_are_read_by_the_scalar_reader(capsys):
    # a JSON float is no exact scalar: the three catalog items fail on it
    # by name instead of running on its binary fraction
    from poisson_forge import cli

    goldens = default_goldens()
    goldens["book_catalogs"]["distinct_probes"][0]["lambdas"][0] = 0.1
    goldens["book_catalogs"]["repeated"][0]["lambda"] = 0.1
    goldens["open_book_catalogs"]["repeated"][0]["lambda"] = 0.1
    assert cli.main(["verify-paper", "--goldens", json.dumps(goldens),
                     "--format", "json"]) == 1
    items = {it["item"]: it for it in json.loads(capsys.readouterr().out)}
    for name in ("axis pair: distinct-eigenvalue catalogs",
                 "axis pair: repeated-eigenvalue catalogs",
                 "open-book pair: catalogs"):
        assert items[name]["status"] == "FAIL"
        assert items[name]["details"] == "bad scalar encoding: 0.1"
    assert sum(it["status"] == "FAIL" for it in items.values()) == 3


@pytest.mark.parametrize("table", [
    "missing-file", "directory", "bad-json", "array-file", "array-inline",
    "not-utf-8", "empty-object", "mistyped-section"])
def test_malformed_goldens_exit_2_before_the_sweep(table, tmp_path,
                                                   monkeypatch, capsys):
    from poisson_forge import cli

    def sweep(**kwargs):
        raise AssertionError("the sweep ran on a malformed table")

    monkeypatch.setattr(cli, "run_verification", sweep)
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    arg = {"missing-file": str(tmp_path / "missing.json"),
           "directory": str(tmp_path),
           "bad-json": "{bad",
           "array-file": str(tmp_path / "array.json"),
           "array-inline": "[]",
           "not-utf-8": str(tmp_path / "latin1.json"),
           "empty-object": "{}",
           "mistyped-section": '{"ten_forms": 5}'}[table]
    assert cli.main(["verify-paper", "--goldens", arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("verb, components", [
    ("is-poisson", "x"), ("bracket", [1]), ("bracket", 3),
    ("bracket", True), ("bracket", None),
], ids=["string", "list", "number", "boolean", "null"])
def test_components_that_are_not_an_object_exit_2(verb, components, capsys):
    from poisson_forge import cli

    field = {"n": 3, "grade": 2, "components": components}
    payload = field if verb == "is-poisson" else {"u": field, "v": field}
    assert cli.main([verb, json.dumps(payload)]) == 2
    err = capsys.readouterr().err
    assert err == 'parse error: "components" must be an object\n'


@pytest.mark.parametrize("source", ["directory", "not-utf-8-file",
                                    "not-utf-8-stdin"])
def test_unreadable_input_exits_2_without_traceback(source, tmp_path,
                                                    monkeypatch, capsys):
    from poisson_forge import cli

    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff{}")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b"\xff{}"), encoding="utf-8"))
    arg = {"directory": str(tmp_path), "not-utf-8-file": str(bad),
           "not-utf-8-stdin": "-"}[source]
    assert cli.main(["classify", arg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: cannot read input ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def _goldens_without(section):
    table = default_goldens()
    del table[section]
    return table


@pytest.mark.parametrize("table, named", [
    ("{}", "ten_forms, symmetry_dims, "),
    ('{"ten_forms": 5}', "ten_forms, symmetry_dims, "),
    (json.dumps(_goldens_without("orbit_counts")), "sections: orbit_counts\n"),
    (json.dumps(dict(default_goldens(), axis_twist_matrix={})),
     "sections: axis_twist_matrix\n"),
], ids=["empty", "mistyped", "one-missing", "one-mistyped"])
def test_goldens_without_a_section_of_the_builtin_table_names_it(
        table, named, capsys):
    from poisson_forge import cli

    assert cli.main(["verify-paper", "--goldens", table]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: goldens table lacks or mistypes "
                          "the sections: ")
    assert named in err


@pytest.mark.parametrize("verb", ["classify", "verify-paper"])
def test_mistyped_file_name_is_reported_as_a_missing_file(verb, tmp_path,
                                                          capsys):
    from poisson_forge import cli

    missing = str(tmp_path / "missing.json")
    argv = ["verify-paper", "--goldens", missing] if verb == "verify-paper" \
        else [verb, missing]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == "parse error: cannot read input %s: no such file\n" % missing
    assert "Traceback" not in err


def test_a_long_argument_that_names_no_file_is_quoted_in_part(capsys):
    from poisson_forge import cli

    assert cli.main(["classify", "x" * 100_000]) == 2
    err = capsys.readouterr().err
    assert err == ("parse error: cannot read input %s...: no such file\n"
                   % ("x" * 80))


def test_inline_json_after_whitespace_is_still_read_inline(capsys):
    from poisson_forge import cli

    assert cli.main(["classify", "  \n" + json.dumps(CASE8_PAIR)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == 8


def _four_coordinates(value):
    return [value, "0", "0", "0"]


# each verb's input with one rational entry written as four coordinates
_FOUR_COORDINATE_INPUTS = {
    "classify": dict(CASE8_PAIR, k=[_four_coordinates("0"), "0", "1"]),
    "decompose": dict(CASE8_PAIR, A=[[_four_coordinates("2"), "0", "0"],
                                     ["0", "2", "0"], ["0", "0", "0"]]),
    "modular": dict(CASE8_PAIR, k=["0", "0", _four_coordinates("1")]),
    "is-poisson": dict(CASE8_PAIR, A=[["2", "0", "0"],
                                      ["0", _four_coordinates("2"), "0"],
                                      ["0", "0", "0"]]),
    "deform-solve": {"pair": dict(BOOK_PAIR,
                                  k=["0", "0", _four_coordinates("1")]),
                     "K": _DIAG_123},
    "deform-check": {"pair": dict(BOOK_PAIR,
                                  k=["0", "0", _four_coordinates("1")]),
                     "K": _DIAG_123, "F": XYZ_SIXTH},
}
_PLAIN_INPUTS = {
    "classify": CASE8_PAIR, "decompose": CASE8_PAIR, "modular": CASE8_PAIR,
    "is-poisson": CASE8_PAIR,
    "deform-solve": {"pair": BOOK_PAIR, "K": _DIAG_123},
    "deform-check": {"pair": BOOK_PAIR, "K": _DIAG_123, "F": XYZ_SIXTH},
}


@pytest.mark.parametrize("verb", sorted(_PLAIN_INPUTS))
def test_pair_verbs_accept_a_rational_entry_written_as_four_coordinates(
        verb, capsys):
    from poisson_forge import cli

    assert cli.main([verb, json.dumps(_PLAIN_INPUTS[verb])]) == 0
    plain = capsys.readouterr()
    assert cli.main([verb, json.dumps(_FOUR_COORDINATE_INPUTS[verb])]) == 0
    coords = capsys.readouterr()
    assert coords.err == plain.err == ""
    assert coords.out == plain.out


@pytest.mark.parametrize("verb", ["modular", "is-poisson", "bracket"])
@pytest.mark.parametrize("n, grade, message", [
    (-3, 2, "negative n"),
    (-1, 0, "negative n"),
    (1, 2, "grade 2 exceeds n = 1"),
    (0, 1, "grade 1 exceeds n = 0"),
    (3, -1, "negative grade"),
], ids=["negative-n", "negative-n-grade-0", "grade-above-n", "grade-above-0",
        "negative-grade"])
def test_impossible_field_dimensions_exit_1(verb, n, grade, message, capsys):
    from poisson_forge import cli

    field = {"n": n, "grade": grade, "components": {}}
    payload = {"u": field, "v": field} if verb == "bracket" else field
    assert cli.main([verb, json.dumps(payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
_K = [[1, 0, 0], [0, 2, 0], [0, 0, -3]]


#: a string (or an object) where an array is expected; each was read
#: element by element, character by character for a string
@pytest.mark.parametrize("verb, payload, message", [
    ("classify", {"k": "000", "A": _I3}, "\"k\" must be a JSON array, got '000'"),
    ("classify", {"k": [0, 0, 0], "A": [["1", "0", "0"], "010", [0, 0, 1]]},
     "a matrix row must be a JSON array, got '010'"),
    ("classify", {"k": [0, 0, 0], "A": {"den": 1}},
     "a matrix must be a JSON array, got {'den': 1}"),
    ("orbits", {"K": _K, "point": "111"},
     "a point must be a JSON array, got '111'"),
    ("deform-check", {"pair": BOOK_PAIR, "K": ["100", "020", [0, 0, -3]],
                      "F": XYZ_SIXTH},
     "a matrix row must be a JSON array, got '100'"),
    ("deform-check", {"pair": BOOK_PAIR, "K": _K,
                      "F": dict(XYZ_SIXTH, vars="xyz")},
     "\"vars\" must be a JSON array, got 'xyz'"),
    ("deform-check", {"pair": BOOK_PAIR, "K": _K,
                      "F": dict(XYZ_SIXTH, terms=[{"exp": "111", "coef": "1/6"}])},
     "\"exp\" must be a JSON array, got '111'"),
    ("deform-check", {"pair": BOOK_PAIR, "K": _K,
                      "F": dict(XYZ_SIXTH, terms="t")},
     "\"terms\" must be a JSON array, got 't'"),
], ids=["k", "matrix-row", "matrix-object", "point", "twist-rows", "vars",
        "exp", "terms"])
def test_a_string_where_an_array_is_expected_exits_2(verb, payload, message,
                                                     capsys):
    from poisson_forge import cli

    assert cli.main([verb, json.dumps(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: %s\n" % message


@pytest.mark.parametrize("polynomial, message", [
    (dict(XYZ_SIXTH, vars=[None, 7, "q"]),
     "bad variable name None: names are distinct strings"),
    (dict(XYZ_SIXTH, vars=["x", "y", "x"]),
     "bad variable name 'x': names are distinct strings"),
    (dict(XYZ_SIXTH, terms=["t"]), "bad term 't': a term is a JSON object"),
], ids=["vars-not-strings", "vars-repeated", "term-not-object"])
def test_polynomial_names_a_bad_variable_or_term(polynomial, message, capsys):
    from poisson_forge import cli

    payload = {"pair": BOOK_PAIR, "K": _K, "F": polynomial}
    assert cli.main(["deform-check", json.dumps(payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: %s\n" % message


def test_witness_scales_must_be_an_array():
    from poisson_forge.exactnum import ParseError

    with pytest.raises(ParseError, match='"d" must be a JSON array'):
        Witness.from_json({"R": _I3, "d": "110"})
    long = "1" * 60
    with pytest.raises(ParseError, match="got '1{39}\\.\\.\\.$"):
        Witness.from_json({"R": _I3, "d": long})
