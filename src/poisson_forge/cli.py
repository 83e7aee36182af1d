"""Command-line front end.

One verb per invocation; structures come in as JSON (inline, from a
file, or from stdin with ``-``) and results go out as JSON (default) or
as readable tables.  ``main`` reads the input, runs the verb's handler
and writes its report: a handler computes from the parsed payload and
returns the report and its table lines.  Exit codes: 0 on success, 1 on
domain errors (invalid structures, inconsistent systems, failed
verification, a ``bracket`` or ``is-poisson`` input over
``MAX_TERM_PRODUCT``, and a ``decompose`` input whose Jacobi test could
make more than ``MAX_DECOMPOSE_WORK`` products, refused as
``error: input too large``), 2 on parse errors (an input that cannot be
read or names no file, and a ``--goldens`` table without every section
of the built-in one, too) and bad usage, 3 on an internal error (a
failed internal consistency check or any other unexpected exception),
reported in one line on stderr without a traceback.  A reader that
closes stdout early (``poisson-forge ... | head``) is not an error: the
CLI stops writing and exits 0 with nothing on stderr.
"""

import argparse
import json
import math
import os
import sys

from .exactnum import (
    ExactSqrtError,
    Matrix,
    ParseError,
    Polynomial,
    scalar_to_json,
)
from .goldens import default_goldens
from .linclass import (
    LinearPair,
    bivector_of,
    classification_to_json,
    classify,
    decompose,
    decompose_work,
)
from .multivec import MultiVectorField, modular_field, is_poisson, schouten
from .quaddef import (
    OTHER,
    P2Point,
    QuadraticPair,
    deform_check,
    enumerate_orbit_pairs,
    jordan_family_of,
    orbit_count,
    p2_orbit_rep,
    solution_polys,
    solve_F,
    t_of_v,
)
from .verify import DEFAULT_SEED, run_verification

#: largest (terms of u) x (terms of v) that ``bracket`` and ``is-poisson``
#: take on.  The Schouten bracket's work grows with this product: random
#: bivectors of degree up to 30 take about 3 us per unit on a 2-core VM
#: under Python 3.11, so the cap keeps one call under a second, where a
#: 1,200-term bivector (1.44 million) would take several.
MAX_TERM_PRODUCT = 250_000

#: largest ``linclass.decompose_work`` that ``decompose`` takes on.  Its
#: Jacobi test makes at most that many products, at about 0.1 us each on
#: a 2-core VM under Python 3.11, so the cap keeps one call near a second:
#: a Poisson bivector on R^30 with 12,753 terms (11.4 million) took 1.2 s.
#: On R^30 it admits up to 11,034 of the 13,050 possible terms
MAX_DECOMPOSE_WORK = 10_000_000


def _read_payload(raw: str) -> dict:
    """The JSON object given inline, as a file path, or as - for stdin."""
    try:
        if raw == "-":
            text = sys.stdin.read()
        elif os.path.exists(raw):
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        elif raw.lstrip()[:1] in ("{", "["):
            text = raw
        else:
            # neither a file nor JSON: most likely a mistyped file name
            name = raw if len(raw) <= 80 else raw[:80] + "..."
            raise ParseError("cannot read input %s: no such file" % name)
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8
        raise ParseError("cannot read input %s: %s" % (raw, exc)) from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or a number longer than Python's int digit limit
        raise ParseError("input is not valid JSON: %s" % exc) from exc
    except RecursionError:
        # the decoder recurses once per nesting level of arrays and objects
        raise ParseError("input is not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object at the top level")
    return data


def _pair_from(data: dict) -> LinearPair:
    if "k" not in data or "A" not in data:
        raise ParseError('a linear structure needs "k" and "A" fields')
    return LinearPair.from_json(data)


def _field_from(data: dict) -> MultiVectorField:
    """Accept either a pair {"k","A"} or an explicit field encoding."""
    if "k" in data and "A" in data:
        return bivector_of(_pair_from(data))
    if "components" in data:
        return MultiVectorField.from_json(data)
    raise ParseError('expected a pair {"k","A"} or a field {"n","grade",'
                     '"components"}')


def _check_term_product(u: MultiVectorField, v: MultiVectorField):
    """Raise ValueError when bracketing u with v would exceed the cap."""
    m, n = (sum(len(p._form[1]) for p in f.components.values())
            for f in (u, v))
    if m * n > MAX_TERM_PRODUCT:
        raise ValueError("input too large: %d x %d terms exceed the bracket's "
                         "cap of %d" % (m, n, MAX_TERM_PRODUCT))


def _matrix_from(data, key: str) -> Matrix:
    if key not in data:
        raise ParseError('missing "%s" field' % key)
    return Matrix.from_json(data[key])


def _space_report(space):
    if space.is_empty:
        return {"empty": True}, ["no solutions"]
    particular, basis = solution_polys(space)
    report = {
        "empty": False,
        "particular": particular.to_json(),
        "basis": [b.to_json() for b in basis],
    }
    lines = ["particular: %s" % particular]
    lines += ["basis[%d]: %s" % (i, b) for i, b in enumerate(basis)]
    if not basis:
        lines.append("basis: (none)")
    return report, lines


# ---------------------------------------------------------------------------
# verbs: each handler takes the parsed payload and the arguments and
# returns (report, table lines); verify-paper adds its exit status
# ---------------------------------------------------------------------------


def _rows_str(m: Matrix) -> str:
    return "  ".join(
        "[%s]" % ", ".join(str(v) for v in row) for row in m.rows
    )


def _cmd_classify(data, args):
    label, witness = classify(_pair_from(data))
    lines = ["case: %d" % label.case_id]
    if label.a_squared is not None:
        lines.append("a_squared: %s" % label.a_squared)
    lines.append("witness R: %s" % _rows_str(witness.base))
    lines.append("witness d: (%s)" % ", ".join(str(v) for v in witness.scales))
    return classification_to_json(label, witness), lines


def _cmd_decompose(data, args):
    pi = _field_from(data)
    # square_closed's Jacobi test is the one step of decompose above linear
    # in the size of pi, and n(n - 1) in the bound also covers the
    # n(n - 1) / 2 components of the curl-free part
    if decompose_work(pi) > MAX_DECOMPOSE_WORK:
        raise ValueError("input too large")
    dec = decompose(pi)
    return dec.to_json(), [
        "k: (%s)" % ", ".join(str(v) for v in dec.k),
        "curl_free: %s" % dec.curl_free,
        "square_closed: %s" % str(dec.square_closed).lower(),
        "twist_commutes: %s" % str(dec.twist_commutes).lower(),
    ]


def _cmd_bracket(data, args):
    for key in ("u", "v"):
        if not isinstance(data.get(key), dict):
            raise ParseError('bracket needs "u" and "v" objects')
    u, v = _field_from(data["u"]), _field_from(data["v"])
    _check_term_product(u, v)
    out = schouten(u, v)
    return out.to_json(), [str(out)]


def _cmd_modular(data, args):
    out = modular_field(_field_from(data))
    return out.to_json(), [str(out)]


def _cmd_is_poisson(data, args):
    pi = _field_from(data)
    _check_term_product(pi, pi)
    verdict = is_poisson(pi)
    return {"is_poisson": verdict}, ["is_poisson: %s" % str(verdict).lower()]


def _deformation_input(data, verb):
    """(pair, twist) of a deform-solve or deform-check payload."""
    if "pair" not in data:
        raise ParseError('%s needs a "pair" field' % verb)
    return _pair_from(data["pair"]), _matrix_from(data, "K")


def _cmd_deform_solve(data, args):
    return _space_report(solve_F(*_deformation_input(data, args.verb)))


def _cmd_deform_check(data, args):
    pair, twist = _deformation_input(data, args.verb)
    if "F" not in data:
        raise ParseError('deform-check needs an "F" field')
    cubic = Polynomial.from_json(data["F"])
    qp = QuadraticPair(twist, cubic)
    verdict = deform_check(pair, qp)
    return {"deforms": verdict}, ["deforms: %s" % str(verdict).lower()]


def _cmd_orbits(data, args):
    twist = _matrix_from(data, "K")
    family = jordan_family_of(twist)
    if family.tag == OTHER:
        raise ValueError(
            "matrix is outside the three structured families "
            "(eigenvalue report: %s)" % (family.eigen_report,))
    orbits = enumerate_orbit_pairs(family)
    report = {
        "family": family.tag,
        "lambdas": [scalar_to_json(v) for v in family.lambdas],
        "orbit_count": orbit_count(family),
        "orbits": [of.to_json() for of in orbits],
    }
    lines = [
        "family: %s" % family.tag,
        "lambdas: (%s)" % ", ".join(str(v) for v in family.lambdas),
        "orbit_count: %d" % orbit_count(family),
    ]
    for of in orbits:
        rep = ", ".join(str(v) for v in of.rep.unit)
        lines.append("orbit %d: rep (%s)" % (of.rep.orbit_index, rep))
        lines.append("  K = %s" % _rows_str(of.twist))
        lines.append("  cubics = %s" % "; ".join(str(c) for c in of.cubics))
    if "point" in data:
        point = P2Point.from_json(data["point"])
        rep = p2_orbit_rep(family, point)
        point_report = rep.to_json()
        try:
            unit = point.unit_vector()
            point_report["unit"] = [scalar_to_json(v) for v in unit]
        except ExactSqrtError:
            rotation = t_of_v(point, tolerance=args.tolerance)
            point_report["unit"] = [float(v) for v in rotation[2]]
        report["point"] = point_report
        lines.append("point orbit: %d" % rep.orbit_index)
    return report, lines


def _goldens_from(raw: str) -> dict:
    """A --goldens table holding every section of the built-in one, each
    with the same JSON type."""
    table = _read_payload(raw)
    bad = [name for name, value in default_goldens().items()
           if type(table.get(name)) is not type(value)]
    if bad:
        raise ParseError("goldens table lacks or mistypes the sections: %s"
                         % ", ".join(bad))
    return table


def _cmd_verify_paper(data, args):
    goldens = _goldens_from(args.goldens) if args.goldens else None
    try:
        seed = int(os.environ.get("POISSON_FORGE_SEED", DEFAULT_SEED))
    except ValueError:
        raise ParseError("POISSON_FORGE_SEED is not an integer") from None
    items = run_verification(goldens=goldens, seed=seed)
    passed = sum(1 for it in items if it.passed)
    lines = ["%s  %s: %s" % (it.status, it.item, it.details) for it in items]
    lines.append("%d/%d items passed" % (passed, len(items)))
    return [it.to_json() for it in items], lines, int(passed < len(items))


def _positive_tolerance(text: str) -> float:
    """argparse type: a finite float > 0, the only values for which the
    float fallback's residual check means what it says."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "must be finite and positive, got %r" % text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-forge",
        description="Exact calculus for linear Poisson structures on R^3 "
                    "and their quadratic deformations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, help_text, needs_input=True, default_format="json"):
        """The verb's subparser, bound to its handler; the verb's own
        options are added on the parser it returns."""
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument("input",
                           help="inline JSON, a file path, or - for stdin")
        p.add_argument("--format", choices=("json", "table"),
                       default=default_format)
        return p

    add("classify", _cmd_classify,
        "name the standard form of a linear structure")
    add("decompose", _cmd_decompose,
        "split a linear bivector into twist + curl-free part")
    add("bracket", _cmd_bracket, "Schouten bracket of two fields")
    add("modular", _cmd_modular, "modular vector field of a bivector")
    add("is-poisson", _cmd_is_poisson, "does the self-bracket vanish?")
    add("deform-solve", _cmd_deform_solve,
        "cubic potentials compatible with a twist")
    add("deform-check", _cmd_deform_check,
        "is (K, F) a deformation of the pair?")
    add("orbits", _cmd_orbits,
        "orbit data of a twist under the rotation group").add_argument(
        "--tolerance", type=_positive_tolerance, default=1e-12,
        help="orthogonality residual bound of the floating rotation "
             "(finite, positive)")
    add("verify-paper", _cmd_verify_paper,
        "recompute and check every published result", needs_input=False,
        default_format="table").add_argument(
        "--goldens", default=None,
        help="replacement expected-value table: inline JSON, a file path, "
             "or - for stdin")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = _read_payload(args.input) if "input" in args else None
        report, lines, *status = args.handler(data, args)
        if args.format == "json":
            print(json.dumps(report, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return status[0] if status else 0
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the
        # interpreter's final flush stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (KeyError, TypeError) as exc:
        print("parse error: malformed input (%s)" % exc, file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        if "integer string conversion" in str(exc):
            # an exact result longer than the interpreter prints
            exc = ("a result has an integer of more than %d digits, the "
                   "interpreter's limit on integer string conversion "
                   "(sys.get_int_max_str_digits())"
                   % sys.get_int_max_str_digits())
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
