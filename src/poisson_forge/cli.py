"""Command-line front end.

One verb per invocation; structures come in as JSON (inline, from a
file, or from stdin with ``-``) and results go out as JSON (default) or
as readable tables.  Exit codes: 0 on success, 1 on domain errors
(invalid structures, inconsistent systems, failed verification, a
``bracket`` or ``is-poisson`` input over ``MAX_TERM_PRODUCT``, and a
``decompose`` input whose Jacobi test could make more than
``MAX_DECOMPOSE_WORK`` products, refused as ``error: input too large``), 2 on
parse errors (an input that cannot be read or names no file, and a
``--goldens`` table without every section of the built-in one, too) and
bad usage, 3 on an internal error (a failed internal consistency check
or any other unexpected exception), reported in one line on stderr
without a traceback.  A reader that closes stdout early
(``poisson-forge ... | head``) is not an error: the CLI stops writing
and exits 0 with nothing on stderr.
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
    m, n = (sum(len(p.terms) for p in f.components.values()) for f in (u, v))
    if m * n > MAX_TERM_PRODUCT:
        raise ValueError("input too large: %d x %d terms exceed the bracket's "
                         "cap of %d" % (m, n, MAX_TERM_PRODUCT))


def _matrix_from(data, key: str) -> Matrix:
    if key not in data:
        raise ParseError('missing "%s" field' % key)
    return Matrix.from_json(data[key])


def _emit(args, json_obj, table_lines):
    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in table_lines:
            print(line)


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
# verbs
# ---------------------------------------------------------------------------


def _rows_str(m: Matrix) -> str:
    return "  ".join(
        "[%s]" % ", ".join(str(v) for v in row) for row in m.rows
    )


def _cmd_classify(args):
    pair = _pair_from(_read_payload(args.input))
    label, witness = classify(pair)
    report = classification_to_json(label, witness)
    lines = ["case: %d" % label.case_id]
    if label.a_squared is not None:
        lines.append("a_squared: %s" % label.a_squared)
    lines.append("witness R: %s" % _rows_str(witness.base))
    lines.append("witness d: (%s)" % ", ".join(str(v) for v in witness.scales))
    _emit(args, report, lines)
    return 0


def _cmd_decompose(args):
    pi = _field_from(_read_payload(args.input))
    # square_closed's Jacobi test is the one step of decompose above linear
    # in the size of pi, and n(n - 1) in the bound also covers the
    # n(n - 1) / 2 components of the curl-free part
    if decompose_work(pi) > MAX_DECOMPOSE_WORK:
        raise ValueError("input too large")
    dec = decompose(pi)
    report = dec.to_json()
    lines = [
        "k: (%s)" % ", ".join(str(v) for v in dec.k),
        "curl_free: %s" % dec.curl_free,
        "square_closed: %s" % str(dec.square_closed).lower(),
        "twist_commutes: %s" % str(dec.twist_commutes).lower(),
    ]
    _emit(args, report, lines)
    return 0


def _cmd_bracket(args):
    data = _read_payload(args.input)
    for key in ("u", "v"):
        if not isinstance(data.get(key), dict):
            raise ParseError('bracket needs "u" and "v" objects')
    u, v = _field_from(data["u"]), _field_from(data["v"])
    _check_term_product(u, v)
    out = schouten(u, v)
    _emit(args, out.to_json(), [str(out)])
    return 0


def _cmd_modular(args):
    pi = _field_from(_read_payload(args.input))
    out = modular_field(pi)
    _emit(args, out.to_json(), [str(out)])
    return 0


def _cmd_is_poisson(args):
    pi = _field_from(_read_payload(args.input))
    _check_term_product(pi, pi)
    verdict = is_poisson(pi)
    _emit(args, {"is_poisson": verdict},
          ["is_poisson: %s" % str(verdict).lower()])
    return 0


def _deformation_input(args):
    """(payload, pair, twist) of a deform-solve or deform-check input."""
    data = _read_payload(args.input)
    if "pair" not in data:
        raise ParseError('%s needs a "pair" field' % args.verb)
    return data, _pair_from(data["pair"]), _matrix_from(data, "K")


def _cmd_deform_solve(args):
    _, pair, twist = _deformation_input(args)
    report, lines = _space_report(solve_F(pair, twist))
    _emit(args, report, lines)
    return 0


def _cmd_deform_check(args):
    data, pair, twist = _deformation_input(args)
    if "F" not in data:
        raise ParseError('deform-check needs an "F" field')
    cubic = Polynomial.from_json(data["F"])
    qp = QuadraticPair(twist, cubic)
    verdict = deform_check(pair, qp)
    _emit(args, {"deforms": verdict}, ["deforms: %s" % str(verdict).lower()])
    return 0


def _cmd_orbits(args):
    data = _read_payload(args.input)
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
    _emit(args, report, lines)
    return 0


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


def _cmd_verify_paper(args):
    goldens = _goldens_from(args.goldens) if args.goldens else None
    try:
        seed = int(os.environ.get("POISSON_FORGE_SEED", DEFAULT_SEED))
    except ValueError:
        raise ParseError("POISSON_FORGE_SEED is not an integer") from None
    items = run_verification(goldens=goldens, seed=seed)
    if args.format == "json":
        print(json.dumps([it.to_json() for it in items], indent=2))
    else:
        for it in items:
            print("%s  %s: %s" % (it.status, it.item, it.details))
        passed = sum(1 for it in items if it.passed)
        print("%d/%d items passed" % (passed, len(items)))
    return 0 if all(it.passed for it in items) else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "bracket": _cmd_bracket,
    "modular": _cmd_modular,
    "is-poisson": _cmd_is_poisson,
    "deform-solve": _cmd_deform_solve,
    "deform-check": _cmd_deform_check,
    "orbits": _cmd_orbits,
    "verify-paper": _cmd_verify_paper,
}


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

    def add(verb, needs_input, help_text):
        p = sub.add_parser(verb, help=help_text)
        if needs_input:
            p.add_argument("input",
                           help="inline JSON, a file path, or - for stdin")
        default_format = "table" if verb == "verify-paper" else "json"
        p.add_argument("--format", choices=("json", "table"),
                       default=default_format)
        if verb == "orbits":
            p.add_argument("--tolerance", type=_positive_tolerance,
                           default=1e-12,
                           help="orthogonality residual bound of the "
                                "floating rotation (finite, positive)")
        if verb == "verify-paper":
            p.add_argument("--goldens", default=None,
                           help="replacement expected-value table: inline "
                                "JSON, a file path, or - for stdin")
        return p

    add("classify", True, "name the standard form of a linear structure")
    add("decompose", True, "split a linear bivector into twist + curl-free part")
    add("bracket", True, "Schouten bracket of two fields")
    add("modular", True, "modular vector field of a bivector")
    add("is-poisson", True, "does the self-bracket vanish?")
    add("deform-solve", True, "cubic potentials compatible with a twist")
    add("deform-check", True, "is (K, F) a deformation of the pair?")
    add("orbits", True, "orbit data of a twist under the rotation group")
    add("verify-paper", False, "recompute and check every published result")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.verb]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
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
