"""Reachability map: the lines of ``src/poisson_forge`` that no product path runs.

Run from the repository root:

    python tests/reachability.py

A ``sys.settrace`` line tracer is installed before the package is
imported, and these product paths then run in this process:

- ``verify.run_verification`` at the seeds 0, 7, 403 and 20260412;
- every case of ``tests/corpus/cases.json`` through ``cli.main``, with
  its environment overlay;
- the op mixes of ``perfbench/wl_rational`` (``setup`` and ``analyse``
  at the seeds 1 and 2) and of ``perfbench/wl_cli`` (``setup`` at the
  seed 1, each argv through ``cli.main``).

For each function of the package (methods, nested functions and
comprehensions counted with the function that holds them) the script
prints the executable lines that no path reached, then the totals.
Module and class bodies run at import and are left out.

A function that no path entered is wholly unreached.  Each one needs a
stated reason in ``REASONS``; the script prints every wholly unreached
function without one, and every reason whose function a path now
enters, and then exits 1.  Otherwise it exits 0, whatever lines it
finds unreached inside functions that ran.  It is not collected by
pytest.
"""

import contextlib
import io
import json
import os
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poisson_forge"
SEEDS = (0, 7, 403, 20260412)

#: why a function that no product path enters stays in the package
_PROTOCOL = "operator, hash or repr protocol of a public value type"
REASONS = {
    "cli._goldens_from": "argparse type of `verify-paper --goldens`; "
                         "test_cli reaches it",
    "cli._positive_tolerance": "argparse type of `orbits --tolerance`; "
                               "test_cli reaches it",
    "exactnum.ExtScalar.__repr__": _PROTOCOL,
    "exactnum._int_digit_limit": "error branch naming Python's int digit "
                                 "limit for an overlong literal; test_cli "
                                 "and test_exactnum reach it",
    "exactnum.Polynomial.__getnewargs__": "copy and pickle protocol of a "
                                          "public value type; test_exactnum "
                                          "pins it",
    "exactnum.Polynomial.integer_form": "the public read of the form that "
                                        "the differential tests compare",
    "exactnum.Polynomial.__rmul__": _PROTOCOL,
    "exactnum.Polynomial.__pow__": _PROTOCOL,
    "exactnum.Polynomial.__hash__": _PROTOCOL,
    "exactnum.Polynomial.__repr__": _PROTOCOL,
    "exactnum.Matrix.integer_form": "the public read of the form that the "
                                    "differential tests compare",
    "exactnum.Matrix.__hash__": _PROTOCOL,
    "exactnum.Matrix.__neg__": _PROTOCOL,
    "exactnum.Matrix.__repr__": _PROTOCOL,
    "exactnum.congruent_diagonalize": "public Lagrange congruence with a "
                                      "Fraction diagonal; classify reads the "
                                      "int diagonal of its loop, "
                                      "_congruent_diagonal, and test_exactnum "
                                      "and test_integer_linalg reach it",
    "linclass.Witness.from_json": "reads back a CLI witness; test_cli and "
                                  "test_linclass reach it",
    "multivec.MultiVectorField.__repr__": _PROTOCOL,
    "multivec.bivector_from_potential": "public constructor of the potential "
                                        "bivector on any R^n; quaddef.pi_quad "
                                        "sums its R^3 components in one pass, "
                                        "and the tests compare the two",
    "quaddef.pi_quad": "public constructor of the quadratic bivector of a "
                       "pair; deform_check brackets the rows of its builder "
                       "_quad_sums without building it, and the tests "
                       "compare it with the wedge route",
}

_hits = set()
_entered = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(str(PACKAGE)):
        return None
    _hits.add((code.co_filename, code.co_firstlineno))
    _entered.add((code.co_filename, code.co_firstlineno))
    return _local


def _cli(cli, argv, env=None):
    """Exit code of one CLI invocation in this process, output discarded."""
    saved = {name: os.environ.get(name) for name in env or {}}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_product_paths() -> list:
    """Run every product path; returns notes on answers that went wrong."""
    from poisson_forge import cli, verify

    notes = []
    for seed in SEEDS:
        items = verify.run_verification(seed=seed)
        failed = [it for it in items if not it.passed]
        if failed:
            notes.append("verify seed %d: %d items failed" % (seed, len(failed)))
    corpus = json.loads((ROOT / "tests" / "corpus" / "cases.json").read_text())
    for case in corpus:
        code = _cli(cli, case["argv"], case.get("env"))
        if code != case["code"]:
            notes.append("corpus %s: exit %s, recorded %s"
                         % (case["name"], code, case["code"]))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import wl_cli
    import wl_rational

    for seed in (1, 2):
        for inp in wl_rational.setup(seed):
            if not wl_rational.analyse(inp):
                notes.append("rational-analysis seed %d: a check failed" % seed)
    for op in wl_cli.setup(1):
        code = _cli(cli, op.argv)
        if code != op.code:
            notes.append("cli-cold %s: exit %s, expected %s"
                         % (op.label, code, op.code))
    return notes


def _lines(code) -> set:
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _lines(const)
    return out


def _functions(code, prefix=""):
    """(qualified name, code) of every function under a module or class
    body, nested code left in its function."""
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        name = prefix + const.co_name
        if const.co_flags & CO_OPTIMIZED:
            yield name, const
        else:                               # a class body
            yield from _functions(const, name + ".")


def _ranges(lines) -> str:
    spans, start = [], None
    for line in lines:
        if start is None:
            start = end = line
        elif line == end + 1:
            end = line
        else:
            spans.append((start, end))
            start = end = line
    if start is not None:
        spans.append((start, end))
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def report() -> tuple:
    """Print the unreached lines per function; returns (unreached, total,
    names of the functions that no path entered)."""
    unreached = total = 0
    wholly = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for name, code in _functions(module):
            if (str(path), code.co_firstlineno) not in _entered:
                wholly.add("%s.%s" % (path.stem, name))
            lines = _lines(code)
            missing = sorted(line for line in lines
                             if (str(path), line) not in _hits)
            total += len(lines)
            unreached += len(missing)
            if missing:
                print("%s.%s: %d of %d lines unreached: %s" % (
                    path.stem, name, len(missing), len(lines),
                    _ranges(missing)))
    return unreached, total, wholly


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_global)
    try:
        import poisson_forge

        if Path(poisson_forge.__file__).resolve().parent != PACKAGE:
            print("poisson_forge imported from %s, not %s"
                  % (poisson_forge.__file__, PACKAGE), file=sys.stderr)
            return 1
        notes = run_product_paths()
    finally:
        sys.settrace(None)
    unreached, total, wholly = report()
    print("%d of %d executable lines in functions unreached" % (unreached, total))
    for note in notes:
        print("note: %s" % note)
    unexplained = sorted(wholly - set(REASONS))
    stale = sorted(set(REASONS) - wholly)
    for name in unexplained:
        print("wholly unreached without a reason in REASONS: %s" % name)
    for name in stale:
        print("reason for a function that a product path enters: %s" % name)
    print("%d wholly unreached functions, each with a reason"
          % (len(wholly) - len(unexplained)))
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
