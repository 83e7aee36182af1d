"""Replay the recorded CLI corpus: same exit code, byte-identical stdout.

The corpus (``tests/corpus``) covers the README examples, one input per
input verb, ``orbits`` on all three families with exact, Q(sqrt2) and
float-fallback points and on a twist outside them (its float eigenvalue
report), the error paths and ``verify-paper`` sweeps under four seeds.
``tests/corpus/record.py`` documents how it was recorded.
"""

import json
import subprocess
import sys

import pytest

from corpus import record

from poisson_forge.quaddef import ktilde

CASES = record.load_cases()


#: every case as recorded, and again under ``python -O``, which strips
#: ``assert`` statements: no recorded result may depend on one
@pytest.mark.parametrize("case, flags", [
    pytest.param(c, flags, id=c["name"] + "".join(flags))
    for flags in [(), ("-O",)] for c in CASES
])
def test_corpus_case_replays_byte_for_byte(case, flags):
    proc = record.run_case(case, flags)
    assert proc.returncode == case["code"], proc.stderr.decode()
    expected = (record.CORPUS / (case["name"] + ".out")).read_bytes()
    assert proc.stdout == expected


#: the CLI entry point, run with every module outside the standard
#: library and the package made unimportable
_STDLIB_ONLY = """
import sys


class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "poisson_forge" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError("%s is not in the standard library" % name)


sys.meta_path.insert(0, StdlibOnly())
from poisson_forge.cli import main
sys.exit(main())
"""


def test_float_fallbacks_need_only_the_standard_library():
    for case in CASES:
        if case["name"].startswith("orbits-") and case["name"].endswith(
                "-float"):
            proc = subprocess.run(
                [sys.executable, "-c", _STDLIB_ONLY, *case["argv"]],
                capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            expected = (record.CORPUS / (case["name"] + ".out")).read_bytes()
            assert proc.stdout == expected
    other = json.dumps({"K": ktilde((0, 0, 1)).to_json()})
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY, "orbits", other],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "eigenvalue report" in proc.stderr
