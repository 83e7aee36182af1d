"""Replay the recorded CLI corpus: same exit code, byte-identical stdout.

The corpus (``tests/corpus``) covers the README examples, one input per
input verb, ``orbits`` on all three families with exact, Q(sqrt2) and
float-fallback points, the error paths and ``verify-paper`` sweeps
under three seeds.
``tests/corpus/record.py`` documents how it was recorded.
"""

import pytest

from corpus import record

CASES = record.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_corpus_case_replays_byte_for_byte(case):
    proc = record.run_case(case)
    assert proc.returncode == case["code"], proc.stderr.decode()
    expected = (record.CORPUS / (case["name"] + ".out")).read_bytes()
    assert proc.stdout == expected
