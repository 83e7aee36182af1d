"""Record the CLI regression corpus: exit code and exact stdout per case.

Each case in ``cases.json`` names a CLI invocation (``argv``, and an
optional ``env`` overlay such as ``POISSON_FORGE_SEED``).  Running

    PYTHONPATH=src python tests/corpus/record.py [NAME ...]

re-runs the named cases (every case when no name is given), stores each
exit code in ``cases.json`` and each stdout byte for byte in
``<name>.out``.  A case that is named but not yet in ``cases.json`` is an
error: add its ``name``, ``argv`` and ``env`` there first.
``tests/test_corpus.py`` replays the cases and compares, once as
recorded and once under ``python -O``.  Re-record only when an output is
meant to change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent
CASES = CORPUS / "cases.json"


def load_cases():
    return json.loads(CASES.read_text(encoding="utf-8"))


def run_case(case, flags=()):
    """Run one case, with interpreter ``flags`` such as ("-O",)."""
    env = dict(os.environ, **case.get("env", {}))
    return subprocess.run(
        [sys.executable, *flags, "-m", "poisson_forge.cli", *case["argv"]],
        capture_output=True, env=env,
    )


def main(names=()):
    cases = load_cases()
    unknown = set(names) - {case["name"] for case in cases}
    if unknown:
        sys.exit("unknown case(s): %s" % ", ".join(sorted(unknown)))
    for case in cases:
        if names and case["name"] not in names:
            continue
        proc = run_case(case)
        case["code"] = proc.returncode
        (CORPUS / (case["name"] + ".out")).write_bytes(proc.stdout)
        print("%-32s exit %d, %d bytes" % (case["name"], proc.returncode,
                                           len(proc.stdout)))
    CASES.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n",
                     encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
