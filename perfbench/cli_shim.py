"""``python -m poisson_forge.cli`` with per-layer spans, for traced runs.

    PYTHONPATH=src python3 perfbench/cli_shim.py VERB INPUT [OPTIONS]

Behaves like the CLI (same output and exit code) and writes the
aggregated spans to stderr as one line starting with ``PERFBENCH_TRACE``.
"""

import json
import sys

from layertrace import MARKER, Tracer, install
from poisson_forge import cli


def main():
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.report()), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
