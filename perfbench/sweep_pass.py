"""One ``run_verification`` pass in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/sweep_pass.py SEED [--trace]

Prints one JSON line: the pass time (CPU seconds at reference speed, see
``common.HostSpeed``), each item's record, and with ``--trace`` the
aggregated per-layer spans.  The reference loop runs between items, so
each item is scaled by the host speed measured right around it.  The
caller pins PYTHONHASHSEED, because ``run_verification`` seeds each item
with ``seed ^ hash(name)``.
"""

import json
import sys
import time

from common import HostSpeed, slug
from layertrace import Tracer, install
from poisson_forge import verify


def main():
    seed = int(sys.argv[1])
    checks = verify._CHECKS
    tracer = None
    if "--trace" in sys.argv[2:]:
        tracer = Tracer()
        install(tracer)
        checks = tuple((name, tracer.wrap("verify.item." + slug(name), check))
                       for name, check in checks)
    host = HostSpeed()
    cpu, scaled = [], []

    def timed(check):
        def run(*args):
            start = time.process_time()
            try:
                return check(*args)
            finally:
                cpu.append(time.process_time() - start)
                scaled.append(cpu[-1] * host.factor())
        return run

    verify._CHECKS = tuple((name, timed(check)) for name, check in checks)
    items = verify.run_verification(seed=seed)
    result = {
        "pass_s": sum(scaled),
        "cpu_s": sum(cpu),
        "reference_ms": [t * 1e3 for t in host.samples],
        "items": [item.to_json() for item in items],
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        result["edges"] = tracer.edges()[:25]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
