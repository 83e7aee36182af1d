"""Run one poisson-forge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the sources are taken from ``src/`` next to this
directory.  Every metric is printed as ``name = value unit``; the last
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics.  See README.md in this directory.
"""

import argparse
import importlib
import json
import sys

from common import END_TO_END, PER_LAYER, SRC, machine_lines

WORKLOADS = {
    "sweep": "wl_sweep",
    "rational-analysis": "wl_rational",
    "cli-cold": "wl_cli",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "poisson_forge" / "__init__.py").is_file():
        print("error: no poisson_forge sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    if set(outcome.metrics) != set(units):
        raise RuntimeError("metric set mismatch: %s"
                           % sorted(set(outcome.metrics) ^ set(units)))
    for line in machine_lines() + outcome.notes:
        print(line)
    for name, unit in units.items():
        print("%s = %r %s" % (name, outcome.metrics[name], unit))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
