"""Shared pieces of the benchmark: metric names, statistics, child processes."""

import gc
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_PY = BENCH_DIR / "run.py"

#: end-to-end metrics, printed by every workload in its untraced run
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

#: the 35 verify-paper items, in sweep order
VERIFY_ITEMS = (
    "curl twice is zero",
    "bracket graded antisymmetry",
    "divergence of linear fields is the trace",
    "bracket of linear and constant fields",
    "modular field is the axis field",
    "standard forms self-classify",
    "classification is conjugation-invariant",
    "squared modulus detected exactly",
    "decomposition round-trips",
    "symmetry membership agrees along two routes",
    "infinitesimal symmetry dimensions",
    "tampered witnesses are rejected",
    "axis twist matrix",
    "drift identity expansion",
    "deformation criterion agrees along two routes",
    "potential-free deformations are symmetries",
    "invariant-cubic dimensions",
    "solver soundness",
    "solver equivariance",
    "projective orbit counts",
    "representative rotations are special orthogonal",
    "rotation table",
    "distinct-eigenvalue family: conjugated twists",
    "distinct-eigenvalue family: transported cubics",
    "repeated-eigenvalue family: twists and spans",
    "nilpotent family: twists and spans",
    "axis pair: distinct-eigenvalue catalogs",
    "axis pair: repeated-eigenvalue catalogs",
    "axis pair: nilpotent catalog",
    "open-book pair: catalogs",
    "orthogonal-type pair: rotation catalog",
    "indefinite-type pair: three twist catalogs",
    "sheared coordinates simplify the null-twist family",
    "scaling symmetries preserve axis-aligned catalogs",
    "serialization round-trips",
)

CLI_VERBS = ("classify", "decompose", "bracket", "modular", "is-poisson",
             "deform-solve", "deform-check", "orbits")

IMPORT_MODULES = ("exactnum", "multivec", "linclass", "quaddef", "goldens",
                  "verify")

PROBES = ("exactnum.ext_mul", "exactnum.fraction_mul", "exactnum.ext_inverse",
          "linclass.classify", "quaddef.solve_F", "quaddef.p2_orbit_rep",
          "quaddef.catalog")


def slug(name):
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _per_layer():
    from layertrace import COUNTERS, FUNCTIONS

    units = {}
    for name in FUNCTIONS:
        units[name + ".calls"] = "count"
        units[name + ".total_s"] = "s"
        units[name + ".self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for item in VERIFY_ITEMS:
        units["verify.item.%s_s" % slug(item)] = "s"
    units["cli.interp_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for module in IMPORT_MODULES:
        units[module + ".import_ms"] = "ms"
    for verb in CLI_VERBS:
        units["cli.verb.%s_ms.p50" % verb] = "ms"
    for probe in PROBES:
        units[probe + ".probe_us"] = "us"
    units["trace.overhead_ratio"] = "ratio"
    units["fail_ratio"] = "ratio"
    return units


#: per-layer metrics, printed by every workload in its traced run
PER_LAYER = _per_layer()


def hash_seed(seed):
    """PYTHONHASHSEED derived from the workload seed (0..2**32-1)."""
    return seed % 4294967296


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Child(NamedTuple):
    """Outcome of one child process: exit code (None on timeout), output,
    and the CPU seconds (user + system) the child used."""

    code: Optional[int]
    out: str
    err: str
    cpu_s: float


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(cmd, env, timeout):
    """Run one child to completion; a timeout kills it and reports code None.

    Only one child runs at a time, so the growth of the waited-for
    children's CPU time is this child's own."""
    before = children_cpu_s()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, encoding="utf-8")
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return Child(code, out, err, children_cpu_s() - before)


#: nominal CPU seconds of the reference loop: times are reported as if
#: the loop took this long, which is about its time on the two-core VM the
#: ROADMAP baselines were taken on when that VM runs at full speed
REFERENCE_S = 0.001


def _reference_loop():
    """Fixed pure-Python work like the program's: fractions, tuples, dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
        table[(i, i % 7)] = acc.numerator % 1000
    total = 0
    for i in range(6000):
        total += i * i % 7
    return acc, len(table), total


def reference_s():
    """CPU seconds of the reference loop right now (median of five).

    The garbage collector is off meanwhile, so the size of the program's
    heap does not change the loop's time."""
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            start = time.process_time()
            _reference_loop()
            samples.append(time.process_time() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


class HostSpeed:
    """Scales CPU times to the reference host speed.

    The shared VM's speed drifts by up to 2x within seconds, and CPU time
    drifts with it.  The fixed reference loop slows down by about the
    same factor, so a time divided by the loop's time, measured right
    before and right after it, is steady.  Time a process spends waiting
    (I/O, sleep) is not counted.  Each ``factor()`` call samples the
    loop and returns the factor for the work done since the last call.
    """

    def __init__(self):
        self.last = reference_s()
        self.samples = [self.last]

    def factor(self):
        now = reference_s()
        self.samples.append(now)
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor

    def note(self):
        return "# reference loop: median %.3f ms over %d samples (%.3f ms = 1x)" % (
            statistics.median(self.samples) * 1e3, len(self.samples),
            REFERENCE_S * 1e3)


def measure_setup(workload, seed, repeats=9):
    """Median CPU time, at reference speed, of a fresh benchmark process that
    launches, gets ready to time the workload's first op, and exits."""
    samples = []
    host = HostSpeed()
    cmd = [sys.executable, str(RUN_PY), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(repeats):
        child = run_child(cmd, child_env(seed), 60)
        if child.code != 0 or child.out.strip() != "ready":
            raise RuntimeError("setup probe for %s failed" % workload)
        samples.append(child.cpu_s * host.factor())
    return statistics.median(samples)


def another_pass(start, seconds, last_wall_s):
    """Start another pass only if it should end within the run length."""
    return time.perf_counter() - start + last_wall_s <= seconds


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_s, pass_s, latency_ms):
    """The end-to-end metrics from the set-up time, the pass times (s) and
    the op latencies (ms), all at reference speed."""
    return {
        "setup_s": setup_s,
        "sweep_s": p50(pass_s),
        "ops_per_s": len(latency_ms) / sum(pass_s),
        "op_ms.p50": p50(latency_ms),
        "op_ms.p90": p90(latency_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def machine_lines():
    return [
        "# machine: %s %s" % (platform.machine(), platform.platform()),
        "# python: %s (%s)" % (platform.python_version(), sys.executable),
        "# nproc: %d usable of %d" % (len(os.sched_getaffinity(0)),
                                      os.cpu_count()),
    ]


class Outcome(NamedTuple):
    """What a workload hands back to ``run.py`` for printing."""

    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: list
