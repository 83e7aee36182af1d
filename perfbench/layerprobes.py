"""Per-layer numbers every traced run reports besides its spans.

* Kernel probes: fixed inputs with known exact results, timed in this
  process (``<module>.<op>.probe_us``).  They reproduce the per-layer
  baseline table in ROADMAP.md.
* Interpreter and import cost from fresh interpreters (``cli.interp_ms``,
  ``cli.import_ms`` and ``<module>.import_ms`` from ``-X importtime``).
"""

import statistics
import sys
import time
from fractions import Fraction

from common import HostSpeed, IMPORT_MODULES, PER_LAYER, child_env, run_child

#: axis-pair catalog over the distinct-eigenvalue family (1, 2, -3)
_CATALOG_1_2_M3 = [("1/6·xyz", []), ("2/3·xyz", []), ("5/6·xyz", []),
                   None, None, None, None]


def _per_call_us(fn, number, repeat=5):
    """Median over ``repeat`` batches of the CPU time per call at reference
    speed (see ``common.HostSpeed``), in microseconds."""
    host = HostSpeed()
    batches = []
    for _ in range(repeat):
        start = time.process_time()
        for _ in range(number):
            fn()
        cpu_s = time.process_time() - start
        batches.append(cpu_s * host.factor() / number)
    return statistics.median(batches) * 1e6


def kernel_probes():
    """Returns ({metric: µs per call}, [names of probes whose result was wrong])."""
    from poisson_forge import exactnum, linclass, quaddef

    ext = exactnum.ExtScalar
    a = ext.parts(Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(1, 5))
    b = ext.parts(Fraction(-5, 7), Fraction(1, 3), Fraction(2, 9), Fraction(-1, 4))
    p = Fraction(355, 113)
    q = Fraction(-22, 7)
    pair = linclass.transform_pair(
        exactnum.Matrix([[1, 2, 0], [0, 1, -1], [3, 0, 1]]),
        linclass.standard_pair(9, 2))
    axis = linclass.standard_pair(7)
    twist = exactnum.Matrix.diagonal([1, 2, -3])
    family = quaddef.JordanFamily.diag_distinct(1, 2, -3)

    def catalog_strings(entries):
        out = []
        for entry in entries:
            particular, basis = quaddef.solution_polys(entry.solution)
            out.append(None if particular is None
                       else (str(particular), [str(v) for v in basis]))
        return out

    checks = {
        "exactnum.ext_mul": (lambda: a * b, lambda r: r.coords == (
            Fraction(-449, 630), Fraction(649, 1680), Fraction(563, 1260),
            Fraction(-559, 1512)), 500),
        "exactnum.fraction_mul": (lambda: p * q,
                                  lambda r: r == Fraction(-7810, 791), 20000),
        "exactnum.ext_inverse": (a.inverse, lambda r: r * a == 1, 100),
        "linclass.classify": (lambda: linclass.classify(pair),
                              lambda r: (r[0].case_id, r[0].a_squared) == (9, 4),
                              20),
        "quaddef.solve_F": (lambda: quaddef.solve_F(axis, twist),
                            lambda r: catalog_strings([quaddef.CatalogEntry(
                                None, None, twist, r)]) == [("1/6·xyz", [])], 5),
        "quaddef.p2_orbit_rep": (lambda: quaddef.p2_orbit_rep(family, (1, 1, 1)),
                                 lambda r: r.orbit_index == 7, 5),
        "quaddef.catalog": (lambda: quaddef.catalog(7, family),
                            lambda r: catalog_strings(r) == _CATALOG_1_2_M3, 1),
    }
    timings, wrong = {}, []
    for name, (call, is_right, number) in checks.items():
        if not is_right(call()):
            wrong.append(name)
        repeat = 3 if number == 1 else 5
        timings[name + ".probe_us"] = _per_call_us(call, number, repeat)
    return timings, wrong


def _importtime(stderr):
    """{module: (self_us, cumulative_us)} from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            out[fields[2].strip()] = (int(fields[0]), int(fields[1]))
        except ValueError:
            continue                       # the column header
    return out


def import_timings(seed, repeats=5):
    """Median interpreter start (CPU time at reference speed) and import
    costs (wall time, as ``-X importtime`` reports them), in milliseconds."""
    env = child_env(seed)
    host = HostSpeed()
    interp = []
    for _ in range(repeats):
        child = run_child([sys.executable, "-c", "pass"], env, timeout=60)
        if child.code != 0:
            raise RuntimeError("bare interpreter failed: %s" % child.err)
        interp.append(child.cpu_s * host.factor() * 1e3)
    samples = {"cli.import_ms": []}
    samples.update({m + ".import_ms": [] for m in IMPORT_MODULES})
    for _ in range(repeats):
        child = run_child([sys.executable, "-X", "importtime", "-c",
                           "import poisson_forge.cli"], env, timeout=60)
        if child.code != 0:
            raise RuntimeError("importing the CLI failed: %s" % child.err)
        times = _importtime(child.err)
        samples["cli.import_ms"].append(times["poisson_forge.cli"][1] / 1e3)
        for module in IMPORT_MODULES:
            samples[module + ".import_ms"].append(
                times["poisson_forge." + module][0] / 1e3)
    out = {"cli.interp_ms": statistics.median(interp)}
    out.update({k: statistics.median(v) for k, v in samples.items()})
    return out


def per_layer_metrics(seed, trace_report, overhead, fail_ratio,
                      verb_ms=None):
    """Every per-layer metric; layers a workload never reaches read 0.

    Returns (metrics, names of kernel probes whose result was wrong).
    """
    metrics = dict.fromkeys(PER_LAYER, 0)
    for name, value in trace_report.items():
        if name.startswith("verify.item."):
            if name.endswith(".total_s"):
                metrics[name[:-len(".total_s")] + "_s"] = value
        elif name in metrics:
            metrics[name] = value
    for verb, ms in (verb_ms or {}).items():
        metrics["cli.verb.%s_ms.p50" % verb] = ms
    probes, wrong = kernel_probes()
    metrics.update(probes)
    metrics.update(import_timings(seed))
    metrics["trace.overhead_ratio"] = overhead
    metrics["fail_ratio"] = fail_ratio
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError("undeclared per-layer metrics: %s" % sorted(unknown))
    return metrics, wrong
