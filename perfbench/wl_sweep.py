"""Workload ``sweep``: full ``verify-paper`` passes, each in a fresh interpreter.

One op is one pass: a full ``run_verification`` over the 35 items.
Every pass starts a new interpreter because a ``verify-paper`` user pays
every cache fill again on each run, so nothing may carry over from one
pass to the next.  All passes of a run use the same seed and
PYTHONHASHSEED, so their item records must be identical.  ``attempted``
and ``failed`` count verify items.

One item is known to fail on a few seeds without a wrong answer: the
two-route deformation item draws 60 random tuples and fails when none of
them deforms (or all do), although both routes agreed on every tuple.
That failure is counted as known-broken, like the broken ``cli-cold``
error inputs: printed, and in the traced run's ``fail_ratio``, but not in
``failed``.
"""

import json
import sys
import time

from common import (BENCH_DIR, VERIFY_ITEMS, Outcome, another_pass, child_env,
                    end_to_end, hash_seed, measure_setup, run_child)
from layerprobes import per_layer_metrics

PASS_TIMEOUT_S = 90
#: two passes at least, so that every run checks that one seed gives one sweep
MIN_PASSES = 2
#: (item, details) of the sampling failure described above
KNOWN_BROKEN = {
    ("deformation criterion agrees along two routes", detail)
    for detail in ("no positive verdicts sampled", "no negative verdicts sampled")
}


def setup(seed):
    """What a pass pays before its first item: interpreter and imports."""
    import poisson_forge.verify  # noqa: F401


class _Passes:
    """Runs passes and checks each against the goldens and the first pass."""

    def __init__(self, seed):
        self.seed = seed
        self.env = child_env(seed)
        self.attempted = 0
        self.failed = self.broken = 0
        self.reference = None
        self.notes = []

    def run(self, traced=False):
        cmd = [sys.executable, str(BENCH_DIR / "sweep_pass.py"), str(self.seed)]
        if traced:
            cmd.append("--trace")
        child = run_child(cmd, self.env, PASS_TIMEOUT_S)
        self.attempted += len(VERIFY_ITEMS)
        if child.code != 0:
            self.failed += len(VERIFY_ITEMS)
            self.notes.append("# pass failed (exit %s): %s"
                              % (child.code, child.err.strip()[-300:]))
            return None
        data = json.loads(child.out.strip().splitlines()[-1])
        items = data["items"]
        bad = []
        for it in items:
            if it["status"] == "PASS":
                continue
            if (it["item"], it["details"]) in KNOWN_BROKEN:
                self.broken += 1
                self.notes.append("# known-broken: %s (%s)"
                                  % (it["item"], it["details"]))
            else:
                bad.append(it["item"])
        if [it["item"] for it in items] != list(VERIFY_ITEMS):
            bad = list(VERIFY_ITEMS)
            self.notes.append("# the sweep no longer runs the 35 known items")
        if self.reference is None:
            self.reference = items
        elif items != self.reference:
            differ = [a["item"] for a, b in zip(items, self.reference) if a != b]
            self.notes.append("# same seed, different item records: %s" % differ)
            bad = sorted(set(bad) | set(differ))
        for name in bad:
            self.notes.append("# FAIL %s" % name)
        self.failed += len(bad)
        return data


def run(seed, seconds, traced):
    passes = _Passes(seed)
    passes.notes.append("# PYTHONHASHSEED=%d, run_verification(seed=%d)"
                        % (hash_seed(seed), seed))
    if traced:
        return _run_traced(seed, passes)
    setup_s = measure_setup("sweep", seed)
    pass_s = []
    start = time.perf_counter()
    wall_s = 0.0
    while len(pass_s) < MIN_PASSES or another_pass(start, seconds, wall_s):
        began = time.perf_counter()
        data = passes.run()
        wall_s = time.perf_counter() - began
        if data is None:
            break
        pass_s.append(data["pass_s"])
        passes.notes.append(
            "# pass %d: %.3f s at reference speed, %.3f s CPU; reference loop "
            "%.3f-%.3f ms" % (len(pass_s), data["pass_s"], data["cpu_s"],
                              min(data["reference_ms"]), max(data["reference_ms"])))
    if not pass_s:
        raise RuntimeError("no sweep pass completed:\n" + "\n".join(passes.notes))
    passes.notes.append("# %d passes of %d items" % (len(pass_s), len(VERIFY_ITEMS)))
    metrics = end_to_end(setup_s, pass_s, [t * 1e3 for t in pass_s])
    return Outcome(metrics, passes.attempted, passes.failed,
                   passes.failed == 0, passes.notes)


def _run_traced(seed, passes):
    plain = passes.run()
    traced = passes.run(traced=True)
    if plain is None or traced is None:
        raise RuntimeError("a sweep pass failed:\n" + "\n".join(passes.notes))
    passes.notes += ["# edge %s -> %s: %d calls, %.3f s" % tuple(e)
                     for e in traced["edges"]]
    metrics, wrong = per_layer_metrics(
        seed, traced["trace"], traced["pass_s"] / plain["pass_s"],
        (passes.failed + passes.broken) / passes.attempted)
    passes.notes += ["# probe gave a wrong result: %s" % w for w in wrong]
    ok = passes.failed == 0 and not wrong
    return Outcome(metrics, passes.attempted, passes.failed, ok, passes.notes)
