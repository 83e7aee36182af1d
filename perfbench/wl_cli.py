"""Workload ``cli-cold``: one CLI invocation per op, each in a fresh interpreter.

Interpreter start, imports and the tables built at import dominate here.
A pass is a fixed, seeded mix of 35 invocations over the eight input
verbs (``verify-paper`` is left to the ``sweep`` workload):

* seeded structures whose answer is fixed by construction (case and
  modulus, ``is_poisson``, modular vector = k, orbit family, orbit count
  and the point's orbit index, transported README deformation);
* the README's two worked examples;
* six ``orbits`` queries with fixed 5-digit eigenvalues, more than a
  tenth of the mix, so p90 measures the slow root finding in
  ``jordan_family_of``;
* five error paths with their documented exit codes.  Three of them
  (ROADMAP 2(c)) break the exit-code contract today; they are run and
  reported as known-broken, apart from the failures that fail a run.

Runs are closed loop with one client and one child at a time.  An op's
time is the child's CPU time, scaled to reference speed by the host
speed sampled in this process right before and right after it (see
``common.HostSpeed``).
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from common import (BENCH_DIR, HostSpeed, Outcome, another_pass, child_env,
                    end_to_end, measure_setup, run_child)
from layerprobes import per_layer_metrics
from layertrace import MARKER
from wl_rational import random_invertible, random_structure

OP_TIMEOUT_S = 20
MIN_OPS = 100
HARD_STOP_S = 120

_README_CLASSIFY = {"k": ["0", "0", "1"],
                    "A": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "0"]]}
_ZERO = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
_README_SOLVE = {"pair": {"k": ["0", "0", "1"], "A": _ZERO},
                 "K": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "-3"]]}

#: orbit index of a point's support pattern, diagonal distinct family
_DISTINCT_ORBIT = {(2,): 1, (1,): 2, (0,): 3, (0, 1): 4, (1, 2): 5, (0, 2): 6,
                   (0, 1, 2): 7}


class Op:
    """One invocation and the answer its input fixes."""

    __slots__ = ("label", "argv", "code", "check", "known_broken")

    def __init__(self, label, argv, code=0, check=None, known_broken=False):
        self.label, self.argv, self.code = label, argv, code
        self.check, self.known_broken = check, known_broken

    @property
    def verb(self):
        return self.argv[0]

    def passed(self, child):
        err = "\n".join(line for line in child.err.splitlines()
                        if not line.startswith(MARKER))
        if child.code != self.code or "Traceback" in err:
            return False
        if self.check is None:
            return child.out == ""
        try:
            return self.check(child.out)
        except (ValueError, KeyError, TypeError):
            return False


def _json_check(predicate):
    return lambda out: predicate(json.loads(out))


def _point(rng):
    support = sorted(rng.sample(range(3), rng.randint(1, 3)))
    coords = [0, 0, 0]
    for i in support:
        coords[i] = rng.choice([-3, -2, -1, 1, 2, 3])
    return coords, tuple(support)


def _orbits_op(label, k_rows, family, count, coords, index):
    payload = {"K": [[str(v) for v in row] for row in k_rows],
               "point": [str(v) for v in coords]}
    return Op(label, ["orbits", json.dumps(payload)], check=_json_check(
        lambda out: (out["family"], out["orbit_count"], out["point"]["orbit"])
        == (family, count, index)))


def _small_diagonal(rng):
    while True:
        a = rng.choice([-1, 1]) * rng.randint(1, 9)
        b = rng.choice([-1, 1]) * rng.randint(1, 9)
        c = -(a + b)
        if c != 0 and len({a, b, c}) == 3:
            return [[a, 0, 0], [0, b, 0], [0, 0, c]]


#: (a, b) of the 5-digit queries diag(a, b, -(a + b)).  The cost of the
#: trial division depends on the determinant's divisors, so the same six
#: determinants are used on every seed; the seed picks the signs and points.
_FIVE_DIGIT = ((10061, 20147), (10223, 20389), (10457, 20533),
               (10619, 20771), (10837, 20903), (10979, 20011))


def _five_digit_diagonal(rng, a, b):
    sign = rng.choice([-1, 1])
    a, b = sign * a, sign * b
    return [[a, 0, 0], [0, b, 0], [0, 0, -(a + b)]]


def _structure_ops(rng):
    from poisson_forge import multivec

    ops = []
    for _ in range(3):
        case, a_squared, pair = random_structure(rng)
        want = (case, None if a_squared is None else str(a_squared))
        ops.append(Op("classify", ["classify", json.dumps(pair.to_json())],
                      check=_json_check(lambda out, want=want: (
                          out["case"], out.get("a_squared")) == want)))
    ops.append(Op("classify-readme", ["classify", json.dumps(_README_CLASSIFY)],
                  check=_json_check(lambda out: (out["case"], out["a_squared"])
                                    == (8, "4"))))
    for _ in range(3):
        _, _, pair = random_structure(rng)
        data = pair.to_json()
        ops.append(Op("decompose", ["decompose", json.dumps(data)],
                      check=_json_check(lambda out, k=data["k"]: out["k"] == k)))
    for _ in range(2):
        _, _, pair = random_structure(rng)
        data = pair.to_json()
        ops.append(Op("bracket", ["bracket", json.dumps({"u": data, "v": data})],
                      check=_json_check(lambda out: (out["grade"], out["components"])
                                        == (3, {}))))
    for _ in range(3):
        _, _, pair = random_structure(rng)
        want = multivec.const_vf(pair.k).to_json()
        ops.append(Op("modular", ["modular", json.dumps(pair.to_json())],
                      check=_json_check(lambda out, want=want: out == want)))
    for _ in range(2):
        _, _, pair = random_structure(rng)
        ops.append(Op("is-poisson", ["is-poisson", json.dumps(pair.to_json())],
                      check=_json_check(lambda out: out == {"is_poisson": True})))
    return ops


def _deformation_ops(rng):
    """The README deformation (axis pair, K = diag(1,2,-3), F = xyz/6)
    carried along random invertible maps: the solution stays unique."""
    from poisson_forge import exactnum, linclass, quaddef

    axis = linclass.standard_pair(7)
    readme = quaddef.QuadraticPair(
        exactnum.Matrix.diagonal([1, 2, -3]),
        exactnum.Polynomial(3, {(1, 1, 1): Fraction(1, 6)}))

    def carried():
        s = random_invertible(rng, exactnum.Matrix)
        return (linclass.transform_pair(s, axis).to_json(),
                quaddef.transform_pair(s, readme))

    ops = []
    for _ in range(2):
        pair, qp = carried()
        payload = {"pair": pair, "K": qp.twist.to_json()}
        want = qp.cubic.to_json()
        ops.append(Op("deform-solve", ["deform-solve", json.dumps(payload)],
                      check=_json_check(lambda out, want=want: (
                          out["empty"], out["particular"], out["basis"])
                          == (False, want, []))))
    ops.append(Op("deform-solve-readme",
                  ["deform-solve", json.dumps(_README_SOLVE), "--format", "table"],
                  check=lambda out: out == "particular: 1/6·xyz\nbasis: (none)\n"))
    for scale, deforms in ((1, True), (2, False), (1, True)):
        pair, qp = carried()
        payload = {"pair": pair, "K": qp.twist.to_json(),
                   "F": (qp.cubic * scale).to_json()}
        ops.append(Op("deform-check", ["deform-check", json.dumps(payload)],
                      check=_json_check(lambda out, want=deforms:
                                        out == {"deforms": want})))
    return ops


def _orbit_ops(rng):
    ops = []
    for _ in range(2):
        coords, support = _point(rng)
        ops.append(_orbits_op("orbits", _small_diagonal(rng),
                              "DIAG_DISTINCT", 7, coords, _DISTINCT_ORBIT[support]))
    lam = rng.choice([-3, -2, -1, 1, 2, 3])
    coords, _ = _point(rng)
    index = 1 if coords[:2] == [0, 0] else (2 if coords[2] == 0 else 3)
    ops.append(_orbits_op("orbits", [[lam, 0, 0], [0, lam, 0], [0, 0, -2 * lam]],
                          "DIAG_REPEATED", 3, coords, index))
    s, t = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
    coords, _ = _point(rng)
    index = 3 if coords[0] else (2 if coords[1] else 1)
    ops.append(_orbits_op("orbits", [[0, s, 0], [0, 0, t], [0, 0, 0]],
                          "NILPOTENT_FULL", 3, coords, index))
    for a, b in _FIVE_DIGIT:
        coords, support = _point(rng)
        ops.append(_orbits_op("orbits-5digit",
                              _five_digit_diagonal(rng, a, b),
                              "DIAG_DISTINCT", 7, coords, _DISTINCT_ORBIT[support]))
    return ops


def _error_ops():
    bad_exponent = {"n": 3, "grade": 2, "components": {"1,2": {
        "vars": ["x", "y", "z"], "terms": [{"exp": [1, 0], "coef": "1"}]}}}
    return [
        Op("invalid-json", ["classify", '{"k": ['], code=2),
        Op("incompatible-pair", ["classify", json.dumps(
            {"k": ["1", "0", "0"],
             "A": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]})], code=1),
        Op("bad-literal", ["classify", json.dumps(
            {"k": ["a", "0", "1"], "A": _ZERO})], code=2, known_broken=True),
        Op("bad-exponent", ["is-poisson", json.dumps(bad_exponent)], code=2,
           known_broken=True),
        Op("zero-denominator", ["classify", json.dumps(
            {"k": ["1/0", "0", "1"], "A": _ZERO})], code=2, known_broken=True),
    ]


def setup(seed):
    """The seeded 35-invocation mix, in a seeded order."""
    rng = random.Random(seed)
    ops = (_structure_ops(rng) + _deformation_ops(rng) + _orbit_ops(rng)
           + _error_ops())
    rng.shuffle(ops)
    return ops


class _Loop:
    def __init__(self, seed, ops):
        self.env = child_env(seed)
        self.ops = ops
        self.latency_ms = []
        self.by_verb = {}
        self.attempted = self.failed = self.broken = 0
        self.trace = {}
        self.notes = []
        self.deadline = time.perf_counter() + HARD_STOP_S
        self.stopped = False
        self.host = HostSpeed()

    def one_pass(self, traced=False):
        """Run the mix once; returns the pass time in CPU seconds at
        reference speed, or None when the hard stop cut the pass short.
        The op times of a cut pass are left out of the metrics."""
        op_ms = []
        for op in self.ops:
            if time.perf_counter() > self.deadline:
                self.stopped = True
                self.notes.append("# stopped at the %d s limit" % HARD_STOP_S)
                return None
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py")] + op.argv
            else:
                cmd = [sys.executable, "-m", "poisson_forge.cli"] + op.argv
            child = run_child(cmd, self.env, OP_TIMEOUT_S)
            op_ms.append(child.cpu_s * self.host.factor() * 1e3)
            self.attempted += 1
            if traced:
                self._add_trace(child.err)
            if op.passed(child):
                continue
            if op.known_broken:
                self.broken += 1
            else:
                self.failed += 1
                self.notes.append("# FAIL %s (exit %s): %s" % (
                    op.label, child.code, (child.err or child.out).strip()[-200:]))
        self.latency_ms += op_ms
        for op, ms in zip(self.ops, op_ms):
            if op.check is not None:
                self.by_verb.setdefault(op.verb, []).append(ms)
        return sum(op_ms) / 1e3

    def _add_trace(self, err):
        for line in err.splitlines():
            if line.startswith(MARKER):
                for name, value in json.loads(line[len(MARKER):]).items():
                    self.trace[name] = self.trace.get(name, 0) + value

    def complete(self):
        """No hard stop, no unexpected failure, and enough op samples."""
        if self.attempted < MIN_OPS:
            self.notes.append("# only %d ops, fewer than %d" % (self.attempted,
                                                                MIN_OPS))
        return not self.stopped and self.failed == 0 and self.attempted >= MIN_OPS

    def known_broken_note(self):
        return ("# known-broken error inputs (ROADMAP 2(c)): %d of %d ops break "
                "the exit-code contract" % (self.broken, self.attempted))


def run(seed, seconds, traced):
    if traced:
        return _run_traced(seed, _Loop(seed, setup(seed)))
    setup_s = measure_setup("cli-cold", seed)
    loop = _Loop(seed, setup(seed))
    passes = []
    start = time.perf_counter()
    wall_s = 0.0
    while loop.attempted < MIN_OPS or another_pass(start, seconds, wall_s):
        began = time.perf_counter()
        pass_s = loop.one_pass()
        wall_s = time.perf_counter() - began
        if pass_s is None:
            break
        passes.append(pass_s)
    loop.notes.append("# %d whole passes, %d op samples"
                      % (len(passes), len(loop.latency_ms)))
    loop.notes.append(loop.known_broken_note())
    loop.notes.append(loop.host.note())
    if not passes:
        raise RuntimeError("no cli-cold pass completed:\n" + "\n".join(loop.notes))
    metrics = end_to_end(setup_s, passes, loop.latency_ms)
    return Outcome(metrics, loop.attempted, loop.failed, loop.complete(),
                   loop.notes)


def _run_traced(seed, loop):
    plain_s = loop.one_pass()
    verb_ms = {verb: statistics.median(v) for verb, v in loop.by_verb.items()}
    traced_s = loop.one_pass(traced=True)
    loop.notes.append(loop.known_broken_note())
    if plain_s is None or traced_s is None:
        raise RuntimeError("a cli-cold pass hit the hard stop:\n"
                           + "\n".join(loop.notes))
    metrics, wrong = per_layer_metrics(
        seed, loop.trace, traced_s / plain_s,
        (loop.failed + loop.broken) / loop.attempted, verb_ms)
    loop.notes += ["# probe gave a wrong result: %s" % w for w in wrong]
    ok = loop.failed == 0 and not wrong
    return Outcome(metrics, loop.attempted, loop.failed, ok, loop.notes)
