"""Workload ``rational-analysis``: the library user's path on arbitrary input.

One op is the full analysis of one random rational structure
lp = S . standard_pair(c, a): classify, decompose the bivector, test one
known and one random matrix for symmetry, solve for the cubics of a random
traceless twist K, and check the deformation by a random kernel cubic of K.
Every answer is checked: against the construction, against a second
route, or against the solution space the op itself returned.
Nothing here leaves the rationals, so an ``ExtScalar`` speed-up must leave
this workload unchanged, while a scalar change that slows rationals shows.
A pass runs the seeded input set once; runs are closed loop, one client,
in this process.
"""

import random
import time
from fractions import Fraction

from common import HostSpeed, Outcome, another_pass, end_to_end, measure_setup
from layerprobes import per_layer_metrics
from layertrace import Tracer, install
from poisson_forge.exactnum import solve_linear

INPUTS_PER_PASS = 100
#: ops between two samples of the host speed
BLOCK = 10

#: one member of each standard structure's symmetry group
AUT_SAMPLES = {
    1: [[2, 1, 0], [0, 1, 3], [1, 0, 1]],
    2: [["3/5", "4/5", 0], ["-4/5", "3/5", 0], [0, 0, 1]],
    3: [["5/4", 0, "3/4"], [0, 1, 0], ["3/4", 0, "5/4"]],
    4: [[2, 2, 0], [-2, 2, 0], [5, 7, 1]],
    5: [[3, 2, 0], [2, 3, 0], [1, 4, 1]],
    6: [[6, 0, 0], [4, 2, 1], [9, 0, 3]],
    7: [[1, 7, 0], [2, 5, 0], [3, 4, 1]],
    8: [[1, -2, 0], [2, 1, 0], [3, 4, 1]],
    9: [[5, 2, 0], [2, 5, 0], [-1, 2, 1]],
    10: [[3, 0, 0], [7, 3, 0], [2, 8, 1]],
}


def random_invertible(rng, matrix_cls):
    while True:
        m = matrix_cls([[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                        for _ in range(3)])
        if m.det() != 0:
            return m


def random_structure(rng):
    """(case, a_squared or None, S . standard_pair(case, a))."""
    from poisson_forge import exactnum, linclass

    case = rng.randint(1, 10)
    scale = Fraction(rng.randint(1, 6), rng.randint(1, 4)) if case in (8, 9) else 1
    s = random_invertible(rng, exactnum.Matrix)
    pair = linclass.transform_pair(s, linclass.standard_pair(case, scale))
    return case, (scale * scale if case in (8, 9) else None), pair


class Input:
    __slots__ = ("case", "a_squared", "pair", "known", "other", "other_is_aut",
                 "twist", "coeffs")


def setup(seed):
    """The seeded input set: INPUTS_PER_PASS structures with their extras."""
    from poisson_forge import exactnum, linclass

    rng = random.Random(seed)
    inputs = []
    for _ in range(INPUTS_PER_PASS):
        inp = Input()
        inp.case, inp.a_squared, inp.pair = random_structure(rng)
        inp.known = exactnum.Matrix([[Fraction(v) for v in row]
                                     for row in AUT_SAMPLES[inp.case]])
        inp.other = random_invertible(rng, exactnum.Matrix)
        # second route to membership: the map fixes the standard structure
        standard = linclass.standard_pair(inp.case)
        inp.other_is_aut = linclass.transform_pair(inp.other, standard) == standard
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(3)]
                for _ in range(3)]
        rows[2][2] = -rows[0][0] - rows[1][1]
        inp.twist = exactnum.Matrix(rows)
        inp.coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(10)]
        inputs.append(inp)
    return inputs


def _in_space(space, coords):
    """Is the cubic with these coordinates a member of the affine space?"""
    if space.is_empty:
        return False
    diff = [c - p for c, p in zip(coords, space.particular)]
    rows = [[b[i] for b in space.basis] for i in range(len(diff))]
    return not solve_linear(rows, diff, len(space.basis)).is_empty


def analyse(inp):
    """One op; True when every known answer holds.  Calls go through the
    module attributes so that a traced run sees them."""
    from poisson_forge import linclass, quaddef

    lp = inp.pair
    label, _ = linclass.classify(lp)
    pi = linclass.bivector_of(lp)
    checks = [
        label.case_id == inp.case and label.a_squared == inp.a_squared,
        linclass.decompose(pi).k == lp.k,
        linclass.pair_of(pi) == lp,
        linclass.aut_member(inp.known, inp.case) is True,
        linclass.aut_member(inp.other, inp.case) is inp.other_is_aut,
    ]
    space = quaddef.solve_F(lp, inp.twist)
    kernel = quaddef.cubic_kernel(inp.twist)
    if not space.is_empty:
        # the particular cubic deforms lp, and the space lies in the kernel
        particular, _ = quaddef.solution_polys(space)
        checks.append(quaddef.deform_check(
            lp, quaddef.QuadraticPair(inp.twist, particular)) is True)
        checks.append(len(space.basis) <= len(kernel.basis))
    coords = tuple(
        sum((c * b[i] for c, b in zip(inp.coeffs, kernel.basis)), Fraction(0))
        for i in range(10))
    cubic = quaddef.cubic_from_coords(coords)
    deforms = quaddef.deform_check(lp, quaddef.QuadraticPair(inp.twist, cubic))
    # a kernel cubic deforms lp exactly when it lies in the solved space
    checks.append(deforms is _in_space(space, coords))
    return all(checks)


class _Loop:
    def __init__(self, inputs):
        self.inputs = inputs
        self.latency_ms = []
        self.failed = 0
        self.notes = []
        self.host = HostSpeed()

    def one_pass(self):
        """Run the input set once; returns the pass time in CPU seconds at
        reference speed (see ``common.HostSpeed``).  The host speed is
        sampled after every BLOCK ops and scales the ops in between."""
        clock = time.process_time
        pass_s = 0.0
        for first in range(0, len(self.inputs), BLOCK):
            block_s = []
            for index in range(first, min(first + BLOCK, len(self.inputs))):
                inp = self.inputs[index]
                t0 = clock()
                try:
                    ok = analyse(inp)
                except Exception as exc:    # noqa: BLE001 - a failed op, not a crash
                    ok = False
                    self.notes.append("# input %d raised %r" % (index, exc))
                block_s.append(clock() - t0)
                if not ok:
                    self.failed += 1
                    self.notes.append("# input %d: wrong answer (case %d)"
                                      % (index, inp.case))
            factor = self.host.factor()
            self.latency_ms += [t * factor * 1e3 for t in block_s]
            pass_s += sum(block_s) * factor
        return pass_s


def run(seed, seconds, traced):
    loop = _Loop(setup(seed))
    if traced:
        return _run_traced(seed, loop)
    setup_s = measure_setup("rational-analysis", seed)
    passes = []
    start = time.perf_counter()
    wall_s = 0.0
    while not passes or another_pass(start, seconds, wall_s):
        began = time.perf_counter()
        passes.append(loop.one_pass())
        wall_s = time.perf_counter() - began
    loop.notes.append("# %d passes, %d op samples"
                      % (len(passes), len(loop.latency_ms)))
    loop.notes.append(loop.host.note())
    metrics = end_to_end(setup_s, passes, loop.latency_ms)
    attempted = len(loop.latency_ms)
    return Outcome(metrics, attempted, loop.failed, loop.failed == 0, loop.notes)


def _run_traced(seed, loop):
    # untraced passes on both sides, so warm-up does not count as overhead
    plain_s = loop.one_pass()
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced_s = loop.one_pass()
    finally:
        restore()
    plain_s = (plain_s + loop.one_pass()) / 2
    loop.notes += ["# edge %s -> %s: %d calls, %.3f s" % tuple(e)
                   for e in tracer.edges()[:25]]
    attempted = len(loop.latency_ms)
    metrics, wrong = per_layer_metrics(seed, tracer.report(), traced_s / plain_s,
                                       loop.failed / attempted)
    loop.notes += ["# probe gave a wrong result: %s" % w for w in wrong]
    ok = loop.failed == 0 and not wrong
    return Outcome(metrics, attempted, loop.failed, ok, loop.notes)
