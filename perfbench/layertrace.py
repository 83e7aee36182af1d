"""Per-layer spans recorded from the benchmark's side of each layer boundary.

``install`` wraps the public functions of every ``poisson_forge`` layer in
each namespace they are bound in (a function imported into ``verify`` and
``cli`` is wrapped there too), so no program file changes.  Spans are not
kept one by one: each wrapped name aggregates calls, total time and self
time (total minus the time covered by wrapped callees), and every call is
also counted against its enclosing span, so the hot leaves (``ext_mul``,
``poly_mul``) show up as per-parent counters without growing the trace.
"""

import functools
import sys
import time

#: metric prefix -> (module, attribute path) of each traced function
FUNCTIONS = {
    "exactnum.ext_mul": ("exactnum", "ExtScalar.__mul__"),
    "exactnum.ext_inverse": ("exactnum", "ExtScalar.inverse"),
    "exactnum.poly_mul": ("exactnum", "Polynomial.__mul__"),
    "exactnum.pullback": ("exactnum", "Polynomial.compose_linear"),
    "exactnum.solve_linear": ("exactnum", "solve_linear"),
    "exactnum.congruent_diagonalize": ("exactnum", "congruent_diagonalize"),
    "multivec.schouten": ("multivec", "schouten"),
    "multivec.curl": ("multivec", "curl"),
    "linclass.classify": ("linclass", "classify"),
    "linclass.verify_witness": ("linclass", "verify_witness"),
    "linclass.decompose": ("linclass", "decompose"),
    "linclass.aut_member": ("linclass", "aut_member"),
    "linclass.der0_space": ("linclass", "der0_space"),
    "quaddef.solve_F": ("quaddef", "solve_F"),
    "quaddef.deform_check": ("quaddef", "deform_check"),
    "quaddef.cubic_kernel": ("quaddef", "cubic_kernel"),
    "quaddef.catalog": ("quaddef", "catalog"),
    "quaddef.p2_orbit_rep": ("quaddef", "p2_orbit_rep"),
    "quaddef.t_of_v": ("quaddef", "t_of_v"),
    "quaddef.enumerate_orbit_pairs": ("quaddef", "enumerate_orbit_pairs"),
    "quaddef.jordan_family_of": ("quaddef", "jordan_family_of"),
}

#: plain counters: promotions into the extension field, solver cells
COUNTERS = ("exactnum.ext_promotions", "exactnum.solve_linear.cells")

PACKAGE = "poisson_forge"

#: prefix of the stderr line on which a traced child reports its spans
MARKER = "PERFBENCH_TRACE "


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s]."""

    def __init__(self):
        self.spans = {}
        self.by_parent = {}   # (parent, name) -> [calls, total_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []      # open frames: [name, time covered by callees]
        self._depth = {}      # open frames per name, so recursion counts once

    def wrap(self, name, fn, before=None):
        spans = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, depth, by_parent = self._stack, self._depth, self.by_parent
        depth.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                spans[0] += 1
                spans[2] += elapsed - frame[1]
                if not depth[name]:
                    spans[1] += elapsed
                key = (parent[0] if parent else None, name)
                edge = by_parent.get(key)
                if edge is None:
                    edge = by_parent[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed

        return functools.wraps(fn)(traced)

    def count(self, name, amount=1):
        self.counters[name] += amount

    def report(self):
        """Flat ``{metric: value}`` with calls, total_s and self_s per span."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        return out

    def edges(self):
        return [[parent, name, calls, total]
                for (parent, name), (calls, total) in sorted(
                    self.by_parent.items(), key=lambda kv: -kv[1][1])]


def _modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def install(tracer):
    """Wrap every traced function in every loaded ``poisson_forge`` module.

    Returns a function that puts the original functions back.
    """
    exactnum = sys.modules[PACKAGE + ".exactnum"]
    undo = []

    def rebind(owner, attr, replacement):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def count_cells(rows, rhs, ncols=None):
        width = ncols if ncols is not None else (len(rows[0]) if rows else 0)
        tracer.count("exactnum.solve_linear.cells", len(rows) * width)

    for name, (module_name, path) in FUNCTIONS.items():
        module = sys.modules[PACKAGE + "." + module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapped = tracer.wrap(name, original)
            for alias, value in list(cls.__dict__.items()):
                if value is original:          # __rmul__ is __mul__
                    rebind(cls, alias, wrapped)
        else:
            original = getattr(module, path)
            before = count_cells if name == "exactnum.solve_linear" else None
            wrapped = tracer.wrap(name, original, before)
            for owner in _modules():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        rebind(owner, attr, wrapped)

    ext = exactnum.ExtScalar
    promote = ext.__dict__["of"].__func__

    def counted_of(cls, value):
        tracer.count("exactnum.ext_promotions")
        return promote(cls, value)

    rebind(ext, "of", classmethod(counted_of))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
