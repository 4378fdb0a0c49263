"""Span recorder wrapped around the public functions of rtgeo's layers.

Tracing is installed from outside the package: each traced function is
replaced by a wrapper in every ``rtgeo`` module that bound it (a name
imported with ``from .charts import interpolate`` lives on in the importing
module's namespace, so patching ``charts`` alone would miss those calls),
and ``Chart`` methods are replaced on the class.  Spans are kept in memory
as parallel lists (name, start, end, parent) and reduced to per-layer
numbers when the run ends; a layer's self time is its span time minus the
time covered by its child spans.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the span name is the metric prefix.
FUNCTIONS = [
    ("rtgeo._kernels", "holder_pair_max", "kernels.holder_pair_max"),
    ("rtgeo.calculus", "norm_report", "calculus.norm_report"),
    ("rtgeo.calculus", "mollify", "calculus.mollify"),
    ("rtgeo.charts", "interpolate", "charts.interpolate"),
    ("rtgeo.rt_solver", "solve_reduced_rt", "rt_solver.solve_reduced_rt"),
    ("rtgeo.rt_solver", "optimal_connection", "rt_solver.optimal_connection"),
    ("rtgeo.transform", "invert_map", "transform.invert_map"),
    ("rtgeo.transform", "integrate_jacobian", "transform.integrate_jacobian"),
    ("rtgeo.transform", "build_bundle", "transform.build_bundle"),
    ("rtgeo.harness", "generate_scenario", "harness.generate_scenario"),
    ("rtgeo.geodesics", "solve_geodesic", "geodesics.solve_geodesic"),
    ("rtgeo.geodesics", "mollified_family", "geodesics.mollified_family"),
    ("rtgeo.geodesics", "solve_mollified", "geodesics.solve_mollified"),
    ("rtgeo.geodesics", "convergence_report", "geodesics.convergence_report"),
    ("rtgeo.curvature", "lemma_b1_check", "curvature.lemma_b1_check"),
    ("rtgeo.curvature", "represent_weak", "curvature.represent_weak"),
]
METHODS = [
    ("dirichlet_solve", "charts.Chart.dirichlet_solve"),
    ("deriv", "charts.Chart.deriv"),
]


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = defaultdict(float)
        self.worst_newton_residual = 0.0
        self.first_call_s = 0.0
        self.holder_s_by_points = defaultdict(float)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def duration(self, idx):
        return self.ends[idx] - self.starts[idx]

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every traced function and method; undone by :meth:`uninstall`."""
        from rtgeo.charts import Chart

        modules = [m for k, m in sys.modules.items() if k == "rtgeo" or k.startswith("rtgeo.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrapper(original, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for attr, name in METHODS:
            original = Chart.__dict__[attr]
            setattr(Chart, attr, self._wrapper(original, name))
            self._undo.append((Chart, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrapper(self, fn, name):
        hook = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        tracer = self

        if name == "geodesics.solve_geodesic":

            @functools.wraps(fn)
            def traced(problem, method="rk4", *args, **kwargs):
                out = tracer.call(f"{name}.{method}", fn, (problem, method) + args, kwargs)
                tracer._after_solve_geodesic(method, out)
                return out

        elif name == "charts.Chart.dirichlet_solve":

            @functools.wraps(fn)
            def traced(chart, source, boundary):
                # the LU factor is a cached property: the first solve on a chart pays for it
                factorizes = "_dirichlet_lu" not in vars(chart)
                idx = len(tracer.names)
                out = tracer.call(name, fn, (chart, source, boundary), {})
                if factorizes:
                    tracer.first_call_s += tracer.duration(idx)
                tracer.counts[name + ".unknowns"] += np.asarray(source).size
                return out

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = tracer.call(name, fn, args, kwargs)
                if hook is not None:
                    hook(args, kwargs, out)
                return out

        return traced

    # -- counters recorded at the boundaries ---------------------------------

    def _after_holder_pair_max(self, args, kwargs, out):
        npts = len(args[0])
        self.counts["kernels.holder_pair_max.pairs"] += npts * (npts - 1) / 2
        # the kernel has no traced children, so its span is the last one
        self.holder_s_by_points[npts] += self.duration(len(self.names) - 1)

    def _after_interpolate(self, args, kwargs, out):
        pts = args[1]
        self.counts["charts.interpolate.points"] += 1 if np.ndim(pts) == 1 else len(pts)

    def _after_invert_map(self, args, kwargs, out):
        y_chart = args[1] if len(args) > 1 else kwargs["y_chart"]
        self.counts["transform.invert_map.targets"] += y_chart.npoints
        self.worst_newton_residual = max(self.worst_newton_residual, float(out[1]))

    def _after_solve_reduced_rt(self, args, kwargs, state):
        incs = state.increments
        best = np.inf
        records = 0
        for inc in incs:
            if inc < best:
                best = inc
                records += 1
        self.counts["rt_solver.solve_reduced_rt.iters"] += state.iterations
        self.counts["rt_solver.solve_reduced_rt.records"] += records
        self.counts["rt_solver.solve_reduced_rt.retries"] += int(state.used_subchart)

    def _after_solve_geodesic(self, method, curve):
        if method == "rk4":
            self.counts["geodesics.solve_geodesic.rk4.steps"] += len(curve.times) - 1
        else:
            self.counts["geodesics.solve_geodesic.picard.sweeps"] += curve.picard_sweeps
        self.counts["geodesics.solve_geodesic.truncated"] += int(curve.truncated)

    # -- reduction -----------------------------------------------------------

    def layer_times(self):
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.names)
        for i, par in enumerate(self.parents):
            if par >= 0:
                child[par] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += d
            row["self_s"] += d - child[i]
        return dict(out)

