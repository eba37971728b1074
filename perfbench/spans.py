"""In-memory spans around the public calls into each cornerfem layer.

A span is one call of a wrapped callable: name, start, end, span id, parent
span id, process id, run id and a small dict of counts taken from the call.
Wrappers are installed from outside the package, where each caller looks the
callable up: module-level functions are replaced in every ``cornerfem``
module that holds them, methods on their class.  Pool workers inherit the
wrappers by fork; a worker drops the spans it inherited and writes its own
when it exits.  Nothing is written until ``flush``.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import time


class Recorder:
    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []  # open spans of this process: (span id, name)
        self.ids = itertools.count()

    def _adopt_fork(self):
        # first span in a forked pool worker: the parent's finished spans are
        # the parent's to write; the open stack stays, so a worker's spans
        # point at the parent span that dispatched them
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self.stack)

    def add(self, name, start, end):
        """Record a top-level span measured by the caller."""
        self._adopt_fork()
        sid = f"{self.pid}:{next(self.ids)}"
        self.spans.append([name, start, end, sid, None, self.pid, self.run_id, {}])

    def wrap(self, name, fn, info=None, skip_inside=None):
        """Wrap ``fn`` in a span.  ``info(args, result)`` returns the counts
        kept with the span; ``skip_inside`` names a span within which calls
        are not recorded (they count as that span's own work)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_inside and self.inside(skip_inside):
                return fn(*args, **kwargs)
            self._adopt_fork()
            sid = f"{self.pid}:{next(self.ids)}"
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append((sid, name))
            extra = {}
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, result)
                return result
            except BaseException as exc:
                extra = {"error": type(exc).__name__}
                raise
            finally:
                end = time.monotonic()
                self.stack.pop()
                self.spans.append([name, start, end, sid, parent, self.pid, self.run_id, extra])

        return wrapper

    def flush(self):
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(out_dir: str) -> list:
    spans = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-") and fname.endswith(".json"):
            with open(os.path.join(out_dir, fname)) as fh:
                spans.extend(json.load(fh))
    return spans


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


def _points(args, result):
    return {"points": len(args[1])}


def _residual(args, result):
    return {"residual": result[1].residual}


def _factor(args, result):
    fact = args[0]
    return {
        "nnz_lu": int(fact.lu.lu.L.nnz + fact.lu.lu.U.nnz),
        "unknowns": int(fact.matrix.shape[0]),
        "nnz": int(fact.matrix.nnz),
    }


# (module, function, span name, info); the function is replaced wherever a
# cornerfem module refers to it
FUNCTIONS = (
    ("mesh", "triangulate", "mesh.triangulate", None),
    ("mesh", "barycentric_split", "mesh.split",
     lambda a, r: {"triangles": int(r.num_triangles)}),
    ("weights", "rho_pow_grad", "weights.rho_pow_grad", None),
    ("quadrature", "build_quadrature", "quadrature.build",
     lambda a, r: {"points": int(r.num_points), "refined_elems": len(r.refined_elems)}),
    ("fem", "build_dofmap", "fem.dofmap", None),
    ("fem", "apply_bc_and_gauge", "fem.bc_gauge",
     lambda a, r: {"unknowns": int(r.matrix.shape[0]), "nnz": int(r.matrix.nnz)}),
    ("oseen", "make_solution", "oseen.make_solution", None),
    ("timestepping", "initial_state", "timestepping.initial_state", None),
    ("timestepping", "scheme1_step", "timestepping.step", _residual),
    ("timestepping", "scheme2_step", "timestepping.step", _residual),
    ("timestepping", "step_errors", "timestepping.errors", None),
    ("timestepping", "run_transient", "timestepping.run_transient", None),
    ("analysis", "run_single", "analysis.run_single", None),
    ("analysis", "_sweep_point_safe", "analysis.point",
     lambda a, r: {"failed": int(r[1] is not None)}),
    ("analysis", "sweep", "analysis.sweep", None),
    ("analysis", "emit_reports", "analysis.report", None),
)

# (module, class, method, span name, info, skip_inside)
METHODS = (
    ("fem", "OseenAssembler", "__init__", "fem.assembler", None, None),
    ("fem", "OseenAssembler", "curl_recovered", "fem.curl", None, None),
    ("fem", "OseenAssembler", "rotation", "fem.rotation", None, None),
    ("fem", "OseenAssembler", "load", "fem.load", None, None),
    ("fem", "OseenAssembler", "gauge_constant", "fem.gauge_constant", None, None),
    ("solver", "FactorizedSaddle", "__init__", "solver.factor", _factor, None),
    ("solver", "FactorizedSaddle", "solve", "solver.solve", _residual, None),
    ("exact", "ExactCornerSolution", "__init__", "exact.setup", None, None),
    ("exact", "ExactCornerSolution", "forcing", "exact.forcing", _points, None),
    ("exact", "ExactCornerSolution", "velocity", "exact.field", _points, "exact.forcing"),
    ("exact", "ExactCornerSolution", "velocity_grad", "exact.field", _points, "exact.forcing"),
    ("exact", "ExactCornerSolution", "pressure", "exact.field", _points, "exact.forcing"),
)


def install(recorder: Recorder) -> None:
    """Wrap every callable in FUNCTIONS and METHODS (cornerfem must be imported)."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("cornerfem.")]
    for modname, fname, span, info in FUNCTIONS:
        original = getattr(sys.modules[f"cornerfem.{modname}"], fname)
        wrapped = recorder.wrap(span, original, info)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for modname, cname, meth, span, info, skip in METHODS:
        cls = getattr(sys.modules[f"cornerfem.{modname}"], cname)
        setattr(cls, meth, recorder.wrap(span, getattr(cls, meth), info, skip))


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children running concurrently (pool workers) are merged, so time covered
    twice is subtracted once."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[1], s[2]))
    return {
        s[3]: (s[2] - s[1]) - _covered(children.get(s[3], ()), s[1], s[2])
        for s in spans
    }


def layer_metrics(spans, jobs: int = 1) -> dict:
    """The per-layer metrics of one traced run."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[s[3]] for s in calls(name))

    def durations(name):
        return [s[2] - s[1] for s in calls(name)]

    def info_max(name, key):
        return max((s[7][key] for s in calls(name) if key in s[7]), default=0)

    def info_sum(name, key):
        return sum(s[7].get(key, 0) for s in calls(name))

    def p50(values):
        return statistics.median(values) if values else 0.0

    factors = len(calls("solver.factor"))
    solves = len(calls("solver.solve"))
    steps = durations("timestepping.step")
    points = durations("analysis.point")
    sweep_wall = sum(durations("analysis.sweep"))
    # a cache miss runs the transient study; a hit returns without one
    misses = {s[4] for s in calls("timestepping.run_transient")}
    singles = calls("analysis.run_single")
    nmiss = sum(1 for s in singles if s[3] in misses)

    return {
        "cli.import_s": self_s("cli.import"),
        "mesh.triangulate_s": self_s("mesh.triangulate"),
        "mesh.split_s": self_s("mesh.split"),
        "mesh.triangles": info_max("mesh.split", "triangles"),
        "weights.rho_pow_grad_s": self_s("weights.rho_pow_grad"),
        "quadrature.build_s": self_s("quadrature.build"),
        "quadrature.points": info_max("quadrature.build", "points"),
        "quadrature.refined_elems": info_max("quadrature.build", "refined_elems"),
        "fem.dofmap_s": self_s("fem.dofmap"),
        "fem.assembler_s": self_s("fem.assembler"),
        "fem.curl_s": self_s("fem.curl"),
        "fem.rotation_s": self_s("fem.rotation"),
        "fem.load_s": self_s("fem.load"),
        "fem.bc_gauge_s": self_s("fem.bc_gauge"),
        "fem.gauge_constant_s": self_s("fem.gauge_constant"),
        "fem.unknowns": info_max("fem.bc_gauge", "unknowns"),
        "fem.system_nnz": info_max("fem.bc_gauge", "nnz"),
        "solver.factor_s": self_s("solver.factor"),
        "solver.factor_calls": factors,
        "solver.nnz_lu": info_max("solver.factor", "nnz_lu"),
        "solver.solve_s": self_s("solver.solve"),
        "solver.solve_calls": solves,
        "solver.solves_per_factor": solves / factors if factors else 0.0,
        "solver.residual_max": info_max("solver.solve", "residual"),
        "solver.failures": sum(
            1 for n in ("solver.factor", "solver.solve") for s in calls(n)
            if s[7].get("error") == "SolverError"
        ),
        "exact.setup_s": self_s("exact.setup"),
        "exact.forcing_s": self_s("exact.forcing"),
        "exact.forcing_calls": len(calls("exact.forcing")),
        "exact.field_s": self_s("exact.field"),
        "exact.points": info_sum("exact.forcing", "points") + info_sum("exact.field", "points"),
        "oseen.make_solution_s": self_s("oseen.make_solution"),
        "timestepping.initial_state_s": self_s("timestepping.initial_state"),
        "timestepping.step_s_p50": p50(steps),
        "timestepping.step_s_max": max(steps, default=0.0),
        "timestepping.step_self_s": self_s("timestepping.step"),
        "timestepping.errors_s": self_s("timestepping.errors"),
        "timestepping.steps": len(steps),
        "analysis.sweep_s": sweep_wall,
        "analysis.point_s_p50": p50(points),
        "analysis.point_s_max": max(points, default=0.0),
        "analysis.points": len(points),
        "analysis.points_failed": info_sum("analysis.point", "failed"),
        "analysis.cache_hits": len(singles) - nmiss,
        "analysis.cache_misses": nmiss,
        "analysis.report_s": self_s("analysis.report"),
        "analysis.pool_efficiency": sum(points) / (jobs * sweep_wall) if sweep_wall else 0.0,
    }


# counts that must repeat exactly between runs of the same code
COUNTS = (
    "mesh.triangles", "quadrature.points", "quadrature.refined_elems",
    "fem.unknowns", "fem.system_nnz", "solver.factor_calls", "solver.nnz_lu",
    "solver.solve_calls", "solver.failures", "exact.forcing_calls", "exact.points",
    "timestepping.steps", "analysis.points", "analysis.points_failed",
    "analysis.cache_hits", "analysis.cache_misses",
)
