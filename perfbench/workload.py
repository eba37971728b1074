"""One workload in a fresh process, as a user runs it.

    python3 perfbench/workload.py lshape-fine --mode full --trace 0 --work DIR --seed 1

Run from the repository root with ``src`` on PYTHONPATH (run.py does this).
``--mode setup`` stops when the first time step begins (lshape) or when the
grid is dispatched (sweep).  The process writes DIR/result.json with its
timestamps (time.monotonic, comparable across processes) and the outputs the
checks need; with ``--trace 1`` it also writes spans to DIR/spans-<pid>.json,
one file per process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

T_START = time.monotonic()

import cornerfem.cli  # noqa: E402  (timed: the package import is set-up users pay)

T_IMPORTED = time.monotonic()

from cornerfem import analysis, cli, fem, mesh, timestepping  # noqa: E402
from cornerfem.solver import SolverError  # noqa: E402
from cornerfem.timestepping import SchemeConfig  # noqa: E402
from cornerfem.weights import WeightParams  # noqa: E402

import spans  # noqa: E402

LSHAPE = {
    "lshape-fine": 1,
    "lshape-fine-s2": 2,
}
H_FINE = 0.05
WEIGHTS = WeightParams(1.0, 0.6, 0.6, 0.035)  # (nu, nu*, mu*, delta)
DT, T_FINAL = 0.01, 0.1

SWEEP_GRID = {
    "nu": (0.6, 1.0, 1.4),
    "nu_star": (0.6, 1.0, 1.4),
    "delta": (0.025, 0.03, 0.035),
}
SWEEP_HS = "0.2,0.1"
SWEEP_JOBS = 2


class SetupDone(Exception):
    """Raised at the end of set-up in ``--mode setup``."""


class StepMonitor:
    """Records when the first time step begins and, per completed step, the
    solver residual and the errors run_transient computes for it.  Wraps the
    step functions and step_errors where run_transient looks them up, in
    ``module`` (cornerfem.timestepping)."""

    def __init__(self, module, setup_only: bool):
        self.setup_only = setup_only
        self.first_step = None
        self.steps = []
        self._residual = None
        for name in ("scheme1_step", "scheme2_step"):
            setattr(module, name, self._step(getattr(module, name)))
        module.step_errors = self._errors(module.step_errors)

    def _step(self, fn):
        def step(*args, **kwargs):
            if self.first_step is None:
                self.first_step = time.monotonic()
                if self.setup_only:
                    raise SetupDone
            state, report = fn(*args, **kwargs)
            self._residual = report.residual
            return state, report

        return step

    def _errors(self, fn):
        def errors(*args, **kwargs):
            ev, ep = fn(*args, **kwargs)
            self.steps.append((self._residual, ev, ep))
            return ev, ep

        return errors


def run_lshape(name, setup_only, out):
    monitor = StepMonitor(timestepping, setup_only)
    domain, problem = analysis.build_problem(analysis.RunConfig(domain="omega1"))
    m = mesh.barycentric_split(mesh.triangulate(domain, H_FINE))
    dofs = fem.build_dofmap(m)
    asm = fem.OseenAssembler(m, dofs, WEIGHTS)
    scheme = SchemeConfig(LSHAPE[name], DT, T_FINAL)
    out["t_march_start"] = time.monotonic()
    try:
        timestepping.run_transient(scheme, problem, m, WEIGHTS, dofs=dofs, assembler=asm)
    except SetupDone:
        pass
    except SolverError as exc:  # counted as failed steps by the checks
        out["error"] = str(exc)
    out["t_march_end"] = time.monotonic()
    out["t_setup_end"] = monitor.first_step
    out["steps"] = monitor.steps


def write_sweep_config(work, seed) -> str:
    # the seed orders the grid, which changes dispatch order and scheduling
    # but not the result of any point
    rng = random.Random(seed)
    grid = {}
    for key, values in SWEEP_GRID.items():
        values = list(values)
        rng.shuffle(values)
        grid[key] = ",".join(repr(v) for v in values)
    path = os.path.join(work, "sweep.ini")
    with open(path, "w") as fh:
        fh.write(
            "[domain]\nkind = omega1\n"
            f"[scheme]\nid = 1\ndt = {DT!r}\nt = {T_FINAL!r}\n"
            f"[sweep]\nnu = {grid['nu']}\nnu_star = {grid['nu_star']}\n"
            f"delta = {grid['delta']}\nhs = {SWEEP_HS}\n"
            f"[output]\ndir = {os.path.join(work, 'out')}\n"
            f"cache = {os.path.join(work, 'cache')}\n"
        )
    return path


def run_sweep(setup_only, out, work, seed):
    config = write_sweep_config(work, seed)
    inner = cli.sweep

    def sweep(*args, **kwargs):
        out["t_setup_end"] = out["t_march_start"] = time.monotonic()
        if setup_only:
            raise SetupDone
        try:
            return inner(*args, **kwargs)
        finally:
            out["t_march_end"] = time.monotonic()

    cli.sweep = sweep
    try:
        out["rc"] = cli.main(["sweep", "--config", config, "--jobs", str(SWEEP_JOBS)])
    except SetupDone:
        out["rc"] = 0
    out["output_dir"] = os.path.join(work, "out")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(LSHAPE) + ["sweep-coarse"])
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = spans.Recorder(f"{args.workload}:{args.seed}", args.work)
        recorder.add("cli.import", T_START, T_IMPORTED)
        spans.install(recorder)
    out = {"t_start": T_START, "t_imported": T_IMPORTED, "error": None}
    setup_only = args.mode == "setup"
    if args.workload in LSHAPE:
        run_lshape(args.workload, setup_only, out)
    else:
        run_sweep(setup_only, out, args.work, args.seed)
    if recorder is not None:
        recorder.flush()
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
