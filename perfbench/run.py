"""cornerfem benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload lshape-fine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src`` as is;
nothing is installed.  Every workload runs in fresh processes, so import and
set-up cost is paid as users pay it.  A run makes full launches of the
workload until ``--seconds`` is used up (at least one), then set-up-only
launches for SETUP_SECONDS (at least MIN_SETUP_SAMPLES set-up times in all);
end-to-end metrics are medians over the launches that measure them.
``--trace 1`` makes one untraced and one traced full launch and reports the
per-layer metrics of the traced one.  The last line of standard output is one JSON object;
everything else (every rep, all metrics, machine facts, check messages) goes
to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("lshape-fine", "lshape-fine-s2", "sweep-coarse")
MIN_SETUP_SAMPLES = 2
SETUP_SECONDS = 3.0
LAUNCH_TIMEOUT_S = 170.0
SWEEP_JOBS = 2  # the --jobs workload.py passes to the sweep
STATE_DIR = ".perfbench"
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no program, a launch crashed)."""


# ---------------------------------------------------------------------------
# launches
# ---------------------------------------------------------------------------


def launch(workload, mode, trace, seed, work) -> dict:
    """Run perfbench/workload.py once in a fresh process and time it."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), workload,
           "--mode", mode, "--trace", str(trace), "--work", work, "--seed", str(seed)]
    log_path = os.path.join(work, "log.txt")
    with open(log_path, "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # wait4: the rusage covers the process and every descendant it
            # reaped, so ru_maxrss is the peak of the largest one
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing of the launch outlives it
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{workload} ({mode}) exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(work, "result.json")) as fh:
        out = json.load(fh)
    out.update(
        work=work,
        run_s=t_exit - t_launch,
        setup_s=out["t_setup_end"] - t_launch,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if mode == "full":
        out["march_s"] = out["t_march_end"] - out["t_march_start"]
    return out


def check(workload, rep, ref) -> tuple:
    """(attempted, failed, messages) of one full launch."""
    rtol = ref["rtol"]
    if workload != "sweep-coarse":
        return checks.lshape_failures(rep["steps"], ref[workload], rtol)
    refw = ref[workload]
    attempted = len(refw["err_final"])
    csv_path = os.path.join(rep["output_dir"], "sweep.csv")
    svgs = glob.glob(os.path.join(rep["output_dir"], "region_delta_*.svg"))
    if rep["rc"] != 0 or not os.path.exists(csv_path) or len(svgs) != refw["svgs"]:
        return attempted, attempted, [f"sweep exit {rep['rc']}, {len(svgs)} SVGs"]
    return checks.sweep_failures(checks.read_sweep_csv(csv_path), refw, rtol)


def run_workload(workload, seed, seconds, trace, ref) -> dict:
    """All launches of one run; returns metrics, counts and the raw reps."""
    base = os.path.join(STATE_DIR, "work", workload)
    t0 = time.monotonic()
    if trace:
        full = [launch(workload, "full", t, seed, os.path.join(base, f"full{t}"))
                for t in (0, 1)]
        timed = full[:1]  # end-to-end numbers come only from the untraced launch
        setups = [full[0]["setup_s"]]
    else:
        full = []
        while not full or time.monotonic() - t0 + full[-1]["run_s"] <= seconds:
            full.append(launch(workload, "full", 0, seed, os.path.join(base, f"full{len(full)}")))
        setups = [r["setup_s"] for r in full]
        t1 = time.monotonic()
        while len(setups) < MIN_SETUP_SAMPLES or time.monotonic() - t1 < SETUP_SECONDS:
            rep = launch(workload, "setup", 0, seed, os.path.join(base, f"setup{len(setups)}"))
            setups.append(rep["setup_s"])
        timed = full
    attempted = failed = 0
    messages = []
    for rep in full:
        a, f, msgs = check(workload, rep, ref)
        attempted, failed = attempted + a, failed + f
        messages += msgs
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "reps": full,
        "setup_samples": setups,
        "samples": {"run_s": len(timed), "setup_s": len(setups),
                    "march_s": len(timed), "peak_rss_mb": len(timed)},
        "metrics": {
            "run_s": statistics.median(r["run_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "march_s": statistics.median(r["march_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "fail_frac": failed / attempted,
        },
    }
    if trace:
        traced = full[1]
        layers = spans.layer_metrics(spans.load_spans(traced["work"]), jobs=SWEEP_JOBS)
        layers["trace.overhead_s"] = traced["run_s"] - full[0]["run_s"]
        layers["counts_changed"], result["counts_changed"] = compare_counts(workload, layers)
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# machine facts and count history
# ---------------------------------------------------------------------------


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def machine_facts() -> dict:
    import numpy
    import scipy
    import sympy

    def blas(mod):
        cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"

    commit = None
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "commit": commit,
        "source": source_fingerprint(),
    }


def compare_counts(workload, layers) -> tuple:
    """Compare the counts with the previous traced run of the same source;
    returns (number that differ, {name: [previous, now]})."""
    path = os.path.join(STATE_DIR, "counts.json")
    history = {}
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    now = {k: layers[k] for k in spans.COUNTS}
    key = f"{source_fingerprint()}:{workload}"
    prev = history.get(key)
    changed = {k: [prev.get(k), v] for k, v in now.items() if prev and prev.get(k) != v}
    history[key] = now
    with open(path, "w") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
    return len(changed), changed


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def select(result, names_units) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    source = result["layers"] if result["trace"] else result["metrics"]
    return {n: {"value": source[n], "unit": u} for n, u in names_units}


def summary(result, names_units) -> list:
    lines = [f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})"]
    if result["trace"]:
        for name, value in sorted(result["layers"].items()):
            lines.append(f"  {name:32s} {value:.6g}")
        if result["counts_changed"]:
            lines.append(f"  COUNTS CHANGED since the previous run of this source: "
                         f"{result['counts_changed']}")
    else:
        units = dict(names_units)
        for name, value in result["metrics"].items():
            if name == "fail_frac":
                note = f"1      ({result['failed']} of {result['attempted']} operations)"
            else:
                note = f"{units[name]:6s} (median of {result['samples'][name]})"
            lines.append(f"  {name:12s} {value:12.6g} {note}")
    for msg in result["messages"]:
        lines.append(f"  FAILED CHECK: {msg}")
    return lines


def save(result, machine):
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(STATE_DIR, "results", name), "w") as fh:
        json.dump({**result, "machine": machine}, fh, indent=1)


def record_reference(workloads, seed, path):
    """Write the outputs of the current source as the reference of
    ``workloads`` (a deliberate act after a change meant to alter results)."""
    ref = {"rtol": 1e-6}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
    for workload in workloads:
        rep = launch(workload, "full", 0, seed, os.path.join(STATE_DIR, "work", workload, "ref"))
        if workload == "sweep-coarse":
            svgs = glob.glob(os.path.join(rep["output_dir"], "region_delta_*.svg"))
            pts = checks.read_sweep_csv(os.path.join(rep["output_dir"], "sweep.csv"))
            if rep["rc"] != 0:
                raise BenchError(f"{workload}: cannot record a failing run")
            ref[workload] = {
                "err_final": {k: v["err_final"] for k, v in sorted(pts.items())},
                "members": sorted(k for k, v in pts.items() if v["member"]),
                "svgs": len(svgs),
            }
        else:
            if rep["error"] or any(s[0] > checks.RESIDUAL_MAX for s in rep["steps"]):
                raise BenchError(f"{workload}: cannot record a failing run")
            ref[workload] = {
                "velocity_errors": [s[1] for s in rep["steps"]],
                "pressure_errors": [s[2] for s in rep["steps"]],
            }
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="record the workloads' outputs from the current source as the "
                    "reference in perfbench/reference.json and exit")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cornerfem", "__init__.py")):
        print("error: run from the repository root (src/cornerfem not found)", file=sys.stderr)
        return 2
    ref_path = os.path.join(HERE, "reference.json")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record_reference:
            record_reference(workloads, args.seed, ref_path)
            print(f"written: {ref_path}")
            return 0
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
        with open(ref_path) as fh:
            ref = json.load(fh)
        names_units = [(m["name"], m["unit"])
                       for m in bench["per_layer" if args.trace else "end_to_end"]]
        machine = machine_facts()
        print("machine: " + json.dumps(machine, sort_keys=True))
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, args.trace, ref)
            save(result, machine)
            print("\n".join(summary(result, names_units)), flush=True)
            results.append(result)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = select(results[0], names_units)
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in select(r, names_units).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
