"""Tests of the benchmark harness's own logic (no workload is run).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import types

import pytest

import checks
import spans

REF_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


@pytest.fixture(scope="module")
def ref():
    with open(REF_PATH) as fh:
        return json.load(fh)


def span(name, start, end, sid, parent=None, info=None):
    return [name, start, end, sid, parent, 1, "run", info or {}]


def test_self_time_subtracts_union_of_children():
    s = [
        span("outer", 0.0, 10.0, "a"),
        span("child", 1.0, 4.0, "b", "a"),
        span("child", 3.0, 6.0, "c", "a"),  # overlaps b: covered once
        span("leaf", 2.0, 3.0, "d", "b"),
        span("late", 9.0, 12.0, "e", "a"),  # clipped to the parent's end
    ]
    own = spans.self_times(s)
    assert own["a"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(3.0)
    assert own["d"] == pytest.approx(1.0)
    assert own["e"] == pytest.approx(3.0)


def test_layer_metrics_from_nested_spans():
    s = [
        span("timestepping.step", 0.0, 4.0, "s1"),
        span("solver.factor", 0.5, 2.5, "f1", "s1", {"nnz_lu": 7}),
        span("solver.solve", 2.5, 3.0, "v1", "s1", {"residual": 1e-13}),
        span("solver.solve", 3.0, 3.5, "v2", "s1", {"residual": 2e-13}),
    ]
    m = spans.layer_metrics(s)
    assert m["timestepping.step_self_s"] == pytest.approx(1.0)
    assert m["solver.factor_s"] == pytest.approx(2.0)
    assert m["solver.solve_s"] == pytest.approx(1.0)
    assert m["solver.solves_per_factor"] == 2
    assert m["solver.nnz_lu"] == 7
    assert m["solver.residual_max"] == 2e-13
    assert m["timestepping.steps"] == 1


def test_recorder_links_parents_skips_inner_calls_and_records_errors(tmp_path):
    rec = spans.Recorder("run", str(tmp_path))

    def field(points):
        return len(points)

    field_w = rec.wrap("exact.field", field, skip_inside="exact.forcing")

    def forcing(points):
        return field_w(points)

    forcing_w = rec.wrap("exact.forcing", forcing)

    def fail():
        raise RuntimeError("boom")

    fail_w = rec.wrap("solver.factor", fail)

    assert forcing_w([1, 2]) == 2
    assert field_w([1]) == 1
    with pytest.raises(RuntimeError):
        fail_w()
    rec.flush()
    got = spans.load_spans(str(tmp_path))
    assert [x[0] for x in got] == ["exact.forcing", "exact.field", "solver.factor"]
    assert all(x[4] is None for x in got)
    assert got[2][7] == {"error": "RuntimeError"}


def test_lshape_check_accepts_reference_and_rejects_perturbed(ref):
    r = ref["lshape-fine"]
    steps = [(1e-14, v, p) for v, p in zip(r["velocity_errors"], r["pressure_errors"])]
    assert checks.lshape_failures(steps, r, ref["rtol"])[:2] == (10, 0)

    bad = dict(r, velocity_errors=[e * (1 + 1e-4) for e in r["velocity_errors"]])
    attempted, failed, msgs = checks.lshape_failures(steps, bad, ref["rtol"])
    assert (attempted, failed) == (10, 10) and "velocity error" in msgs[0]

    steps[3] = (1e-9, *steps[3][1:])  # residual above 1e-10
    assert checks.lshape_failures(steps, r, ref["rtol"])[1] == 1


def test_sweep_check_rejects_perturbed_error_and_member_set(ref):
    r = ref["sweep-coarse"]
    members = set(r["members"])
    points = {k: {"err_final": list(v), "member": k in members}
              for k, v in r["err_final"].items()}
    assert checks.sweep_failures(points, r, ref["rtol"])[:2] == (27, 0)

    key = sorted(points)[0]
    points[key]["err_final"][1] *= 1 + 1e-4
    assert checks.sweep_failures(points, r, ref["rtol"])[1] == 1
    points[key]["member"] = not points[key]["member"]
    assert checks.sweep_failures(points, r, ref["rtol"])[1] == 1
    del points[key]
    assert checks.sweep_failures(points, r, ref["rtol"])[:2] == (27, 1)


def test_fail_frac_counts_a_step_that_raises_solver_error(ref):
    from cornerfem.solver import SolveReport, SolverError

    import workload

    r = ref["lshape-fine"]
    calls = []

    def step(state, *args):
        calls.append(state)
        if len(calls) == 4:
            raise SolverError("relative residual 1e-3 exceeds tolerance", residual=1e-3)
        return state + 1, SolveReport(1e-14, 0, 0.0, "superlu")

    def step_errors(state, *args):
        return r["velocity_errors"][state - 1], r["pressure_errors"][state - 1]

    ts = types.SimpleNamespace(scheme1_step=step, scheme2_step=step, step_errors=step_errors)
    monitor = workload.StepMonitor(ts, setup_only=False)
    state = 0
    with pytest.raises(SolverError):  # the march as run_transient does it
        for _ in range(10):
            state, _ = ts.scheme1_step(state)
            ts.step_errors(state)
    attempted, failed, _ = checks.lshape_failures(monitor.steps, r, ref["rtol"])
    assert (attempted, failed) == (10, 7)
    assert failed / attempted == pytest.approx(0.7)
