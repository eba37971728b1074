"""Output checks against recorded references.

Errors are compared with a relative tolerance, not byte for byte: a solver
change that only moves roundoff passes, a wrong answer fails.  Every check
maps to operations (a time step, a grid point), and an operation whose
check fails counts as failed.
"""

from __future__ import annotations

import csv
import math

RESIDUAL_MAX = 1e-10


def close(value, ref, rtol) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def lshape_failures(steps, ref, rtol):
    """(attempted, failed, messages) of one transient run.

    ``steps`` lists (residual, velocity error, pressure error) for each step
    that completed; steps never reached because a step raised count as
    failed, the raising one included.
    """
    n = len(ref["velocity_errors"])
    failed, msgs = 0, []
    for i in range(n):
        if i >= len(steps):
            failed += n - i
            msgs.append(f"steps {i + 1}..{n} did not complete")
            break
        res, ev, ep = steps[i]
        why = []
        if not res <= RESIDUAL_MAX:
            why.append(f"residual {res:.3e}")
        if not close(ev, ref["velocity_errors"][i], rtol):
            why.append(f"velocity error {ev!r} != {ref['velocity_errors'][i]!r}")
        if not close(ep, ref["pressure_errors"][i], rtol):
            why.append(f"pressure error {ep!r} != {ref['pressure_errors'][i]!r}")
        if why:
            failed += 1
            msgs.append(f"step {i + 1}: " + "; ".join(why))
    return n, failed, msgs


def point_key(nu, nu_star, delta) -> str:
    return ",".join(repr(float(v)) for v in (nu, nu_star, delta))


def read_sweep_csv(path) -> dict:
    """Point key -> {"err_final": [per level], "member": bool}."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = point_key(row["nu"], row["nu_star"], row["delta"])
            entry = out.setdefault(key, {"err_final": [], "member": row["member"] == "1"})
            entry["err_final"].append(float(row["err_final"]))
    return out


def sweep_failures(points, ref, rtol):
    """(attempted, failed, messages) of one sweep, from its parsed CSV.

    Each reference grid point is one operation; it fails when it is missing,
    its final errors differ, or its region membership differs."""
    failed, msgs = 0, []
    members = set(ref["members"])
    for key, ref_errs in ref["err_final"].items():
        got = points.get(key)
        why = []
        if got is None:
            why.append("missing from sweep.csv")
        else:
            if len(got["err_final"]) != len(ref_errs) or not all(
                close(e, r, rtol) for e, r in zip(got["err_final"], ref_errs)
            ):
                why.append(f"err_final {got['err_final']} != {ref_errs}")
            if got["member"] != (key in members):
                why.append(f"member {got['member']}")
        if why:
            failed += 1
            msgs.append(f"point ({key}): " + "; ".join(why))
    extra = sorted(set(points) - set(ref["err_final"]))
    if extra:
        failed += len(extra)
        msgs.append(f"unexpected points {extra}")
    return len(ref["err_final"]) + len(extra), failed, msgs
