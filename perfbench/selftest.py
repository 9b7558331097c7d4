"""Self-tests of the benchmark's references and checks.

    python3 perfbench/selftest.py

1. The references reproduce known values: the cubic tangency point at
   u_B = 1.5, the Burgers conjugate -u_B, the 12 bundled Euler region labels
   and the other bundled ``expect`` figures.
2. Every workload's checks accept the program's output and reject a
   corrupted copy of it: a flipped membership bit, a trace shifted by 0.1,
   a mass balance off by 1e-9, a flipped label or verdict.

Exits 1 if any test fails.  Runs a handful of the cheaper jobs (a few
seconds) and writes under ``.perfbench_out/selftest``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

CONFIGS = ROOT / "src" / "quarterplane" / "configs"
OUT = ROOT / ".perfbench_out" / "selftest"
TESTS = []


def test(fn):
    TESTS.append(fn)
    return fn


def bundled_expect(name, path):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    return next(c for c in cfg["expect"] if c["path"] == path), cfg


# --- references ----------------------------------------------------------------


@test
def reference_cubic_tangency():
    riem, layer, excl = ref.boundary_sets("cubic", 1.5)
    assert abs(excl[0] - 0.39564392373896) <= 1e-13, excl
    assert riem.boundary_values() == (-1.0, excl[0], 1.5)
    assert not layer.member(excl[0]) and riem.member(excl[0])


@test
def reference_burgers_conjugate():
    for u_b in (0.25, 0.5, 1.0, 1.5, 3.0):
        assert abs(ref.conjugate("burgers", u_b) + u_b) <= 1e-12, u_b
        _, layer, excl = ref.boundary_sets("burgers", u_b)
        assert excl == (ref.conjugate("burgers", u_b),)
        assert not layer.member(-u_b) and layer.member(-u_b - 0.1)


@test
def reference_euler_regions():
    check, cfg = bundled_expect("euler_regions", "regions")
    got = [ref.euler_region(r, u, cfg["model"]["params"]["gamma"])
           for r, u in cfg["params"]["states"]]
    assert len(got) == 12 and got == check["equals"], got


@test
def reference_bundled_figures():
    check, cfg = bundled_expect("elasto_layer_curve", "points.0.1")
    v = cfg["params"]["v_inf_range"][0]
    assert abs(ref.elasto_curve_u(cfg["params"]["base"], v) - check["approx"]) <= 1e-9
    check, _ = bundled_expect("elasto_layer_curve", "tangent")
    assert np.allclose(ref.elasto_tangent([2.0, 0.0]), check["approx"], rtol=0, atol=1e-12)
    check, cfg = bundled_expect("lagrangian_lf_layer", "a1")
    a1, a2 = ref.lagrangian_factors(cfg["params"]["lam"], cfg["params"]["limit"][0])
    assert abs(a1 - check["approx"]) <= 1e-12 and abs(a2 - 1.5) <= 1e-12
    check, cfg = bundled_expect("linear2_wrong_viscosity", "manifold.amplification")
    spec = ref.linear2_spectrum([[-5.0, 5.0], [-3.0, 3.0]], cfg["model"]["params"]["B"])
    assert np.allclose(spec, check["approx"], rtol=0, atol=1e-12), spec


@test
def reference_riemann_traces():
    # sonic rarefaction, left-moving shock, right-moving shock, cubic tangency
    assert abs(ref.scalar_riemann_trace("burgers", -1.0, 2.0)[0]) <= 1e-9
    assert ref.scalar_riemann_trace("burgers", 1.0, -2.0)[0] == -2.0
    assert ref.scalar_riemann_trace("burgers", 2.0, -1.0)[0] == 2.0
    assert abs(ref.scalar_riemann_trace("cubic", -0.5, 2.0)[0] - 1.0) <= 1e-9


# --- checks reject corrupted outputs ------------------------------------------


def jobs_of(workload, seed=1):
    return {j.name: j for j in workloads.build(workload, seed, OUT / workload)}


def edit_json(path, key, fn):
    data = json.loads(path.read_text())
    data[key] = fn(data[key])
    path.write_text(json.dumps(data))


def rejects(job, raw):
    try:
        job.check(raw)
    except CheckError:
        return
    raise AssertionError(f"{job.name}: corrupted output accepted")


def run_ok(job):
    raw = job.run()
    job.check(raw)
    return raw


@test
def admissible_rejects_flipped_membership_bit():
    job = jobs_of("admissible_sets")["thm41_burgers"]
    rc = run_ok(job)
    path = OUT / "admissible_sets" / "thm41_burgers" / "membership.csv"
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    col = head.index("lf_layer")
    row = lines[1].split(",")  # u0 = -3, far from every set boundary
    row[col] = str(1 - int(row[col]))
    path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    rejects(job, rc)


@test
def viscous_rejects_shifted_trace_and_mass():
    jobs = jobs_of("viscous_sweep")
    job = jobs["burgers_viscous_layer"]
    rc = run_ok(job)
    edit_json(OUT / "viscous_sweep" / "burgers_viscous_layer" / "trace.json", "trace",
              lambda t: t + 0.1)
    rejects(job, rc)
    job = jobs["psystem_viscous_eps0.04"]
    sol, rep = run_ok(job)
    rejects(job, (dataclasses.replace(sol, mass_final=sol.mass_final + 1e-9), rep))


@test
def scheme_runs_reject_shifted_trace_and_mass():
    jobs = jobs_of("scheme_runs")
    job = jobs["simulate_godunov_burgers_entering"]
    rc = run_ok(job)
    edit_json(OUT / "scheme_runs" / "simulate_godunov_burgers_entering" / "trace.json", "trace",
              lambda t: t + 0.1)
    rejects(job, rc)
    job = jobs["run_lf_burgers_history"]
    sol = run_ok(job)
    rejects(job, dataclasses.replace(sol, mass_final=sol.mass_final + 1e-9))
    job = jobs["run_lf_euler_isentropic"]
    sol, rep = run_ok(job)
    rejects(job, (dataclasses.replace(sol, mass_final=sol.mass_final + 1e-9), rep))


@test
def quick_tasks_reject_corrupted_outputs():
    jobs = jobs_of("quick_tasks")
    out = OUT / "quick_tasks"
    job = jobs["riemann_cubic_0"]
    rc = run_ok(job)
    edit_json(out / "riemann_cubic_0" / "riemann.json", "trace", lambda t: t + 0.1)
    rejects(job, rc)
    job = jobs["euler_regions"]
    rc = run_ok(job)
    edit_json(out / "euler_regions" / "riemann.json", "regions",
              lambda r: ["V" if r[0] != "V" else "I"] + r[1:])
    rejects(job, rc)
    job = jobs["layer_viscous_0"]
    rc = run_ok(job)
    edit_json(out / "layer_viscous_0" / "layer.json", "verdict",
              lambda v: "diverged" if v == "converged" else "converged")
    rejects(job, rc)
    job = jobs["elasto_curve_0"]
    rc = run_ok(job)
    edit_json(out / "elasto_curve_0" / "layer.json", "points",
              lambda p: [[p[0][0], p[0][1] + 1e-6]] + p[1:])
    rejects(job, rc)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    failures = 0
    for fn in TESTS:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except Exception:
            failures += 1
            print(f"FAIL  {fn.__name__}")
            traceback.print_exc()
    print(f"{failures} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
