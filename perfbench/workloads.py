"""Job lists of the four benchmark workloads, with the checks of their outputs.

A job is one ``cli.main`` call or one library operation.  ``run`` is the
timed part; ``check`` reads what the job produced (artifact files or the
returned object) and raises ``CheckError`` when it disagrees with the
reference computations of ``reference.py`` or with a property the method
must have.  Inputs come from ``numpy.random.default_rng(seed)``; the same
seed gives the same job list.

Library calls go through module attributes (``schemes.run_lf``), so the
traced run sees them once ``tracing.Tracer`` has wrapped those attributes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from quarterplane import admissible, cli, diagnostics, schemes, systems

LF_Q = 0.5
# own LF oracle lambda of every admissible_sets case: the bundled values
LF_LAM = {"burgers": 0.15, "cubic": 0.04}
ADMISSIBLE_CASES = (
    [("burgers", u) for u in (-1.0, -0.5, 0.5, 1.0, 1.5)]
    + [("cubic", u) for u in (-2.5, -2.0, -1.5, 0.0, 1.5, 2.0, 2.5)]
)
BUNDLED_ADMISSIBLE = {("burgers", 1.0): "thm41_burgers", ("cubic", 1.5): "thm42_cubic"}
GRID = {"burgers": (-3.0, 3.0, 241), "cubic": (-3.0, 3.0, 181)}
SAMPLES = {"burgers": 400, "cubic": 300}


class CheckError(AssertionError):
    """An output disagrees with the reference or with a required property."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # the ValueError message of an operation that fails today on every input
    # of this job (counted as failed, not as an error)
    known_fault: str = ""


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], rows[1:]
    cols = {}
    for i, name in enumerate(head):
        vals = [r[i] for r in body]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = vals
    return cols


class Builder:
    """Collects the jobs of one workload; writes their configs under ``out``."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.out = Path(out)
        self.jobs: list[Job] = []

    def cli(self, name, command, config, verify):
        """A ``cli.main`` job; ``config`` is a bundled name or a dict."""
        out = self.out / name
        if isinstance(config, dict):
            path = self.out / "configs" / f"{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config))
            config = str(path)
        argv = [command, "--config", config, "--out", str(out),
                "--seed", str(self.seed), "--jobs", "1"]

        def run():
            return cli.main(argv)

        def check(rc):
            if rc != 0:
                err = out / "error.json"
                msg = read_json(err)["message"] if err.exists() else ""
                raise CheckError(f"{name}: exit code {rc}: {msg}")
            if command == "verify":
                expect(read_json(out / "verify.json")["ok"], f"{name}: verify failed")
            verify(out)

        self.jobs.append(Job(name, run, check))

    def lib(self, name, run, check, known_fault=""):
        self.jobs.append(Job(name, run, check, known_fault))


def _close(a, b, tol, what):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    expect(a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol)),
           f"{what}: got {a.tolist()}, want {b.tolist()} (tol {tol:g})")


def _mass_balance(sol, what):
    """Mass change equals the time integral of the boundary fluxes."""
    scale = float(np.sum(np.abs(sol.snapshots[0])) + np.sum(np.abs(sol.final))) * sol.h
    err = (np.asarray(sol.mass_final) - np.asarray(sol.mass_initial)) \
        - (np.asarray(sol.flux_time_integral_left) - np.asarray(sol.flux_time_integral_right))
    expect(float(np.max(np.abs(err))) <= 1e-12 * max(scale, 1.0),
           f"{what}: mass balance off by {np.max(np.abs(err)):.3g}")


def _max_principle(states, lo, hi, what):
    """Scalar states stay within the range of the data.  Not applied to
    Godunov runs: the program's Godunov trace treats flux values within
    1e-12 (1 + max|f|) as tied and can take the downwind state, which
    overshoots the data range by a few 1e-12 on some inputs."""
    states = np.asarray(states)
    expect(bool(states.min() >= lo - 1e-12 and states.max() <= hi + 1e-12),
           f"{what}: max principle violated by "
           f"{max(states.max() - hi, lo - states.min()):.3g}")


def _set_boundaries(got_json, want: ref.RefSet, what):
    """Finite interval endpoints and isolated points match to 1e-9."""
    vals = set(p for p in got_json["points"])
    for lo, hi, _, _ in got_json["intervals"]:
        vals.update(v for v in (lo, hi) if v is not None and math.isfinite(v))
    _close(sorted(vals), want.boundary_values(), 1e-9, what)


# --- viscous_sweep -----------------------------------------------------------


def viscous_sweep(b: Builder):
    """Bundled viscous runs plus a seeded p-system eps-sweep."""
    u_b, u_i = 1.0, -2.0
    limit, _ = ref.scalar_riemann_trace("burgers", u_b, u_i)
    _, layer, _ = ref.boundary_sets("burgers", u_b)
    expect(bool(layer.member(limit)), "reference limit is not a layer-set member")

    def study(out):
        tab = read_csv(out / "study.csv")
        errs = np.abs(tab["trace1"] - limit)
        expect(errs[-1] <= 0.05, f"trace error {errs[-1]:.3g} at the smallest eps")
        expect(bool(np.all(errs[1:] <= 1.5 * errs[:-1])),
               f"trace error does not fall as eps halves: {errs.tolist()}")

    def layer_run(out):
        trace = read_json(out / "trace.json")["trace"]
        expect(abs(trace - limit) <= 0.05, f"viscous trace {trace} vs limit {limit}")

    b.cli("viscous_trace_study", "verify", "viscous_trace_study", study)
    b.cli("burgers_viscous_layer", "verify", "burgers_viscous_layer", layer_run)

    model = systems.make_model("elastodynamics")
    base = np.array([b.rng.uniform(0.8, 1.4), b.rng.uniform(-0.2, 0.2)])
    interior = base + np.array([b.rng.uniform(-0.5, -0.3), b.rng.uniform(0.3, 0.5)])
    eps_values = (0.04, 0.02, 0.01)
    dists = []

    for k, eps in enumerate(eps_values):
        h = eps / 8.0

        def run(eps=eps, h=h):
            sol = schemes.run_viscous(model, interior, base, h=h, eps=eps, t_end=0.6,
                                      n_cells=int(round(0.8 / h)))
            return sol, diagnostics.extract_boundary_trace(model, sol)

        def check(res, k=k):
            sol, rep = res
            _mass_balance(sol, f"p-system eps={sol.eps}")
            v, u = (float(x) for x in rep.trace)
            if k == 0:
                dists.clear()
            dists.append(abs(u - ref.elasto_curve_u(base, v)))
            if k == len(eps_values) - 1:
                expect(all(b2 < a2 for a2, b2 in zip(dists, dists[1:])),
                       f"p-system trace distance to the layer curve does not fall: {dists}")

        b.lib(f"psystem_viscous_eps{eps:g}", run, check)


# --- admissible_sets ---------------------------------------------------------


def admissible_sets(b: Builder):
    """The convex and cubic case tables, each with an LF oracle column and an
    inclusion audit, plus the layer-set call at the oracle's own lambda."""
    for name, u_b in ADMISSIBLE_CASES:
        lam = LF_LAM[name]
        riem, layer, excl = ref.boundary_sets(name, u_b)
        marks = riem.boundary_values() + tuple(excl)

        def verify(out, riem=riem, layer=layer, excl=excl, marks=marks,
                   tag=f"{name} u_B={u_b}"):
            tab = read_csv(out / "membership.csv")
            keep = ref.off_band(tab["u0"], marks)
            for col, want in (("riemann_closed_form", riem), ("bln", riem),
                              ("kruzkov", riem), ("viscous_layer", layer),
                              ("lf_layer", layer)):
                got = tab[col][keep].astype(bool)
                bad = np.nonzero(got != want.member(tab["u0"][keep]))[0]
                expect(bad.size == 0, f"{tag}: column {col} disagrees at "
                       f"u0={tab['u0'][keep][bad][:5].tolist()}")
            res = read_json(out / "admissible.json")
            _set_boundaries(res["riemann_set"], riem, f"{tag} riemann_set")
            _set_boundaries(res["layer_set_viscous"], layer, f"{tag} layer_set_viscous")
            _close(sorted(res["exclusions"]), sorted(excl), 1e-9, f"{tag} exclusions")
            expect(res["audit"]["violations"] == [], f"{tag}: audit violations")

        bundled = BUNDLED_ADMISSIBLE.get((name, u_b))
        if bundled:
            b.cli(bundled, "verify", bundled, verify)
        else:
            b.cli(f"admissible_{name}_{u_b:g}", "admissible", {
                "task": "admissible", "model": {"name": name},
                "params": {"u_B": u_b, "grid": list(GRID[name]),
                           "oracle": {"type": "lf", "lam": lam, "q": LF_Q},
                           "samples": SAMPLES[name]},
            }, verify)

        model = systems.make_model(name)

        def run(model=model, u_b=u_b, lam=lam):
            return admissible.layer_set_scalar(model, u_b, ("lf", lam, LF_Q))

        def check(got, layer=layer, tag=f"{name} u_B={u_b} lf set"):
            _set_boundaries(got.as_json(), layer, tag)
            xs = np.linspace(-3.0, 3.0, 601)
            keep = ref.off_band(xs, layer.boundary_values())
            expect(bool(np.array_equal(got.member_grid(xs[keep]), layer.member(xs[keep]))),
                   f"{tag}: membership differs from the reference layer set")

        b.lib(f"layer_set_lf_{name}_{u_b:g}", run, check,
              known_fault="CFL hypothesis")


# --- scheme_runs -------------------------------------------------------------


def _godunov_data(rng, name, absorbed):
    """Boundary and interior states whose Riemann fan leaves a constant
    state next to the boundary: either every wave leaves through x = 0
    (``absorbed``, trace u_I) or a shock of speed >= 0.5 enters (trace u_B)."""
    if name == "burgers":
        if absorbed:
            return rng.uniform(-1.0, 0.2), rng.uniform(-1.8, -1.2)
        return rng.uniform(1.2, 1.8), rng.uniform(-0.2, 1.0)
    if absorbed:
        return rng.uniform(-0.8, -0.2), rng.uniform(-0.8, -0.2)
    u_b = rng.uniform(1.3, 1.6)
    return u_b, rng.uniform(1.2, u_b)


def scheme_runs(b: Builder):
    """Conservative schemes through the CLI and as stored-history library runs."""
    grid = {"x_max": 1.0, "cells": 200, "t_end": 0.5, "snapshots": 33}
    for name in ("burgers", "cubic"):
        for absorbed in (True, False):
            u_b, u_i = (float(x) for x in _godunov_data(b.rng, name, absorbed))
            lo, hi = min(u_b, u_i), max(u_b, u_i)
            want, _ = ref.scalar_riemann_trace(name, u_b, u_i)
            case = f"{name}_{'absorbed' if absorbed else 'entering'}"
            for stype, lam in (("lf", 0.2), ("split", 0.2), ("godunov", 0.4)):
                scheme = {"type": stype, "lam": lam}
                if stype != "godunov":
                    scheme["q"] = LF_Q

                def verify(out, stype=stype, lo=lo, hi=hi, want=want, case=case):
                    final = read_csv(out / "final.csv")["u"]
                    res = read_json(out / "trace.json")
                    if stype == "lf":
                        _max_principle(final, lo, hi, f"lf {case}")
                    if stype == "split":
                        lf = read_csv(out.parent / f"simulate_lf_{case}" / "final.csv")["u"]
                        _close(final, lf, 1e-12, f"split vs lf final state ({case})")
                    if stype == "godunov":
                        _close(res["trace"], want, 1e-6, f"Godunov trace ({case})")
                        expect(res["entropy_residual"] <= 1e-9,
                               f"Godunov boundary entropy residual {res['entropy_residual']}")

                b.cli(f"simulate_{stype}_{case}", "simulate", {
                    "task": "simulate", "model": {"name": name}, "scheme": scheme,
                    "grid": grid, "data": {"u_I": u_i, "u_B": u_b}}, verify)

    # 2x2 data go through the library: the CLI's piecewise data reader
    # cannot build a vector-valued initial state.  Strains stay positive
    # because numpy's ``v ** 3`` costs ~20x more on negative bases, and a
    # seed must not change the amount of work.
    systems_data = (
        ("elastodynamics", {}, lambda r: [r.uniform(0.2, 0.8), r.uniform(-0.5, 0.5)]),
        ("euler_isentropic", {"gamma": 2.0},
         lambda r: [r.uniform(0.8, 1.5), r.uniform(-0.3, 0.3)]),
    )
    for name, params, draw in systems_data:
        model = systems.make_model(name, **params)
        u_i, u_b = np.array(draw(b.rng)), np.array(draw(b.rng))

        def run(model=model, u_i=u_i, u_b=u_b):
            sol = schemes.run_lf(model, u_i, u_b, h=0.005, lam=0.2, q=LF_Q, t_end=0.5,
                                 n_cells=200)
            return sol, diagnostics.extract_boundary_trace(model, sol)

        def check(res, model=model, name=name):
            sol, rep = res
            _mass_balance(sol, f"lf {name}")
            expect(bool(np.all(np.isfinite(sol.snapshots))), f"lf {name}: non-finite state")
            expect(model.in_region(sol.snapshots) and model.in_region(rep.trace),
                   f"lf {name}: state left the model's region")

        b.lib(f"run_lf_{name}", run, check)

    # stored histories: 1000 cells x 1001 time levels of float64, 7.6 MiB
    # each.  States stay positive: the share of negative states, which are
    # slow in ``u ** 3`` and ``u ** 4``, would otherwise follow the seed
    # (the absorbed cubic CLI jobs above cover negative states).
    n_cells, h = 1000, 0.001
    for name in ("burgers", "cubic"):
        for stype, lam in (("lf", 0.2), ("godunov", 0.4)):
            model = systems.make_model(name)
            u0 = b.rng.uniform(0.1, 1.0, n_cells)
            u_b = float(b.rng.uniform(0.1, 1.0))
            t_end = 1000 * lam * h
            held = {}

            def run(model=model, u0=u0, u_b=u_b, stype=stype, lam=lam, t_end=t_end):
                if stype == "lf":
                    return schemes.run_lf(model, u0, u_b, h=h, lam=lam, q=LF_Q, t_end=t_end,
                                          n_cells=n_cells, store_all=True)
                return schemes.run_godunov(model, u0, u_b, h=h, lam=lam, t_end=t_end,
                                           n_cells=n_cells, store_all=True)

            def check(sol, held=held, name=name, u0=u0, u_b=u_b, stype=stype):
                held["sol"] = sol
                tag = f"{stype} {name} history"
                _mass_balance(sol, tag)
                # LF runs only: against the exact Riemann trace, the Godunov
                # runs read up to ~1e-12 on some seeds, from the same tie
                # tolerance that _max_principle describes
                if stype == "lf":
                    _max_principle(sol.history, min(u0.min(), u_b), max(u0.max(), u_b), tag)
                    own = ref.cell_entropy_residual(name, stype, sol.history, sol.lam, sol.q)
                    expect(own <= 1e-12, f"{tag}: cell entropy residual {own:.3g}")
                    held["own"] = own

            def residual(held=held, model=model):
                return schemes.discrete_entropy_residual(model, held.pop("sol"))

            def check_residual(got, held=held, tag=f"{stype} {name}"):
                own = held.pop("own", got)
                expect(got <= 1e-12 and abs(got - own) <= 1e-12,
                       f"{tag}: discrete_entropy_residual {got:.3g}, own {own:.3g}")

            b.lib(f"run_{stype}_{name}_history", run, check)
            b.lib(f"entropy_residual_{stype}_{name}", residual, check_residual)


# --- quick_tasks -------------------------------------------------------------


def _bundled_quick(b: Builder):
    def linear2(out):
        res = read_json(out / "layer.json")["manifold"]
        cfg = read_json(Path(cli.example_path("linear2_wrong_viscosity")))
        a = [[-5.0, 5.0], [-3.0, 3.0]]  # the model's default A
        spec = ref.linear2_spectrum(a, cfg["model"]["params"]["B"])
        _close(res["amplification"], spec, 1e-10, "linear2 spectrum")
        stable = int(np.sum(spec < -1e-9))
        p = int(np.sum(np.linalg.eigvals(a).real < -1e-9))
        expect((res["p"], res["stable_dim"], res["mismatch"]) == (p, stable, stable != p),
               f"linear2 manifold report {res}")

    def elasto(out):
        res = read_json(out / "layer.json")
        base = res["base"]
        want = [[v, ref.elasto_curve_u(base, v)] for v, _ in res["points"]]
        _close(res["points"], want, 1e-9, "elasto curve points")
        _close(res["tangent"], ref.elasto_tangent(base), 1e-9, "elasto tangent")

    def euler(out):
        tab = read_csv(out / "regions.csv")
        want = [ref.euler_region(r, u, 2.0) for r, u in zip(tab["rho"], tab["u"])]
        expect(read_json(out / "riemann.json")["regions"] == want, "Euler region labels")

    def lagrangian(out):
        res = read_json(out / "layer.json")
        _close([res["a1"], res["a2"]], ref.lagrangian_factors(0.2, 1.0), 1e-12,
               "Lagrangian amplification pair")

    b.cli("linear2_wrong_viscosity", "verify", "linear2_wrong_viscosity", linear2)
    b.cli("elasto_layer_curve", "verify", "elasto_layer_curve", elasto)
    b.cli("euler_regions", "verify", "euler_regions", euler)
    b.cli("lagrangian_lf_layer", "verify", "lagrangian_lf_layer", lagrangian)


def _scalar_riemann_data(rng):
    while True:
        left, right = rng.uniform(-2.5, 2.5, 2)
        trace, gap = ref.scalar_riemann_trace("cubic", left, right)
        if gap > 1e-6:
            return float(left), float(right), trace


# (model, u_B, v_inf) centres of the layer-profile jobs: a member and a
# non-member per model, so every seed does the same kind of work
PROFILE_CASES = (("burgers", 1.0, -2.0), ("burgers", 1.0, -0.5),
                 ("cubic", 1.5, -0.5), ("cubic", 1.5, 0.7))


def _profile_data(rng, name, u_b, v_inf):
    """Jitter a profile case by up to 0.05 and return it with its reference
    verdict, which the jitter must leave far from flipping."""
    u_b, v_inf = u_b + rng.uniform(-0.05, 0.05), v_inf + rng.uniform(-0.05, 0.05)
    member = ref.viscous_member(name, u_b, v_inf)
    if ref.phase_margin(name, u_b, v_inf) < 0.05 or (
            member and float(ref.SCALAR[name][1](v_inf)) > -0.5):
        raise ValueError(f"profile case {name} {u_b} -> {v_inf} is too close to a tie")
    return u_b, v_inf, member


def quick_tasks(b: Builder):
    """Millisecond CLI jobs: bundled small configs, Riemann solves, layer
    profiles and p-system layer curves."""
    _bundled_quick(b)
    for k in range(8):
        left, right, want = _scalar_riemann_data(b.rng)

        def verify(out, want=want):
            _close(read_json(out / "riemann.json")["trace"], want, 1e-6, "cubic Riemann trace")

        b.cli(f"riemann_cubic_{k}", "riemann", {
            "task": "riemann", "model": {"name": "cubic"},
            "params": {"left": left, "right": right}}, verify)

    for k in range(4):
        left = [b.rng.uniform(0.5, 1.5), b.rng.uniform(-0.5, 0.5)]
        right = [b.rng.uniform(0.5, 1.5), b.rng.uniform(-0.5, 0.5)]

        def verify(out):
            res = read_json(out / "riemann.json")
            waves = res["waves"]
            expect(len(waves) >= 1, "p-system fan has no waves")
            for w in waves:
                if w["kind"] != "shock":
                    continue
                s = w["speed_range"][0]
                jump = s * (np.asarray(w["right"]) - np.asarray(w["left"]))
                dflux = ref.psystem_flux(w["right"]) - ref.psystem_flux(w["left"])
                _close(jump, dflux, 1e-9 * (1.0 + np.max(np.abs(dflux))),
                       "p-system Rankine-Hugoniot")

        b.cli(f"riemann_psystem_{k}", "riemann", {
            "task": "riemann", "model": {"name": "elastodynamics"},
            "params": {"left": left, "right": right}}, verify)

    for reg in ("viscous", "lf"):
        for k, case in enumerate(PROFILE_CASES):
            name = case[0]
            u_b, v_inf, member = _profile_data(b.rng, *case)
            params = {"mode": "profile", "u_B": u_b, "v_inf": v_inf}
            if reg == "lf":
                params["regularization"] = {"type": "lf", "lam": 0.1, "q": LF_Q}
                amp = ref.lf_amplification(name, 0.1, LF_Q, v_inf)
            else:
                amp = float(ref.SCALAR[name][1](v_inf))

            def verify(out, member=member, amp=amp, tag=f"{reg} profile {name} {u_b} -> {v_inf}"):
                res = read_json(out / "layer.json")
                expect((res["verdict"] == "converged") == member,
                       f"{tag}: verdict {res['verdict']}, reference member={member}")
                _close(res["manifold"]["amplification"], [amp], 1e-10, f"{tag} amplification")

            b.cli(f"layer_{reg}_{k}", "layer", {
                "task": "layer", "model": {"name": name}, "params": params}, verify)

    for k in range(4):
        base = [float(b.rng.uniform(0.5, 2.5)), float(b.rng.uniform(-1.0, 1.0))]
        vs = sorted(float(x) for x in base[0] + b.rng.uniform(-1.0, 1.0, 5))

        def verify(out, base=base, vs=vs):
            res = read_json(out / "layer.json")
            want = [[v, ref.elasto_curve_u(base, v)] for v in vs]
            _close(res["points"], want, 1e-9, "elasto curve points")
            _close(res["tangent"], ref.elasto_tangent(base), 1e-9, "elasto tangent")

        b.cli(f"elasto_curve_{k}", "layer", {
            "task": "layer", "model": {"name": "elastodynamics"},
            "params": {"mode": "elasto-curve", "base": base, "v_inf_range": vs}}, verify)


WORKLOADS = {
    "viscous_sweep": viscous_sweep,
    "admissible_sets": admissible_sets,
    "scheme_runs": scheme_runs,
    "quick_tasks": quick_tasks,
}


def build(workload: str, seed: int, out: Path) -> list[Job]:
    b = Builder(seed, out)
    WORKLOADS[workload](b)
    return b.jobs
