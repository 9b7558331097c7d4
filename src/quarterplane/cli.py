"""Batch front-end: JSON run configurations in, CSV/JSON artifacts out.

Subcommands: simulate, layer, admissible, riemann, verify, study,
list-examples.  Exit codes: 0 success, 2 configuration/schema error
(including a model that lacks what the task needs), 3 numerical failure
(including a non-finite result) or failed verification.  Artifacts are
strict JSON or CSV, written atomically (temp file + rename), and are
byte-identical for identical config + seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from quarterplane import admissible as adm
from quarterplane import diagnostics, layers, riemann, schemes
from quarterplane.riemann import SolverFailure
from quarterplane.schemes import CFLError
from quarterplane.systems import UnsupportedModelError, classify_euler_region, make_model

TASKS = ("simulate", "layer", "admissible", "riemann", "study")
# The largest layer-profile horizon.  Near a stable limit the step of the
# explicit integrator is bounded by its stability region, so the work of a
# viscous profile, like that of an LF one, grows in proportion to y_max.
_MAX_LAYER_Y = 1e5


class SchemaError(ValueError):
    pass


class VerificationError(RuntimeError):
    pass


# --- Config handling ---------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def _require(cfg, key, types, ctx="config"):
    if key not in cfg:
        raise SchemaError(f"{ctx}: missing required field {key!r}")
    if not isinstance(cfg[key], types):
        raise SchemaError(f"{ctx}: field {key!r} has the wrong type")
    return cfg[key]


def _finite_number(x) -> bool:
    """A JSON int or float that a float holds (no NaN, inf or huge int)."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    task = _require(cfg, "task", str)
    if not task:
        raise SchemaError("task must not be empty")
    if task not in TASKS:
        raise SchemaError(f"unknown task {task!r}; expected one of {TASKS}")
    _count(cfg, "seed", "config")
    model = _require(cfg, "model", dict)
    _require(model, "name", str, "model")
    try:
        dimension = make_model(model["name"], **model.get("params", {})).dimension
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"model: {exc}") from exc
    if task in ("simulate", "study"):
        scheme = _require(cfg, "scheme", dict)
        stype = _require(scheme, "type", str, "scheme")
        if stype not in ("viscous", "lf", "split", "godunov"):
            raise SchemaError(f"scheme: unknown type {stype!r}")
        grid = _require(cfg, "grid", dict)
        if "snapshots" in grid:
            _number(grid, "snapshots", "grid", integer=True)
        data = _require(cfg, "data", dict)
        for key in ("u_I", "u_B"):
            _require(data, key, object, "data")
    if task == "study":
        sweep = _require(cfg, "sweep", dict)
        if _require(sweep, "parameter", str, "sweep") not in ("eps", "cells"):
            raise SchemaError(f"sweep: parameter must be \"eps\" or \"cells\", "
                              f"got {sweep['parameter']!r}")
        values = _require(sweep, "values", list, "sweep")
        if not values or not all(map(_finite_number, values)):
            raise SchemaError("sweep: values must be one or more finite numbers")
        svals = sorted(values)
        if svals != values and svals[::-1] != values:
            raise SchemaError("sweep: values must be monotone")
    if task in ("layer", "admissible", "riemann"):
        params = _require(cfg, "params", dict)
        mode = params.get("mode", "profile")
        if task == "layer" and mode == "profile":
            for key in ("u_B", "v_inf"):  # a finite number or a list of them
                val = params.get(key)
                if val == [] or not all(map(_finite_number, val if isinstance(val, list) else [val])):
                    raise SchemaError(f"params: {key} must be a finite number or a list "
                                      f"of finite numbers, got {val!r}")
            reg = _check_regularization(params, "regularization")
            # a layer coordinate (viscous) or a step count (LF)
            if "y_max" in params and _number(params, "y_max", "params",
                                             integer=reg != "viscous") > _MAX_LAYER_Y:
                raise SchemaError(f"params: y_max must be at most {_MAX_LAYER_Y:g}, "
                                  f"got {params['y_max']!r}")
        elif task == "layer" and mode == "elasto-curve":
            _state(params.get("base"), "base", 2)
            vs = params.get("v_inf_range")
            if not (isinstance(vs, list) and vs and all(map(_finite_number, vs))):
                raise SchemaError(f"params: v_inf_range must be a non-empty list of finite "
                                  f"numbers, got {vs!r}")
        elif task == "layer" and mode == "lagrangian":
            _number(params, "lam", "params")
            _state(params.get("limit"), "limit", 2)
            if "start" in params:
                _state(params["start"], "start", 2)
            _count(params, "steps", "params")
        elif task == "layer":
            raise SchemaError(f"unknown layer mode {mode!r}")
        if task == "admissible":
            grid = params.get("grid", [-3.0, 3.0, 241])
            if not (_finite_number(params.get("u_B")) and isinstance(grid, list)
                    and len(grid) == 3 and all(map(_finite_number, grid))):
                raise SchemaError("params: u_B and grid [lo, hi, n] must be finite numbers")
            if "samples" in params:
                _number(params, "samples", "params", integer=True)
            _check_regularization(params, "oracle")
            _check_regularization(params, "regularization")
        if task == "riemann" and mode == "euler-regions":
            states = params.get("states")
            if not isinstance(states, list):
                raise SchemaError(f"params: states must be a list of (rho, u) pairs, "
                                  f"got {states!r}")
            for i, val in enumerate(states):
                _state(val, f"states.{i}", 2)
        elif task == "riemann":
            _state(params.get("left"), "left", dimension)
            _state(params.get("right"), "right", dimension)


def _state(val, name, dimension):
    """Check ``val`` is a state: a finite number for a scalar model, a list
    of ``dimension`` finite numbers otherwise."""
    state = [val] if dimension == 1 else val
    if not (isinstance(state, list) and len(state) == dimension
            and all(map(_finite_number, state))):
        raise SchemaError(f"params: {name} is not a {dimension}-component state: {val!r}")


def _count(section, key, ctx):
    """Check section[key], if present, is a non-negative integer."""
    val = section.get(key, 0)
    if type(val) is not int or val < 0:
        raise SchemaError(f"{ctx}: {key} must be a non-negative integer, got {val!r}")


def _check_regularization(params, key):
    """params[key] (default "viscous"), checked to be "viscous" or
    {"type": "lf", "lam": ..., "q": ...} with finite positive lam and q."""
    reg = params.get(key, "viscous")
    if reg != "viscous":
        if not (isinstance(reg, dict) and reg.get("type") == "lf"):
            raise SchemaError(f'params: {key} must be "viscous" or '
                              f'{{"type": "lf", "lam": ..., "q": ...}}, got {reg!r}')
        _number(reg, "lam", key)
        _number(reg, "q", key)
    return reg


def _piecewise(table, dimension):
    """Constant or piecewise-constant data: a number (scalar models) or a
    table [[coord, value], ...] whose values are numbers (scalar models) or
    state lists (2x2 systems)."""
    if dimension == 1 and isinstance(table, (int, float)):
        return float(table)
    try:
        pts = sorted((float(a), b) for a, b in table)
        coords = np.array([a for a, _ in pts])
        vals = np.array([b for _, b in pts], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"data: {table!r} is not a [[coord, value], ...] table") from exc
    if not pts or vals.shape[1:] != (() if dimension == 1 else (dimension,)):
        raise SchemaError(f"data: {table!r} does not hold {dimension}-component states")

    def fn(x):
        idx = np.searchsorted(coords, np.asarray(x), side="right") - 1
        return vals[np.clip(idx, 0, len(vals) - 1)]
    return fn


# --- Serialization -----------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    """Strict JSON: a non-finite value raises ValueError (exit 3), not NaN."""
    try:
        text = json.dumps(_jsonify(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{os.path.basename(path)}: result is not finite") from exc
    _atomic_write(path, text)


def write_csv(path: str, header, columns) -> None:
    """A CSV with one sequence of ``columns`` per header name.  A float is
    written as ``repr(float(v))``, Python's shortest round-trip form; any
    other value as ``str(v)``."""
    rows = zip(*map(_cells, columns), strict=True)
    _atomic_write(path, "\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def _cells(col):
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return map(repr, col.tolist())
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in col]


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- Task handlers -----------------------------------------------------------


def _build_model(cfg):
    m = cfg["model"]
    return make_model(m["name"], **m.get("params", {}))


def _number(section, key, ctx, integer=False):
    """section[key] if it is a finite positive number (a positive integer
    if ``integer``); a SchemaError if it is missing or anything else."""
    val = section.get(key)
    if not (_finite_number(val) and val > 0) or (integer and type(val) is not int):
        kind = "integer" if integer else "number"
        raise SchemaError(f"{ctx}: {key} must be a finite positive {kind}, got {val!r}")
    return val


def _run_scheme(model, cfg, override=None):
    scheme = dict(cfg["scheme"])
    if override:
        scheme.update(override)
    grid = cfg["grid"]
    data = cfg["data"]
    u0 = _piecewise(data["u_I"], model.dimension)
    u_B = _piecewise(data["u_B"], model.dimension)
    n_cells = _number(grid, "cells", "grid", integer=True)
    h = float(_number(grid, "x_max", "grid")) / n_cells
    common = dict(h=h, t_end=float(_number(grid, "t_end", "grid")), n_cells=n_cells,
                  n_snapshots=grid.get("snapshots", 33))
    stype = scheme["type"]
    if stype == "viscous":
        return schemes.run_viscous(model, u0, u_B, eps=float(_number(scheme, "eps", "scheme")),
                                   **common)
    lam = float(_number(scheme, "lam", "scheme"))
    if stype == "godunov":
        return schemes.run_godunov(model, u0, u_B, lam=lam, **common)
    run = schemes.run_lf if stype == "lf" else schemes.run_split
    return run(model, u0, u_B, lam=lam, q=float(_number(scheme, "q", "scheme")), **common)


def task_simulate(cfg, out, seed, jobs):
    model = _build_model(cfg)
    sol = _run_scheme(model, cfg)
    rep = diagnostics.extract_boundary_trace(model, sol)
    final = sol.final.reshape(len(sol.xs), -1).T
    names = ["u"] if sol.final.ndim == 1 else [f"u{i + 1}" for i in range(len(final))]
    write_csv(os.path.join(out, "final.csv"), ["x", *names], [sol.xs, *final])
    summary = {
        "scheme": sol.scheme,
        "model": sol.model_name,
        "tau": sol.tau,
        "h": sol.h,
        "trace": rep.trace,
        "flux_trace": rep.flux_trace,
        "entropy_residual": diagnostics.boundary_entropy_residual(model, rep),
        "bv_proxy": rep.bv_proxy,
        "oscillation_suspected": rep.oscillation_suspected,
    }
    write_json(os.path.join(out, "trace.json"), summary)
    return summary


def _regularization(params, key="regularization"):
    """The library form of a regularization that validate_config checked."""
    reg = params.get(key, "viscous")
    return "viscous" if reg == "viscous" else ("lf", float(reg["lam"]), float(reg["q"]))


def task_layer(cfg, out, seed, jobs):
    model = _build_model(cfg)
    p = cfg["params"]
    mode = p.get("mode", "profile")
    result = {"model": model.name, "mode": mode}

    if mode == "profile":
        reg = _regularization(p)
        u_B = p["u_B"]
        v_inf = p["v_inf"]
        if reg == "viscous":
            prof = layers.viscous_layer_profile(model, u_B, v_inf,
                                                y_max=float(p.get("y_max", 200.0)))
        else:
            prof = layers.discrete_layer_membership(model, reg, u_B, v_inf,
                                                    y_max=int(p.get("y_max", 500)))
        states = prof.states.reshape(len(prof.ys), -1).T
        names = ["v"] if prof.states.ndim == 1 else [f"v{i + 1}" for i in range(len(states))]
        write_csv(os.path.join(out, "profile.csv"), ["y", *names], [prof.ys, *states])
        result.update({"verdict": prof.verdict,
                       "distance_at_horizon": prof.distance_at_horizon})
        rep = layers.manifold_report(model, reg, np.atleast_1d(u_B),
                                     np.atleast_1d(v_inf))
        result["manifold"] = {
            "p": rep.p, "stable_dim": rep.stable_dim, "mismatch": rep.mismatch,
            "amplification": np.sort(rep.amplification),
            "characteristic": rep.characteristic,
            "predicate_residuals": rep.predicate_residuals,
        }
    elif mode == "elasto-curve":
        base = p["base"]
        vs = np.asarray(p["v_inf_range"], dtype=float)
        curve = layers.elasto_layer_curve(model, base, vs)
        write_csv(os.path.join(out, "curve.csv"), ["v_inf", "u_inf"], curve.points.T)
        result.update({"base": curve.base_point, "tangent": curve.tangent,
                       "points": curve.points})
    else:  # "lagrangian"
        lam = float(p["lam"])
        limit = np.asarray(p["limit"], dtype=float)
        state = np.asarray(p.get("start", limit), dtype=float)
        n_steps = int(p.get("steps", 50))
        states = [state]
        root_products = []
        for _ in range(n_steps):
            r1, r2 = layers.lagrangian_quadratic_roots(lam, states[-1], limit)
            root_products.append(r1 * r2)
            states.append(layers.lagrangian_layer_iterate(lam, states[-1], limit))
        states = np.asarray(states)
        write_csv(os.path.join(out, "iterates.csv"), ["y", "v", "u"],
                  [range(len(states)), *states.T])
        a1 = (1.0 - lam / limit[0]) / (1.0 + lam / limit[0])
        fixed = layers.lagrangian_layer_iterate(lam, limit, limit)
        result.update({
            "a1": a1, "a2": 1.0 / a1,
            "fixed_point_residual": float(np.linalg.norm(fixed - limit)),
            "max_root_product_error": float(np.max(np.abs(np.asarray(root_products) - 1.0)))
            if root_products else 0.0,
            "final_distance": float(np.linalg.norm(states[-1] - limit)),
        })
    write_json(os.path.join(out, "layer.json"), result)
    return result


def task_admissible(cfg, out, seed, jobs):
    model = _build_model(cfg)
    p = cfg["params"]
    u_B = float(p["u_B"])
    lo, hi, n = p.get("grid", (-3.0, 3.0, 241))
    grid = np.linspace(lo, hi, int(n))
    rset = adm.riemann_set_scalar(model, u_B)
    result = {
        "model": model.name,
        "u_B": u_B,
        "riemann_set": rset.as_json(),
        "exclusions": list(adm.exclusion_set(model, u_B)),
        "layer_set_viscous": adm.layer_set_scalar(model, u_B, "viscous").as_json(),
    }
    bln = adm.bln_check(model, grid, u_B)
    kru = adm.kruzkov_worst(model, grid, u_B) <= 1e-9
    visc = adm.layer_member_oracle(model, u_B, grid, "viscous")
    columns = {"bln": bln, "kruzkov": kru, "viscous_layer": visc,
               "riemann_closed_form": rset.member_grid(grid)}
    if "oracle" in p:
        reg = _regularization(p, "oracle")
        columns["lf_layer"] = adm.layer_member_oracle(model, u_B, grid, reg)
    write_csv(os.path.join(out, "membership.csv"), ["u0", *columns],
              [grid, *(np.asarray(c, dtype=int) for c in columns.values())])
    if p.get("audit", True):
        rep = adm.inclusion_audit(model, u_B, _regularization(p),
                                  n_samples=int(p.get("samples", 1000)), seed=seed)
        result["audit"] = {"n_samples": rep.n_samples,
                          "n_layer_members": rep.n_layer_members,
                          "violations": list(rep.violations), "seed": seed}
    write_json(os.path.join(out, "admissible.json"), result)
    return result


def task_riemann(cfg, out, seed, jobs):
    model = _build_model(cfg)
    p = cfg["params"]
    result = {"model": model.name}
    if p.get("mode") == "euler-regions":
        states = [tuple(map(float, s)) for s in p["states"]]
        regions = [classify_euler_region(model, s) for s in states]
        write_csv(os.path.join(out, "regions.csv"), ["rho", "u", "region"],
                  [[r for r, _ in states], [u for _, u in states], regions])
        result["regions"] = regions
    else:
        if model.dimension == 1:
            fan = riemann.scalar_riemann_trace(model, p["left"], p["right"])
        else:
            fan = riemann.psystem_riemann_trace(model, p["left"], p["right"])
        result.update({
            "trace": fan.trace_at_zero_plus,
            "flux_at_zero": fan.flux_at_zero,
            "waves": [{"kind": w.kind, "left": w.left, "right": w.right,
                       "speed_range": list(w.speed_range)} for w in fan.waves],
        })
    write_json(os.path.join(out, "riemann.json"), result)
    return result


def task_study(cfg, out, seed, jobs):
    model = _build_model(cfg)
    sweep = cfg["sweep"]
    param = sweep["parameter"]
    values = [float(v) for v in sweep["values"]]

    def solve(v):
        if param == "eps":
            return _run_scheme(model, cfg, override={"eps": v})
        return _run_scheme(model, {**cfg, "grid": {**cfg["grid"], "cells": int(v)}})

    rows, flags = diagnostics.convergence_study(
        model, solve, values, expected_trace=sweep.get("expected_trace"))

    traces = np.array([np.atleast_1d(r.trace) for r in rows], dtype=float).T
    header = [param] + [f"trace{i + 1}" for i in range(len(traces))] \
        + ["trace_error", "entropy_residual", "bv_proxy"]
    write_csv(os.path.join(out, "study.csv"), header,
              [[r.parameter for r in rows], *traces,
               ["" if r.trace_error is None else r.trace_error for r in rows],
               [r.entropy_residual for r in rows], [r.bv_proxy for r in rows]])
    summary = {"parameter": param, "values": values,
               "trace_errors": [r.trace_error for r in rows if r.trace_error is not None],
               "trace_error_decreasing": flags["trace_error_decreasing"]}
    write_json(os.path.join(out, "study.json"), summary)
    return summary


HANDLERS = {
    "simulate": task_simulate,
    "layer": task_layer,
    "admissible": task_admissible,
    "riemann": task_riemann,
    "study": task_study,
}


# --- Verification ------------------------------------------------------------


def _lookup(result, path):
    cur = result
    for part in path.split("."):
        if isinstance(cur, dict):
            if part not in cur:
                raise VerificationError(f"expect: no field {path!r} in result")
            cur = cur[part]
        else:
            try:
                cur = cur[int(part)]
            except (IndexError, ValueError, TypeError) as exc:
                raise VerificationError(f"expect: bad path {path!r}") from exc
    return cur


def run_verify(cfg, out, seed, jobs):
    expect = cfg.get("expect")
    if not isinstance(expect, list) or not expect:
        raise SchemaError("verify requires a non-empty 'expect' list in the config")
    result = HANDLERS[cfg["task"]](cfg, out, seed, jobs)
    result = _jsonify(result)
    failures = []
    for check in expect:
        path = check["path"]
        try:
            got = _lookup(result, path)
        except VerificationError as exc:
            failures.append(str(exc))
            continue
        if "equals" in check and got != check["equals"]:
            failures.append(f"{path}: expected {check['equals']!r}, got {got!r}")
        if "approx" in check:
            tol = float(check.get("tol", 1e-9))
            want = np.asarray(check["approx"], dtype=float)
            have = np.asarray(got, dtype=float)
            if have.shape != want.shape or np.max(np.abs(have - want)) > tol:
                failures.append(f"{path}: expected {want.tolist()} +-{tol}, got {have.tolist()}")
        if "max" in check and not np.all(np.asarray(got, dtype=float) <= float(check["max"])):
            failures.append(f"{path}: expected <= {check['max']}, got {got!r}")
    report = {"config_task": cfg["task"], "checks": len(expect),
              "failures": failures, "ok": not failures}
    write_json(os.path.join(out, "verify.json"), report)
    if failures:
        raise VerificationError("; ".join(failures))
    return report


# --- Bundled examples --------------------------------------------------------


def example_names():
    root = resources.files("quarterplane").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def example_path(name: str) -> str:
    root = resources.files("quarterplane").joinpath("configs")
    for cand in (name, name + ".json"):
        p = root.joinpath(cand)
        if p.is_file():
            return str(p)
    raise SchemaError(f"no bundled config named {name!r}")


def list_examples(stream=None) -> int:
    stream = stream or sys.stdout
    for name in example_names():
        with open(example_path(name)) as fh:
            cfg = json.load(fh)
        stream.write(f"{name}: {cfg.get('description', '')}\n")
    return 0


# --- Entry point -------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser.  It is built on the first ``main`` call, not
    at import, and reused by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="quarterplane",
        description="Boundary layers and admissible boundary sets for "
                    "1-d conservation laws on the quarter plane.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "layer", "admissible", "riemann", "verify", "study"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a JSON run configuration, or the name of "
                            "a bundled example")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1)
    sub.add_parser("list-examples")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list-examples":
        return list_examples()

    try:
        path = args.config
        if not os.path.exists(path) and not os.path.sep in path:
            path = example_path(path)
        cfg = load_config(path)
        seed = cfg.get("seed", 0) if args.seed is None else args.seed
        if seed < 0:
            raise SchemaError(f"--seed must be a non-negative integer, got {seed}")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "verify":
            run_verify(cfg, args.out, seed, args.jobs)
        else:
            if cfg["task"] != args.command:
                raise SchemaError(
                    f"config task {cfg['task']!r} does not match subcommand {args.command!r}")
            HANDLERS[args.command](cfg, args.out, seed, args.jobs)
        return 0
    except (SchemaError, UnsupportedModelError) as exc:
        _error_report(args.out, "schema", exc)
        return 2
    except (CFLError, SolverFailure, VerificationError, RuntimeError,
            FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        _error_report(args.out, "numerical", exc)
        return 3


def _error_report(out, kind, exc):
    payload = {"error": kind, "message": str(exc)}
    try:
        write_json(os.path.join(out, "error.json"), payload)
    except OSError:
        pass
    print(f"error ({kind}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
