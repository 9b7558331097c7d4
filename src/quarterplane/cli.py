"""Batch front-end: JSON run configurations in, CSV/JSON artifacts out.

Subcommands: simulate, layer, admissible, riemann, verify, study,
list-examples.  Exit codes: 0 success, 2 configuration/schema error
(including a model that lacks what the task needs), 3 numerical failure
(including a non-finite result) or failed verification.  Artifacts are
strict JSON or CSV, written atomically (temp file + rename); a file that
already holds the exact bytes is left as it is (same inode and mtime).  They
are byte-identical for identical config + seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
from importlib import resources

import numpy as np

from quarterplane import admissible as adm
from quarterplane import diagnostics, layers, riemann, schemes
from quarterplane.systems import UnsupportedModelError, classify_euler_region, make_model

TASKS = ("simulate", "layer", "admissible", "riemann", "study")
# The largest layer-profile horizon.  Near a stable limit the step of the
# explicit integrator is bounded by its stability region, so the work of a
# viscous profile, like that of an LF one, grows in proportion to y_max.
_MAX_LAYER_Y = 10 ** 5
# The largest count a config may ask for: cells, snapshots, audit samples,
# admissible grid points or recursion steps, and the longest config list.
MAX_COUNT = 10 ** 6
# The most values of a study sweep, each a whole scheme run.
_MAX_SWEEP = 64


class SchemaError(ValueError):
    pass


class VerificationError(RuntimeError):
    pass


# --- Config handling ---------------------------------------------------------


def load_config(path: str) -> dict:
    """The config at ``path``, each field read once: checked for its kind and
    range, defaulted and typed; with the built ``model`` and the raw ``expect``."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise SchemaError(f"config cannot be read: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    task = _get(cfg, "task", one_of(*TASKS))
    seed = _get(cfg, "seed", count(0, math.inf), 0)
    m = _get(cfg, "model", json_object)
    try:
        model = make_model(_get(m, "name", str), **_get(m, "params", json_object, {}))
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"model: {exc}") from exc
    return {"task": task, "seed": seed, "model": model, "expect": cfg.get("expect"),
            **_FIELDS[task](cfg, model.dimension)}


def _get(section, key, kind, default=...):
    """``kind(section[key])``, or ``default`` if the key is absent.  A kind,
    such as those below, takes one JSON value and returns it typed, or
    raises ValueError with a phrase naming what it expects; this raises a
    SchemaError naming the field, also if it is absent with no default."""
    if key not in section:
        if default is ...:
            raise SchemaError(f"missing required field {key!r}")
        return default
    val = section[key]
    try:
        return kind(val)
    except SchemaError as exc:  # from a nested field
        raise SchemaError(f"{key}: {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{key} must be {exc}, got {val!r}") from None


def json_object(x):
    if isinstance(x, dict):
        return x
    raise ValueError("a JSON object")


def finite(x, what="a finite number"):
    """A JSON int or float that a float holds (no bool, NaN, inf or huge int)."""
    if type(x) in (int, float) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ValueError(what)


def positive(x):
    what = "a finite positive number"
    if finite(x, what) > 0:
        return float(x)
    raise ValueError(what)


def count(lo, hi=MAX_COUNT):
    def read(x):
        if type(x) is int and lo <= x <= hi:
            return x
        raise ValueError(f"an integer in [{lo}, {hi}]")
    return read


def listof(kind, most=MAX_COUNT):
    what = f"a list of 1 to {most} items"

    def read(x):
        if not (isinstance(x, list) and 1 <= len(x) <= most):
            raise ValueError(what)
        try:
            return [kind(v) for v in x]
        except ValueError as exc:
            raise ValueError(f"{what}, each item {exc}") from None
    return read


def one_of(*choices):
    def read(x):
        if x in choices:
            return x
        raise ValueError("one of " + ", ".join(map(json.dumps, choices)))
    return read


def flag(x):
    if type(x) is bool:
        return x
    raise ValueError("true or false")


def state(dimension):
    """A state: a number for a scalar model, a list of ``dimension``
    numbers, read as an array, for a 2x2 one."""
    if dimension == 1:
        return finite
    what = f"a list of {dimension} finite numbers"

    def read(x):
        if isinstance(x, list) and len(x) == dimension:
            return np.array([finite(v, what) for v in x])
        raise ValueError(what)
    return read


def regularization(x):
    """"viscous", or {"type": "lf", "lam": ..., "q": ...} read as ("lf", lam, q)."""
    if x == "viscous":
        return x
    if isinstance(x, dict) and x.get("type") == "lf":
        return "lf", _get(x, "lam", positive), _get(x, "q", positive)
    raise ValueError('"viscous" or {"type": "lf", "lam": ..., "q": ...}')


def linspace(x):
    """[lo, hi, n] read as the n points of np.linspace(lo, hi, n)."""
    try:
        if isinstance(x, list) and len(x) == 3:
            return np.linspace(finite(x[0]), finite(x[1]), count(1)(x[2]))
    except ValueError:
        pass
    raise ValueError(f"[lo, hi, n] with finite lo and hi and an integer n in [1, {MAX_COUNT}]")


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


# scheme type -> the numbers its schemes.run_<type> reads from the config
_SCHEME_NUMBERS = {"viscous": ("eps",), "lf": ("lam", "q"), "split": ("lam", "q"),
                   "godunov": ("lam",)}


def _scheme_fields(cfg, dimension):
    """simulate and study: the scheme, its grid and its data."""
    scheme, grid, data = (_get(cfg, key, json_object) for key in ("scheme", "grid", "data"))
    stype = _get(scheme, "type", one_of(*_SCHEME_NUMBERS))
    piecewise = functools.partial(_piecewise, dimension=dimension)
    fields = {"scheme": stype, "cells": _get(grid, "cells", count(1)),
              "x_max": _get(grid, "x_max", positive), "t_end": _get(grid, "t_end", positive),
              "snapshots": _get(grid, "snapshots", count(1), 33),
              "u_I": _get(data, "u_I", piecewise), "u_B": _get(data, "u_B", piecewise)}
    for key in _SCHEME_NUMBERS[stype]:
        fields[key] = _get(scheme, key, positive)
    return fields


def _study_fields(cfg, dimension):
    sweep = _get(cfg, "sweep", json_object)
    param = _get(sweep, "parameter", one_of("eps", "cells"))
    kind = positive if param == "eps" else count(1)
    values = _get(sweep, "values", listof(kind, _MAX_SWEEP))
    if sorted(values) not in (values, values[::-1]):
        raise SchemaError("sweep: values must be monotone")
    return {**_scheme_fields(cfg, dimension), "parameter": param, "values": values,
            "expected_trace": _get(sweep, "expected_trace", state(dimension), None)}


def _layer_fields(cfg, dimension):
    p = _get(cfg, "params", json_object)
    mode = _get(p, "mode", one_of("profile", "elasto-curve", "lagrangian"), "profile")
    if mode == "elasto-curve":
        return {"mode": mode, "base": _get(p, "base", state(2)),
                "v_inf_range": _get(p, "v_inf_range", listof(finite))}
    if mode == "lagrangian":
        limit = _get(p, "limit", state(2))
        return {"mode": mode, "lam": _get(p, "lam", positive), "limit": limit,
                "start": _get(p, "start", state(2), limit),
                "steps": _get(p, "steps", count(0), 50)}
    reg = _get(p, "regularization", regularization, "viscous")
    # a layer coordinate (viscous) or a step count (LF)
    y_max = _get(p, "y_max", *((positive, 200.0) if reg == "viscous" else (count(1), 500)))
    if y_max > _MAX_LAYER_Y:
        raise SchemaError(f"y_max must be at most {_MAX_LAYER_Y}, got {y_max!r}")
    return {"mode": mode, "regularization": reg, "y_max": y_max,
            "u_B": _get(p, "u_B", state(dimension)),
            "v_inf": _get(p, "v_inf", state(dimension))}


def _admissible_fields(cfg, dimension):
    p = _get(cfg, "params", json_object)
    return {"u_B": _get(p, "u_B", finite),
            "grid": _get(p, "grid", linspace, linspace([-3.0, 3.0, 241])),
            "oracle": _get(p, "oracle", regularization, None),
            "audit": _get(p, "audit", flag, True), "samples": _get(p, "samples", count(1), 1000),
            "regularization": _get(p, "regularization", regularization, "viscous")}


def _riemann_fields(cfg, dimension):
    p = _get(cfg, "params", json_object)
    mode = _get(p, "mode", one_of("euler-regions"), None)
    if mode:
        return {"mode": mode, "states": _get(p, "states", listof(state(2)))}
    return {"mode": mode, "left": _get(p, "left", state(dimension)),
            "right": _get(p, "right", state(dimension))}


_FIELDS = {"simulate": _scheme_fields, "layer": _layer_fields,
           "admissible": _admissible_fields, "riemann": _riemann_fields, "study": _study_fields}


# --- Serialization -----------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
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
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiub":
        return map(repr if col.dtype.kind == "f" else str, col.tolist())
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in col]


def _atomic_write(path: str, text: str) -> None:
    """``text`` as UTF-8 at ``path``, through a temp file and os.replace,
    unless ``path`` is a regular file that already holds exactly these
    bytes: that one is left as it is, since replacing a file that holds
    data costs the filesystem far more than reading it."""
    data = text.encode()
    try:  # O_NONBLOCK: opening a FIFO does not wait for a writer
        with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size == len(data) and fh.read() == data:
                return
    except OSError:
        pass
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- Task handlers -----------------------------------------------------------


def _write(out, name, result, csv=()):
    """Write ``result`` to the JSON artifact ``name``, then ``csv`` = (name,
    header, columns), if given.  Handlers compute all first, and the strict
    JSON check is the last that can fail, so a failed run leaves only error.json."""
    write_json(os.path.join(out, name), result)
    if csv:
        write_csv(os.path.join(out, csv[0]), *csv[1:])
    return result


def _run_scheme(cfg, **override):
    c = {**cfg, **override}
    run = getattr(schemes, "run_" + c["scheme"])
    return run(c["model"], c["u_I"], c["u_B"], h=c["x_max"] / c["cells"], t_end=c["t_end"],
               n_cells=c["cells"], n_snapshots=c["snapshots"],
               **{key: c[key] for key in _SCHEME_NUMBERS[c["scheme"]]})


def task_simulate(cfg, out):
    model = cfg["model"]
    sol = _run_scheme(cfg)
    rep = diagnostics.extract_boundary_trace(model, sol)
    final = sol.final.reshape(len(sol.xs), -1).T
    names = ["u"] if sol.final.ndim == 1 else [f"u{i + 1}" for i in range(len(final))]
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
    return _write(out, "trace.json", summary, ("final.csv", ["x", *names], [sol.xs, *final]))


def task_layer(cfg, out):
    model, mode = cfg["model"], cfg["mode"]
    result = {"model": model.name, "mode": mode}

    if mode == "profile":
        reg, u_B, v_inf = cfg["regularization"], cfg["u_B"], cfg["v_inf"]
        if reg == "viscous":
            prof = layers.viscous_layer_profile(model, u_B, v_inf, y_max=cfg["y_max"])
        else:
            prof = layers.discrete_layer_membership(model, reg, u_B, v_inf, y_max=cfg["y_max"])
        states = prof.states.reshape(len(prof.ys), -1).T
        names = ["v"] if prof.states.ndim == 1 else [f"v{i + 1}" for i in range(len(states))]
        csv = "profile.csv", ["y", *names], [prof.ys, *states]
        result.update({"verdict": prof.verdict,
                       "distance_at_horizon": prof.distance_at_horizon})
        rep = layers.manifold_report(model, reg, np.atleast_1d(u_B), np.atleast_1d(v_inf))
        result["manifold"] = {
            "p": rep.p, "stable_dim": rep.stable_dim, "mismatch": rep.mismatch,
            "amplification": np.sort(rep.amplification),
            "characteristic": rep.characteristic,
            "predicate_residuals": rep.predicate_residuals,
        }
    elif mode == "elasto-curve":
        curve = layers.elasto_layer_curve(model, cfg["base"], np.asarray(cfg["v_inf_range"]))
        csv = "curve.csv", ["v_inf", "u_inf"], curve.points.T
        result.update({"base": curve.base_point, "tangent": curve.tangent,
                       "points": curve.points})
    else:  # "lagrangian"
        lam, limit = cfg["lam"], cfg["limit"]
        states = [cfg["start"]]
        root_products = []
        for _ in range(cfg["steps"]):
            r1, r2 = layers.lagrangian_quadratic_roots(lam, states[-1], limit)
            root_products.append(r1 * r2)
            states.append(layers.lagrangian_layer_iterate(lam, states[-1], limit))
        states = np.asarray(states)
        csv = "iterates.csv", ["y", "v", "u"], [range(len(states)), *states.T]
        a1 = (1.0 - lam / limit[0]) / (1.0 + lam / limit[0])
        fixed = layers.lagrangian_layer_iterate(lam, limit, limit)
        result.update({
            "a1": a1, "a2": 1.0 / a1,
            "fixed_point_residual": float(np.linalg.norm(fixed - limit)),
            "max_root_product_error": float(np.max(np.abs(np.asarray(root_products) - 1.0)))
            if root_products else 0.0,
            "final_distance": float(np.linalg.norm(states[-1] - limit)),
        })
    return _write(out, "layer.json", result, csv)


def task_admissible(cfg, out):
    model, u_B, grid = cfg["model"], cfg["u_B"], cfg["grid"]
    rset = adm.riemann_set_scalar(model, u_B)
    result = {
        "model": model.name,
        "u_B": u_B,
        "riemann_set": rset.as_json(),
        "exclusions": list(adm.exclusion_set(model, u_B)),
        "layer_set_viscous": adm.layer_set_scalar(model, u_B, "viscous").as_json(),
    }
    columns = {"bln": adm.bln_check(model, grid, u_B),
               "kruzkov": adm.kruzkov_worst(model, grid, u_B) <= 1e-9,
               "viscous_layer": adm.layer_member_oracle(model, u_B, grid, "viscous"),
               "riemann_closed_form": rset.member_grid(grid)}
    if cfg["oracle"] is not None:
        columns["lf_layer"] = adm.layer_member_oracle(model, u_B, grid, cfg["oracle"])
    if cfg["audit"]:
        rep = adm.inclusion_audit(model, u_B, cfg["regularization"],
                                  n_samples=cfg["samples"], seed=cfg["seed"])
        result["audit"] = {"n_samples": rep.n_samples,
                           "n_layer_members": rep.n_layer_members,
                           "violations": list(rep.violations), "seed": cfg["seed"]}
    return _write(out, "admissible.json", result, (
        "membership.csv", ["u0", *columns],
        [grid, *(np.asarray(c, dtype=int) for c in columns.values())]))


def task_riemann(cfg, out):
    model = cfg["model"]
    result = {"model": model.name}
    csv = ()
    if cfg["mode"] == "euler-regions":
        result["regions"] = [classify_euler_region(model, s) for s in cfg["states"]]
        csv = ("regions.csv", ["rho", "u", "region"],
               [*np.transpose(cfg["states"]), result["regions"]])
    else:
        fan = (riemann.scalar_riemann_trace if model.dimension == 1
               else riemann.psystem_riemann_trace)(model, cfg["left"], cfg["right"])
        result.update({
            "trace": fan.trace_at_zero_plus,
            "flux_at_zero": fan.flux_at_zero,
            "waves": [{"kind": w.kind, "left": w.left, "right": w.right,
                       "speed_range": list(w.speed_range)} for w in fan.waves],
        })
    return _write(out, "riemann.json", result, csv)


def task_study(cfg, out):
    param = cfg["parameter"]
    rows, flags = diagnostics.convergence_study(
        cfg["model"], lambda v: _run_scheme(cfg, **{param: v}), cfg["values"],
        expected_trace=cfg["expected_trace"])

    traces = np.array([np.atleast_1d(r.trace) for r in rows], dtype=float).T
    header = [param] + [f"trace{i + 1}" for i in range(len(traces))] \
        + ["trace_error", "entropy_residual", "bv_proxy"]
    summary = {"parameter": param, "values": [float(v) for v in cfg["values"]],
               "trace_errors": [r.trace_error for r in rows if r.trace_error is not None],
               "trace_error_decreasing": flags["trace_error_decreasing"]}
    return _write(out, "study.json", summary, (
        "study.csv", header,
        [[r.parameter for r in rows], *traces,
         ["" if r.trace_error is None else r.trace_error for r in rows],
         [r.entropy_residual for r in rows], [r.bv_proxy for r in rows]]))


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


def run_verify(cfg, out):
    expect = cfg["expect"]
    if not isinstance(expect, list) or not expect:
        raise SchemaError("verify requires a non-empty 'expect' list in the config")
    result = HANDLERS[cfg["task"]](cfg, out)
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
        p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
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
        if args.seed is not None:
            cfg["seed"] = _get(vars(args), "seed", count(0, math.inf))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file of that name, say
            raise SchemaError(f"--out cannot be made a directory: {exc}") from exc
        if args.command == "verify":
            run_verify(cfg, args.out)
        else:
            if cfg["task"] != args.command:
                raise SchemaError(
                    f"config task {cfg['task']!r} does not match subcommand {args.command!r}")
            HANDLERS[args.command](cfg, args.out)
        return 0
    except (SchemaError, UnsupportedModelError) as exc:
        _error_report(args.out, "schema", exc)
        return 2
    # ValueError includes CFLError and LinAlgError; RuntimeError includes
    # SolverFailure and VerificationError; RuntimeWarning is raised under -W error
    except (ValueError, RuntimeError, ArithmeticError, RuntimeWarning) as exc:
        _error_report(args.out, "numerical", exc)
        return 3


def _error_report(out, kind, exc):
    # the type names what "float division by zero" alone does not
    numeric = isinstance(exc, (ArithmeticError, Warning))
    message = f"{type(exc).__name__}: {exc}" if numeric else str(exc)
    try:
        write_json(os.path.join(out, "error.json"), {"error": kind, "message": message})
    except OSError:
        pass
    print(f"error ({kind}): {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
