import json
import os

import pytest

from quarterplane import cli

FAST_EXAMPLES = [
    "thm41_burgers.json",
    "linear2_wrong_viscosity.json",
    "elasto_layer_curve.json",
    "euler_regions.json",
    "lagrangian_lf_layer.json",
    "burgers_viscous_layer.json",
]
SLOW_EXAMPLES = ["thm42_cubic.json", "viscous_trace_study.json"]


def read_artifacts(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_list_examples_catalog(capsys):
    assert cli.main(["list-examples"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split(":")[0] for ln in lines]
    assert names == sorted(names)
    for required in FAST_EXAMPLES + SLOW_EXAMPLES:
        assert required in names
    assert len(names) >= 6
    assert all(": " in ln for ln in lines)


def test_every_bundled_config_validates():
    for name in cli.example_names():
        cfg = cli.load_config(cli.example_path(name))
        assert cfg["task"] in cli.TASKS
        assert isinstance(cfg.get("expect"), list) and cfg["expect"]


@pytest.mark.parametrize("name", FAST_EXAMPLES + SLOW_EXAMPLES)
def test_bundled_config_verifies(name, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", name, "--out", str(out)]) == 0
    with open(out / "verify.json") as fh:
        report = json.load(fh)
    assert report["ok"] and report["failures"] == []


def test_outputs_are_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli.main(["admissible", "--config", "thm41_burgers.json",
                         "--out", str(out), "--seed", "7"])
        assert code == 0
        outs.append(read_artifacts(out))
    assert outs[0].keys() == outs[1].keys()
    assert outs[0] == outs[1]  # byte-identical for identical config + seed


def test_seed_recorded_and_changes_audit(tmp_path):
    payloads = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert cli.main(["admissible", "--config", "thm41_burgers.json",
                         "--out", str(out), "--seed", seed]) == 0
        with open(out / "admissible.json") as fh:
            payloads.append(json.load(fh))
    assert payloads[0]["audit"]["seed"] == 1
    assert payloads[1]["audit"]["seed"] == 2
    # closed-form sets are seed-independent
    assert payloads[0]["riemann_set"] == payloads[1]["riemann_set"]


def test_schema_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"

    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2

    bad.write_text(json.dumps({"task": "explode", "model": {"name": "burgers"}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o2")]) == 2

    bad.write_text(json.dumps({"task": "simulate", "model": {"name": "no_such_model"},
                               "scheme": {"type": "lf", "lam": 0.2, "q": 0.5},
                               "grid": {}, "data": {}}))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o3")]) == 2

    with open(tmp_path / "o2" / "error.json") as fh:
        rep = json.load(fh)
    assert rep["error"] == "schema"


def test_task_subcommand_mismatch_exit_2(tmp_path):
    assert cli.main(["layer", "--config", "thm41_burgers.json",
                     "--out", str(tmp_path)]) == 2


def test_missing_config_exit_2(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_numerical_failure_exit_3(tmp_path):
    cfg = {
        "task": "simulate",
        "model": {"name": "burgers"},
        # lam * max speed = 0.9 * 2 exceeds q: CFL violation
        "scheme": {"type": "lf", "lam": 0.9, "q": 0.5},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2},
        "data": {"u_I": -2.0, "u_B": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    with open(out / "error.json") as fh:
        rep = json.load(fh)
    assert rep["error"] == "numerical"


def _elasto_lf_config(u_B):
    return {
        "task": "simulate",
        "model": {"name": "elastodynamics"},
        "scheme": {"type": "lf", "lam": 0.2, "q": 0.5},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2},
        "data": {"u_I": [[0.0, [0.3, 0.1]], [0.5, [0.6, -0.1]]], "u_B": u_B},
    }


def test_simulate_2x2_table_data(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_elasto_lf_config([[0.0, [0.4, 0.0]]])))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "final.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert header == ["x", "u1", "u2"]
    assert len(rows) == 50


def test_malformed_state_data_exit_2(tmp_path):
    # a flat list is not a table; a number is not a 2-component state
    for i, u_B in enumerate(([0.3, 0.1], 0.3)):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(_elasto_lf_config(u_B)))
        out = tmp_path / f"out{i}"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        with open(out / "error.json") as fh:
            assert json.load(fh)["error"] == "schema"


@pytest.mark.parametrize("cfg", [
    {**_elasto_lf_config([[0.0, [0.4, 0.0]]]), "scheme": {"type": "godunov", "lam": 0.2}},
    {"task": "riemann", "model": {"name": "euler_isentropic"},
     "params": {"left": [1.0, 0.0], "right": [0.5, 0.0]}},
    {"task": "admissible", "model": {"name": "elastodynamics"}, "params": {"u_B": 0.5}},
], ids=["godunov-2x2", "riemann-euler", "admissible-elasto"])
def test_unsupported_model_exit_2(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cfg["task"], "--config", str(path), "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"


@pytest.mark.parametrize("eps", [0, -1])
def test_viscous_eps_not_positive_exit_2(eps, tmp_path, capsys):
    cfg = {
        "task": "simulate",
        "model": {"name": "burgers"},
        "scheme": {"type": "viscous", "eps": eps},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2},
        "data": {"u_I": -0.5, "u_B": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    with open(out / "error.json") as fh:
        rep = json.load(fh)
    assert rep["error"] == "schema"
    assert "eps" in rep["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_admissible_lf_cfl_violation_exit_3(tmp_path, capsys):
    # the LF oracle's CFL hypothesis fails on a cubic grid reaching +-5
    cfg = {
        "task": "admissible",
        "model": {"name": "cubic"},
        "params": {"u_B": 1.5, "grid": [-5.0, 5.0, 41],
                   "oracle": {"type": "lf", "lam": 0.04, "q": 0.5}, "audit": False},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["admissible", "--config", str(path), "--out", str(out)]) == 3
    with open(out / "error.json") as fh:
        rep = json.load(fh)
    assert rep["error"] == "numerical"
    assert "CFL hypothesis" in rep["message"]
    assert "Traceback" not in capsys.readouterr().err


_DROP = object()


@pytest.mark.parametrize("section, key, value, code", [
    ("grid", "cells", 0, 2),
    ("grid", "cells", "abc", 2),
    ("grid", "cells", 2.5, 2),
    ("grid", "cells", _DROP, 2),
    ("grid", "x_max", 0, 2),
    ("grid", "t_end", -1, 2),
    ("scheme", "lam", float("inf"), 2),
    ("scheme", "q", _DROP, 2),
    ("data", "u_I", -2e200, 3),
], ids=["cells-0", "cells-str", "cells-float", "cells-missing", "x_max-0",
        "t_end-negative", "lam-inf", "lf-without-q", "viscous-u_I-huge"])
def test_bad_scheme_numbers_exit_cleanly(section, key, value, code, tmp_path, capsys):
    cfg = {
        "task": "simulate",
        "model": {"name": "burgers"},
        "scheme": {"type": "lf", "lam": 0.2, "q": 0.5},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2},
        "data": {"u_I": -0.5, "u_B": 1.0},
    }
    if code == 3:
        cfg["scheme"] = {"type": "viscous", "eps": 0.05}
    if value is _DROP:
        del cfg[section][key]
    else:
        cfg[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == code
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == ("schema" if code == 2 else "numerical")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("params", [
    {"u_B": 1.0, "grid": [-3.0, "NaN", 5]},
    {"u_B": float("nan"), "grid": [-3.0, 3.0, 5]},
    {"u_B": float("nan"), "grid": [-3.0, 3.0, 5],
     "oracle": {"type": "lf", "lam": 0.2, "q": 0.5}},
    {"grid": [-3.0, 3.0, 5]},
    {"u_B": [1.0], "grid": [-3.0, 3.0, 5]},
    {"u_B": 1.0, "grid": [-3.0, 3.0]},
], ids=["grid-nan", "u_B-nan", "u_B-nan-oracle", "u_B-missing", "u_B-list", "grid-short"])
def test_admissible_bad_input_exit_2(params, tmp_path):
    cfg = {"task": "admissible", "model": {"name": "burgers"}, "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["admissible", "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_non_finite_result_exit_3_strict_json(tmp_path):
    cfg = {
        "task": "simulate",
        "model": {"name": "burgers"},
        "scheme": {"type": "lf", "lam": 0.2, "q": 0.5},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2},
        "data": {"u_I": -0.5, "u_B": float("nan")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    written = [name for name in os.listdir(out) if name.endswith(".json")]
    assert "error.json" in written
    for name in written:
        with open(out / name) as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "numerical"


def test_failed_verification_exit_3(tmp_path):
    with open(cli.example_path("euler_regions.json")) as fh:
        cfg = json.load(fh)
    cfg["expect"] = [{"path": "regions.0", "equals": "V"}]  # actually "I"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 3
    with open(out / "verify.json") as fh:
        rep = json.load(fh)
    assert not rep["ok"] and rep["failures"]


def test_simulate_writes_csv_and_json(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", "burgers_viscous_layer.json",
                     "--out", str(out)]) == 0
    with open(out / "final.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read().strip().splitlines()
    assert header == ["x", "u"]
    assert len(rows) == 320
    with open(out / "trace.json") as fh:
        summary = json.load(fh)
    assert abs(summary["trace"] - (-2.0)) <= 0.05


def test_study_jobs_matches_serial(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert cli.main(["study", "--config", "viscous_trace_study.json",
                         "--out", str(out), "--jobs", jobs]) == 0
        outs.append(read_artifacts(out))
    assert outs[0] == outs[1]
