import argparse
import csv
import json
import os
import subprocess
import sys
import types
import warnings

import numpy as np
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


def _inodes(d):
    """{name: (inode, mtime in ns)} of the files in ``d``."""
    return {name: (st.st_ino, st.st_mtime_ns) for name in os.listdir(d)
            for st in [os.stat(os.path.join(d, name))]}


def _admissible_run(out, seed):
    assert cli.main(["admissible", "--config", "thm41_burgers.json",
                     "--out", str(out), "--seed", seed]) == 0
    return read_artifacts(out), _inodes(out)


def test_rerun_leaves_identical_artifacts_in_place(tmp_path):
    first = _admissible_run(tmp_path, "7")
    assert _admissible_run(tmp_path, "7") == first  # same bytes, inode and mtime


def test_rerun_with_another_seed_replaces_what_changed(tmp_path):
    before, stats = _admissible_run(tmp_path / "out", "1")
    after, new_stats = _admissible_run(tmp_path / "out", "2")
    assert sorted(after) == ["admissible.json", "membership.csv"]  # no *.tmp left
    assert after == _admissible_run(tmp_path / "fresh", "2")[0]
    assert after["admissible.json"] != before["admissible.json"]
    assert new_stats["admissible.json"][0] != stats["admissible.json"][0]
    # the grid verdicts do not depend on the seed: that file stays
    assert new_stats["membership.csv"] == stats["membership.csv"]


def test_hand_edited_artifact_of_the_same_length_is_restored(tmp_path):
    before, _ = _admissible_run(tmp_path, "7")
    edited = before["admissible.json"].replace(b'"u_B"', b'"u_X"')
    assert len(edited) == len(before["admissible.json"]) and edited != before["admissible.json"]
    (tmp_path / "admissible.json").write_bytes(edited)
    assert _admissible_run(tmp_path, "7")[0] == before


def _command_line(argv):
    """``python -m quarterplane.cli *argv`` with this package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        cli.__file__)), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "quarterplane.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file"])
def test_unreadable_config_or_out_exit_2(case, tmp_path):
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text(json.dumps(_bundled("euler_regions")))
    if case == "config-is-a-directory":
        config = tmp_path / "cfg_dir"
        config.mkdir()
    elif case == "config-not-utf8":
        config.write_bytes(b"\xff\xfe")
    else:
        out.write_bytes(b"not a directory\n")
    proc = _command_line(["riemann", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error (schema): ") and "Traceback" not in proc.stderr
    if case == "out-is-a-file":
        assert out.read_bytes() == b"not a directory\n"
    else:
        assert os.listdir(out) == ["error.json"]


def test_config_lists_are_bounded(tmp_path, capsys):
    cfg = _bundled("viscous_trace_study")
    cfg["sweep"]["values"] = [0.1 / k for k in range(1, 66)]
    _only_schema_error(cfg, tmp_path, capsys)
    with open(tmp_path / "out" / "error.json") as fh:
        assert json.load(fh)["message"].startswith("values must be a list of 1 to 64 items")
    cfg["sweep"]["values"].pop()
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert len(cli.load_config(str(tmp_path / "cfg.json"))["values"]) == 64
    with pytest.raises(ValueError, match="a list of 1 to 1000000 items"):
        cli.listof(cli.finite)([0.0] * (cli.MAX_COUNT + 1))


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


def _admissible(tmp_path, name, u_B):
    """Run ``admissible`` without the audit; (exit code, admissible.json,
    membership.csv columns)."""
    cfg = {"task": "admissible", "model": {"name": name},
           "params": {"u_B": u_B, "audit": False}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main(["admissible", "--config", str(path), "--out", str(out)])
    with open(out / "admissible.json") as fh:
        result = json.load(fh)
    with open(out / "membership.csv") as fh:
        rows = list(csv.DictReader(fh))
    return code, result, {k: [float(r[k]) for r in rows] for k in rows[0]}


def test_admissible_next_to_sonic_point(tmp_path):
    code, result, _ = _admissible(tmp_path, "burgers", 1e-13)
    assert code == 0
    assert result["riemann_set"] == {"intervals": [[None, -1e-13, False, True]],
                                     "points": [1e-13]}
    assert result["exclusions"] == [-1e-13]


def test_admissible_next_to_cubic_minimum(tmp_path):
    # the companion of u_B next to 1 lies inside the level roots' 1e-9 guard
    code, result, cols = _admissible(tmp_path, "cubic", 1.0000000001)
    assert code == 0
    ends = [v for lo, hi, *_ in result["riemann_set"]["intervals"] for v in (lo, hi)]
    marks = [v for v in ends if v is not None] + result["riemann_set"]["points"]
    assert all(lo <= hi for lo, hi, *_ in result["riemann_set"]["intervals"])
    n_off = 0
    for u0, closed, bln in zip(cols["u0"], cols["riemann_closed_form"], cols["bln"]):
        if all(abs(u0 - m) > 2e-2 for m in marks):
            n_off += 1
            assert closed == bln, u0
    assert n_off > 200


@pytest.mark.parametrize("model, left", [
    ("burgers", "abc"),
    ("burgers", [1.0]),
    ("elastodynamics", [0.1]),
], ids=["scalar-str", "scalar-list", "2x2-short"])
def test_riemann_bad_state_exit_2(model, left, tmp_path, capsys):
    right = 0.5 if model == "burgers" else [0.5, 0.0]
    cfg = {"task": "riemann", "model": {"name": model},
           "params": {"left": left, "right": right}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["riemann", "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("task, params", [
    ("layer", {"mode": "profile", "regularization": "viscous", "v_inf": -2.0}),
    ("layer", {"u_B": 1.0}),
    ("layer", {"regularization": {"type": "lf", "lam": 0.1, "q": 0.5},
               "u_B": float("nan"), "v_inf": -2.0}),
    ("layer", {"u_B": 1.0, "v_inf": "abc"}),
    ("layer", {"u_B": [1.0, float("inf")], "v_inf": [0.5, 0.5]}),
    ("layer", {"u_B": [], "v_inf": -2.0}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5], "samples": "x"}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5], "samples": 0}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5], "samples": 2.5}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5], "samples": 10 ** 400}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5], "oracle": {"type": "lf", "q": 0.5}}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5],
                    "oracle": {"type": "lf", "lam": 0.1, "q": 0}}),
    ("admissible", {"u_B": 1.0, "grid": [-3.0, 3.0, 5],
                    "regularization": {"type": "lf", "lam": "x", "q": 0.5}}),
], ids=["layer-u_B-missing", "layer-v_inf-missing", "layer-u_B-nan-lf", "layer-v_inf-str",
        "layer-u_B-inf-in-list", "layer-u_B-empty-list", "samples-str", "samples-0",
        "samples-float", "samples-huge", "oracle-no-lam", "oracle-q-0", "audit-lam-str"])
def test_bad_layer_and_audit_input_exit_2(task, params, tmp_path, capsys):
    cfg = {"task": task, "model": {"name": "burgers"}, "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([task, "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"
    assert "Traceback" not in capsys.readouterr().err


LF = '"regularization": {"type": "lf", "lam": 0.1, "q": 0.5}, '


@pytest.mark.parametrize("extra", [
    '"y_max": null',
    '"regularization": {"type": "lf", "q": 0.5}',
    '"regularization": {"type": "lf", "lam": 0.1}',
    '"y_max": "abc"',
    '"regularization": {"type": "lf", "lam": "abc", "q": 0.5}',
    '"y_max": -1',
    '"y_max": 0',
    '"y_max": true',
    '"regularization": {"type": "lf", "lam": -0.1, "q": 0.5}',
    '"regularization": {"type": "lf", "lam": 1e400, "q": 0.5}',
    '"regularization": {"type": "godunov"}',
    '"regularization": "lf"',
    '"y_max": 1e12',
    '"y_max": 1e308',
    LF + '"y_max": 2.5',
    LF + '"y_max": 100001',
], ids=["y_max-null", "lf-no-lam", "lf-no-q", "y_max-str", "lam-str", "y_max-neg", "y_max-0",
        "y_max-bool", "lam-neg", "lam-huge", "godunov", "reg-str", "y_max-1e12", "y_max-1e308",
        "lf-y_max-float", "lf-y_max-over-cap"])
def test_bad_layer_profile_params_exit_2(extra, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"task": "layer", "model": {"name": "burgers"}, "params": '
                    '{"mode": "profile", "u_B": 1.0, "v_inf": -2.0, ' + extra + '}}')
    out = tmp_path / "out"
    assert cli.main(["layer", "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("snapshots", ["abc", 0, 2.5, True, None],
                         ids=["str", "zero", "float", "bool", "null"])
def test_bad_snapshots_exit_2(snapshots, tmp_path, capsys):
    cfg = {
        "task": "simulate",
        "model": {"name": "burgers"},
        "scheme": {"type": "lf", "lam": 0.2, "q": 0.5},
        "grid": {"x_max": 1.0, "cells": 50, "t_end": 0.2, "snapshots": snapshots},
        "data": {"u_I": -0.5, "u_B": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("example, params", [
    ("euler_regions.json", {"gama": 1.4}),
    ("euler_regions.json", {"gamma": 2.0, "cv": 1.0}),
    ("thm41_burgers.json", {"gamma": 2.0}),
], ids=["euler-gama", "euler-extra", "burgers-gamma"])
def test_unknown_model_parameter_exit_2(example, params, tmp_path, capsys):
    with open(os.path.join(os.path.dirname(cli.__file__), "configs", example)) as fh:
        cfg = json.load(fh)
    cfg["model"]["params"] = params
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cfg["task"], "--config", str(path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        rep = json.load(fh)
    assert rep["error"] == "schema" and "unknown parameter" in rep["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_lagrangian_zero_volume_start_exit_3(tmp_path, capsys):
    cfg = {"task": "layer", "model": {"name": "lagrangian_gas"},
           "params": {"mode": "lagrangian", "lam": 0.5, "limit": [2.0, 0.0],
                      "start": [0.0, 0.0], "steps": 3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["layer", "--config", str(path), "--out", str(out)]) == 3
    with open(out / "error.json") as fh:
        assert "specific volume" in json.load(fh)["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_lagrangian_gas_riemann_and_layer_curve(tmp_path):
    # lagrangian_gas is a p-system: the riemann task and the elasto-curve mode take it
    riemann = {"task": "riemann", "model": {"name": "lagrangian_gas"},
               "params": {"left": [1.0, -0.3], "right": [1.0, 0.3]}}
    curve = {"task": "layer", "model": {"name": "lagrangian_gas"},
             "params": {"mode": "elasto-curve", "base": [1.0, 0.0], "v_inf_range": [0.5, 2.0]}}
    for name, cfg in (("riemann", riemann), ("curve", curve)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        assert cli.main([cfg["task"], "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
    with open(tmp_path / "riemann" / "riemann.json") as fh:
        fan = json.load(fh)
    # the gas expands: two rarefactions, and the middle volume grows
    assert [w["kind"] for w in fan["waves"]] == ["rarefaction", "rarefaction"]
    assert fan["trace"][0] > 1.0 and fan["trace"][1] == pytest.approx(0.0, abs=1e-12)
    with open(tmp_path / "curve" / "layer.json") as fh:
        assert len(json.load(fh)["points"]) == 2
    # a volume of 0 is outside the model's state region: a numerical error
    curve["params"]["v_inf_range"] = [0.0]
    riemann["params"]["left"] = [-1.0, 0.0]
    for cfg in (riemann, curve):
        (tmp_path / f"bad_{cfg['task']}").mkdir()
        code, rep = _run_in_process(cfg, tmp_path / f"bad_{cfg['task']}")
        assert code == 3 and "state region" in rep["message"]


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


def _bundled(name):
    with open(cli.example_path(name)) as fh:
        return json.load(fh)


def _drop(cfg, section, key):
    del cfg[section][key]
    return cfg


def _only_schema_error(cfg, tmp_path, capsys, argv=()):
    """Run ``cfg`` and check it exits 2 with error.json as the only file."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([cfg["task"], "--config", str(path), "--out", str(out), *argv]) == 2
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == "schema"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", [None, -1, 1.5, True, "1"],
                         ids=["null", "negative", "float", "bool", "str"])
def test_bad_config_seed_exit_2(seed, tmp_path, capsys):
    _only_schema_error({**_bundled("thm41_burgers"), "seed": seed}, tmp_path, capsys)


def test_negative_seed_flag_exit_2(tmp_path, capsys):
    _only_schema_error(_bundled("thm41_burgers"), tmp_path, capsys, argv=["--seed", "-1"])


@pytest.mark.parametrize("make", [
    lambda: _drop(_bundled("burgers_viscous_layer"), "data", "u_I"),
    lambda: _drop(_bundled("burgers_viscous_layer"), "data", "u_B"),
    lambda: _drop(_bundled("viscous_trace_study"), "sweep", "parameter"),
    lambda: {**_bundled("viscous_trace_study"),
             "sweep": {**_bundled("viscous_trace_study")["sweep"], "parameter": "lam"}},
    lambda: {**_bundled("viscous_trace_study"),
             "sweep": {**_bundled("viscous_trace_study")["sweep"], "values": ["a", 1]}},
    lambda: _drop(_bundled("lagrangian_lf_layer"), "params", "lam"),
    lambda: _drop(_bundled("lagrangian_lf_layer"), "params", "limit"),
    lambda: {**_bundled("lagrangian_lf_layer"),
             "params": {**_bundled("lagrangian_lf_layer")["params"], "steps": None}},
    lambda: _drop(_bundled("elasto_layer_curve"), "params", "base"),
    lambda: _drop(_bundled("elasto_layer_curve"), "params", "v_inf_range"),
    lambda: {**_bundled("elasto_layer_curve"),
             "params": {**_bundled("elasto_layer_curve")["params"], "mode": "curve"}},
    lambda: _drop(_bundled("euler_regions"), "params", "states"),
    lambda: {**_bundled("euler_regions"),
             "params": {"mode": "euler-regions", "states": [[1.0, 0.0], [1.0]]}},
], ids=["simulate-no-u_I", "simulate-no-u_B", "study-no-parameter", "study-parameter-lam",
        "study-values-str", "lagrangian-no-lam", "lagrangian-no-limit", "lagrangian-steps-null",
        "elasto-no-base", "elasto-no-v_inf_range", "layer-unknown-mode", "regions-no-states",
        "regions-short-state"])
def test_missing_required_field_exit_2(make, tmp_path, capsys):
    _only_schema_error(make(), tmp_path, capsys)


def test_cached_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["riemann", "--config"])
    assert exc.value.code == 2
    run = ["riemann", "--config", "euler_regions", "--out"]
    assert cli.main(run + [str(tmp_path / "a")]) == 0
    assert cli.main(["list-examples"]) == 0
    assert cli.main(run + [str(tmp_path / "b")]) == 0
    assert read_artifacts(tmp_path / "a") == read_artifacts(tmp_path / "b")

    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return argparse.ArgumentParser(*args, **kwargs)

    # argparse's own code looks its class up by module name, so count the
    # constructions cli makes through its module reference
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
    cli._parser.cache_clear()
    for tag in ("c", "d"):
        assert cli.main(run + [str(tmp_path / tag)]) == 0
    assert cli.main(["list-examples"]) == 0
    assert len(built) == 1


def test_parser_not_built_at_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        cli.__file__)), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from quarterplane import cli; "
         "assert cli._parser.cache_info().currsize == 0"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_write_csv_cell_format(tmp_path):
    # floats as repr(float(v)), everything else as str(v), column by column
    path = tmp_path / "cells.csv"
    cli.write_csv(str(path), ["nd", "py", "np64", "int", "flag", "name", "err"], [
        np.array([0.1, -0.0, 5e-324, 1e300, 1 / 3]),
        [0.1, -0.0, 5e-324, 1e300, 1 / 3],
        [np.float64(2.5), np.float64(-0.0), np.float64(1e-7), np.float64(-1e16), np.float64(1 / 3)],
        np.arange(-2, 3) * 10 ** 6,
        np.asarray([True, False, True, True, False], dtype=int),
        ["I", "II", "III", "IV", "V"],
        ["", 0.25, "", 2, ""],
    ])
    assert path.read_text() == (
        "nd,py,np64,int,flag,name,err\n"
        "0.1,0.1,2.5,-2000000,1,I,\n"
        "-0.0,-0.0,-0.0,-1000000,0,II,0.25\n"
        "5e-324,5e-324,1e-07,0,1,III,\n"
        "1e+300,1e+300,-1e+16,1000000,1,IV,2\n"
        "0.3333333333333333,0.3333333333333333,0.3333333333333333,2000000,0,V,\n")


def _set(name, path, value):
    """The bundled config ``name`` with the field at the dotted ``path``
    (list indices as numbers) set to ``value``."""
    cfg = _bundled(name)
    *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    section = cfg
    for key in head:
        section = section[key]
    section[last] = value
    return cfg


_CONTRACT_CASES = {
    # counts out of range or of the wrong kind, and a non-boolean flag: exit 2
    "grid-n-negative": (2, lambda: _set("thm41_burgers", "params.grid.2", -5)),
    "grid-n-float": (2, lambda: _set("thm41_burgers", "params.grid.2", 2.5)),
    "grid-n-zero": (2, lambda: _set("thm41_burgers", "params.grid.2", 0)),
    "grid-n-1e300": (2, lambda: _set("thm41_burgers", "params.grid.2", 1e300)),
    "grid-n-1e9": (2, lambda: _set("thm41_burgers", "params.grid.2", 10 ** 9)),
    "samples-1e12": (2, lambda: _set("thm41_burgers", "params.samples", 10 ** 12)),
    "cells-1e12": (2, lambda: _set("burgers_viscous_layer", "grid.cells", 10 ** 12)),
    "lagrangian-steps-1e9": (2, lambda: _set("lagrangian_lf_layer", "params.steps", 10 ** 9)),
    "burgers-profile-u_B-list": (2, lambda: {
        "task": "layer", "model": {"name": "burgers"},
        "params": {"mode": "profile", "u_B": [1, 5], "v_inf": -2.0}}),
    "audit-str": (2, lambda: _set("thm41_burgers", "params.audit", "no")),
    # arithmetic errors: exit 3
    "euler-gamma-1e300": (3, lambda: _set("euler_regions", "model.params.gamma", 1e300)),
    "linear2-u_B0-1e300": (3, lambda: _set("linear2_wrong_viscosity", "params.u_B.0", 1e300)),
    "linear2-u_B1-1e300": (3, lambda: _set("linear2_wrong_viscosity", "params.u_B.1", 1e300)),
    "linear2-v_inf0-1e300": (3, lambda: _set("linear2_wrong_viscosity", "params.v_inf.0", 1e300)),
    "linear2-v_inf1-1e300": (3, lambda: _set("linear2_wrong_viscosity", "params.v_inf.1", 1e300)),
    # more cell updates than a scheme run may take: exit 3
    "simulate-t_end-1e300": (3, lambda: _set("burgers_viscous_layer", "grid.t_end", 1e300)),
    "study-t_end-1e300": (3, lambda: _set("viscous_trace_study", "grid.t_end", 1e300)),
    "simulate-t_end-1e4": (3, lambda: _set("burgers_viscous_layer", "grid.t_end", 1e4)),
    "study-t_end-1e4": (3, lambda: _set("viscous_trace_study", "grid.t_end", 1e4)),
    # a non-finite result fails the strict-JSON check before any CSV is written: exit 3
    "simulate-eps-1e300": (3, lambda: _set("burgers_viscous_layer", "scheme.eps", 1e300)),
    "elasto-base-1e300": (3, lambda: _set("elasto_layer_curve", "params.base.0", 1e300)),
    "lagrangian-limit-1e300": (3, lambda: _set("lagrangian_lf_layer", "params.limit.0", 1e300)),
    "study-values-1e300": (3, lambda: _set("viscous_trace_study", "sweep.values.0", 1e300)),
}


@pytest.mark.parametrize("code, make", list(_CONTRACT_CASES.values()), ids=list(_CONTRACT_CASES))
def test_bad_input_leaves_only_error_json(code, make, tmp_path):
    cfg = make()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    # a command-line run, whose exit code and stderr are what a user sees;
    # numpy's overflow warnings stay warnings there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        cli.__file__)), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quarterplane.cli", cfg["task"], "--config", str(path),
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        assert json.load(fh)["error"] == ("schema" if code == 2 else "numerical")
    assert "Traceback" not in proc.stderr


def _run_in_process(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli.main([cfg["task"], "--config", str(path), "--out", str(out)])
    assert os.listdir(out) == ["error.json"]
    with open(out / "error.json") as fh:
        return code, json.load(fh)


def test_runtime_warning_as_error_exits_3(tmp_path):
    # as under python -W error: numpy's overflow warning is raised, not printed
    cfg = _set("linear2_wrong_viscosity", "params.u_B.0", 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rep = _run_in_process(cfg, tmp_path)
    assert code == 3 and rep["error"] == "numerical"
    assert rep["message"].startswith("RuntimeWarning: overflow")


def test_arithmetic_error_message_names_its_type(tmp_path):
    code, rep = _run_in_process(_set("euler_regions", "model.params.gamma", 1e300), tmp_path)
    assert code == 3 and rep["error"] == "numerical"
    assert "OverflowError" in rep["message"]


@pytest.mark.parametrize("model, u_B", [("cubic", 1e103), ("burgers", 1e155)])
def test_profile_with_non_finite_start_velocity_exits_3(model, u_B, tmp_path):
    # f(u_B) overflows to inf; as on the command line, numpy's overflow
    # warnings (Burgers' |u_B - v_inf|^2) stay warnings
    cfg = {"task": "layer", "model": {"name": model},
           "params": {"mode": "profile", "u_B": u_B, "v_inf": -0.5}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, rep = _run_in_process(cfg, tmp_path)
    assert code == 3 and rep["error"] == "numerical"
    assert rep["message"] == "the layer ODE's velocity at u_B is not finite"
