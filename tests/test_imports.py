"""Tasks that need no scipy must not import it.

The check runs in a fresh interpreter, because other tests import scipy
into the pytest process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r'''
import json
import sys

from quarterplane import cli
from quarterplane.systems import make_model

for name in ("burgers", "cubic", "linear2", "elastodynamics", "euler_isentropic",
             "lagrangian_gas"):
    make_model(name)
for name in ("euler_regions", "thm41_burgers", "thm42_cubic", "lagrangian_lf_layer",
             "elasto_layer_curve"):
    assert cli.main(["verify", "--config", name, "--out", name]) == 0, name
with open("psystem.json", "w") as fh:  # a shock and a rarefaction
    json.dump({"task": "riemann", "model": {"name": "elastodynamics"},
               "params": {"left": [1.0, -0.5], "right": [1.5, 0.3]}}, fh)
assert cli.main(["riemann", "--config", "psystem.json", "--out", "psystem"]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
'''


def test_scipy_free_tasks_do_not_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


LAYER_SCRIPT = r'''
import json
import sys

from quarterplane import cli

assert cli.main(["verify", "--config", "linear2_wrong_viscosity", "--out", "linear2"]) == 0
with open("burgers.json", "w") as fh:  # a viscous layer profile that converges
    json.dump({"task": "layer", "model": {"name": "burgers"},
               "params": {"mode": "profile", "u_B": 1.0, "v_inf": -2.0}}, fh)
assert cli.main(["layer", "--config", "burgers.json", "--out", "burgers"]) == 0
with open("burgers/layer.json") as fh:
    assert json.load(fh)["verdict"] == "converged"
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
'''


def test_viscous_layer_profiles_do_not_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAYER_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
