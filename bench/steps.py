"""Times of one scheme step, layer profile, LF layer step, Riemann solve and artifact write (JSON).

    python3 bench/steps.py [--repeats 9] [--src DIR [DIR ...]]

Each scheme case is one run of a scheme at 640 cells on a Burgers, cubic or
elastodynamics Riemann datum; its time per step is the run's wall time
divided by its number of steps (over a thousand, so the run's set-up is a
small share).  The cubic datum spans both critical points of f, the
candidates of the Godunov flux.  Each ``entropy_residual`` case is one
``discrete_entropy_residual`` call on the stored history of the LF or
Godunov Burgers run, made once per tree before timing; its time is per
stored level.  Its block temporaries (about 256 KiB each) lie above glibc's
initial 128 KiB mmap and heap-trim thresholds, which glibc moves as the
process frees memory, so whether each block faults in fresh pages depends on
what ran before in the process.  With both fixed, say
``MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824``, the
temporaries are reused from the heap and the residual cases time the
arithmetic.  Each ``profile`` case computes one layer profile ``PROFILES``
times and reports the time per profile: ``viscous_layer_profile`` of a
Burgers and of a cubic member, and ``discrete_layer_membership`` (LF, lam
0.1, q 0.5) of a Burgers member and of a non-member, whose last step fails
Newton.  Each ``lf_step`` case is one ``layers._lf_step`` call (mu 0.1), the
implicit LF layer step, on ``STATES`` elastodynamics or ``euler_isentropic``
states within 0.05 of a limit, all drawn once from a seeded generator, and
reports the time per state.  Each ``riemann_psystem`` case solves ``SOLVES``
p-system Riemann problems (``psystem_riemann_trace``), elastodynamics or
Lagrangian gas, on data drawn once from a seeded generator (strains in
[0.5, 1.5], velocities in [-1, 1]), and reports the time per solve.  Each ``write`` case calls
``cli._atomic_write`` ``WRITES`` times with a text of about 2 KiB: to a new
name each time (a first run into a fresh ``--out``), onto a file that
already holds the same bytes (a rerun), and onto a file of the same length
whose bytes differ (so the bytes are compared, then replaced).  Its files go
in a new directory under the system's temporary directory (``TMPDIR``),
removed at the end; a replace costs what the filesystem makes it cost, so
put that directory on the device where the artifacts go.  One untimed run
per case and tree comes first, so imports are not timed.  A case reports its
unit (``step``, ``level``, ``profile``, ``state``, ``solve`` or ``write``) and
count, the median over ``--repeats`` runs (at least 5) and every run.

``--src`` names the source trees to import ``quarterplane`` from (default:
``src`` beside this script).  Given two trees, say a parent's and a
change's, each is imported once under the same package name and their
runs alternate within one process, the order flipping every repeat, so a
slow or fast phase of the machine falls on both alike.  Each later tree's
``ratio`` is then the median over repeats of its run's time per unit over the
first tree's run of the same repeat: a phase that outlasts a few runs
shifts the medians of both trees but leaves these paired ratios alone.

The output also holds the core count, the Python, numpy and scipy versions
and the ``PYTHONDONTWRITEBYTECODE`` setting.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

CELLS = 640
PROFILES = 20
STATES = 200
SOLVES = 100
WRITES = 50


def load(src):
    """The ``schemes``, ``systems``, ``layers``, ``riemann`` and ``cli``
    modules of the package under ``src``, imported afresh: a tree loaded
    before keeps its own module objects."""
    for name in [m for m in sys.modules if m.split(".")[0] == "quarterplane"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return tuple(importlib.import_module("quarterplane." + name)
                     for name in ("schemes", "systems", "layers", "riemann", "cli"))
    finally:
        sys.path.remove(src)


def steps(sol):
    """The number of steps of a run: its last snapshot time over its time step."""
    return int(round(sol.times[-1] / sol.tau))


# two texts of about 2 KiB, of one length, that differ in bytes
TEXTS = ["".join(f"{tag},{i / 7!r}\n" for i in range(112)) for tag in "ab"]


def cases(schemes, systems, layers, riemann, cli, tmp):
    """{name: (unit, run)}, ``run`` a no-argument call returning how many
    units (steps, stored levels, profiles, states, solves or writes) it took.
    The write cases use files in the directory ``tmp``."""
    burgers = systems.make_model("burgers")
    cubic = systems.make_model("cubic")
    elasto = systems.make_model("elastodynamics")
    h = 0.4 / CELLS

    def lf(model, u0, u_B, **kw):
        return schemes.run_lf(model, u0, u_B, h=h, lam=0.2, q=0.5, t_end=0.2, n_cells=CELLS, **kw)

    def godunov(model, u0, u_B, **kw):
        return schemes.run_godunov(model, u0, u_B, h=h, lam=0.4, t_end=0.4, n_cells=CELLS, **kw)

    def residual(sol):
        def run():
            schemes.discrete_entropy_residual(burgers, sol)
            return sol.history.shape[0]
        return "level", run

    def profile(layer, *args):
        def run():
            for _ in range(PROFILES):
                layer(*args)
            return PROFILES
        return "profile", run

    def lf_step(model):
        rng = np.random.default_rng(11)
        limit = np.array([rng.uniform(0.8, 1.2), rng.uniform(-0.5, 0.5)])
        v = limit + rng.uniform(-0.05, 0.05, (STATES, 2))
        f_inf = model.flux(np.tile(limit, (STATES, 1)))

        def run():
            layers._lf_step(model, 0.1, v, f_inf)
            return STATES
        return "state", run

    def solves(model):
        rng = random.Random(7)
        data = [tuple([rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)] for _ in "lr")
                for _ in range(SOLVES)]

        def run():
            for left, right in data:
                riemann.psystem_riemann_trace(model, left, right)
            return SOLVES
        return "solve", run

    def write(name_of):
        def run():
            for i in range(WRITES):
                cli._atomic_write(*name_of(i))
            return WRITES
        return "write", run

    fresh = itertools.count()
    same, changed = os.path.join(tmp, "same.csv"), os.path.join(tmp, "changed.csv")
    cli._atomic_write(same, TEXTS[0])

    lf_layer = ("lf", 0.1, 0.5)
    return {
        "viscous_burgers": ("step", lambda: steps(schemes.run_viscous(
            burgers, -2.0, 1.0, h=h, eps=0.04, t_end=0.4, n_cells=CELLS))),
        "viscous_elastodynamics": ("step", lambda: steps(schemes.run_viscous(
            elasto, [0.7, 0.4], [1.1, 0.0], h=0.8 / CELLS, eps=0.01, t_end=0.8,
            n_cells=CELLS))),
        "lf_burgers": ("step", lambda: steps(lf(burgers, -2.0, 1.0))),
        "lf_cubic": ("step", lambda: steps(lf(cubic, -1.5, 1.2))),
        "godunov_burgers": ("step", lambda: steps(godunov(burgers, -2.0, 1.0))),
        "godunov_cubic": ("step", lambda: steps(godunov(cubic, -1.5, 1.2))),
        "entropy_residual_lf": residual(lf(burgers, -2.0, 1.0, store_all=True)),
        "entropy_residual_godunov": residual(godunov(burgers, -2.0, 1.0, store_all=True)),
        "profile_viscous_burgers": profile(layers.viscous_layer_profile, burgers, 1.0, -2.0),
        "profile_viscous_cubic": profile(layers.viscous_layer_profile, cubic, 1.5, -0.5),
        "profile_lf_member": profile(layers.discrete_layer_membership, burgers, lf_layer,
                                     1.0, -2.0),
        "profile_lf_nonmember": profile(layers.discrete_layer_membership, burgers, lf_layer,
                                        1.03, -0.5),
        "lf_step_elastodynamics": lf_step(elasto),
        "lf_step_euler_isentropic": lf_step(systems.make_model("euler_isentropic")),
        "riemann_psystem_elastic": solves(elasto),
        "riemann_psystem_gas": solves(systems.make_model("lagrangian_gas")),
        "write_new_name": write(lambda i: (os.path.join(tmp, f"new{next(fresh)}.csv"),
                                           TEXTS[0])),
        "write_same_bytes": write(lambda i: (same, TEXTS[0])),
        "write_changed_bytes": write(lambda i: (changed, TEXTS[i % 2])),
    }


def unit_time(run):
    """Seconds per unit of one run, and its number of units."""
    start = time.perf_counter()
    count = run()
    return (time.perf_counter() - start) / count, count


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--src", nargs="+", default=[str(here / "src")])
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    srcs = [str(Path(s).resolve()) for s in args.src]
    tmp = tempfile.mkdtemp(prefix="steps-")
    try:
        return measure(args.repeats, srcs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(repeats, srcs, tmp):
    """Time every case of every tree and print the JSON report."""
    runs = {src: cases(*load(src), tmp=tempfile.mkdtemp(dir=tmp)) for src in srcs}

    per_unit = {src: {name: [] for name in runs[src]} for src in srcs}
    counts = {}
    for name in runs[srcs[0]]:
        for src in srcs:  # untimed: the first run also imports what the scheme needs
            runs[src][name][1]()
        for i in range(repeats):
            for src in (srcs if i % 2 == 0 else srcs[::-1]):
                t, counts[name] = unit_time(runs[src][name][1])
                per_unit[src][name].append(t)

    trees = {}
    for src in srcs:
        trees[src] = {name: {"cells": CELLS, "unit": runs[src][name][0], "count": counts[name],
                             "median_us": 1e6 * statistics.median(ts),
                             "runs_us": [1e6 * t for t in ts]}
                      for name, ts in per_unit[src].items()}
        if src != srcs[0]:
            for name, entry in trees[src].items():
                entry["ratio"] = statistics.median(
                    t / t0 for t, t0 in zip(per_unit[src][name], per_unit[srcs[0]][name]))
    payload = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "repeats": repeats,
        "trees": trees,
    }
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
