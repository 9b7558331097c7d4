"""The time of one scheme step, per scheme, printed as JSON.

    python3 bench/steps.py [--repeats 9] [--src DIR [DIR ...]]

Each case is one run of a scheme at 640 cells on a Burgers or
elastodynamics Riemann datum; its step time is the run's wall time divided
by its number of steps (over a thousand, so the run's set-up is a small
share).  One untimed run per case and tree comes first, so imports are not
timed.  A case reports the median over ``--repeats`` runs (at least 5) and
every run.

``--src`` names the source trees to import ``quarterplane`` from (default:
``src`` beside this script).  Given two trees, say a parent's and a
change's, each is imported once under the same package name and their
runs alternate within one process, the order flipping every repeat, so a
slow or fast phase of the machine falls on both alike.  Each later tree's
``ratio`` is then the median over repeats of its run's step time over the
first tree's run of the same repeat: a phase that outlasts a few runs
shifts the medians of both trees but leaves these paired ratios alone.

The output also holds the core count, the Python, numpy and scipy versions
and the ``PYTHONDONTWRITEBYTECODE`` setting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

CELLS = 640


def load(src):
    """The ``schemes`` and ``systems`` modules of the package under ``src``,
    imported afresh: a tree loaded before keeps its own module objects."""
    for name in [m for m in sys.modules if m.split(".")[0] == "quarterplane"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return (importlib.import_module("quarterplane.schemes"),
                importlib.import_module("quarterplane.systems"))
    finally:
        sys.path.remove(src)


def cases(schemes, systems):
    """{name: a no-argument run returning a GridSolution}."""
    burgers = systems.make_model("burgers")
    elasto = systems.make_model("elastodynamics")
    h = 0.4 / CELLS
    return {
        "viscous_burgers": lambda: schemes.run_viscous(
            burgers, -2.0, 1.0, h=h, eps=0.04, t_end=0.4, n_cells=CELLS),
        "viscous_elastodynamics": lambda: schemes.run_viscous(
            elasto, [0.7, 0.4], [1.1, 0.0], h=0.8 / CELLS, eps=0.01, t_end=0.8,
            n_cells=CELLS),
        "lf_burgers": lambda: schemes.run_lf(
            burgers, -2.0, 1.0, h=h, lam=0.2, q=0.5, t_end=0.2, n_cells=CELLS),
        "godunov_burgers": lambda: schemes.run_godunov(
            burgers, -2.0, 1.0, h=h, lam=0.4, t_end=0.4, n_cells=CELLS),
    }


def step_time(run):
    """Seconds per step of one run, and its number of steps."""
    start = time.perf_counter()
    sol = run()
    wall = time.perf_counter() - start
    steps = int(round(sol.times[-1] / sol.tau))
    return wall / steps, steps


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--src", nargs="+", default=[str(here / "src")])
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    srcs = [str(Path(s).resolve()) for s in args.src]
    runs = {src: cases(*load(src)) for src in srcs}

    per_step = {src: {name: [] for name in runs[src]} for src in srcs}
    steps = {}
    for name in runs[srcs[0]]:
        for src in srcs:  # untimed: the first run also imports what the scheme needs
            runs[src][name]()
        for i in range(args.repeats):
            for src in (srcs if i % 2 == 0 else srcs[::-1]):
                t, steps[name] = step_time(runs[src][name])
                per_step[src][name].append(t)

    trees = {}
    for src in srcs:
        trees[src] = {name: {"cells": CELLS, "steps": steps[name],
                             "median_us": 1e6 * statistics.median(ts),
                             "runs_us": [1e6 * t for t in ts]}
                      for name, ts in per_step[src].items()}
        if src != srcs[0]:
            for name, entry in trees[src].items():
                entry["ratio"] = statistics.median(
                    t / t0 for t, t0 in zip(per_step[src][name], per_step[srcs[0]][name]))
    payload = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "repeats": args.repeats,
        "trees": trees,
    }
    print(json.dumps(payload, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
