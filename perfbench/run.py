"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process, one thread, BLAS pinned to one thread.

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  ``setup_s`` is
  the median over five fresh processes of ``setup_probe.py``, three timed
  before the passes and two after.  Whole passes over the workload's job
  list run until about ``--seconds`` have passed.  ``wall_s`` is the mean
  pass (the job times summed, checks excluded), ``job_s.p50`` the median
  job over all passes, and ``peak_rss_mib`` this process's peak resident
  memory at the end.
* ``--trace 1``: untraced passes for half of ``--seconds``, then traced
  passes for the other half; prints the per-layer metrics of BENCHMARK.json
  (counts of one pass, times as the mean over the traced passes) and
  ``trace.overhead_s``, the mean traced minus the mean untraced pass.

Every job's output is checked after it ran (see ``workloads.py``).  The last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def setup_probes(workload: str, n: int) -> list:
    times = []
    for _ in range(n):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


class Runner:
    """Runs passes over a job list and keeps the tallies of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.job_s = []

    def run_pass(self, jobs) -> float:
        from workloads import CheckError

        total = 0.0
        for job in jobs:
            self.attempted += 1
            t0 = perf_counter()
            try:
                res = job.run()
            except ValueError as exc:
                total += perf_counter() - t0
                self.failed += 1
                if not (job.known_fault and job.known_fault in str(exc)):
                    self._error(job, exc)
                continue
            except Exception as exc:  # a crash is a failed operation and a wrong run
                total += perf_counter() - t0
                self.failed += 1
                self._error(job, exc)
                continue
            dt = perf_counter() - t0
            total += dt
            self.job_s.append(dt)
            try:
                job.check(res)
            except CheckError as exc:
                self.correct = False
                print(f"check failed: {job.name}: {exc}", file=sys.stderr)
        return total

    def _error(self, job, exc):
        self.correct = False
        print(f"job {job.name} raised:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    def passes(self, jobs, seconds, after_pass=None):
        """Whole passes until fewer than half a pass of the budget is left."""
        walls = []
        t0 = perf_counter()
        while True:
            walls.append(self.run_pass(jobs))
            if after_pass:
                after_pass()
            if seconds - (perf_counter() - t0) < 0.5 * statistics.median(walls):
                return walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quarterplane" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'quarterplane'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(PINNED)
    sys.path[:0] = [str(SRC), str(HERE)]

    import quarterplane
    if Path(quarterplane.__file__).resolve().parent != SRC / "quarterplane":
        print(f"imported quarterplane from {quarterplane.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner()
    if args.trace:
        metrics = traced(args, out, runner, spec)
    else:
        # probes before and after the passes, so they see more of the
        # machine's speed swings than one burst would
        setup = setup_probes(args.workload, SETUP_PROBES // 2 + 1)
        jobs = workloads.build(args.workload, args.seed, out)
        walls = runner.passes(jobs, args.seconds)
        setup += setup_probes(args.workload, SETUP_PROBES - len(setup))
        import resource
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(walls),
            "job_s.p50": statistics.median(runner.job_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        (out / "samples.json").write_text(json.dumps({"wall_s": walls, "job_s": runner.job_s}))
        print(f"{args.workload}: {len(walls)} passes of {len(jobs)} jobs", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:60s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def traced(args, out, runner, spec):
    import workloads
    from tracing import Tracer

    untraced = runner.passes(workloads.build(args.workload, args.seed, out), args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    jobs = workloads.build(args.workload, args.seed, out)
    tracer.reset()  # the models built for library jobs belong to set-up
    per_pass, spans = [], []

    def collect():
        per_pass.append(tracer.metrics())
        spans[:] = [{"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in tracer.spans]
        tracer.reset()

    walls = runner.passes(jobs, args.seconds / 2, after_pass=collect)
    tracer.uninstall()
    (out / "spans.json").write_text(json.dumps(spans))

    values = {}
    for name, first in per_pass[0].items():
        series = [p[name] for p in per_pass]
        if name.endswith("_s") or name.endswith("ns_per_cell_step"):
            values[name] = statistics.fmean(series)
        else:
            if any(v != first for v in series):
                print(f"count {name} differs between passes: {series}", file=sys.stderr)
            values[name] = first
    values["trace.overhead_s"] = statistics.fmean(walls) - statistics.fmean(untraced)
    print(f"{args.workload}: {len(untraced)} untraced and {len(walls)} traced passes",
          file=sys.stderr)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
