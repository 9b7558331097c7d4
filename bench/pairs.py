"""Alternating parent/change pairs of ``perfbench/run.py``, summarized as JSON.

    python3 bench/pairs.py --parent <commit> --out BENCH_<n>.json \\
        [--pairs 10] [--workloads quick_tasks scheme_runs ...] [--seed 2] \\
        [--scratch DIR]

Run from the root of a git checkout.  Two source trees are exported under
``--scratch``: ``parent``, the files of ``--parent`` (``git archive``), and
``change``, the tracked and untracked, not ignored files of the work tree as
they are on disk, uncommitted edits included.  Each pair runs every
workload once on each tree, in the order parent, change for even pairs and
change, parent for odd ones, so a slow or fast phase of the machine falls on
both sides alike.  The command, the run length and the workload names are
BENCHMARK.json's ``command``, ``run_seconds`` and ``workloads``.

The output holds the machine (core count, Python, numpy and scipy versions)
and, per workload:

* per end-to-end metric of BENCHMARK.json: the runs of both sides, their
  medians, the change/parent ratio of the medians, the number of pairs the
  change won, the interquartile range of the parent's runs, ``resolved``,
  true when the change won at least nine in ten pairs and its median gain
  exceeds that range, and ``within_bound``, true when the change's median is
  not worse than the parent's by more than the metric's bound;
* per job: the median over the runs of each run's median job time, read from
  the run's ``samples.json``.  A job's own time is stable where a pooled
  ``job_s.p50`` that falls between two job clusters is not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

JOB_NAMES = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
print(json.dumps([job.name for job in workloads.build(sys.argv[1], int(sys.argv[2]),
                                                      sys.argv[3])]))
"""


def git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def export_commit(commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_work_tree(dest: Path) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        if os.path.isfile(name):  # a deleted, not yet staged file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, dest / name)


def job_names(tree: Path, workload: str, seed: int, scratch: Path) -> list:
    out = tempfile.mkdtemp(dir=scratch)
    try:
        text = subprocess.run([sys.executable, "-c", JOB_NAMES, workload, str(seed), out],
                              cwd=tree, check=True, capture_output=True, text=True).stdout
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return json.loads(text)


def run_once(tree: Path, workload: str, seed: int, spec: dict) -> dict:
    """One ``perfbench/run.py`` run: its result line, plus each job's median
    time over the run's passes (empty when a job failed, since the samples
    then no longer line up with the job list)."""
    proc = subprocess.run(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(spec["run_seconds"])],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    samples = json.loads((tree / ".perfbench_out" / workload / "samples.json").read_text())
    n_pass = len(samples["wall_s"])
    job_s = samples["job_s"]
    per_job = []
    if result["failed"] == 0 and n_pass and len(job_s) % n_pass == 0:
        n_jobs = len(job_s) // n_pass
        per_job = [statistics.median(job_s[i::n_jobs]) for i in range(n_jobs)]
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "per_job": per_job}


def compare(parent: list, change: list, metric: dict) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else (p_med, p_med, p_med))
    return {"parent": parent, "change": change, "parent_median": p_med,
            "change_median": c_med, "ratio": c_med / p_med if p_med else None,
            "wins": wins, "parent_iqr": q3 - q1,
            "resolved": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1,
            "within_bound": sign * (c_med - p_med) <= metric["bound"] * abs(p_med)}


def summarize(runs: dict, names: dict, spec: dict) -> dict:
    out = {}
    for workload, sides in runs.items():
        entry = {"correct": all(r["correct"] for s in sides.values() for r in s),
                 "failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
                 "metrics": {}, "jobs": {}}
        for m in spec["end_to_end"]:
            name = m["name"]
            entry["metrics"][name] = compare(
                [r["metrics"][name] for r in sides["parent"]],
                [r["metrics"][name] for r in sides["change"]], m)
        medians = {}
        for side, rs in sides.items():
            jobs = names[side][workload]
            per_run = [r["per_job"] for r in rs if len(r["per_job"]) == len(jobs)]
            medians[side] = {job: statistics.median(run[i] for run in per_run)
                             for i, job in enumerate(jobs)} if per_run else {}
        for job in medians["parent"]:
            if job in medians["change"]:
                p, c = medians["parent"][job], medians["change"][job]
                entry["jobs"][job] = {"parent_median_s": p, "change_median_s": c,
                                      "ratio": c / p if p else None}
        out[workload] = entry
    return out


def report(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:14s} parent {m['parent_median']:.6g}  change "
                  f"{m['change_median']:.6g}  ratio {m['ratio']:.3f}  wins "
                  f"{m['wins']}/{len(m['parent'])}  resolved {m['resolved']}  "
                  f"within bound {m['within_bound']}")
        for job, j in entry["jobs"].items():
            print(f"    {job:40s} {1e3 * j['parent_median_s']:9.3f} ms -> "
                  f"{1e3 * j['change_median_s']:9.3f} ms  ({j['ratio']:.3f})")


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=workloads, choices=workloads)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--scratch", help="where the two trees go (default: a new temporary "
                                      "directory)")
    args = ap.parse_args(argv)

    parent = git("rev-parse", "--verify", args.parent + "^{commit}").strip()
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="pairs-")).resolve()
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    export_commit(parent, trees["parent"])
    trees["change"].mkdir(parents=True)
    export_work_tree(trees["change"])

    names = {side: {w: job_names(tree, w, args.seed, scratch) for w in args.workloads}
             for side, tree in trees.items()}
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                runs[w][side].append(run_once(trees[side], w, args.seed, spec))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    summary = summarize(runs, names, spec)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    payload = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
                    "platform": platform.platform()},
        "parent": parent,
        "change": git("rev-parse", "HEAD").strip() + (" + work tree edits" if dirty else ""),
        "protocol": {"pairs": args.pairs, "seconds": spec["run_seconds"], "seed": args.seed,
                     "order": "parent first in even pairs, change first in odd ones"},
        "workloads": summary,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    report(summary)
    return 0 if all(e["correct"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
