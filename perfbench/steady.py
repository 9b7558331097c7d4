"""Steadiness of the end-to-end metrics, the evidence the bounds are set from.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Runs ``run.py`` once per seed (``--runs`` seeds from ``--first-seed``) for
each workload, one run at a time, with BENCHMARK.json's ``run_seconds``.
For every end-to-end metric it prints the median, the quartile spread
``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``) and the
bound; a spread above a third of the bound is marked.  It also prints the
share of failed operations of every run, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            ok &= runs[-1]["correct"]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        report[workload] = {"failed_share": shares}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(vals)
            flag = ("" if s <= m["bound"] / 3
                    else "  > bound/3" if s <= m["bound"] else "  > BOUND")
            print(f"  {m['name']:14s} median {statistics.median(vals):10.5g} {m['unit']:4s} "
                  f"spread {s:7.4f}  bound {m['bound']}{flag}")
            report[workload][m["name"]] = {"median": statistics.median(vals), "spread": s,
                                           "values": vals}
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
