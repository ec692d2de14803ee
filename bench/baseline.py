"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/baseline.py --seeds 1-10 [--workload NAME ...] [--write bench/BASELINE.json --label TEXT]

Runs every chosen workload once per seed with tracing off, one process at
a time, and prints per end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --write it also makes one traced run per workload and stores the run
context, the end-to-end summary and the per-layer numbers as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", help="write a baseline JSON file here")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"label": args.label, "seeds": seeds, "run_seconds": args.seconds,
           "context": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                       "python": platform.python_version(),
                       "numpy": __import__("numpy").__version__},
           "end_to_end": {}, "per_layer": {}}
    worst = 0.0
    for workload in args.workload or names:
        results = [run(workload, seed, args.seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {attempted} ops attempted, {failed} failed")
        table = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            table[name] = dict(s, unit=results[0]["metrics"][name]["unit"], bound=bound)
            if name != "setup_s":
                worst = max(worst, s["spread"] / bound)
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}  spread/bound {s['spread'] / bound:.3f}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in s["values"]))
        out["end_to_end"][workload] = table
        if args.write:
            traced = run(workload, seeds[0], args.seconds, 1)
            out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
