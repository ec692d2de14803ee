"""quditorbits benchmark: seeded workloads, reference-checked, one JSON line out.

One workload, as the benchmark contract runs it (from the repository root):

    python3 bench/run.py --workload route-sweep --seed 1 --seconds 30 --trace 0

prints human-readable lines and, last, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones from a traced run (its spans go to
.bench_out/trace-<workload>.jsonl).  The exit code is 0 only when the
reference checker found no failure.

Every workload, each in its own process, with all metrics by name:

    python3 bench/run.py [--seed 0] [--seconds 30] [--trace 0|1]

and `python3 bench/run.py --self-test` checks the checker and the inputs.
The program is imported from src/ of the checkout; without it the
benchmark exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

# One client on one thread: keep BLAS single-threaded here and in children.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MODULES = ("cli", "state_space", "invariants", "su_algebra")


def load_package() -> types.SimpleNamespace:
    """The program under test, imported from src/, and how to start it."""
    src = ROOT / "src"
    if not (src / "quditorbits" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {src / 'quditorbits'} is missing")
    sys.path.insert(0, str(src))
    package = importlib.import_module("quditorbits")
    if Path(package.__file__).resolve().parent != (src / "quditorbits").resolve():
        sys.exit(f"error: imported quditorbits from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"quditorbits.{name}") for name in MODULES}
    su = modules["su_algebra"]
    return types.SimpleNamespace(
        root=ROOT,
        env=dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV),
        modules=[package, *modules.values()],
        # The lru_cache objects themselves, for cache_clear and cache_info
        # while the tracer has wrapped algebra_tensors.
        originals=types.SimpleNamespace(
            gell_mann_basis=su.gell_mann_basis, algebra_tensors=su.algebra_tensors
        ),
        **modules,
    )


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> int:
    cpu = calibrate.pin()
    problems = reference.self_test()
    pkg = load_package()
    tracer = Tracer(pkg.modules) if trace else None
    res = workloads.WORKLOADS[workload](pkg, seed, seconds, tracer)
    tally = res.tally

    if trace:
        layer, tails = tracer.metrics()
        res.metrics.update(layer)
        res.metrics["state_space.rank_mismatch_rate"] = (tally.rank_mismatch_rate, "ratio")
        res.metrics["state_space.stratum_mismatch_rate"] = (tally.stratum_mismatch_rate, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl")
        res.info.append(f"{len(tracer.spans)} spans written to .bench_out/trace-{workload}.jsonl")
        res.info.append("tail_us percentiles: " + ", ".join(f"{n} p{p:g}" for n, p in tails.items()))
    wanted = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]

    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)} pinned to CPU {cpu}")
    for line in res.info:
        print(line)
    print(f"error_rate: {tally.error_rate!r} ratio ({tally.failed} of {tally.attempted} ops)")
    print(f"rank_mismatch_rate: {tally.rank_mismatch_rate!r} ratio "
          f"({tally.rank_mismatches} of {tally.rank_checked} state verdicts)")
    print(f"stratum_mismatch_rate: {tally.stratum_mismatch_rate!r} ratio "
          f"({tally.stratum_mismatches} of {tally.full_rank_states} full-rank state verdicts)")
    metrics = {}
    for name, unit in wanted:
        # A layer the workload never reaches reads zero (cli bytes off the CLI).
        value, got_unit = res.metrics.get(name, (0, unit) if trace else (None, None))
        if got_unit != unit:
            raise RuntimeError(f"metric {name} came out as {got_unit}, expected {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}: {value!r} {unit}")
    for note in tally.notes:
        print(f"failure: {note}")
    for problem in problems:
        print(f"self-test failure: {problem}")
    correct = tally.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        for line in lines[:-1]:
            print(f"   {line}")
        if proc.returncode != 0:
            print(f"   exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checker and inputs")
    args = parser.parse_args(argv)
    if args.self_test:
        problems = reference.self_test()
        for problem in problems:
            print(f"self-test failure: {problem}")
        print("self-test " + ("failed" if problems else "passed"))
        return 1 if problems else 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
