"""The three benchmark workloads.

All are closed loops with one client on one thread, one workload per OS
process.  An end-to-end run (trace off) reports setup_s, ops_per_s,
op_p50_ms, op_tail_ms and peak_rss_mb, its times in the reference units of
calibrate.py.  A traced run runs every unit of work twice, traced and untraced in alternating order, so that drift in the
machine's speed hits both passes alike; it reports the per-layer numbers of
the traced passes and their time over the untraced ones.

* check-stream: `quditorbits check` over JSONL at N=3, timed as cli.run
  in process; setup_s is the subprocess's start, and two chunks also go
  through the subprocess.  Only the CLI sees the per-record fixed cost
  (JSON parse, the rho -> xi -> rho round trip of `rho` records).
* route-sweep: both positivity routes on a criterion-2 corpus at N = 2, 3,
  5, 8.  The only workload that drives check_state_traces, the Newton
  extension and the Bezoutian; large N moves the weight onto the Jacobi
  oracle and the determinant loop in char_coefficients.
* algebra-sweep: cold structure constants, their JSON dump and Casimirs
  at N = 6, 7, 8.  The only workload that touches su_algebra beyond the
  cached basis; it shows a faster build that slows evaluation.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference
from calibrate import Clock, Sample
from reference import Tally, Verdict
from tracing import CACHED

SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120

STREAM_N = 3
STREAM_CHUNK = 400  # records per `quditorbits check` invocation
STREAM_POOL = 24  # distinct chunks, cycled
# Chunks that also go through a `quditorbits check` subprocess, untimed.
# Interpreter start, a third of a subprocess's CPU time, drifts with the
# machine in ways no reference kernel follows, so the timed invocations run
# cli.run in process and setup_s measures the start on its own.
STREAM_CHILD_CHUNKS = 2
ROUTE_NS = (2, 3, 5, 8)
ROUTE_PER_N = 1000
# N = 10 (a 3-6 s op) is left out: a run would hold too few ops to be steady.
ALGEBRA_NS = (6, 7, 8)
ALGEBRA_BATCH = 32  # unit Bloch vectors per casimirs batch

# The reference kernel of each workload (see calibrate.py), the one that
# does its kind of work, and the kernel calls just before and just after each
# timed sample.  A route round takes about 10 ms, so it gets two calls.
CLOCKS = {
    "setup": ("small-matrices", 20),
    "check-stream": ("small-matrices", 20),
    "route-sweep": ("small-matrices", 2),
    "algebra-sweep": ("triple-contraction", 3),
}
# Tail percentile of op latency per workload, with at least ten samples
# beyond it in a 30 s run.  On route-sweep p99 rests on about ten distinct
# rounds of the seed's corpus, so it moves with the seed; p95 does not.  On
# algebra-sweep p85 falls inside the N=8 ops.
TAIL_PCT = {"check-stream": 75.0, "route-sweep": 95.0, "algebra-sweep": 85.0}


@dataclass
class Result:
    tally: Tally = field(default_factory=Tally)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: list = field(default_factory=list)


def _children_cpu() -> float:
    """CPU seconds of all waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child(pkg, cmd, stdin: bytes):
    return subprocess.run(
        cmd, input=stdin, capture_output=True, env=pkg.env, cwd=pkg.root, timeout=CHILD_TIMEOUT_S
    )


def _setup_seconds(res, pkg, cmd) -> None:
    """setup_s: median over fresh processes of launch-to-exit CPU time, in reference seconds.

    One untimed launch first warms the file cache.
    """
    clock = Clock(*CLOCKS["setup"])
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc, sample = clock.measure(lambda: _child(pkg, cmd, b""), _children_cpu)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up command failed: {proc.stderr.decode()[-500:]}")
        if i:
            samples.append(sample)
    med = {name: float(np.median([getattr(x, name) for x in samples])) for name in Sample._fields}
    res.metrics["setup_s"] = (med["ref"], "s")
    res.info.append(f"setup: median of {SETUP_REPEATS} launches; CPU {med['cpu']:.4f} s, "
                    f"wall {med['wall']:.4f} s, {clock.name} kernel {1e3 * med['kernel']:.4f} ms")


def _warm_cmd(ns):
    code = f"import quditorbits as q\nfor n in {tuple(ns)!r}: q.gell_mann_basis(n)"
    return [sys.executable, "-c", code]


def _drive(res, unit, seconds, tracer):
    """Run units 0, 1, ... while the next one is expected to end within `seconds`.

    unit(i, tally) does unit i and returns its timed (ops, Sample) pairs.
    Untraced, every unit is judged into res.tally and its samples returned.
    Traced, each unit also runs untraced, first on odd units and second on
    even ones; only the traced pass is judged, and trace.overhead_ratio is
    traced over untraced reference time.  Returns (samples, units done).
    """
    deadline = time.perf_counter() + seconds
    samples, traced, untraced, i, last = [], 0.0, 0.0, 0, 0.0
    while i == 0 or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        if tracer is None:
            samples += unit(i, res.tally)
        else:
            for with_trace in (i % 2 == 0, i % 2 == 1):
                if with_trace:
                    tracer.op_id = i
                    tracer.enable()
                    try:
                        traced += sum(s.ref for _, s in unit(i, res.tally))
                    finally:
                        tracer.disable()
                else:
                    untraced += sum(s.ref for _, s in unit(i, Tally()))
        last = time.perf_counter() - start
        i += 1
    if tracer is not None:
        res.metrics["trace.overhead_ratio"] = (float(traced / untraced), "ratio")
    return samples, i


def _op_metrics(res, name, samples, what) -> None:
    """ops_per_s, op_p50_ms and op_tail_ms from the samples, in reference time.

    A sample is (ops, Sample); its latency is its reference time per op,
    and ops_per_s is all ops over all reference time.
    """
    ops = np.array([n for n, _ in samples], dtype=float)
    cpu, wall, kernel, ref = (np.array(x) for x in zip(*(s for _, s in samples)))
    ms = ref / ops * 1e3
    pct = TAIL_PCT[name]
    tail = float(np.percentile(ms, pct))
    res.metrics["ops_per_s"] = (float(ops.sum() / ref.sum()), "1/s")
    res.metrics["op_p50_ms"] = (float(np.percentile(ms, 50)), "ms")
    res.metrics["op_tail_ms"] = (tail, "ms")
    res.info.append(
        f"op_tail_ms is p{pct:g} of {len(ms)} samples ({int(np.sum(ms > tail))} beyond it); "
        f"one sample is {what}"
    )
    res.info.append(
        f"unnormalised: {ops.sum() / cpu.sum():.2f} ops per CPU s, {ops.sum() / wall.sum():.2f} "
        f"per wall s, CPU p50 {np.percentile(cpu / ops * 1e3, 50):.4f} ms; kernel "
        f"{1e3 * np.median(kernel):.4f} ms, p10-p90 {1e3 * np.percentile(kernel, 10):.4f}-"
        f"{1e3 * np.percentile(kernel, 90):.4f} ms"
    )


def _peak_rss(who):
    return (resource.getrusage(who).ru_maxrss / 1024.0, "MB")


def _cache_counts(pkg):
    return {fn: getattr(pkg.originals, fn).cache_info() for fn in CACHED}


def _cache_ratios(res, before, after):
    for fn in CACHED:
        hits = after[fn].hits - before[fn].hits
        misses = after[fn].misses - before[fn].misses
        res.metrics[f"su_algebra.{fn}.cache_hit_ratio"] = (hits / max(hits + misses, 1), "ratio")


def _judge_stream(tally, rc, out: str, chunk, eigs) -> None:
    n = len(chunk["kinds"])
    lines = out.splitlines()
    if rc not in (0, 2) or len(lines) != n:
        tally.fail(n, f"exit code {rc} with {len(lines)} of {n} verdicts")
        return
    try:
        records = [json.loads(line) for line in lines]
        verdicts = [Verdict(r["is_state"], r["rank"], r["stratum"], r["margin"]) for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        tally.fail(n, f"unreadable verdict: {exc!r}")
        return
    if rc != (0 if all(v.is_state for v in verdicts) else 2):
        tally.fail(n, f"exit code {rc} does not match the verdicts")
        return
    for v, e in zip(verdicts, eigs):
        tally.op(e, [v])


def check_stream(pkg, seed, seconds, tracer=None) -> Result:
    res = Result()
    chunks = inputs.stream_chunks(seed, STREAM_POOL, STREAM_CHUNK, STREAM_N)
    eigs = [reference.reference_eigs(c["matrices"]) for c in chunks]
    res.info.append("inputs " + inputs.digest(*(c["payload"] for c in chunks)))
    cmd = [sys.executable, "-m", "quditorbits.cli", "check"]
    io_bytes = collections.Counter()
    clock = Clock(*CLOCKS["check-stream"])

    def in_process_unit(i, tally):
        # cli.run(["check"]) with stdin and stdout redirected.
        chunk = chunks[i % STREAM_POOL]
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(chunk["payload"].decode())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc, sample = clock.measure(lambda: pkg.cli.run(["check"]))
        finally:
            sys.stdin = saved
        _judge_stream(tally, rc, out.getvalue(), chunk, eigs[i % STREAM_POOL])
        if tracer is not None and tracer.enabled:
            io_bytes["in"] += len(chunk["payload"])
            io_bytes["out"] += len(out.getvalue().encode())
        return [(STREAM_CHUNK, sample)]

    if tracer is None:
        _setup_seconds(res, pkg, cmd)
        for chunk, e in zip(chunks[:STREAM_CHILD_CHUNKS], eigs):
            proc = _child(pkg, cmd, chunk["payload"])
            _judge_stream(res.tally, proc.returncode, proc.stdout.decode(), chunk, e)
        samples, n = _drive(res, in_process_unit, seconds, None)
        _op_metrics(res, "check-stream", samples,
                    f"one {STREAM_CHUNK}-record cli.run(['check']) in process, per record")
        res.metrics["peak_rss_mb"] = _peak_rss(resource.RUSAGE_CHILDREN)
    else:
        before = _cache_counts(pkg)
        _, n = _drive(res, in_process_unit, seconds, tracer)
        _cache_ratios(res, before, _cache_counts(pkg))
        res.metrics["cli.bytes_in"] = (io_bytes["in"], "bytes")
        res.metrics["cli.bytes_out"] = (io_bytes["out"], "bytes")
    mix = collections.Counter()
    for k in range(n):
        chunk = chunks[k % STREAM_POOL]
        mix.update(zip(chunk["segments"], chunk["kinds"]))
    res.info.append("mix (segment/record kind): " +
                    ", ".join(f"{s}/{k}={c}" for (s, k), c in sorted(mix.items())))
    return res


def route_sweep(pkg, seed, seconds, tracer=None) -> Result:
    res = Result()
    data = inputs.route_corpus(seed, ROUTE_NS, ROUTE_PER_N)
    eigs = {N: reference.reference_eigs(m) for N, (m, _) in data.items()}
    res.info.append("inputs " + inputs.digest(*(data[N][0] for N in ROUTE_NS)))
    ss, inv = pkg.state_space, pkg.invariants
    for N in ROUTE_NS:
        pkg.su_algebra.gell_mann_basis(N)
    clock = Clock(*CLOCKS["route-sweep"])

    def round_unit(r, tally):
        """One matrix at each N through both routes: one sample of len(ROUTE_NS) ops."""
        k = r % ROUTE_PER_N

        def one_round():
            verdicts = {}
            for N in ROUTE_NS:
                rho = data[N][0][k]
                try:
                    vb = ss.check_state_bloch(ss.to_bloch(rho))
                    t = inv.trace_invariants(rho)
                    vt = ss.check_state_traces(t)
                    inv.discriminant(t)
                except Exception as exc:  # a raising op is a failed op; keep measuring
                    verdicts[N] = exc
                else:
                    verdicts[N] = [vb, vt]
            return verdicts

        verdicts, sample = clock.measure(one_round)
        for N, got in verdicts.items():
            if isinstance(got, Exception):
                tally.fail(1, f"N={N} matrix {k}: {got!r}")
            else:
                tally.op(eigs[N][k], got)
        return [(len(ROUTE_NS), sample)]

    if tracer is None:
        _setup_seconds(res, pkg, _warm_cmd(ROUTE_NS))
        samples, n = _drive(res, round_unit, seconds, None)
        _op_metrics(res, "route-sweep", samples,
                    f"one matrix at each N={ROUTE_NS} through both routes, per matrix")
        res.metrics["peak_rss_mb"] = _peak_rss(resource.RUSAGE_SELF)
    else:
        before = _cache_counts(pkg)
        _, n = _drive(res, round_unit, seconds, tracer)
        _cache_ratios(res, before, _cache_counts(pkg))
    mix = collections.Counter((N, data[N][1][k % ROUTE_PER_N]) for k in range(n) for N in ROUTE_NS)
    res.info.append("mix (N/segment): " + ", ".join(f"{N}/{s}={c}" for (N, s), c in sorted(mix.items())))
    return res


def algebra_sweep(pkg, seed, seconds, tracer=None) -> Result:
    res = Result()
    vectors = inputs.unit_vectors(seed, ALGEBRA_NS, ALGEBRA_BATCH)
    res.info.append("inputs " + inputs.digest(*(vectors[N] for N in ALGEBRA_NS)))
    su, inv = pkg.su_algebra, pkg.invariants
    cache = collections.Counter()
    clock = Clock(*CLOCKS["algebra-sweep"])

    def cycle_unit(i, tally):
        """One cold op at each N."""
        samples = []
        for N in ALGEBRA_NS:
            # Every `quditorbits tensors` or `invariants` process starts cold.
            for fn in CACHED:
                getattr(pkg.originals, fn).cache_clear()

            def op():
                tensors = su.algebra_tensors(N)
                return su.tensors_to_json(tensors), [inv.casimirs(xi, tensors).c2 for xi in vectors[N]]

            (payload, c2), sample = clock.measure(op)
            samples.append((1, sample))
            for fn in CACHED:
                info = getattr(pkg.originals, fn).cache_info()
                cache[fn, "hits"] += info.hits
                cache[fn, "misses"] += info.misses
            problems = reference.algebra_problems(N, payload, vectors[N], c2)
            if problems:
                tally.fail(1, "; ".join(problems))
            else:
                tally.attempted += 1
        return samples

    if tracer is None:
        _setup_seconds(res, pkg, _warm_cmd(ALGEBRA_NS))
        samples, n = _drive(res, cycle_unit, seconds, None)
        _op_metrics(res, "algebra-sweep", samples, "one cold tensors + JSON + casimirs op")
        res.metrics["peak_rss_mb"] = _peak_rss(resource.RUSAGE_SELF)
        lat = np.array([s.ref for _, s in samples]).reshape(n, len(ALGEBRA_NS))
        res.info.append("median reference ms per op by N: " + ", ".join(
            f"N={N}: {1e3 * np.median(lat[:, j]):.1f}" for j, N in enumerate(ALGEBRA_NS)))
    else:
        _, n = _drive(res, cycle_unit, seconds, tracer)
        for fn in CACHED:
            hits, misses = cache[fn, "hits"], cache[fn, "misses"]
            res.metrics[f"su_algebra.{fn}.cache_hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
    res.info.append(f"{n} cycles over N={ALGEBRA_NS}, {ALGEBRA_BATCH} casimirs per op")
    return res


WORKLOADS = {"check-stream": check_stream, "route-sweep": route_sweep, "algebra-sweep": algebra_sweep}
