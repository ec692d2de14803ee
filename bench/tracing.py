"""In-memory span tracer that wraps the package's public functions.

A wrapped function is replaced at every module binding that holds it, so
calls through ``from .invariants import char_coefficients`` style imports
are traced as well as calls through the module attribute.  Each call
records a span (id, name, start, end, parent id, op id); spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

# Layers and the public functions traced in each.  orbit_space is on no
# verdict path and no workload drives it, so nothing of it is wrapped.
TRACED = {
    "cli": ["run"],
    "state_space": ["to_bloch", "from_bloch", "check_state_bloch", "check_state_traces", "eig_oracle"],
    "invariants": ["trace_invariants", "char_coefficients", "discriminant", "casimirs"],
    "su_algebra": ["vee_product", "algebra_tensors", "tensors_to_json"],
}
CACHED = ["gell_mann_basis", "algebra_tensors"]


def tail_percentile(n: int) -> float:
    """Highest of p99/p90/p50 with at least ten samples beyond it, else p100."""
    for pct in (99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 100.0


class Tracer:
    """Wraps every binding of the TRACED functions; enable() and disable() swap them."""

    def __init__(self, package_modules):
        self.spans = []
        self.op_id = 0
        self.enabled = False
        self._next_id = 0
        self._stack = []  # [span id, accumulated child time] of open spans
        self._self = {}
        self._durations = {}
        self._bindings = []  # (module, attribute, original, wrapper)
        modules = list(package_modules)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, fns in TRACED.items():
            for fn in fns:
                original = getattr(by_name[module], fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                self._bindings += [(m, attr, original, wrapper) for m in modules
                                   for attr, value in vars(m).items() if value is original]

    def _wrap(self, name, fn):
        self._self[name] = 0.0
        self._durations[name] = []
        durations = self._durations[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self._self[name] += duration - frame[1]
                durations.append(duration)
                self.spans.append((span_id, name, start, end, parent, self.op_id))

        return traced

    def enable(self) -> None:
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)
        self.enabled = True

    def disable(self) -> None:
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)
        self.enabled = False

    def metrics(self):
        """calls, self_s, p50_us and tail_us for every traced function.

        Returns ({metric: (value, unit)}, {function: tail percentile used}).
        The per-call percentiles are over inclusive call durations.
        """
        out, tails = {}, {}
        for name, durations in self._durations.items():
            d = np.array(durations) * 1e6
            tails[name] = tail_percentile(len(d))
            out[f"{name}.calls"] = (len(d), "count")
            out[f"{name}.self_s"] = (self._self[name], "s")
            out[f"{name}.p50_us"] = (float(np.percentile(d, 50)) if len(d) else 0.0, "us")
            out[f"{name}.tail_us"] = (float(np.percentile(d, tails[name])) if len(d) else 0.0, "us")
        return out, tails

    def write(self, path) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
