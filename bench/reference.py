"""Reference checker: LAPACK eigenvalues against the program's verdicts.

An op fails when it raises, when the CLI exits with a code other than 0
or 2, or when a verdict's is_state disagrees with eigvalsh outside the
1e-8 boundary window of acceptance criterion 2.  Rank and stratum
disagreements are known defects of the program, not failures: they are
counted and reported as mismatch rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import inputs

# The program's documented default positivity tolerance.
TOL = 1e-9
# Criterion 2's window: no is_state verdict is judged when the reference's
# smallest eigenvalue or any route's margin lies within it.
WINDOW = 1e-8
# Spectra with an eigenvalue within this factor of TOL have no decidable rank.
RANK_WINDOW = 10.0
# Reference smallest eigenvalue above which a state must be labelled interior.
FULL_RANK_MIN = 1e-6

# Criterion 1's table: (i, j, k) -> d_ijk, valid for every N >= 4 because
# the first Cartan generators embed unchanged.
D_TABLE = {
    (3, 3, 8): 1.0 / math.sqrt(3.0),
    (8, 8, 8): -1.0 / math.sqrt(3.0),
    (3, 3, 15): 1.0 / math.sqrt(6.0),
    (8, 8, 15): 1.0 / math.sqrt(6.0),
    (15, 15, 15): -math.sqrt(2.0 / 3.0),
}
TABLE_TOL = 1e-12


@dataclass
class Verdict:
    is_state: bool
    rank: int
    stratum: str | None
    margin: float


@dataclass
class Tally:
    """Counts of ops, failures and verdict mismatches against the reference."""

    attempted: int = 0
    failed: int = 0
    judged: int = 0
    rank_checked: int = 0
    rank_mismatches: int = 0
    full_rank_states: int = 0
    stratum_mismatches: int = 0
    notes: list = field(default_factory=list)

    def fail(self, count: int = 1, note: str | None = None) -> None:
        self.attempted += count
        self.failed += count
        if note and len(self.notes) < 5:
            self.notes.append(note)

    def op(self, eigs: np.ndarray, verdicts) -> bool:
        """Judge one op's verdicts against ascending reference eigenvalues."""
        self.attempted += 1
        lam_min = float(eigs[0])
        near = min([abs(lam_min)] + [abs(v.margin) for v in verdicts])
        ok = True
        if near >= WINDOW:
            self.judged += 1
            want = lam_min >= -TOL
            if any(v.is_state != want for v in verdicts):
                ok = False
        rank_decidable = not np.any((eigs > TOL / RANK_WINDOW) & (eigs < TOL * RANK_WINDOW))
        ref_rank = int(np.sum(eigs > TOL))
        for v in verdicts:
            if not v.is_state:
                continue
            if rank_decidable:
                self.rank_checked += 1
                self.rank_mismatches += v.rank != ref_rank
            if lam_min > FULL_RANK_MIN:
                self.full_rank_states += 1
                self.stratum_mismatches += v.stratum != "interior"
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"is_state disagrees: eigs={eigs.tolist()} verdicts={verdicts}")
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / max(self.attempted, 1)

    @property
    def rank_mismatch_rate(self) -> float:
        return self.rank_mismatches / max(self.rank_checked, 1)

    @property
    def stratum_mismatch_rate(self) -> float:
        return self.stratum_mismatches / max(self.full_rank_states, 1)


def reference_eigs(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian matrices (LAPACK)."""
    return np.linalg.eigvalsh(matrices)


def algebra_problems(N: int, payload: dict, xis: np.ndarray, c2s) -> list:
    """Spot checks for one algebra op: criterion 1's table and c2 = (N-1)|xi|^2."""
    problems = []
    d = {(e["i"], e["j"], e["k"]): e["value"] for e in payload["d"]}
    for key, want in D_TABLE.items():
        got = d.get(key, 0.0)
        if abs(got - want) > TABLE_TOL:
            problems.append(f"N={N} d{key} = {got}, expected {want}")
    want_c2 = (N - 1) * np.einsum("ij,ij->i", xis, xis)
    bad = np.abs(np.asarray(c2s) - want_c2) > 1e-12 * N
    if np.any(bad):
        problems.append(f"N={N}: c2 != (N-1)|xi|^2 for {int(bad.sum())} vectors")
    return problems


def self_test() -> list:
    """Show that the checker and the generator do what the benchmark relies on.

    Returns a list of problems, empty when everything holds.
    """
    problems = []
    eigs = np.array([0.2, 0.3, 0.5])
    right = Verdict(True, 3, "interior", 0.03)
    tally = Tally()
    if not tally.op(eigs, [right]) or tally.failed:
        problems.append("a correct verdict was counted as a failure")
    flipped = Verdict(False, 3, None, 0.03)
    if tally.op(eigs, [right, flipped]) or tally.failed != 1:
        problems.append("a flipped is_state verdict was not counted as a failure")
    tally.op(eigs, [Verdict(True, 2, "boundary-rank-2", 0.03)])
    if tally.rank_mismatches != 1 or tally.stratum_mismatches != 1:
        problems.append("a wrong rank or stratum was not counted as a mismatch")
    window = Tally()
    window.op(np.array([-5e-9, 0.5, 0.5]), [Verdict(True, 2, "boundary-rank-2", -5e-9)])
    if window.failed or window.judged:
        problems.append("a verdict inside the boundary window was judged")

    a = inputs.stream_chunks(7, 2, 16)
    b = inputs.stream_chunks(7, 2, 16)
    c = inputs.stream_chunks(8, 2, 16)
    if [x["payload"] for x in a] != [x["payload"] for x in b]:
        problems.append("one seed gave two different check streams")
    if a[0]["payload"] == c[0]["payload"]:
        problems.append("two seeds gave the same check stream")
    for N in (2, 3, 5):
        m, _ = inputs.corpus(N, 8, inputs.ROUTE_MIX, np.random.default_rng(N))
        back = inputs.matrices_from_bloch(inputs.bloch_vectors(m), N)
        if np.max(np.abs(back - m)) > 1e-12:
            problems.append(f"Bloch projection does not invert at N={N}")
    return problems
