"""Bloch embedding and positivity certificates for qudit states.

A unit-trace Hermitian matrix is written rho = I/N + sqrt((N-1)/(2N))
sum_i xi_i lam_i over the generalized Gell-Mann basis; the state space is
carved out of the Bloch ball |xi| <= 1 by the polynomial conditions
S_k(xi) >= 0 on the characteristic coefficients.  Verdicts are reached
along two routes that must agree, neither of which diagonalizes anything:

* the S_k signs computed from the Bloch vector (check_state_bloch), and
* the S_k signs plus the Bezoutian discriminant computed from a bare
  trace tuple (check_state_traces).

Both are thin front ends on one classification core (_classify), which
takes S_k >= 0 (and, on the trace route, disc >= 0) to a verdict and
reads the rank off the S_k by one rule (_rank_from_ratios).

Many inputs at once go through the stack entry points check_states_bloch
(a (B, N^2 - 1) array of Bloch rows) and check_states (a (B, N, N) stack
of matrices, through to_bloch): one einsum, stacked powers, a stacked
Newton recursion and a stacked rank rule (_classify_stack) per call, with
the same checks, messages and rounding as the single-input route, so each
verdict equals check_state_bloch's bit for bit.  The path is chosen by the
shape of the input, not by an option: a one-row stack pays the stacked
pass's fixed numpy overhead for one row and measured about 2-4x the time of
a single check_state_bloch call at N = 2..8, while a 400-row stack costs
about a tenth of the single calls per row.  So single inputs keep the
scalar loop, and `quditorbits check` classifies its stdin in stacks.

An
in-repo cyclic Jacobi eigensolver (jacobi_eigh, eig_oracle) that never
calls an external diagonalization routine is kept as an independent
oracle for tests and demos; no verdict consults it.

Also provides two state samplers (rejection in the Bloch ball, and
uniform simplex spectra conjugated by Haar unitaries), deterministic
under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariants import (
    TraceInvariants,
    _char_coefficients_stack,
    _discriminant,
    _trace_invariants_stack,
    char_coefficients,
    trace_invariants,
)
from .su_algebra import gell_mann_basis

# Default slack on the positivity conditions S_k >= 0.
POSITIVITY_TOL = 1e-9

# Unit-trace defect tolerated by to_bloch / check_state_traces.
TRACE_TOL = 1e-10

# Off-diagonal Frobenius norm at which the Jacobi sweep stops.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100

# Bloch-rejection sampling gives up after this many proposals per state.
REJECTION_MAX_TRIES = 1_000_000


@dataclass(frozen=True)
class StateClassification:
    """Verdict of a positivity test.

    stratum is "pure", "interior" or "boundary-rank-k" for valid states
    and None otherwise; margin is the smallest characteristic coefficient.
    """

    is_state: bool
    rank: int
    stratum: str | None
    margin: float


def bloch_scale(N: int) -> float:
    """Embedding prefactor sqrt((N-1)/(2N))."""
    return math.sqrt((N - 1) / (2.0 * N))


def dim_from_bloch(xi) -> int:
    """Recover N from a Bloch vector of length N^2 - 1 (or the length itself)."""
    if isinstance(xi, (int, np.integer)):
        n = xi
    else:
        shape = np.shape(xi)
        if len(shape) != 1:
            raise ValueError(f"Bloch vector must be one-dimensional, got shape {shape}")
        n = shape[0]
    N = math.isqrt(n + 1)
    if N < 2 or N * N - 1 != n:
        raise ValueError(f"Bloch vector length {n} is not N^2 - 1 for any N >= 2")
    return N


def from_bloch(xi: np.ndarray) -> np.ndarray:
    """Assemble rho = I/N + sqrt((N-1)/(2N)) sum_i xi_i lam_i.

    The result is Hermitian with unit trace for any real xi; positivity is
    a separate question answered by the check functions.
    """
    xi = np.asarray(xi, dtype=float)
    N = dim_from_bloch(xi)
    lam = gell_mann_basis(N).elements
    return np.eye(N, dtype=complex) / N + bloch_scale(N) * np.einsum("i,ijk->jk", xi, lam)


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Project a unit-trace Hermitian matrix onto its Bloch components.

    xi_i = tr(rho lam_i) / (2 sqrt((N-1)/(2N))), the inverse of from_bloch.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    N = rho.shape[0]
    if N < 2:
        raise ValueError("need N >= 2")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"matrix trace {tr} is not 1 within {TRACE_TOL}")
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > 1e-10:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    lam = gell_mann_basis(N).elements
    overlaps = np.einsum("ijk,kj->i", lam, rho)
    return overlaps.real / (2.0 * bloch_scale(N))


def _to_bloch_stack(rhos: np.ndarray):
    """to_bloch of every matrix of a (B, N, N) stack at once, bit-identical
    to it row by row.  A matrix to_bloch would reject maps, by its row
    index, to to_bloch's ValueError in the returned dict; its row of the
    (B, N^2 - 1) result is undefined.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {rhos.shape}")
    N = rhos.shape[-1]
    if N < 2:
        raise ValueError("need N >= 2")
    errors = {}
    tr = np.trace(rhos, axis1=1, axis2=2)
    for b in np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL):
        errors[int(b)] = ValueError(f"matrix trace {tr[b]} is not 1 within {TRACE_TOL}")
    defect = np.max(np.abs(rhos - rhos.conj().swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    for b in np.flatnonzero(defect > 1e-10):
        errors.setdefault(int(b), ValueError(f"matrix is not Hermitian: defect {defect[b]:.3e}"))
    lam = gell_mann_basis(N).elements
    overlaps = np.einsum("ijk,bkj->bi", lam, rhos)
    return overlaps.real / (2.0 * bloch_scale(N)), errors


def jacobi_eigh(a: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Diagonalize a Hermitian matrix, or a stack of them, with cyclic complex
    Jacobi rotations.

    Each sweep annihilates every off-diagonal pair (p, q) in turn with a
    unitary plane rotation, computed and applied to every matrix of the
    stack at once; sweeps repeat until each matrix's off-diagonal Frobenius
    norm drops below `tol`.  A matrix that has converged is left alone
    while the rest of the stack keeps rotating, so each result equals that
    of diagonalizing the matrix by itself.  A single (n, n) matrix is the
    one-member stack.

    Returns
    -------
    (w, V) : ndarray pairs
        Unsorted real eigenvalues, shape (n,) or (B, n), and the unitaries
        with eigenvectors as columns, shape (n, n) or (B, n, n), a
        V diag(w) V^dag reconstruction of each input.

    Raises
    ------
    ValueError
        If the input is not an (n, n) or (B, n, n) Hermitian array.
    RuntimeError
        If the norm target is not met after `max_sweeps` sweeps.
    """
    A = np.array(a, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    single = A.ndim == 2
    if single:
        A = A[np.newaxis]
    n = A.shape[-1]
    defect = np.max(np.abs(A - A.conj().swapaxes(-1, -2)), initial=0.0)
    if defect > 1e-10:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    V = np.tile(np.eye(n, dtype=complex), (A.shape[0], 1, 1))
    off_diagonal = ~np.eye(n, dtype=bool)

    for sweep in range(max_sweeps + 1):
        active = np.flatnonzero(np.linalg.norm(A[:, off_diagonal], axis=1) >= tol)
        if active.size == 0:
            w = np.real(np.diagonal(A, axis1=1, axis2=2)).copy()
            return (w[0], V[0]) if single else (w, V)
        if sweep == max_sweeps:
            break
        Aa, Va = A[active], V[active]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = Aa[:, p, q]
                m = np.abs(apq)
                # exp(i arg) rather than apq / m, which is NaN for a denormal apq
                phase = np.exp(1j * np.angle(apq))
                # tan of the rotation angle, tau / (|tau| + sqrt(1 + tau^2)) with
                # tau = d / 2m rewritten so that no quotient overflows; 0 where
                # the pair is already zero
                d = Aa[:, q, q].real - Aa[:, p, p].real
                den = np.abs(d) + np.hypot(d, 2.0 * m)
                tpar = np.where(d >= 0.0, 1.0, -1.0) * np.divide(
                    2.0 * m, den, out=np.zeros_like(m), where=den > 0.0
                )
                c = 1.0 / np.sqrt(1.0 + tpar * tpar)
                s = tpar * c
                # R acts on the (p, q) plane; A <- R^dag A R, V <- V R.
                R = np.empty((len(active), 2, 2), dtype=complex)
                R[:, 0, 0] = c
                R[:, 0, 1] = s * phase
                R[:, 1, 0] = -s * np.conj(phase)
                R[:, 1, 1] = c
                pq = [p, q]
                Aa[:, :, pq] = Aa[:, :, pq] @ R
                Aa[:, pq, :] = R.conj().swapaxes(1, 2) @ Aa[:, pq, :]
                Va[:, :, pq] = Va[:, :, pq] @ R
                Aa[:, p, q] = 0.0
                Aa[:, q, p] = 0.0
        A[active], V[active] = Aa, Va
    raise RuntimeError(
        f"Jacobi iteration failed to reach off-norm {tol:.1e} in {max_sweeps} sweeps"
    )


def eig_oracle(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The independent verification oracle for the positivity checks, used by
    tests and demos only: an in-repo Jacobi iteration, no external solver.
    """
    w, _ = jacobi_eigh(rho)
    return np.sort(w)[::-1]


def _rank_from_ratios(S: np.ndarray, t: TraceInvariants, tol: float) -> int:
    """Rank read off S_1..S_N without eigenvalues: the first k with
    S_{k+1} <= tol S_k + noise_{k+1}, or N when there is none.

    For a state S_{k+1} / S_k approximates the (k+1)-th largest eigenvalue
    when the smaller ones are negligible, so the rule counts the
    eigenvalues above about `tol` whatever the size of the others; an
    absolute cutoff on S_k would take a product of small but nonzero
    eigenvalues for a zero.  noise_{k+1} is one unit roundoff of the
    summed magnitudes of the terms of the Newton identity
    (k+1) S_{k+1} = sum_i (-1)^(i-1) S_{k+1-i} t_i: a computed S_{k+1}
    below it is rounding noise, which would otherwise decide the rank.
    A negative S_{k+1} also ends the count, so for a matrix that is not
    a state the number is a reading of the S_k, not its matrix rank.
    """
    eps = np.finfo(float).eps
    S0 = np.concatenate(([1.0], S))
    tv = np.abs(t.values)
    for k in range(1, len(S)):
        noise = eps * float(np.dot(np.abs(S0[k::-1]), tv[: k + 1]))
        if S[k] <= tol * S[k - 1] + noise:
            return k
    return len(S)


def _rank_from_ratios_stack(S: np.ndarray, T: np.ndarray, tol: float) -> np.ndarray:
    """_rank_from_ratios for every row of (B, N) arrays of S_k and t_k,
    with its dot products as contiguous matmuls, which round as np.dot."""
    B, N = S.shape
    eps = np.finfo(float).eps
    S0 = np.abs(np.concatenate((np.ones((B, 1)), S), axis=1))
    tv = np.abs(T)
    rank = np.full(B, N)
    undecided = np.ones(B, dtype=bool)
    for k in range(1, N):
        lhs = np.ascontiguousarray(S0[:, k::-1])[:, np.newaxis, :]
        rhs = np.ascontiguousarray(tv[:, : k + 1])[:, :, np.newaxis]
        noise = eps * (lhs @ rhs)[:, 0, 0]
        hit = undecided & (S[:, k] <= tol * S[:, k - 1] + noise)
        rank[hit] = k
        undecided &= ~hit
    return rank


def _verdict(is_state: bool, rank: int, N: int, margin: float, tol: float) -> StateClassification:
    if not is_state:
        stratum = None
    elif rank == 1:
        stratum = "pure"
    elif rank == N and margin > tol:
        stratum = "interior"
    else:
        stratum = f"boundary-rank-{rank}"
    return StateClassification(is_state=is_state, rank=rank, stratum=stratum, margin=margin)


def _classify(
    t: TraceInvariants, S: np.ndarray, tol: float, disc: float = math.inf
) -> StateClassification:
    """The classification core behind both routes, from the traces t and
    their characteristic coefficients S.

    A state needs S_k >= -tol for every k and disc >= -tol; the default
    disc of +inf leaves the discriminant out, whatever the sign of tol.
    The rank comes from the S_k by _rank_from_ratios.
    """
    margin = float(np.min(S))
    is_state = bool(margin >= -tol and disc >= -tol)
    return _verdict(is_state, _rank_from_ratios(S, t, tol), t.dim, margin, tol)


def _classify_stack(T: np.ndarray, tol: float) -> list:
    """_classify without a discriminant for every row of a (B, N) array of
    t_1..t_N; each verdict equals that of _classify on its row."""
    N = T.shape[1]
    S = _char_coefficients_stack(T)
    margin = S.min(axis=1)
    ranks = _rank_from_ratios_stack(S, T, tol)
    return [
        _verdict(is_state, rank, N, m, tol)
        for is_state, rank, m in zip((margin >= -tol).tolist(), ranks.tolist(), margin.tolist())
    ]


def check_state_bloch(xi: np.ndarray, tol: float = POSITIVITY_TOL) -> StateClassification:
    """Positivity test in Bloch coordinates: all S_k(xi) >= 0.

    A thin front end on _classify, the core shared with
    check_state_traces; no eigensolver is involved.
    """
    t = trace_invariants(from_bloch(xi))
    return _classify(t, char_coefficients(t), tol)


def check_state_traces(t: TraceInvariants, tol: float = POSITIVITY_TOL) -> StateClassification:
    """Positivity test from a trace tuple alone.

    Requires t_1 = 1 within 1e-10 (raises otherwise), then demands
    disc >= 0 and S_k >= 0 for k = 1..N through _classify, the core
    shared with check_state_bloch.  S is formed once and also serves the
    Newton extension behind the discriminant.  No matrix and no
    eigensolver are touched.
    """
    if abs(t.t(1) - 1.0) > TRACE_TOL:
        raise ValueError(f"t_1 = {t.t(1)} is not 1 within {TRACE_TOL}")
    S = char_coefficients(t)
    return _classify(t, S, tol, _discriminant(t, S))


def check_states_bloch(xis: np.ndarray, tol: float = POSITIVITY_TOL) -> list:
    """check_state_bloch for every row of a (B, N^2 - 1) array, in one
    stacked pass: one einsum for the matrices, stacked powers, a stacked
    Newton recursion and the stacked rank rule.

    Returns a list of B entries: the row's StateClassification, equal
    field for field to check_state_bloch(row, tol), or, for a row that
    check_state_bloch rejects, the ValueError it raises.  One bad row
    does not stop the others.  An array that is not (B, N^2 - 1) raises.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2:
        raise ValueError(f"expected a (B, N^2 - 1) array of Bloch vectors, got shape {xis.shape}")
    N = dim_from_bloch(xis.shape[1])
    lam = gell_mann_basis(N).elements
    # A row whose powers overflow or turn NaN is judged by its values, as
    # check_state_bloch judges it, but without a RuntimeWarning.
    with np.errstate(all="ignore"):
        rhos = np.eye(N, dtype=complex) / N + bloch_scale(N) * np.einsum("bi,ijk->bjk", xis, lam)
        T, errors = _trace_invariants_stack(rhos)
        verdicts = _classify_stack(T, tol)
    return [errors.get(b, verdict) for b, verdict in enumerate(verdicts)]


def check_states(rhos: np.ndarray, tol: float = POSITIVITY_TOL) -> list:
    """check_state_bloch(to_bloch(rho), tol) for every matrix of a
    (B, N, N) stack, as check_states_bloch does it for Bloch rows: a list
    of B verdicts, or for a matrix either step rejects, its ValueError.
    A stack that is not (B, N, N) with N >= 2 raises.
    """
    with np.errstate(all="ignore"):
        xis, errors = _to_bloch_stack(rhos)
    keep = [b for b in range(len(xis)) if b not in errors]
    results = dict(zip(keep, check_states_bloch(xis[keep], tol)))
    results.update(errors)
    return [results[b] for b in range(len(xis))]


def uniform_simplex(N: int, rng: np.random.Generator) -> np.ndarray:
    """A point of the probability simplex, uniform w.r.t. Lebesgue measure."""
    return rng.dirichlet(np.ones(N))


def haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal phases are normalized away, which is what
    makes the distribution left- and right-invariant.
    """
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian_unit_trace(N: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with trace 1, generically not a state.

    GUE-like bulk plus a trace correction; used as the agreement corpus
    for the positivity routes.
    """
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = (z + z.conj().T) / 2.0
    h += (1.0 - np.trace(h).real) / N * np.eye(N)
    return h


def sample_states(N: int, count: int, mode: str = "spectrum-haar", seed: int | None = None):
    """Draw `count` random density matrices of dimension N.

    mode="spectrum-haar": spectrum uniform on the simplex, conjugated by a
    Haar unitary.  mode="bloch-rejection": Bloch vectors uniform in the
    unit ball, kept only when the positivity test passes (practical for
    small N only; the acceptance fraction collapses as N grows).

    Fixed seed gives bit-identical output across runs.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    out = np.empty((count, N, N), dtype=complex)

    if mode == "spectrum-haar":
        for i in range(count):
            spec = uniform_simplex(N, rng)
            u = haar_unitary(N, rng)
            out[i] = (u * spec) @ u.conj().T
        return out

    if mode == "bloch-rejection":
        n = N * N - 1
        for i in range(count):
            for _ in range(REJECTION_MAX_TRIES):
                direction = rng.standard_normal(n)
                direction /= np.linalg.norm(direction)
                xi = direction * rng.random() ** (1.0 / n)
                if check_state_bloch(xi).is_state:
                    out[i] = from_bloch(xi)
                    break
            else:
                raise RuntimeError(
                    f"rejection sampler found no state in {REJECTION_MAX_TRIES} tries at N={N}"
                )
        return out

    raise ValueError(f"unknown sampling mode {mode!r}")
