"""Bloch embedding and positivity certificates for qudit states.

A unit-trace Hermitian matrix is written rho = I/N + sqrt((N-1)/(2N))
sum_i xi_i lam_i over the generalized Gell-Mann basis; the state space is
carved out of the Bloch ball |xi| <= 1 by the polynomial conditions
S_k(xi) >= 0 on the characteristic coefficients.  Verdicts are reached
along two routes that must agree, neither of which diagonalizes anything:

* the S_k signs computed from the Bloch vector (check_state_bloch), and
* the S_k signs plus the Procesi-Schwarz certificate, a positive
  semidefinite Bezoutian tested by Cholesky, computed from a bare trace
  tuple (check_state_traces).

Both are thin front ends on one classification core (_classify), which
takes S_k >= 0 (and, on the trace route, B >= 0) to a verdict and reads
the rank off the S_k, each by one rule (_s_test, _rank_from_ratios).  It
reads one matrix's S_1..S_N and t_1..t_N as lists of Python floats: the
trace route's, held by its tuple, and the Bloch route's, carried from
the power loop through the screen and the Newton recursion with no tuple
and no array between.  The
stratum is a function of the verdict and the rank alone (_stratum), as
the paper stratifies the state space by rank: "pure" at rank 1,
"interior" at full rank and "boundary-rank-k" in between; no margin
enters it, and orbit_space.rank_strata labels by the same rule.  S_k
that leave the float64 range are refused, naming the lowest k, so no
verdict is read off an infinite or NaN coefficient.

Many inputs at once go through the stack entry points check_states_bloch
(a (B, N^2 - 1) array of Bloch rows) and check_states (a (B, N, N) stack
of matrices), thin adaptors over one stacked core (_stack_columns).  It
runs the single route's own kernels over a leading axis (the Bloch map
and its projection, the power traces, the Newton recursion, and the S_k
test with the rank rule) and returns the verdicts as columns: is_state,
rank and margin, plus the ValueError of each row that has one.  The
Bloch map and its projection are real einsums against the basis as an
(N^2 - 1, N, 2N) table of (re, im) pairs (a view of its elements, kept
with the map's scale and centre in one table per N, _bloch_tables), which
keep the bits of the complex products with the generators and skip the
projection's imaginary half.  Each trace, of a power or of an input
matrix for the unit-trace gate, is invariants._trace, summed off the
diagonal left to right; that sum, the recursion (invariants._newton, run
on the stack's columns), the rank rule and the margin make only
elementwise IEEE operations, in one order, on Python numbers for one
input and on columns for a stack, so each verdict equals
check_state_bloch's bit for bit on any numpy build, traces included, by
construction.  The core makes no per-row input check of its own: it
flags the rows whose traces the _screened trace screen refuses or whose
S_k leave float64, and the matrices that to_bloch would reject, and
hands each to the single-input route, which returns its verdict or
raises its ValueError; so each check, its message and its order live in
one place, and every matrix meets the one Hermiticity gate of
invariants, max |rho - rho^dag| <= HERMITIAN_TOL.  The path follows the
shape of the input, not an option: a one-row stack took about 3.5x the
time of one check_state_bloch call at N = 2..8, and a 400-row stack
about a tenth of the single calls per row.  So single inputs,
`quditorbits check --xi` among them, keep the single route, and batch
`quditorbits check` hands each group of records of one kind and one N to
the core and formats its output lines from the columns.

An in-repo cyclic Jacobi eigensolver (jacobi_eigh, eig_oracle) that never
calls an external diagonalization routine is kept as an independent
oracle for tests and demos; no verdict consults it.

Also provides two state samplers (rejection in the Bloch ball, and
uniform simplex spectra conjugated by Haar unitaries), deterministic
under a fixed seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .invariants import (
    _EPS,
    HERMITIAN_TOL,
    TraceInvariants,
    _backward_dot,
    _finite_coefficients,
    _hermitian_defect,
    _newton,
    _power_traces,
    _require_hermitian,
    _screened,
    _trace,
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

    stratum is read off is_state and rank alone: "pure" at rank 1,
    "interior" at full rank N and "boundary-rank-k" otherwise for valid
    states, and None for the rest.  margin is the smallest characteristic
    coefficient, always finite; no stratum reads it.
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


@functools.cache
def _bloch_tables(N: int) -> tuple:
    """The tables of the Bloch map and its projection at N, built once:
    the basis as an (N^2 - 1, N, 2N) real view of (re, im) pairs,
    bloch_scale(N), its double (the projection's divisor) and I/N, the
    centre of the embedding, as a complex N x N array.  The arrays are
    read-only."""
    centre = np.eye(N, dtype=complex) / N
    centre.flags.writeable = False
    scale = bloch_scale(N)
    return gell_mann_basis(N).elements.view(float), scale, 2.0 * scale, centre


@np.errstate(over="ignore", invalid="ignore")
def from_bloch(xi: np.ndarray) -> np.ndarray:
    """Assemble rho = I/N + sqrt((N-1)/(2N)) sum_i xi_i lam_i.

    The result is Hermitian, with unit trace up to the rounding of its
    entries, for any finite real xi whose matrix stays within float64;
    positivity is a separate question answered by the check functions.  A
    NaN or infinite component raises, naming it, and so does, without a
    RuntimeWarning, a finite xi whose matrix leaves the float64 range.
    """
    xi = np.asarray(xi, dtype=float)
    N = dim_from_bloch(xi)
    rho = _bloch_map(xi, N)
    if not np.isfinite(rho).all():  # as is every entry for a non-finite xi
        if not np.isfinite(xi).all():
            i = int(np.isfinite(xi).argmin())
            raise ValueError(f"Bloch component xi_{i + 1} = {xi[i]} is not finite")
        raise ValueError("the matrix of the Bloch vector leaves the float64 range")
    return rho


def _bloch_map(xi: np.ndarray, N: int) -> np.ndarray:
    """from_bloch's map over the leading axes of a (..., N^2 - 1) array:
    sum_i xi_i lam_i formed as real (re, im) pairs, read back as complex."""
    lam, scale, _, centre = _bloch_tables(N)
    pairs = np.einsum("...i,ijk->...jk", xi, lam, order="C")
    return centre + scale * pairs.view(complex)


def _bloch_projection(rho: np.ndarray, N: int) -> np.ndarray:
    """to_bloch's projection over the leading axes of a (..., N, N) array:
    Re tr(lam_i rho) from rho's contiguous (re, im) pairs, without the
    imaginary half.  tr(lam_i rho) takes lam_i^T as (re, -im) pairs, which
    for a Hermitian lam_i are lam_i's own: the map's real table serves."""
    lam, _, divisor, _ = _bloch_tables(N)
    pairs = np.ascontiguousarray(rho).view(float)
    return np.einsum("ijk,...jk->...i", lam, pairs) / divisor


def to_bloch(rho: np.ndarray) -> np.ndarray:
    """Project a unit-trace Hermitian matrix onto its Bloch components.

    xi_i = tr(rho lam_i) / (2 sqrt((N-1)/(2N))), the inverse of from_bloch.
    An inf - inf on the diagonal, a NaN trace, is refused without a
    RuntimeWarning, as the trace is summed on Python complex numbers; the
    projection itself never warns.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    N = rho.shape[0]
    if N < 2:
        raise ValueError("need N >= 2")
    tr = _trace(rho)
    try:
        defect = abs(tr - 1.0)
    except OverflowError:  # |tr - 1| leaves float64
        defect = math.inf
    if not defect <= TRACE_TOL:  # not >, so that a NaN entry fails
        raise ValueError(f"matrix trace {tr} is not 1 within {TRACE_TOL}")
    _require_hermitian(rho)
    return _bloch_projection(rho, N)


def jacobi_eigh(a: np.ndarray):
    """Diagonalize a Hermitian matrix, or a stack of them, with cyclic complex
    Jacobi rotations.

    Each sweep annihilates every off-diagonal pair (p, q) in turn with a
    unitary plane rotation, computed and applied to every matrix of the
    stack at once; sweeps repeat until each matrix's off-diagonal Frobenius
    norm drops below JACOBI_TOL.  A matrix that has converged is left alone
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
        If the norm target is not met after JACOBI_MAX_SWEEPS sweeps.
    """
    A = np.array(a, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    single = A.ndim == 2
    if single:
        A = A[np.newaxis]
    n = A.shape[-1]
    _require_hermitian(A)
    V = np.tile(np.eye(n, dtype=complex), (A.shape[0], 1, 1))
    off_diagonal = ~np.eye(n, dtype=bool)

    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        active = np.flatnonzero(np.linalg.norm(A[:, off_diagonal], axis=1) >= JACOBI_TOL)
        if active.size == 0:
            w = np.real(np.diagonal(A, axis1=1, axis2=2)).copy()
            return (w[0], V[0]) if single else (w, V)
        if sweep == JACOBI_MAX_SWEEPS:
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
        f"Jacobi iteration failed to reach off-norm {JACOBI_TOL:.1e} in {JACOBI_MAX_SWEEPS} sweeps"
    )


def eig_oracle(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    The independent verification oracle for the positivity checks, used by
    tests and demos only: an in-repo Jacobi iteration, no external solver.
    """
    w, _ = jacobi_eigh(rho)
    return np.sort(w)[::-1]


def _rank_from_ratios(S: list, t: list, tol: float):
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

    S and t are lists of S_1..S_N and t_1..t_N, of floats for one tuple or
    of a stack's columns; the running AND `alive` ends each row's count.
    """
    absS = [1.0, *map(abs, S)]  # |S_0| .. |S_N|
    abst = [*map(abs, t)]
    rank, alive = 1, True
    for k in range(1, len(S)):
        alive = alive & (S[k] > tol * S[k - 1] + _EPS * _backward_dot(absS, abst, k, k + 1))
        if alive is False:
            break
        rank = rank + alive
    return rank


def _require_finite_tolerance(tol: float) -> None:
    """Raise unless the positivity tolerance is finite: a NaN or -inf tol
    fails every matrix, and +inf passes every one as pure."""
    if not math.isfinite(tol):
        raise ValueError(f"positivity tolerance {tol} is not finite")


def _s_test(S: list, t: list, tol: float) -> tuple:
    """The S_k test min_k S_k >= -tol and _rank_from_ratios' rank, for lists
    of S_1..S_N and t_1..t_N, of Python floats for one tuple or of a
    stack's columns: (passes, rank, margin), the margin being the smallest
    S_k.  Of equal S_k the margin is the last, as numpy's sequential
    minimum takes it, so a tie of 0.0 and -0.0 reads alike on both.  A NaN
    or infinite tol raises."""
    _require_finite_tolerance(tol)
    if isinstance(S[0], float):
        margin = min(reversed(S))
    else:
        margin = functools.reduce(lambda m, s: np.where(s < m, s, m), reversed(S))
    return margin >= -tol, _rank_from_ratios(S, t, tol), margin


def _stratum(is_state: bool, rank: int, N: int) -> str | None:
    """The stratum of a state of rank k in dimension N, read off the rank
    alone: None for a non-state, "pure" at rank 1, "interior" at full rank
    and otherwise "boundary-rank-k"."""
    if not is_state:
        return None
    if rank == 1:
        return "pure"
    if rank == N:
        return "interior"
    return f"boundary-rank-{rank}"


def _classify(S: list, t: list, N: int, tol: float, certificate=None) -> StateClassification:
    """The classification core behind both routes, from one matrix's
    characteristic coefficients S_1..S_N and traces t_1..t_N, as lists of
    Python floats, and its dimension N.

    A state passes the S_k test of _s_test, which also reads the rank, and,
    on the trace route, its certificate: a callable that tests the
    Bezoutian positive semidefinite, called only once the S_k pass.
    """
    passes, rank, margin = _s_test(S, t, tol)
    is_state = bool(passes) and (certificate is None or certificate())
    return StateClassification(is_state, rank, _stratum(is_state, rank, N), margin)


def check_state_bloch(xi: np.ndarray, tol: float = POSITIVITY_TOL) -> StateClassification:
    """Positivity test in Bloch coordinates: all S_k(xi) >= 0.

    A thin front end on _classify, the core shared with
    check_state_traces; no eigensolver is involved.  The matrix's traces
    go from the power loop to the verdict as Python floats, screened once,
    with no trace tuple and no array of t_k or S_k between.
    """
    rho = from_bloch(xi)
    N = rho.shape[0]
    t = _screened(*_power_traces(rho, N))  # from_bloch's rho is exactly Hermitian
    return _classify(_finite_coefficients(_newton(t)), t, N, tol)


def check_state_traces(t: TraceInvariants, tol: float = POSITIVITY_TOL) -> StateClassification:
    """Positivity test from a trace tuple alone.

    Requires t_1 = 1 within TRACE_TOL (raises otherwise), then demands
    S_k >= 0 for k = 1..N through _classify, the core shared with
    check_state_bloch, and the paper's Procesi-Schwarz certificate: the
    Bezoutian B_ij = t_{i+j-2} is positive semidefinite, so the t_k are
    the power sums of real roots.  B >= 0 is tested by a Cholesky
    factorisation of B + delta I, delta = 4 N eps max|B|, only for a tuple
    whose S_k pass; det B, which misses two pairs of complex roots from
    N = 4 on (0.3 +- 0.05i and 0.2 +- 0.05i), is left to discriminant.  S,
    B and the certificate are the tuple's own, formed once; a B whose
    extension leaves float64 is refused, not judged.  No matrix and no
    eigensolver are touched.
    """
    if not abs(t.t(1) - 1.0) <= TRACE_TOL:
        raise ValueError(f"t_1 = {t.t(1)} is not 1 within {TRACE_TOL}")
    return _classify(t._S, t._t[: t.dim], t.dim, tol, lambda: t._bezoutian_psd)


def _stack_columns(stack: np.ndarray, N: int, tol: float) -> tuple:
    """The stacked core of check_states_bloch and check_states, by columns.

    stack is a (B, N^2 - 1) float array of Bloch rows or a (B, N, N)
    complex stack of matrices, of validated shape; the path follows its
    shape.  The single route's kernels run over the leading axis (the
    projection of the matrices, the Bloch map, the power traces, the
    Newton recursion and _s_test).  Returns is_state, rank and margin as
    lists of B Python bools, ints and floats, and a dict from row index to
    the ValueError of each row that has no verdict (its column entries
    then mean nothing).  A row whose traces the _screened trace screen
    refuses (a non-finite xi among them), or whose S_N, and so some S_k,
    leaves float64, is judged by check_state_bloch, and a matrix that
    to_bloch would reject by check_state_bloch(to_bloch(rho)); their
    fields are written into the columns.  A matrix stack with N < 2 raises.
    """
    matrices = stack.ndim == 3
    if matrices and N < 2:
        raise ValueError("need N >= 2")
    # the rows that check_state_bloch refuses may overflow on the way; the
    # stacked pass flags them without a RuntimeWarning
    with np.errstate(all="ignore"):
        xis = _bloch_projection(stack, N) if matrices else stack
        tk, refused = _power_traces(_bloch_map(xis, N), N)
        t = list(tk.real)
        S = _newton(t)
        is_state, rank, margin = (c.tolist() for c in _s_test(S, t, tol))
        # a non-finite xi makes its t_k, and so its S_k, non-finite too; S_N
        # is finite only if every S_k is, as _finite_coefficients reads it
        rejected = refused.any(axis=0) | ~np.isfinite(S[-1])
        flagged = {b: xis[b] for b in np.flatnonzero(rejected).tolist()}
        if matrices:
            tr = _trace(stack)
            # negated <= so that a NaN trace or defect flags its matrix too
            ok = (np.abs(tr - 1.0) <= TRACE_TOL) & (_hermitian_defect(stack) <= HERMITIAN_TOL)
            flagged.update((b, stack[b]) for b in np.flatnonzero(~ok).tolist())
        errors = {}
        for b, row in flagged.items():
            try:
                v = check_state_bloch(row if row.ndim == 1 else to_bloch(row), tol)
            except ValueError as exc:
                errors[b] = exc
            else:
                # reached only if a numpy build gives a flagged row other bits
                # on the stacked path than on the single one: the single
                # route's verdict is the row's
                is_state[b], rank[b], margin[b] = v.is_state, v.rank, v.margin
    return is_state, rank, margin, errors


def _verdicts(N: int, is_state: list, rank: list, margin: list, errors: dict) -> list:
    """_stack_columns' columns as the list of the stack entry points."""
    return [
        errors[b] if b in errors else StateClassification(s, r, _stratum(s, r, N), m)
        for b, (s, r, m) in enumerate(zip(is_state, rank, margin))
    ]


def check_states_bloch(xis: np.ndarray, tol: float = POSITIVITY_TOL) -> list:
    """check_state_bloch for every row of a (B, N^2 - 1) array, in one
    stacked pass: the Bloch map, power traces, Newton recursion, S_k test
    and rank rule of the single route, run over the leading axis.

    Returns a list of B entries: the row's StateClassification, equal
    field for field to check_state_bloch(row, tol), or, for a row that
    check_state_bloch rejects, the ValueError it raises.  A row whose
    traces the _screened trace screen refuses, or whose S_k leave
    float64, is judged by check_state_bloch itself.  One bad row does not
    stop the others.  An array that is not (B, N^2 - 1) raises.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2:
        raise ValueError(f"expected a (B, N^2 - 1) array of Bloch vectors, got shape {xis.shape}")
    N = dim_from_bloch(xis.shape[1])
    return _verdicts(N, *_stack_columns(xis, N, tol))


def check_states(rhos: np.ndarray, tol: float = POSITIVITY_TOL) -> list:
    """check_state_bloch(to_bloch(rho), tol) for every matrix of a
    (B, N, N) stack, as check_states_bloch does it for Bloch rows: a list
    of B verdicts, or for a matrix either step rejects, its ValueError.
    A matrix that to_bloch would reject is judged by that very call.  A
    stack that is not (B, N, N) with N >= 2 raises.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {rhos.shape}")
    N = rhos.shape[-1]
    return _verdicts(N, *_stack_columns(rhos, N, tol))


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
