"""Tests for Bloch embedding, the Jacobi eigensolver, state checks and
samplers."""

import importlib.util
import itertools
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import quditorbits.invariants as invariants
import quditorbits.state_space as state_space
from quditorbits.invariants import (
    TraceInvariants,
    _newton,
    _power_traces,
    _screened,
    bezoutian,
    char_coefficients,
    discriminant,
    newton_extend,
    trace_invariants,
)
from quditorbits.state_space import (
    POSITIVITY_TOL,
    StateClassification,
    bloch_scale,
    check_state_bloch,
    check_state_traces,
    check_states,
    check_states_bloch,
    dim_from_bloch,
    eig_oracle,
    from_bloch,
    haar_unitary,
    jacobi_eigh,
    random_hermitian_unit_trace,
    sample_states,
    to_bloch,
    uniform_simplex,
)
from quditorbits.su_algebra import gell_mann_basis

ROUND_TRIP_TOL = 1e-10
EIG_TOL = 1e-9


def test_bloch_scale_values():
    assert bloch_scale(2) == pytest.approx(0.5, abs=1e-15)
    assert bloch_scale(3) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)


def test_dim_from_bloch():
    assert dim_from_bloch(3) == 2
    assert dim_from_bloch(8) == 3
    assert dim_from_bloch(15) == 4
    with pytest.raises(ValueError):
        dim_from_bloch(7)


def test_qubit_pole_is_projector():
    # xi = (0, 0, 1) must embed to diag(1, 0)
    rho = from_bloch(np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(rho - np.diag([1.0, 0.0]).astype(complex))) < 1e-15
    xi = to_bloch(np.diag([1.0, 0.0]).astype(complex))
    assert np.max(np.abs(xi - np.array([0.0, 0.0, 1.0]))) < 1e-15


def test_bloch_round_trip_all_dims():
    rng = np.random.default_rng(21)
    for N in range(2, 9):
        for _ in range(20):
            xi = rng.normal(size=N * N - 1)
            xi /= np.linalg.norm(xi) / rng.uniform(0.0, 1.0)
            rho = from_bloch(xi)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.max(np.abs(to_bloch(rho) - xi)) < ROUND_TRIP_TOL


def test_matrix_round_trip_all_dims():
    for N in range(2, 9):
        for rho in sample_states(N, 20, seed=300 + N):
            back = from_bloch(to_bloch(rho))
            assert np.max(np.abs(back - rho)) < ROUND_TRIP_TOL


def test_pure_state_bloch_norm_is_one():
    for N in (2, 3, 4, 5):
        v = np.zeros(N, dtype=complex)
        v[0] = 1.0
        u = haar_unitary(N, np.random.default_rng(N)) @ v
        rho = np.outer(u, u.conj())
        assert np.linalg.norm(to_bloch(rho)) == pytest.approx(1.0, abs=1e-12)


def test_to_bloch_rejects_bad_input():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        to_bloch(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="need N >= 2"):
        to_bloch(np.ones((1, 1)))
    with pytest.raises(ValueError):
        to_bloch(np.diag([1.0, 1.0]).astype(complex))  # trace 2
    with pytest.raises(ValueError):
        to_bloch(np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex))  # not Hermitian
    # a NaN trace or defect fails the check as one beyond the tolerance does
    with pytest.raises(ValueError, match=r"trace \(nan\+0j\)"):
        to_bloch(np.diag([np.nan, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="defect nan"):
        to_bloch(np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex))
    # inf - inf on the diagonal is a NaN trace, refused without a RuntimeWarning
    with pytest.raises(ValueError, match=r"trace \(nan\+0j\)"):
        to_bloch(np.diag([np.inf, -np.inf]))
    # finite parts whose |tr - 1| leaves float64: refused, not an OverflowError,
    # alone and in a stack
    huge = np.diag([1.7e308 + 1.7e308j, 0.0])
    message = r"^matrix trace \(1\.7e\+308\+1\.7e\+308j\) is not 1 within 1e-10$"
    with pytest.raises(ValueError, match=message):
        to_bloch(huge)
    [refused] = check_states(huge[np.newaxis])
    assert re.match(message, str(refused))


def test_from_bloch_names_a_non_finite_component():
    for bad, name in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")):
        xi = np.zeros(8)
        xi[5] = bad
        with pytest.raises(ValueError, match=f"xi_6 = {name} is not finite"):
            from_bloch(xi)
        with pytest.raises(ValueError, match=f"xi_6 = {name} is not finite"):
            check_state_bloch(xi)
    from_bloch(np.full(8, 1e300))  # finite, however large
    # but a finite xi whose matrix overflows is refused, on every path, and
    # without a RuntimeWarning: rho_11 = 1/3 + (xi_3 + xi_8 / sqrt 3) / sqrt 3
    xi = np.zeros(8)
    xi[2] = xi[7] = 1.7e308
    message = "the matrix of the Bloch vector leaves the float64 range"
    for check in (from_bloch, check_state_bloch):
        with pytest.raises(ValueError, match=message):
            check(xi)
    assert str(check_states_bloch(xi[np.newaxis])[0]) == message


def test_jacobi_qubit_closed_form():
    a = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.5]])
    w, V = jacobi_eigh(a)
    m = 0.25  # (a11 + a22) / 2
    d = math.sqrt(0.75 ** 2 + abs(0.5 - 0.25j) ** 2)
    assert np.max(np.abs(np.sort(w) - np.array([m - d, m + d]))) < 1e-12
    assert np.max(np.abs((V * w) @ V.conj().T - a)) < 1e-12


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(22)
    for N in (2, 3, 4, 5, 8):
        for _ in range(10):
            z = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            a = (z + z.conj().T) / 2.0
            w, V = jacobi_eigh(a)
            assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(a))) < EIG_TOL
            assert np.max(np.abs(V.conj().T @ V - np.eye(N))) < 1e-12
            assert np.max(np.abs((V * w) @ V.conj().T - a)) < EIG_TOL


def test_jacobi_recovers_planted_spectrum():
    rng = np.random.default_rng(23)
    planted = np.array([0.4, 0.3, 0.2, 0.1])
    u = haar_unitary(4, rng)
    a = (u * planted) @ u.conj().T
    w, _ = jacobi_eigh(a)
    assert np.max(np.abs(np.sort(w)[::-1] - planted)) < 1e-12


def test_jacobi_diagonal_input():
    w, V = jacobi_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.max(np.abs(np.sort(w) - np.array([1.0, 2.0, 3.0]))) == 0.0
    assert np.max(np.abs(V - np.eye(3))) == 0.0


def test_jacobi_sweep_budget(monkeypatch):
    rng = np.random.default_rng(24)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (z + z.conj().T) / 2.0
    monkeypatch.setattr(state_space, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(RuntimeError):
        jacobi_eigh(a)
    diagonal = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    with pytest.raises(RuntimeError):
        jacobi_eigh(np.stack([diagonal, a]))


def test_jacobi_stack_matches_single_calls_and_lapack():
    rng = np.random.default_rng(32)
    for N in (2, 3, 5):
        z = rng.normal(size=(12, N, N)) + 1j * rng.normal(size=(12, N, N))
        stack = (z + z.conj().swapaxes(1, 2)) / 2.0
        stack[0] = np.diag(np.arange(N, dtype=float))
        # a denormal off-diagonal pair must not turn the phase into NaN
        stack[1, 0, 1] = 5e-324 * (1.0 + 1.0j)
        stack[1, 1, 0] = np.conj(stack[1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, V = jacobi_eigh(stack)
        assert w.shape == (12, N) and V.shape == (12, N, N)
        for a, wa, Va, ref in zip(stack, w, V, np.linalg.eigvalsh(stack)):
            single, _ = jacobi_eigh(a)
            assert np.max(np.abs(np.sort(wa) - np.sort(single))) < 1e-12
            assert np.max(np.abs(np.sort(wa) - ref)) < 1e-12
            assert np.max(np.abs((Va * wa) @ Va.conj().T - a)) < EIG_TOL


def test_jacobi_stack_rejects_non_hermitian_member():
    stack = sample_states(3, 4, seed=33)
    stack[2, 0, 1] += 1e-6
    with pytest.raises(ValueError):
        jacobi_eigh(stack)
    # a NaN entry fails the check as a defect beyond the tolerance does
    stack[2] = np.diag([np.nan, 0.5, 0.5])
    # so does an infinite one, whose inf - inf raises no RuntimeWarning
    for bad in (stack, stack[2], np.diag([np.inf, 0.5])):
        with pytest.raises(ValueError, match="matrix is not Hermitian: defect nan"):
            jacobi_eigh(bad)
    # neither one square matrix nor a stack of them
    for shape in ((3,), (2, 3), (2, 3, 4), (1, 2, 2, 2)):
        with pytest.raises(ValueError, match="square matrix or a stack of them"):
            jacobi_eigh(np.zeros(shape))


def test_one_hermiticity_tolerance_on_every_route():
    # a defect of 3e-11, within the one tolerance, is judged alike by the
    # Bloch route, the trace route and the stacked check
    rho = sample_states(3, 1, seed=11)[0]
    rho[0, 1] += 3e-11
    bloch = check_state_bloch(to_bloch(rho))
    traces = check_state_traces(trace_invariants(rho))
    (stacked,) = check_states(rho[np.newaxis])
    for v in (bloch, traces, stacked):
        assert (v.is_state, v.rank, v.stratum) == (True, 3, "interior")
    # and a defect beyond it is refused by all three with one message
    rho[0, 1] += 1e-10
    message = "matrix is not Hermitian: defect 1.300e-10"
    for route in (to_bloch, trace_invariants):
        with pytest.raises(ValueError, match=message):
            route(rho)
    assert str(check_states(rho[np.newaxis])[0]) == message


def test_eig_oracle_sorted_descending():
    rho = sample_states(4, 1, seed=25)[0]
    w = eig_oracle(rho)
    assert np.all(np.diff(w) <= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_check_maximally_mixed():
    # I/N is interior on every route and at every N: the stratum reads the
    # rank alone, not the margin, which falls below POSITIVITY_TOL at N = 10
    for N in range(2, 13):
        centre = np.eye(N, dtype=complex) / N
        verdicts = [
            check_state_bloch(np.zeros(N * N - 1)),
            check_states(centre[np.newaxis])[0],
            check_state_traces(trace_invariants(centre)),
        ]
        for v in verdicts:
            assert (v.is_state, v.rank, v.stratum) == (True, N, "interior"), (N, v)
            # margin is the smallest coefficient S_N = det(I/N) = N^-N
            assert v.margin == pytest.approx(float(N) ** (-N), rel=1e-9)


@pytest.mark.parametrize("N", range(2, 13))
def test_full_rank_states_are_interior(N):
    states = sample_states(N, 50, seed=800 + N)
    full_rank = states[np.linalg.eigvalsh(states)[:, 0] > 1e-6]
    assert len(full_rank) > 0
    for rho, stacked in zip(full_rank, check_states(full_rank)):
        for v in (check_state_bloch(to_bloch(rho)), stacked, check_state_traces(trace_invariants(rho))):
            assert v.stratum == "interior", (N, v)


def test_no_verdict_reads_boundary_rank_n():
    # a rank-N state is interior, whatever its margin: on the benchmark's
    # route corpus no route labels one boundary-rank-N
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for N, (matrices, _) in inputs.route_corpus(0, (2, 3, 5, 8), 250).items():
        verdicts = check_states(matrices) + [
            v
            for rho in matrices
            for v in (check_state_bloch(to_bloch(rho)), check_state_traces(trace_invariants(rho)))
        ]
        assert all(isinstance(v, StateClassification) for v in verdicts)
        assert f"boundary-rank-{N}" not in {v.stratum for v in verdicts}


def test_check_pure_state():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    v = check_state_bloch(to_bloch(rho))
    assert v.is_state
    assert v.rank == 1
    assert v.stratum == "pure"


def test_check_outside_ball():
    xi = np.zeros(8)
    xi[2] = 1.2
    v = check_state_bloch(xi)
    assert not v.is_state
    assert v.stratum is None
    assert v.margin < 0.0


def test_check_traces_route_agrees():
    for N in range(2, 9):
        for rho in sample_states(N, 50, seed=400 + N):
            vb = check_state_bloch(to_bloch(rho))
            vt = check_state_traces(trace_invariants(rho))
            assert (vb.is_state, vb.rank, vb.stratum) == (vt.is_state, vt.rank, vt.stratum)


def test_characteristic_coefficients_leaving_float64_are_refused():
    # diag(a, -a, a, -a) + I/4 with a^4 = 2.5e307: every t_k is finite
    # (t_4 = 4 a^4 = 1e308), but S_2 t_2 = -8 a^4 overflows in S_4.  Each
    # route refuses it with one message, and without a RuntimeWarning.
    a = 2.5e307**0.25
    xi = state_space._bloch_projection(np.diag([a, -a, a, -a]).astype(complex), 4)
    t = TraceInvariants(dim=4, values=[1.0, 4 * a**2, 3 * a**2, 4 * a**4])
    assert np.isfinite(trace_invariants(from_bloch(xi)).values).all()
    message = "characteristic coefficient S_4 leaves the float64 range"
    for check in (
        lambda: check_state_bloch(xi),
        lambda: check_state_traces(t),
        lambda: char_coefficients(t),
    ):
        with pytest.raises(ValueError, match=message):
            check()
    assert str(check_states_bloch(xi[np.newaxis])[0]) == message


@pytest.mark.parametrize("N", (3, 4, 5))
def test_non_finite_trace_is_named_not_a_coefficient(N):
    # S_k is NaN or infinite because t_k is, though nothing left the float64
    # range: each entry point names the lowest non-finite t_k.  discriminant
    # forms S, and so screens t, from N = 3 on, where B reads past t_N.
    for value in (np.nan, np.inf, -np.inf):
        for k in range(1, N + 1):
            values = [1.0, 0.4, 0.1, 0.03, 0.01][:N]
            values[k - 1 :] = [value] + [-value] * (N - k)
            message = re.escape(f"t_{k} = {value}")
            for check in (check_state_traces, char_coefficients, discriminant):
                with pytest.raises(ValueError, match=message):
                    check(TraceInvariants(dim=N, values=values))


def test_checks_reach_no_eigensolver(monkeypatch):
    matrices = [rho for N in (2, 3, 5) for rho in sample_states(N, 5, seed=600 + N)]
    matrices.append(np.diag([0.5, 0.5, 0.0]).astype(complex))
    matrices.append(np.diag([0.6, 0.5, -0.1]).astype(complex))

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    monkeypatch.setattr(state_space, "jacobi_eigh", refuse)
    monkeypatch.setattr(state_space, "eig_oracle", refuse)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for rho in matrices:
        state_space.check_state_bloch(to_bloch(rho))
        state_space.check_state_traces(trace_invariants(rho))
    for N in (2, 3, 5):
        state_space.check_states(np.array([rho for rho in matrices if len(rho) == N]))


def test_no_verdict_reaches_a_blas_dot(monkeypatch):
    # S_k, the Newton extension and the rank rule are plain multiplies and
    # adds: a BLAS dot may fuse them, and the single and stacked paths
    # would then round apart
    corpora = {N: _route_style_corpus(N, 8, np.random.default_rng(1200 + N)) for N in range(2, 9)}

    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS dot was called")

    monkeypatch.setattr(np, "vecdot", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    for N, matrices in corpora.items():
        xis = np.array([to_bloch(rho) for rho in matrices])
        for rho, xi in zip(matrices, xis):
            check_state_bloch(xi)
            t = trace_invariants(rho)
            check_state_traces(t)
            newton_extend(t, 3 * N)
        check_states(matrices)
        check_states_bloch(xis)


@pytest.mark.parametrize("N", range(2, 25))
def test_newton_recursion_is_within_its_rounding_of_exact_arithmetic(N):
    # the same recursion in rational arithmetic on the same float t_k: each
    # float S_k lies within eps k sum_i |S_{k-i} t_i| of the exact one
    rng = np.random.default_rng(1300 + N)
    haar = sample_states(N, 4, seed=1300 + N)
    matrices = np.concatenate([haar, _route_style_corpus(N, 8, rng)])
    eps = Fraction(np.finfo(float).eps)
    for rho in matrices:
        traces = trace_invariants(rho)
        t = [Fraction(x) for x in traces.values.tolist()]
        S = [Fraction(1)] + [Fraction(x) for x in char_coefficients(traces).tolist()]
        exact = [Fraction(1)]
        for k in range(1, N + 1):
            terms = [(-1) ** (i - 1) * exact[k - i] * t[i - 1] for i in range(1, k + 1)]
            exact.append(sum(terms) / k)
            bound = eps * k * sum(abs(S[k - i] * t[i - 1]) for i in range(1, k + 1))
            assert abs(S[k] - exact[k]) <= bound, (N, k, float(S[k]), float(exact[k]))


def test_zero_coefficients_keep_their_sign_bit_on_both_paths():
    # the single and stacked recursions start each sum from its first
    # product, so an S_k of -0.0 or +0.0 keeps its sign on both
    zeros = [-0.0, 0.0, 1.0, -1.0]
    T = np.array([[a, b, c] for a in zeros for b in zeros for c in zeros])
    S = np.array(_newton(list(T.T))).T
    assert np.signbit(S[S == 0]).any() and not np.signbit(S[S == 0]).all()
    for row, S_row in zip(T, S):
        assert char_coefficients(TraceInvariants(dim=3, values=row)).tobytes() == S_row.tobytes()
    # the qubit poles are pure, S_2 = 0: margins of exactly zero
    mixed = [to_bloch(rho) for rho in sample_states(2, 4, seed=5)]
    xis = np.vstack([np.eye(3), -np.eye(3), -0.0 * np.eye(3), mixed])
    margins = [check_state_bloch(xi).margin for xi in xis]
    assert margins.count(0.0) >= 6
    stacked = [v.margin for v in check_states_bloch(xis)]
    assert np.array(margins).tobytes() == np.array(stacked).tobytes()


@pytest.mark.parametrize("N", [3, 4, 5])
def test_rank_with_eigenvalues_near_1e_5(N):
    # A product of small nonzero eigenvalues is no zero eigenvalue:
    # diag(0.6 - 2e-5, 0.4, 1e-5, 1e-5) has rank 4.
    rng = np.random.default_rng(40 + N)
    for small in ([1e-5], [1e-5, 1e-5], [2e-5, 1e-5]):
        for zeros in range(N - len(small)):
            large = np.arange(N - len(small) - zeros, 0, -1, dtype=float)
            large *= (1.0 - sum(small)) / large.sum()
            spectrum = np.concatenate([large, small, np.zeros(zeros)])
            for _ in range(5):
                u = haar_unitary(N, rng)
                rho = (u * spectrum) @ u.conj().T
                oracle_rank = int(np.sum(eig_oracle(rho) > POSITIVITY_TOL))
                assert oracle_rank == N - zeros
                vb = check_state_bloch(to_bloch(rho))
                vt = check_state_traces(trace_invariants(rho))
                assert vb.rank == vt.rank == oracle_rank, (spectrum, vb, vt)


def _route_style_corpus(N, count, rng):
    """Gaussian non-states, Haar states, rank-deficient states (some with a
    doubled eigenvalue) and those states nudged off the boundary."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            out.append(random_hermitian_unit_trace(N, rng))
            continue
        spectrum = uniform_simplex(N, rng)
        if kind >= 2:
            spectrum[rng.integers(1, N) :] = 0.0
            if k % 8 == 2:
                spectrum[0] = spectrum[1] = spectrum[:2].mean()
            spectrum /= spectrum.sum()
        u = haar_unitary(N, rng)
        rho = (u * spectrum) @ u.conj().T
        if kind == 3:
            h = random_hermitian_unit_trace(N, rng) - np.eye(N) / N
            rho = rho + 1e-5 * h / np.linalg.norm(h)
        out.append((rho + rho.conj().T) / 2.0)
    return np.array(out)


def _same_verdict(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    # margins are finite: S_k that leave float64 are refused on both paths
    return (a.is_state, a.rank, a.stratum, a.margin) == (b.is_state, b.rank, b.stratum, b.margin)


def _scalar(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("N", range(2, 9))
def test_stacked_check_equals_scalar_check(N):
    rng = np.random.default_rng(700 + N)
    matrices = _route_style_corpus(N, 120, rng)
    n = N * N - 1
    xis = np.vstack(
        [
            np.array([to_bloch(rho) for rho in matrices]),
            np.zeros(n),
            np.full(n, np.nan),
            np.full(n, np.inf),
            np.full(n, 1e300),
            1e100 * rng.normal(size=(4, n)),
        ]
    )
    for tol in (POSITIVITY_TOL, 1e-6, -1e-3):
        stacked = check_states_bloch(xis, tol)
        assert len(stacked) == len(xis)
        for xi, verdict in zip(xis, stacked):
            assert _same_verdict(_scalar(check_state_bloch, xi, tol), verdict), (xi, verdict)
        # non-finite rows are refused, naming a component; huge finite ones
        # are judged while their power traces stay finite (t_4 ~ 1e400 does
        # not), and otherwise refused, naming the power
        assert "xi_1 = nan is not finite" in str(stacked[121])
        assert "xi_1 = inf is not finite" in str(stacked[122])
        assert "trace of power 2 leaves the float64 range" in str(stacked[123])
        if N <= 3:
            assert all(isinstance(v, StateClassification) for v in stacked[124:])
        else:
            assert all("trace of power 4 leaves the float64 range" in str(v) for v in stacked[124:])

    # matrices: the same through to_bloch, with rejected members in place
    bad = matrices.copy()
    bad[1, 0, 1] += 1e-9  # not Hermitian
    bad[2, 0, 0] += 1e-9  # trace off 1
    bad[3] = np.nan
    bad[4, 0, 0] += 1e-9  # trace off 1 and not Hermitian: the trace check fires first
    bad[4, 0, 1] += 1e-9
    bad[5, 0, 1] += 5e-11  # a Hermiticity defect to_bloch tolerates
    verdicts = check_states(bad)
    for verdict, rho in zip(verdicts, bad):
        expected = _scalar(lambda m: check_state_bloch(to_bloch(m)), rho)
        assert _same_verdict(expected, verdict), (rho, verdict)
    assert "is not Hermitian" in str(verdicts[1])
    assert "matrix trace" in str(verdicts[2]) and "matrix trace" in str(verdicts[4])
    assert "matrix trace (nan+0j)" in str(verdicts[3])
    assert isinstance(verdicts[5], StateClassification)

    # on matrices Hermitian within HERMITIAN_TOL, the stacked traces flag
    # exactly the ones trace_invariants rejects: those with a trace residue,
    # which the diagonal's 4e-11j per entry gives t_1 from N = 3 on
    residue = np.diag([1 / N + 4e-11j] * N)  # the residue case of test_invariants at N = 3
    skew = matrices[0].copy()
    skew[0, 1] += 5e-11
    traced = np.vstack([sample_states(N, 4, seed=N), skew[np.newaxis], residue[np.newaxis]])
    rejected = _power_traces(traced, N)[1].any(axis=0)
    raises = [isinstance(_scalar(trace_invariants, rho), ValueError) for rho in traced]
    assert rejected.tolist() == raises
    assert rejected[5] == (N >= 3) and not rejected[:4].any()

    T = np.array([trace_invariants(rho).values for rho in matrices])
    S = np.array(_newton(list(T.T))).T
    for t_row, S_row, rho in zip(T, S, matrices):
        t = trace_invariants(rho)
        assert np.array_equal(S_row, char_coefficients(t))
        check_state_traces(t)  # forms the tuple's S and Bezoutian
        assert discriminant(t) == discriminant(TraceInvariants(dim=N, values=t_row))


@pytest.mark.parametrize("N", (2, 5, 8, 12))
def test_stacked_kernels_ignore_input_layout(N):
    # The Newton kernel and the rank rule make only elementwise IEEE
    # multiplies and adds, which round alike on any stride, so a row's
    # result may not depend on the layout of the array it sits in; nor may
    # the Bloch map's, the projection's or the power traces', which read
    # their input in one order whatever its layout, and equal, bit for bit,
    # those of the row or matrix by itself.
    matrices = _route_style_corpus(N, 200, np.random.default_rng(1000 + N))
    T = np.array([trace_invariants(rho).values for rho in matrices])
    S = np.array([_newton(row.tolist()) for row in T])

    def layouts(a):
        return {
            "C": np.ascontiguousarray(a),
            "Fortran": np.asfortranarray(a),
            "transposed view": np.ascontiguousarray(a.T).T,
            "strided view": np.stack([a, -a], axis=-1)[..., 0],
        }

    xis = np.array([to_bloch(rho) for rho in matrices])
    maps = [state_space._bloch_map(xi, N).tobytes() for xi in xis]
    projections = [state_space._bloch_projection(rho, N).tobytes() for rho in matrices]
    traces = [_power_traces(rho, N) for rho in matrices]
    traces = [(np.array(tk).tobytes(), refused) for tk, refused in traces]
    for name, xi_in in layouts(xis).items():
        assert [m.tobytes() for m in state_space._bloch_map(xi_in, N)] == maps, name
    for name, rho_in in layouts(matrices).items():
        assert [x.tobytes() for x in state_space._bloch_projection(rho_in, N)] == projections, name
        tk, refused = _power_traces(rho_in, N)
        assert [(t.tobytes(), r) for t, r in zip(tk.T, refused.T.tolist())] == traces, name

    for (name, T_in), S_in in zip(layouts(T).items(), layouts(S).values()):
        assert np.array_equal(np.array(_newton(list(T_in.T))).T, S), name
        for tol in (POSITIVITY_TOL, 0.0, 1e-3):
            # the rule on each tuple's floats and on the stack's columns
            rule = state_space._rank_from_ratios
            rows = [rule(s.tolist(), t.tolist(), tol) for s, t in zip(S, T)]
            assert rule(list(S_in.T), list(T_in.T), tol).tolist() == rows, name
            assert state_space._s_test(list(S_in.T), list(T_in.T), tol)[1].tolist() == rows, name


def _complex_bloch_map(xi, N):
    """The Bloch map as the complex einsum against the dense basis, which
    the real (re, im) table replaced: the reference for its bits."""
    lam = gell_mann_basis(N).elements
    return np.eye(N, dtype=complex) / N + bloch_scale(N) * np.einsum("...i,ijk->...jk", xi, lam)


def _complex_bloch_projection(rho, N):
    """The projection as the complex einsum whose real half it kept."""
    lam = gell_mann_basis(N).elements
    return np.einsum("ijk,...kj->...i", lam, rho).real / (2.0 * bloch_scale(N))


def _numpy_trace_screen(tk):
    """The stacked traces' refusal mask as numpy ufuncs state it."""
    size = np.fmax(np.abs(tk), 1.0)  # like max(1.0, |t_k|), 1.0 where |t_k| is NaN
    return (np.abs(tk.imag) > invariants.HERMITIAN_TOL * size) | ~np.isfinite(tk)


def _same_bits(a, b):
    """Equal shapes and, sign bits included, equal bits wherever a is not
    NaN, and NaN where it is (a NaN's payload is the platform's)."""
    a, b = (np.asarray(x).view(float) if np.iscomplexobj(x) else np.asarray(x) for x in (a, b))
    nan = np.isnan(a)
    if a.shape != b.shape or not np.array_equal(nan, np.isnan(b)):
        return False
    return a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("N", range(2, 17))
def test_real_bloch_kernels_keep_the_complex_einsums_bits(N):
    # the (re, im) table makes the products and sums of the complex
    # einsums without their zero imaginary halves: every entry keeps its
    # bits, on one input and on a stack; the power traces, summed off the
    # diagonal left to right, and their refusal mask equal an in-order
    # reference, and one matrix's traces equal its stack's
    rng = np.random.default_rng(1200 + N)
    n = N * N - 1
    cartan = np.isin(np.arange(n), [m * m - 2 for m in range(2, N + 1)])
    mixed_zeros = np.where(rng.random((3, n)) < 0.5, -0.0, rng.normal(size=(3, n)))
    stacks = {
        "gaussian": rng.normal(size=(6, n)) / N,
        "cartan-only": np.where(cartan, rng.normal(size=(4, n)), 0.0),
        "-0.0": np.vstack([np.full(n, -0.0), mixed_zeros]),
        "huge": np.vstack([1e300 * rng.normal(size=(2, n)), np.full(n, 1.7e308), np.full(n, 1e52)]),
        "empty": np.empty((0, n)),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        for name, xis in stacks.items():
            rhos = _complex_bloch_map(xis, N)
            noisy = rhos + 1e-3 * (rng.normal(size=rhos.shape) + 1j * rng.normal(size=rhos.shape))
            negated = np.negative(np.zeros_like(rhos)) if name == "-0.0" else noisy
            assert _same_bits(state_space._bloch_map(xis, N), rhos), name
            for rho in (rhos, noisy, negated):
                projected = state_space._bloch_projection(rho, N)
                assert _same_bits(projected, _complex_bloch_projection(rho, N)), name
                powers = [rho]
                for _ in range(N - 1):
                    powers.append(powers[-1] @ rho)
                tk = _in_order_sum(np.diagonal(np.array(powers), axis1=-2, axis2=-1))
                stacked, refused = _power_traces(rho, N)
                assert _same_bits(stacked, tk), name
                assert np.array_equal(refused, _numpy_trace_screen(tk)), name
            for xi, rho in zip(xis, rhos):
                assert _same_bits(state_space._bloch_map(xi, N), rho), name
                projected = state_space._bloch_projection(rho, N)
                assert _same_bits(projected, _complex_bloch_projection(rho, N)), name
                single, refused = _power_traces(rho, N)
                column = _power_traces(rho[np.newaxis], N)[0][:, 0]
                assert _same_bits(np.array(single), column), name
                assert refused == _numpy_trace_screen(np.array(single)).tolist(), name


def _in_order_sum(diagonal):
    """0 + the entries of the last axis added left to right, by numpy's
    accumulate rather than by a loop of _trace's kind."""
    return 0 + np.add.accumulate(diagonal, axis=-1)[..., -1]


@pytest.mark.parametrize("N", [*range(2, 21), 63, 64, 65, 100, 130])
def test_trace_sums_the_diagonal_in_order_bit_for_bit(N):
    # on one matrix's Python complex numbers and on a stack's diagonal
    # columns, _trace adds left to right from 0, so it equals an in-order
    # reference and a stacked trace equals its matrix's: for diagonals of
    # magnitude 1e-8 to 1e8, signed zeros and, past float64, infinities and
    # NaNs.  The (N, 2, N) diagonals are a stack with two leading axes,
    # which a reader of d.T's lanes would sum transposed
    rng = np.random.default_rng(2500 + N)
    for shape in ((N, N), (3, N), (N, 2, N)):  # of (N, N, N), (B, N, N) and (N, B, N, N) stacks
        parts = rng.normal(size=(2,) + shape) * 10.0 ** rng.uniform(-8, 8, (2,) + shape)
        zeros = np.where(rng.random(parts.shape) < 0.5, -0.0, 0.0)
        special = rng.choice([np.inf, -np.inf, np.nan], size=parts.shape)
        diagonals = {
            "finite": parts,
            "-0.0": np.full_like(parts, -0.0),
            "signed zeros": zeros,
            "some zeros": np.where(rng.random(parts.shape) < 0.5, zeros, parts),
            "non-finite": np.where(rng.random(parts.shape) < 0.1, special, parts),
            "inf - inf": np.where(rng.random(parts.shape) < 0.3, np.sign(parts) * np.inf, parts),
        }
        for name, (re_part, im_part) in diagonals.items():
            diagonal = np.empty(shape, dtype=complex)
            diagonal.real, diagonal.imag = re_part, im_part
            stack = np.zeros(shape + (N,), dtype=complex)
            stack[..., np.arange(N), np.arange(N)] = diagonal
            with np.errstate(invalid="ignore"):  # inf - inf
                trace = _in_order_sum(diagonal)
                lanes = invariants._trace(stack)
                single = [invariants._trace(m) for m in stack.reshape(-1, N, N)]
            assert _same_bits(lanes, trace), (name, shape)
            assert _same_bits(np.array(single), trace.ravel()), (name, shape)


@pytest.mark.parametrize("N", [3, 5])
def test_stacked_core_copies_the_single_verdict_of_a_row_it_flags(monkeypatch, N):
    # a row whose stacked S is NaN but whose single-route S is finite, as a
    # numpy build that gave the two paths other bits would make it: the
    # stacked pass flags the row, and the single route's verdict fills its
    # columns, for Bloch rows and matrices alike
    rng = np.random.default_rng(N)
    rhos = sample_states(N, 6, seed=N)
    rhos[1] = np.diag(np.r_[1.0, np.zeros(N - 1)])  # pure
    rhos[3] = random_hermitian_unit_trace(N, rng)  # generically no state
    xis = np.array([to_bloch(rho) for rho in rhos])
    newton = state_space._newton

    def nan_rows(t):
        # NaN into the odd rows of the stacked core's columns only: the
        # single route's Python floats stay finite
        S = newton(t)
        if isinstance(t[0], np.ndarray):
            for column in S:
                column[1::2] = np.nan
        return S

    monkeypatch.setattr(state_space, "_newton", nan_rows)
    expected = [check_state_bloch(xi) for xi in xis]
    assert [v.is_state for v in expected] == [True] * 3 + [False] + [True] * 2
    for stack in (xis, rhos):
        is_state, rank, margin, errors = state_space._stack_columns(stack, N, POSITIVITY_TOL)
        assert errors == {}
        assert list(zip(is_state, rank, margin)) == [(v.is_state, v.rank, v.margin) for v in expected]
    assert check_states_bloch(xis) == expected
    assert check_states(rhos) == [check_state_bloch(to_bloch(rho)) for rho in rhos]


def test_one_tuple_trace_screen_flags_what_the_stacked_mask_flags():
    # _refused on a Python complex and on an array, and numpy's statement
    # of the mask, agree on each side of the residue threshold
    # HERMITIAN_TOL max(1, |t_k|), at one ulp, and on every non-finite t_k
    tol = invariants.HERMITIAN_TOL
    cases = []
    for re in (0.3, 1.0, -7.5, 1e5, 1e300, 0.0, -0.0):
        bound = tol * max(1.0, abs(re))
        for im in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)):
            cases += [complex(re, im), complex(re, -im)]
    special = (np.nan, np.inf, -np.inf, 1.0, 0.0)
    cases += [complex(re, im) for re in special for im in special + (2e-10,)]
    with np.errstate(invalid="ignore"):
        mask = _numpy_trace_screen(np.array(cases)).tolist()
        assert invariants._refused(np.array(cases)).tolist() == mask
    assert [invariants._refused(t) for t in cases] == mask
    assert mask.count(True) > 30 and mask.count(False) > 20
    # +-bound and +-(bound - 1 ulp) pass, +-(bound + 1 ulp) is flagged
    assert mask[:42] == ([False] * 4 + [True] * 2) * 7

    # matrices within the Hermiticity gate, and past it or past float64:
    # one matrix and a one-matrix stack flag alike, and trace_invariants
    # names the lowest flagged power as before
    N = 3
    state = sample_states(N, 1, seed=9)[0]
    skew = state.copy()
    skew[0, 1] += 5e-11
    residue = np.diag([1 / N + 4e-11j] * N)
    huge = np.diag([1e200, -1e200, 1.0]).astype(complex)
    infinite = np.diag([np.inf, 0.0, 0.0]).astype(complex)
    complex_inf = np.full((N, N), complex(np.inf, np.inf))
    for rho in (state, skew, residue, huge, infinite, complex_inf, np.full((N, N), np.nan + 0j)):
        tk, refused = _power_traces(rho, N)
        assert refused == _power_traces(rho[np.newaxis], N)[1][:, 0].tolist()
    assert not any(_power_traces(skew, N)[1])
    with pytest.raises(ValueError, match=r"^trace of power 1 has imaginary residue 1\.200e-10$"):
        trace_invariants(residue)
    with pytest.raises(ValueError, match="^trace of power 2 leaves the float64 range$"):
        trace_invariants(huge)
    # an infinite entry fails the Hermiticity gate (inf - inf), so the
    # screen is reached past it
    with pytest.raises(ValueError, match="^trace of power 1 leaves the float64 range$"):
        _screened(*_power_traces(infinite, N))


def test_margin_of_a_signed_zero_tie_is_the_last_zero():
    # of equal S_k the margin is the last, on one tuple's floats and on a
    # stack's columns alike, so a 0.0 and -0.0 tie has one reading
    for N in (3, 8, 12):
        pairs = list(itertools.permutations(range(N), 2))
        S = np.full((len(pairs), N), 0.5)
        for row, (i, j) in zip(S, pairs):
            row[i], row[j] = 0.0, -0.0
        T = np.ones_like(S)
        rows = zip(S.tolist(), T.tolist())
        margins = np.array([state_space._s_test(s, t, POSITIVITY_TOL)[2] for s, t in rows])
        stacked = state_space._s_test(list(S.T), list(T.T), POSITIVITY_TOL)[2]
        assert margins.tobytes() == stacked.tobytes()
        assert np.signbit(margins).tolist() == [j > i for i, j in pairs]


def _rank_rule_rows(tol):
    """(S, t, rank) rows of (N,) arrays of S_1..S_N and t_1..t_N, each with
    the rank the rule must read: the first k whose S_{k+1} fails, or N."""
    rows = []

    def spectrum(lam, rank):
        lam = np.asarray(lam, dtype=float)
        T = np.array([np.sum(lam**k) for k in range(1, len(lam) + 1)])
        rows.append((np.array(_newton(T.tolist())), T, rank))

    for N in range(2, 13):
        for r in range(1, N + 1):  # exact rank r, with rounding noise past S_r
            big = np.arange(1.0, r + 1)
            spectrum(np.r_[big / big.sum(), np.zeros(N - r)], r)
        for m in range(1, N):  # one eigenvalue on either side of tol
            for small, counted in ((0.5 * tol, 0), (2.0 * tol, 1)):
                lam = np.r_[np.full(m, (1.0 - small) / m), small, np.zeros(N - m - 1)]
                spectrum(lam, m + counted)
    # +-0.0 compare equal, so a signed-zero S_{k+1} ends the count
    for S, T in (
        ([1.0, 0.0, -0.0], [1.0, 1.0, 1.0]),
        ([1.0, -0.0, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, -0.0], [0.0, 0.0]),
        ([-0.0, 0.0], [-0.0, 0.0]),
    ):
        rows.append((np.array(S), np.array(T), 1))
    # non-states whose count ends at k although a later S_{k+1} passes
    spectrum([2.0, -0.5, -0.5], 1)  # S_2 < 0 < S_3
    spectrum([1.0, 0.6, -0.3, -0.3], 1)  # S_2, S_3 < 0 < S_4
    spectrum([0.6, 0.6, -0.1, -0.1], 2)  # S_3 < 0 < S_4
    return rows


@pytest.mark.parametrize("tol", (POSITIVITY_TOL, 1e-3))
def test_rank_rule_reads_the_first_failed_k(tol):
    # the one rank rule, on each row's floats and on the columns of a stack
    # of the rows of each N, reads the rank each row was built with
    by_dim = {}
    for S, T, rank in _rank_rule_rows(tol):
        assert state_space._rank_from_ratios(S.tolist(), T.tolist(), tol) == rank, (S, T)
        by_dim.setdefault(len(S), []).append((S, T, rank))
    for N, rows in by_dim.items():
        S, T, ranks = (np.array(column) for column in zip(*rows))
        assert state_space._rank_from_ratios(list(S.T), list(T.T), tol).tolist() == ranks.tolist()
        assert state_space._s_test(list(S.T), list(T.T), tol)[1].tolist() == ranks.tolist(), N


def test_stacked_check_sizes():
    assert check_states_bloch(np.empty((0, 8))) == []
    assert check_states(np.empty((0, 3, 3))) == []
    with pytest.raises(ValueError, match="N\\^2 - 1"):
        check_states_bloch(np.zeros((2, 7)))
    with pytest.raises(ValueError, match="need N >= 2"):
        check_states(np.ones((2, 1, 1)))
    for shape in ((8,), (2, 3, 8)):
        with pytest.raises(ValueError, match=r"\(B, N\^2 - 1\) array"):
            check_states_bloch(np.zeros(shape))
    for shape in ((3, 3), (2, 3, 4), (1, 2, 3, 3)):
        with pytest.raises(ValueError, match="stack of square matrices"):
            check_states(np.zeros(shape))


def test_trace_route_forms_characteristic_coefficients_once(monkeypatch):
    # a tuple runs the Newton recursion (_newton, on its Python floats) at
    # most once, however many invariants read its S
    recursions, determinants, factorisations = [], [], []
    newton, det, cholesky = invariants._newton, np.linalg.det, np.linalg.cholesky

    def counted_newton(t):
        recursions.append(len(t))
        return newton(t)

    def counted_det(a):
        determinants.append(a)
        return det(a)

    def counted_cholesky(a):
        factorisations.append(a)
        return cholesky(a)

    monkeypatch.setattr(invariants, "_newton", counted_newton)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    for N in (2, 3, 5, 8):
        rho = sample_states(N, 1, seed=800 + N)[0]
        recursions.clear()
        determinants.clear()
        factorisations.clear()
        t = trace_invariants(rho)
        verdict = check_state_traces(t)
        assert verdict.is_state
        # the verdict factorises B once and takes no det B; the route's
        # usual follow-up forms det B once
        assert (len(recursions), len(determinants), len(factorisations)) == (1, 0, 1)
        disc = discriminant(t)
        assert (len(recursions), len(determinants)) == (1, 1)
        assert check_state_traces(t) == verdict
        assert len(factorisations) == 1
        assert char_coefficients(t) is char_coefficients(t)
        bezoutian(t)
        assert discriminant(t) == disc
        assert (len(recursions), len(determinants)) == (1, 1)
        # an extension reads its B off its own traces, and forms its S
        # once, from the same t_1..t_N and so with the same bits
        ext = newton_extend(t, 3 * N)
        assert discriminant(ext) == disc
        assert len(recursions) == 1
        assert np.array_equal(char_coefficients(ext), char_coefficients(t))
        assert char_coefficients(ext) is char_coefficients(ext)
        assert len(recursions) == 2
    # a tuple whose S_k fail is refused without factorising B: S_2 = -0.25
    factorisations.clear()
    assert not check_state_traces(TraceInvariants(dim=3, values=[1.0, 1.5, 0.5])).is_state
    assert factorisations == []


def test_bloch_route_runs_one_recursion_and_n_minus_1_products(monkeypatch):
    # check_state_bloch forms rho's powers by N - 1 matrix products and its
    # S_k by one Newton recursion, on Python floats, for states and
    # non-states alike; the stacked core runs the same recursion once, on
    # the stack's columns, and forms its powers without from_bloch's matrix
    recursions, products = [], []
    newton, bloch = state_space._newton, state_space.from_bloch

    class CountedProducts(np.ndarray):
        """A matrix whose products with any array numpy reports here."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(method)
            inputs = [x.view(np.ndarray) if isinstance(x, CountedProducts) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def counted_newton(t):
        recursions.append((len(t), type(t[0]).__name__))
        return newton(t)

    monkeypatch.setattr(state_space, "_newton", counted_newton)
    monkeypatch.setattr(state_space, "from_bloch", lambda xi: bloch(xi).view(CountedProducts))
    rng = np.random.default_rng(850)
    for N in (2, 3, 5, 8):
        for rho in (sample_states(N, 1, seed=850 + N)[0], random_hermitian_unit_trace(N, rng)):
            xi = to_bloch(rho)
            recursions.clear()
            products.clear()
            verdict = check_state_bloch(xi)
            assert (recursions, products) == ([(N, "float")], ["__call__"] * (N - 1))
            # the counted verdict is the stacked core's: one more recursion,
            # over columns, and no product of a from_bloch matrix
            assert check_states_bloch(xi[np.newaxis]) == [verdict]
            assert recursions == [(N, "float"), (N, "ndarray")]
            assert products == ["__call__"] * (N - 1)


@pytest.mark.parametrize("N", range(2, 9))
def test_trace_route_equals_the_stacked_kernels_bit_for_bit(N):
    # the trace route has no stacked twin: the S, rank and margin it forms
    # on each tuple's Python floats equal _newton and _s_test on the
    # columns of a stack of the tuples' traces, bit for bit, and it
    # calls a matrix a state only where the stacked S_k test passes
    rng = np.random.default_rng(1400 + N)
    matrices = np.concatenate([sample_states(N, 20, seed=1400 + N), _route_style_corpus(N, 80, rng)])
    tuples = [trace_invariants(rho) for rho in matrices]
    T = np.array([t.values for t in tuples])
    S = np.array(_newton(list(T.T))).T
    for tol in (POSITIVITY_TOL, 0.0, 1e-3):
        passes, rank, margin = state_space._s_test(list(S.T), list(T.T), tol)
        verdicts = [check_state_traces(t, tol) for t in tuples]
        assert [char_coefficients(t).tobytes() for t in tuples] == [row.tobytes() for row in S]
        assert [v.rank for v in verdicts] == rank.tolist()
        assert np.array([v.margin for v in verdicts]).tobytes() == margin.tobytes()
        assert [v.is_state for v in verdicts] == [
            p and t._bezoutian_psd for p, t in zip(passes.tolist(), tuples)
        ]
        assert 0 < passes.sum() < len(tuples)


@pytest.mark.parametrize("N", range(2, 9))
def test_memoised_invariants_equal_fresh_ones(N):
    matrices = _route_style_corpus(N, 80, np.random.default_rng(900 + N))
    for k, rho in enumerate(matrices):
        t = trace_invariants(rho)
        # fill the memo through different first calls
        (check_state_traces, discriminant, lambda u: newton_extend(u, 2 * N))[k % 3](t)
        fresh = TraceInvariants(dim=N, values=t.values.copy())
        assert np.array_equal(char_coefficients(t), char_coefficients(fresh))
        assert np.array_equal(bezoutian(t), bezoutian(fresh))
        assert discriminant(t) == discriminant(TraceInvariants(dim=N, values=list(t.values)))
        assert check_state_traces(t) == check_state_traces(fresh)
        ext = newton_extend(t, 2 * N + 1)
        assert np.array_equal(ext.values, newton_extend(fresh, 2 * N + 1).values)
        assert np.array_equal(
            char_coefficients(ext), char_coefficients(TraceInvariants(N, ext.values))
        )


def _complex_root_traces(N, count, rng):
    """t_1..t_N of N roots on the simplex with one or two pairs of them moved
    off the real axis, to a +- ib with b <= 0.1: tuples that no Hermitian
    matrix has."""
    rows = []
    for _ in range(count):
        roots = rng.dirichlet(np.ones(N)).astype(complex)
        for p in range(rng.integers(1, 3)):
            a = roots[2 * p : 2 * p + 2].real.mean()
            roots[2 * p : 2 * p + 2] = a + 1j * rng.uniform(0.0, 0.1) * np.array([1, -1])
        rows.append([np.sum(roots**k).real for k in range(1, N + 1)])
    return rows


def test_trace_route_refuses_the_docstring_complex_roots():
    # roots 0.3 +- 0.05i, 0.2 +- 0.05i: every S_k and det B pass, B has two
    # negative eigenvalues
    roots = np.array([0.3 + 0.05j, 0.3 - 0.05j, 0.2 + 0.05j, 0.2 - 0.05j])
    t = TraceInvariants(dim=4, values=[np.sum(roots**k).real for k in range(1, 5)])
    assert char_coefficients(t).min() > 0 and discriminant(t) > 0
    assert np.sum(np.linalg.eigvalsh(bezoutian(t)) < 0) == 2
    verdict = check_state_traces(t)
    assert (verdict.is_state, verdict.stratum) == (False, None)


@pytest.mark.parametrize("N", (4, 5, 6))
def test_trace_route_refuses_complex_roots_whose_s_k_pass(N):
    # Procesi-Schwarz: the t_k have a Hermitian matrix iff B >= 0.  Keep the
    # tuples whose S_k pass and whose B has an eigenvalue below -10 delta,
    # delta = 4 N eps max|B| being the shift of the route's Cholesky test:
    # the route refuses each, though det B >= -tol passes most of them.
    kept = disc_passes = 0
    for row in _complex_root_traces(N, 300, np.random.default_rng(1100 + N)):
        t = TraceInvariants(dim=N, values=row)
        B = bezoutian(t)
        delta = 4 * N * np.finfo(float).eps * np.abs(B).max()
        if char_coefficients(t).min() < -POSITIVITY_TOL or np.linalg.eigvalsh(B)[0] >= -10 * delta:
            continue
        kept += 1
        disc_passes += discriminant(t) >= -POSITIVITY_TOL
        verdict = check_state_traces(t)
        assert (verdict.is_state, verdict.stratum) == (False, None), row
    assert kept >= 200 and disc_passes >= kept // 2


def test_check_traces_requires_unit_trace():
    with pytest.raises(ValueError):
        check_state_traces(trace_invariants(np.eye(2, dtype=complex)))
    with pytest.raises(ValueError, match="t_1 = nan"):
        check_state_traces(TraceInvariants(dim=2, values=[np.nan, 0.5]))


def test_boundary_iff_small_determinant():
    for N in (2, 3, 4):
        for rho in sample_states(N, 40, seed=500 + N):
            v = check_state_bloch(to_bloch(rho))
            det = float(np.real(np.linalg.det(rho)))
            assert v.is_state
            assert (v.stratum != "interior") == (det < 1e-10)
        # explicit boundary state: one zero eigenvalue (pure for N = 2)
        eigs = np.zeros(N)
        if N == 2:
            eigs[0] = 1.0
        else:
            eigs[0] = eigs[1] = 0.5
        v = check_state_bloch(to_bloch(np.diag(eigs).astype(complex)))
        assert v.is_state and v.stratum in {"pure", "boundary-rank-2"}


@seed(1)
@settings(max_examples=50, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    seed_a=st.integers(min_value=0, max_value=2 ** 16),
    seed_b=st.integers(min_value=0, max_value=2 ** 16),
)
def test_convex_combination_is_state(w, seed_a, seed_b):
    rho_a = sample_states(3, 1, seed=seed_a)[0]
    rho_b = sample_states(3, 1, seed=seed_b)[0]
    mix = w * rho_a + (1.0 - w) * rho_b
    assert check_state_bloch(to_bloch(mix)).is_state


@seed(2)
@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=1.001, max_value=3.0), seed_a=st.integers(0, 2 ** 16))
def test_pure_state_scaled_outward_leaves_the_set(scale, seed_a):
    rng = np.random.default_rng(seed_a)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    xi = to_bloch(rho) * scale
    assert not check_state_bloch(xi).is_state


def test_uniform_simplex():
    rng = np.random.default_rng(26)
    s = uniform_simplex(4, rng)
    assert s.shape == (4,)
    assert s.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(s >= 0.0)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(27)
    for N in (2, 3, 5):
        u = haar_unitary(N, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(N))) < 1e-12


def test_random_hermitian_unit_trace():
    rng = np.random.default_rng(28)
    a = random_hermitian_unit_trace(4, rng)
    assert np.max(np.abs(a - a.conj().T)) < 1e-14
    assert np.trace(a).real == pytest.approx(1.0, abs=1e-12)


def test_sample_states_are_states():
    for mode in ("spectrum-haar", "bloch-rejection"):
        for N in (2, 3):
            for rho in sample_states(N, 25, mode=mode, seed=29):
                assert check_state_bloch(to_bloch(rho)).is_state


def test_sample_states_deterministic():
    a = sample_states(3, 10, seed=30)
    b = sample_states(3, 10, seed=30)
    assert np.array_equal(a, b)
    c = sample_states(3, 10, seed=31)
    assert not np.array_equal(a, c)


def test_sample_states_unknown_mode():
    with pytest.raises(ValueError):
        sample_states(3, 5, mode="nope")
    # and the dimension and count are checked before any mode
    with pytest.raises(ValueError, match="need N >= 2"):
        sample_states(1, 5)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_states(3, -1)
    assert sample_states(3, 0).shape == (0, 3, 3)


def test_rejection_sampler_gives_up_after_its_try_budget(monkeypatch):
    # the state set fills a vanishing share of the N = 5 Bloch ball, so
    # two tries, seeded, find no state
    monkeypatch.setattr(state_space, "REJECTION_MAX_TRIES", 2)
    with pytest.raises(RuntimeError, match="^rejection sampler found no state in 2 tries at N=5$"):
        sample_states(5, 1, mode="bloch-rejection", seed=0)


def test_positivity_tolerance_is_respected():
    # a tiny negative eigenvalue within tolerance still passes
    eps = POSITIVITY_TOL / 10.0
    rho = np.diag([1.0 + eps, -eps, 0.0]).astype(complex)
    assert check_state_bloch(to_bloch(rho)).is_state
    rho_bad = np.diag([1.0 + 1e-6, -1e-6, 0.0]).astype(complex)
    assert not check_state_bloch(to_bloch(rho_bad)).is_state


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_every_check_refuses_a_non_finite_tolerance(tol):
    # a NaN tol failed every S_k test, an infinite one passed every matrix
    rho = np.eye(3, dtype=complex) / 3
    xi = to_bloch(rho)
    checks = [
        (check_state_bloch, xi),
        (check_state_traces, trace_invariants(rho)),
        (check_states_bloch, xi[np.newaxis]),
        (check_states, rho[np.newaxis]),
    ]
    for check, states in checks:
        with pytest.raises(ValueError, match=f"^positivity tolerance {tol} is not finite$"):
            check(states, tol)
