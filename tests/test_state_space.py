"""Tests for Bloch embedding, the Jacobi eigensolver, state checks and
samplers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import quditorbits.invariants as invariants
import quditorbits.state_space as state_space
from quditorbits.invariants import (
    _char_coefficients_stack,
    _discriminant,
    char_coefficients,
    discriminant,
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
    with pytest.raises(ValueError):
        to_bloch(np.diag([1.0, 1.0]).astype(complex))  # trace 2
    with pytest.raises(ValueError):
        to_bloch(np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex))  # not Hermitian


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


def test_jacobi_sweep_budget():
    rng = np.random.default_rng(24)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (z + z.conj().T) / 2.0
    with pytest.raises(RuntimeError):
        jacobi_eigh(a, max_sweeps=0)
    diagonal = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    with pytest.raises(RuntimeError):
        jacobi_eigh(np.stack([diagonal, a]), max_sweeps=0)


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


def test_eig_oracle_sorted_descending():
    rho = sample_states(4, 1, seed=25)[0]
    w = eig_oracle(rho)
    assert np.all(np.diff(w) <= 0.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_check_maximally_mixed():
    for N in (2, 3, 4):
        v = check_state_bloch(np.zeros(N * N - 1))
        assert v.is_state
        assert v.rank == N
        assert v.stratum == "interior"
        # margin is the smallest coefficient S_N = det(I/N) = N^-N
        assert v.margin == pytest.approx(float(N) ** (-N), rel=1e-9)


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
    for N in (2, 3, 4, 5):
        for rho in sample_states(N, 50, seed=400 + N):
            xi = to_bloch(rho)
            t = trace_invariants(rho)
            vb = check_state_bloch(xi)
            vt = check_state_traces(t)
            assert vb.is_state == vt.is_state
            assert vb.rank == vt.rank


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
    margins_equal = a.margin == b.margin or (math.isnan(a.margin) and math.isnan(b.margin))
    return (a.is_state, a.rank, a.stratum) == (b.is_state, b.rank, b.stratum) and margins_equal


def _scalar(check, *args):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the scalar path may warn on 1e300
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

    # matrices: the same through to_bloch, with rejected members in place
    bad = matrices.copy()
    bad[1, 0, 1] += 1e-9  # not Hermitian
    bad[2, 0, 0] += 1e-9  # trace off 1
    bad[3] = np.nan
    for verdict, rho in zip(check_states(bad), bad):
        expected = _scalar(lambda m: check_state_bloch(to_bloch(m)), rho)
        assert _same_verdict(expected, verdict), (rho, verdict)
    assert isinstance(check_states(bad)[1], ValueError)

    T = np.array([trace_invariants(rho).values for rho in matrices])
    S = _char_coefficients_stack(T)
    for t_row, S_row, rho in zip(T, S, matrices):
        t = trace_invariants(rho)
        assert np.array_equal(S_row, char_coefficients(t))
        assert _discriminant(t, S_row) == discriminant(t)


def test_stacked_check_sizes():
    assert check_states_bloch(np.empty((0, 8))) == []
    assert check_states(np.empty((0, 3, 3))) == []
    with pytest.raises(ValueError, match="N\\^2 - 1"):
        check_states_bloch(np.zeros((2, 7)))
    with pytest.raises(ValueError, match="need N >= 2"):
        check_states(np.ones((2, 1, 1)))


def test_trace_route_forms_characteristic_coefficients_once(monkeypatch):
    calls = []

    def counted(t):
        calls.append(t)
        return char_coefficients(t)

    monkeypatch.setattr(invariants, "char_coefficients", counted)
    monkeypatch.setattr(state_space, "char_coefficients", counted)
    for N in (2, 3, 5, 8):
        rho = sample_states(N, 1, seed=800 + N)[0]
        calls.clear()
        check_state_traces(trace_invariants(rho))
        assert len(calls) == 1


def test_check_traces_requires_unit_trace():
    with pytest.raises(ValueError):
        check_state_traces(trace_invariants(np.eye(2, dtype=complex)))


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


def test_positivity_tolerance_is_respected():
    # a tiny negative eigenvalue within tolerance still passes
    eps = POSITIVITY_TOL / 10.0
    rho = np.diag([1.0 + eps, -eps, 0.0]).astype(complex)
    assert check_state_bloch(to_bloch(rho)).is_state
    rho_bad = np.diag([1.0 + 1e-6, -1e-6, 0.0]).astype(complex)
    assert not check_state_bloch(to_bloch(rho_bad)).is_state
