"""Acceptance criteria for the library, one test per criterion.

Each test enforces the pinned tolerance and corpus size; a summary line
per criterion is printed by the conftest hook at the end of the run.
test_route_rank_agreement is not a criterion: it holds the ranks that
criterion 2's routes report to each other and to the oracle.
Criteria 2 and 3 share one lazily built corpus of random Hermitian
unit-trace matrices with cached oracle spectra.  Whichever criterion
builds it, the build time is charged to criterion 2's time gate.
"""

import math
import time

import numpy as np
import pytest

from quditorbits.invariants import (
    BEZOUTIAN_RANK_CUTOFF,
    TraceInvariants,
    bezoutian,
    bezoutian_rank,
    char_coefficients,
    discriminant,
    grad_matrix,
    quatrit_trace_from_angles,
    qutrit_t3_bloch,
    qutrit_t3_from_angles,
    trace_invariants,
)
from quditorbits.orbit_space import (
    OrbitCoordinates,
    effective_radius,
    orbit_from_spectrum,
    rank2_curve_radius,
    spectrum_from_orbit,
)
from quditorbits.state_space import (
    POSITIVITY_TOL,
    check_state_bloch,
    check_state_traces,
    from_bloch,
    haar_unitary,
    jacobi_eigh,
    random_hermitian_unit_trace,
    sample_states,
    to_bloch,
    uniform_simplex,
)
from quditorbits.su_algebra import algebra_tensors, gell_mann_basis, weight_vectors

TABLE_TOL = 1e-12
BOUNDARY_WINDOW = 1e-8
DISC_REL_TOL = 1e-8
DISC_ABS_FLOOR = 1e-12
DISTINCT_TOL = 1e-7
CLOSED_FORM_TOL = 1e-10
PURE_POINT_TOL = 1e-12
NESTING_TOL = 1e-12
TRISECTRIX_TOL = 1e-10
ROUND_TRIP_TOL = 1e-10
WEIGHT_TOL = 1e-12

CORPUS_SIZE = 10_000
# segment layout: [0, 5000) generic Gaussian, [5000, 7500) random states,
# [7500, 8750) exact rank-deficient / degenerate, [8750, 10000) boundary
# states nudged by 1e-5
GENERIC_END = 7500
NUDGED_START = 8750
_corpus_cache = {}
_corpus_build_seconds = {}


def _corpus(N):
    """10^4 random Hermitian unit-trace matrices with oracle spectra.

    Mixture: generic Gaussian Hermitian matrices, proper random states,
    exact rank-deficient / degenerate states, and boundary states nudged
    by 1e-5 so both verdicts occur near the boundary.  The build time,
    oracle included, is kept in _corpus_build_seconds.
    """
    if N in _corpus_cache:
        return _corpus_cache[N]
    start = time.perf_counter()
    rng = np.random.default_rng(20260815 + N)
    matrices = []
    matrices.extend(random_hermitian_unit_trace(N, rng) for _ in range(5000))
    matrices.extend(sample_states(N, 2500, seed=913 + N))

    def degenerate_state():
        zeros = int(rng.integers(1, N))
        spec = np.zeros(N)
        spec[: N - zeros] = np.sort(uniform_simplex(N - zeros, rng))[::-1]
        if N - zeros >= 2 and rng.random() < 0.5:
            spec[0] = spec[1] = (spec[0] + spec[1]) / 2.0
        u = haar_unitary(N, rng)
        return (u * spec) @ u.conj().T

    matrices.extend(degenerate_state() for _ in range(1250))

    def nudged_boundary():
        base = degenerate_state()
        h = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        h = (h + h.conj().T) / 2.0
        h -= np.trace(h).real * np.eye(N) / N
        h /= np.linalg.norm(h)
        return base + 1e-5 * rng.choice([-1.0, 1.0]) * h

    matrices.extend(nudged_boundary() for _ in range(1250))

    assert len(matrices) == CORPUS_SIZE
    w, _ = jacobi_eigh(np.array(matrices))
    eigs = np.sort(w, axis=1)[:, ::-1]
    _corpus_cache[N] = (matrices, eigs)
    _corpus_build_seconds[N] = time.perf_counter() - start
    return _corpus_cache[N]


def test_criterion_01_structure_constant_table():
    start = time.perf_counter()
    t3 = algebra_tensors(3)
    t4 = algebra_tensors(4)
    expected = [
        (t3.d_value(3, 3, 8), 1.0 / math.sqrt(3.0)),
        (t3.d_value(8, 8, 8), -1.0 / math.sqrt(3.0)),
        (t4.d_value(3, 3, 8), 1.0 / math.sqrt(3.0)),
        (t4.d_value(8, 8, 8), -1.0 / math.sqrt(3.0)),
        (t4.d_value(3, 3, 15), 1.0 / math.sqrt(6.0)),
        (t4.d_value(8, 8, 15), 1.0 / math.sqrt(6.0)),
        (t4.d_value(15, 15, 15), -math.sqrt(2.0 / 3.0)),
    ]
    elapsed = time.perf_counter() - start
    for got, want in expected:
        assert abs(got - want) < TABLE_TOL
    assert elapsed < 1.0, f"structure constants took {elapsed:.3f} s"


def test_criterion_02_positivity_route_agreement():
    dims = (2, 3, 4, 5)
    corpora = {N: _corpus(N) for N in dims}
    start = time.perf_counter()
    disagreements = []
    excluded_generic = 0
    for N in dims:
        matrices, eigs = corpora[N]
        for k, rho in enumerate(matrices):
            oracle_min = float(eigs[k, -1])
            vb = check_state_bloch(to_bloch(rho))
            t = trace_invariants(rho)
            vt = check_state_traces(t)
            near = min(abs(oracle_min), abs(vb.margin), abs(vt.margin))
            if near < BOUNDARY_WINDOW:
                # exact-boundary and nudged segments sit here by design;
                # generic matrices must not
                if k < GENERIC_END:
                    excluded_generic += 1
                continue
            oracle_ok = oracle_min >= -POSITIVITY_TOL
            if not (vb.is_state == vt.is_state == oracle_ok):
                disagreements.append((N, k, vb.is_state, vt.is_state, oracle_ok))
    # the corpus counts whether this test or criterion 3 built it
    elapsed = time.perf_counter() - start + sum(_corpus_build_seconds[N] for N in dims)
    assert not disagreements, disagreements[:10]
    assert excluded_generic < 4 * GENERIC_END * 0.05, f"{excluded_generic} excluded"
    assert elapsed < 60.0, f"route agreement took {elapsed:.1f} s"


def test_route_rank_agreement():
    """Both routes report one rank on every state verdict, the oracle's
    count of eigenvalues above the tolerance wherever float64 can tell.

    It cannot when an eigenvalue sits within a decade of the tolerance, or
    when S_r, the product of the r nonzero eigenvalues, is within a decade
    of the unit roundoff of the O(1) terms it is summed from.
    """
    eps = np.finfo(float).eps
    route_disagreements = []
    oracle_mismatches = []
    valid = undecidable = 0
    for N in (2, 3, 4, 5):
        matrices, eigs = _corpus(N)
        for k, rho in enumerate(matrices):
            vb = check_state_bloch(to_bloch(rho))
            vt = check_state_traces(trace_invariants(rho))
            if (vb.is_state or vt.is_state) and vb.rank != vt.rank:
                route_disagreements.append((N, k, vb.rank, vt.rank))
            w = eigs[k]
            if w[-1] < -POSITIVITY_TOL:
                continue
            valid += 1
            oracle_rank = int(np.sum(w > POSITIVITY_TOL))
            near_tol = np.any((w > POSITIVITY_TOL / 10) & (w < POSITIVITY_TOL * 10))
            if near_tol or np.prod(w[:oracle_rank]) <= 10 * eps:
                undecidable += 1
            elif not vb.rank == vt.rank == oracle_rank:
                oracle_mismatches.append((N, k, vb.rank, vt.rank, oracle_rank))
    assert not route_disagreements, route_disagreements[:10]
    assert not oracle_mismatches, oracle_mismatches[:10]
    assert undecidable < 0.01 * valid, f"{undecidable} of {valid} valid states undecidable"


def _rank_is_decidable(sorted_eigs, cutoff):
    """True when float64 can resolve rank(B) for this spectrum.

    In exact arithmetic B = V^T M V with V the Vandermonde rows of the
    distinct nodes and M the positive multiplicity weights, so the
    smallest positive eigenvalue of B is at least sigma_min(V)^2.  When
    that floor sits within an order of magnitude of the rank cutoff
    (itself pinned just above the eigensolver noise), clustered nodes
    make the comparison meaningless at this precision.
    """
    nodes = [sorted_eigs[0]]
    for x in sorted_eigs[1:]:
        if abs(nodes[-1] - x) > 1e-8:
            nodes.append(x)
    V = np.vander(np.array(nodes), N=len(sorted_eigs), increasing=True)
    sigma = np.linalg.svd(V, compute_uv=False)[-1]
    return sigma * sigma > 10.0 * cutoff


def test_criterion_03_discriminant_identity_and_rank():
    skipped_generic = 0
    for N in (2, 3, 4, 5):
        matrices, eigs = _corpus(N)
        for k, rho in enumerate(matrices):
            t = trace_invariants(rho)
            disc = discriminant(t)
            vand = 1.0
            for i in range(N):
                for j in range(i + 1, N):
                    vand *= (eigs[k, i] - eigs[k, j]) ** 2
            assert abs(disc - vand) <= DISC_REL_TOL * max(abs(disc), abs(vand)) + DISC_ABS_FLOOR, (
                N,
                k,
                disc,
                vand,
            )
            B = bezoutian(t)
            cutoff = BEZOUTIAN_RANK_CUTOFF * max(
                1.0, float(np.max(np.abs(np.linalg.eigvalsh(B))))
            )
            if not _rank_is_decidable(eigs[k], cutoff):
                if k < NUDGED_START:
                    skipped_generic += 1
                continue
            distinct = 1 + int(np.sum(np.abs(np.diff(eigs[k])) > DISTINCT_TOL))
            assert bezoutian_rank(B) == distinct, (N, k, eigs[k])
    # undecidable spectra outside the deliberately nudged segment must be
    # rare: measured 307 of 35000 (0.88%), almost all N=5 near-collisions
    assert skipped_generic < 4 * NUDGED_START * 0.01, f"{skipped_generic} skipped"


def test_criterion_04_grad_bezoutian_equivalence():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        N = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            roots = rng.normal(size=N)
            values = tuple(float(np.sum(roots ** k)) for k in range(1, N + 1))
        else:
            values = tuple(rng.normal(size=N))
        t = TraceInvariants(dim=N, values=values)
        B = bezoutian(t)
        G = grad_matrix(t)
        scale_b = max(1.0, float(np.max(np.abs(B))))
        scale_g = max(1.0, float(np.max(np.abs(G))))
        psd_b = bool(np.min(np.linalg.eigvalsh(B)) >= -1e-10 * scale_b)
        psd_g = bool(np.min(np.linalg.eigvalsh(G)) >= -1e-10 * scale_g)
        assert psd_b == psd_g, (values, psd_b, psd_g)


def test_criterion_05_qutrit_closed_forms():
    states = sample_states(3, 1000, seed=55)
    for rho in states:
        direct = trace_invariants(rho).t(3)
        assert abs(qutrit_t3_bloch(to_bloch(rho)) - direct) < CLOSED_FORM_TOL
    rng = np.random.default_rng(56)
    for _ in range(1000):
        r = float(rng.uniform(0.0, 1.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        spec = spectrum_from_orbit(
            OrbitCoordinates(dim=3, radius=r, angles=np.array([phi]))
        ).raw
        direct = trace_invariants(np.diag(spec.astype(complex))).t(3)
        assert abs(qutrit_t3_from_angles(r, phi) - direct) < CLOSED_FORM_TOL


def test_criterion_06_quatrit_closed_forms():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        spectrum = np.sort(uniform_simplex(4, rng))[::-1]
        coords = orbit_from_spectrum(spectrum)
        if coords.degenerate_angles:
            continue
        phi, theta = coords.angles
        t = trace_invariants(np.diag(spectrum.astype(complex)))
        t2, t3, t4 = quatrit_trace_from_angles(coords.radius, theta, phi)
        assert abs(t2 - t.t(2)) < CLOSED_FORM_TOL
        assert abs(t3 - t.t(3)) < CLOSED_FORM_TOL
        assert abs(t4 - t.t(4)) < CLOSED_FORM_TOL
    # pure-state corner of the ordered domain
    t2, t3, t4 = quatrit_trace_from_angles(1.0, math.acos(1.0 / 3.0), math.pi / 2.0)
    assert abs(t2 - 1.0) < PURE_POINT_TOL
    assert abs(t3 - 1.0) < PURE_POINT_TOL
    assert abs(t4 - 1.0) < PURE_POINT_TOL


def test_criterion_07_nesting_relations():
    # quatrit rank-3 boundary carries a qutrit of radius r*
    for r in np.linspace(1.0 / 3.0 + 1e-12, 1.0, 100):
        theta = math.acos(1.0 / (3.0 * r))
        spec = spectrum_from_orbit(
            OrbitCoordinates(dim=4, radius=r, angles=np.array([math.pi, theta]))
        ).raw
        assert abs(spec[-1]) < NESTING_TOL
        r_star = effective_radius("qutrit-in-quatrit", r)
        embedded = orbit_from_spectrum(np.sort(spec[:-1])[::-1] / spec[:-1].sum())
        # compare squared radii: r*(r) has a root singularity at onset
        assert abs(embedded.radius ** 2 - r_star ** 2) < NESTING_TOL
        t2_parent = float(np.sum(spec ** 2))
        t2_child = 1.0 / 3.0 + (2.0 / 3.0) * r_star * r_star
        assert abs(t2_parent - (0.25 + 0.75 * r * r)) < NESTING_TOL
        assert abs(t2_parent - t2_child) < NESTING_TOL
    # qutrit rank-2 boundary carries a qubit of radius r*
    for r in np.linspace(0.5 + 1e-12, 1.0, 100):
        phi = 3.0 * math.asin(1.0 / (2.0 * r))
        spec = spectrum_from_orbit(
            OrbitCoordinates(dim=3, radius=r, angles=np.array([phi]))
        ).raw
        assert abs(spec[-1]) < NESTING_TOL
        r_star = effective_radius("qubit-in-qutrit", r)
        embedded = orbit_from_spectrum(np.sort(spec[:-1])[::-1] / spec[:-1].sum())
        assert abs(embedded.radius ** 2 - r_star ** 2) < NESTING_TOL
        t2_parent = float(np.sum(spec ** 2))
        t2_child = 0.5 + 0.5 * r_star * r_star
        assert abs(t2_parent - (1.0 / 3.0 + 2.0 / 3.0 * r * r)) < NESTING_TOL
        assert abs(t2_parent - t2_child) < NESTING_TOL
    # two-step chain composes to the double-zero formula
    for r in np.linspace(1.0 / math.sqrt(3.0) + 1e-9, 1.0, 100):
        chained = effective_radius("qubit-in-qutrit", effective_radius("qutrit-in-quatrit", r))
        direct = effective_radius("qubit-in-qutrit-in-quatrit", r)
        assert abs(chained ** 2 - direct ** 2) < NESTING_TOL


def test_criterion_08_trisectrix():
    for phi in np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, 100):
        r = rank2_curve_radius(phi)
        # the raw plane-curve polynomial, evaluated independently
        x = r * math.cos(phi)
        y = r * math.sin(phi)
        a = 0.5
        residual = (x * x + y * y) * (y - 3.0 * a) + 4.0 * a ** 3
        assert abs(residual) < TRISECTRIX_TOL, (phi, r, residual)
        # and the curve is a rank-2 locus
        spec = spectrum_from_orbit(
            OrbitCoordinates(dim=3, radius=r, angles=np.array([phi]))
        ).raw
        assert abs(spec[-1]) < TRISECTRIX_TOL


def test_criterion_09_round_trips():
    rng = np.random.default_rng(99)
    for N in range(2, 9):
        states = sample_states(N, 1000, seed=990 + N)
        for rho in states:
            xi = to_bloch(rho)
            assert np.max(np.abs(from_bloch(xi) - rho)) < ROUND_TRIP_TOL
            assert np.max(np.abs(to_bloch(from_bloch(xi)) - xi)) < ROUND_TRIP_TOL
        for _ in range(1000):
            spectrum = np.sort(uniform_simplex(N, rng))[::-1]
            coords = orbit_from_spectrum(spectrum)
            back = spectrum_from_orbit(coords).raw
            assert np.max(np.abs(back - spectrum)) < ROUND_TRIP_TOL


def test_criterion_10_weight_identities():
    for N in range(2, 9):
        w = weight_vectors(N).weights
        assert np.max(np.abs(w.sum(axis=0))) < WEIGHT_TOL
        assert np.max(np.abs(w.T @ w - 0.5 * np.eye(N - 1))) < WEIGHT_TOL
        basis = gell_mann_basis(N)
        for a, idx in enumerate(basis.cartan_indices):
            diag = np.real(np.diag(basis.element(idx)))
            assert np.max(np.abs(diag - 2.0 * w[:, a])) < WEIGHT_TOL
