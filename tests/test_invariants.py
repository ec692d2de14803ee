"""Tests for trace invariants, characteristic coefficients, Bezoutian
machinery and Casimir scalars."""

import math
import re

import numpy as np
import pytest

import quditorbits.invariants as invariants
from quditorbits.invariants import (
    TraceInvariants,
    bezoutian,
    bezoutian_rank,
    casimirs,
    char_coefficients,
    discriminant,
    grad_matrix,
    newton_extend,
    quatrit_trace_from_angles,
    qutrit_t3_bloch,
    qutrit_t3_from_angles,
    trace_invariants,
    traces_from_casimirs,
)
from quditorbits.orbit_space import OrbitCoordinates, spectrum_from_orbit
from quditorbits.state_space import check_state_bloch, check_state_traces, sample_states, to_bloch
from quditorbits.su_algebra import algebra_tensors

CHAIN_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10


def diag_state(*eigs):
    return np.diag(np.array(eigs, dtype=complex))


def test_trace_invariants_maximally_mixed():
    for N in (2, 3, 4):
        rho = np.eye(N, dtype=complex) / N
        t = trace_invariants(rho)
        for k in range(1, N + 1):
            assert t.t(k) == pytest.approx(N ** (1 - k), abs=1e-14)
        assert t.t(0) == N


def test_trace_invariants_pure():
    rho = diag_state(1.0, 0.0, 0.0)
    t = trace_invariants(rho, upto=5)
    assert all(t.t(k) == pytest.approx(1.0, abs=1e-14) for k in range(1, 6))


def test_trace_invariants_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        trace_invariants(bad)
    # a NaN entry fails the check as a defect beyond the tolerance does, and
    # so does an infinite one, whose inf - inf raises no RuntimeWarning
    for bad in (np.full((2, 2), np.nan), np.diag([np.nan, 0.5]), np.diag([np.inf, 0.5])):
        with pytest.raises(ValueError, match="matrix is not Hermitian: defect nan"):
            trace_invariants(bad)


def test_char_coefficients_qubit():
    # eigenvalues (3/4, 1/4): t2 = 5/8, S2 = det = 3/16
    t = trace_invariants(diag_state(0.75, 0.25))
    assert t.t(2) == pytest.approx(0.625, abs=1e-14)
    S = char_coefficients(t)
    assert S[0] == pytest.approx(1.0, abs=1e-14)
    assert S[1] == pytest.approx(3.0 / 16.0, abs=1e-14)


def test_char_coefficients_qutrit():
    # eigenvalues (1/2, 1/3, 1/6): S3 = det = 1/36
    t = trace_invariants(diag_state(0.5, 1 / 3, 1 / 6))
    S = char_coefficients(t)
    assert S[2] == pytest.approx(1.0 / 36.0, abs=1e-12)


def test_char_coefficients_match_numpy_poly():
    rng = np.random.default_rng(5)
    for N in (2, 3, 4, 5, 8, 10):
        eigs = rng.dirichlet(np.ones(N))
        t = trace_invariants(diag_state(*eigs))
        S = char_coefficients(t)
        # numpy.poly gives monic coefficients c_k = (-1)^k e_k
        coeffs = np.poly(eigs)
        expected = np.array([(-1.0) ** k * coeffs[k] for k in range(1, N + 1)])
        assert np.max(np.abs(S - expected)) < 1e-12


def test_newton_extension_reproduces_higher_traces():
    rng = np.random.default_rng(6)
    for N in (2, 3, 4, 5, 8):
        eigs = rng.dirichlet(np.ones(N))
        t = trace_invariants(diag_state(*eigs))
        ext = newton_extend(t, 2 * N - 2)
        for k in range(1, 2 * N - 1):
            assert ext.t(k) == pytest.approx(float(np.sum(eigs ** k)), abs=1e-12)


def test_newton_extension_noop():
    t = trace_invariants(diag_state(0.6, 0.4))
    assert newton_extend(t, 2) is t


def test_trace_invariants_names_the_power_with_a_residue():
    # Hermitian within 1e-10 (defect 8e-11), but tr(rho) has an imaginary part of 1.2e-10
    rho = np.diag([1 / 3 + 4e-11j] * 3)
    with pytest.raises(ValueError, match=r"trace of power 1 has imaginary residue 1\.200e-10"):
        trace_invariants(rho)


def test_trace_values_are_read_only_copies():
    own = np.array([1.0, 0.38, 0.16])
    t = TraceInvariants(dim=3, values=own)
    assert not t.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t.values[1] = 0.5
    # the caller's array is copied, not frozen
    assert own.flags.writeable
    own[1] = 0.5
    assert t.t(2) == 0.38
    rho_t = trace_invariants(diag_state(0.5, 0.3, 0.2))
    assert not rho_t.values.flags.writeable


@pytest.mark.parametrize(
    "N, values, message",
    [
        (2, [1.0, np.nan], "trace t_2 = nan is not finite"),
        (2, [1.0, np.inf], "trace t_2 = inf is not finite"),
        (3, [1.0, 0.4, 0.1, np.nan], "trace t_4 = nan is not finite"),
    ],
)
def test_non_finite_trace_is_refused_where_the_tuple_is_built(N, values, message):
    # B reads t_1..t_{2N-2} without forming S when the tuple holds them all:
    # a non-finite t_k is refused by name, and never reaches det B
    for invariant in (discriminant, bezoutian, grad_matrix):
        with pytest.raises(ValueError, match=re.escape(message)):
            invariant(TraceInvariants(dim=N, values=values))


def test_newton_extension_leaving_float64_is_refused():
    # t_4 = S_1 t_3 - S_2 t_2 overflows, though t_1, t_2 and S are finite
    message = re.escape("trace t_4 = inf is not finite")
    with pytest.raises(ValueError, match=message):
        newton_extend(TraceInvariants(dim=2, values=[1.0, 1e200]), 4)
    # at N = 3 B reads t_4 = S_1 t_3 - S_2 t_2 + S_3 t_1, which overflows: no
    # B, Grad, det B or certificate is read off an inf entry
    for values in ([1.0, -2e200, 0.0], [1.0, 1e200, 1.0]):
        for invariant in (bezoutian, grad_matrix, discriminant):
            with pytest.raises(ValueError, match=message):
                invariant(TraceInvariants(dim=3, values=values))
    # the S_k of [1, -2e200, 0] pass, so the trace route needs B
    with pytest.raises(ValueError, match=message):
        check_state_traces(TraceInvariants(dim=3, values=[1.0, -2e200, 0.0]))
    # S_2 < 0 decides [1, 1e200, 1] before B is read
    assert check_state_traces(TraceInvariants(dim=3, values=[1.0, 1e200, 1.0])).is_state is False
    # B is finite (t_4 = 5e299), but det B overflows
    t = TraceInvariants(dim=3, values=[1.0, 1e150, 1.0])
    assert np.isfinite(bezoutian(t)).all()
    with pytest.raises(ValueError, match="discriminant leaves the float64 range"):
        discriminant(t)


def test_trace_tuple_from_tuple_or_list():
    t = trace_invariants(diag_state(0.5, 0.3, 0.2))
    for values in (tuple(t.values.tolist()), t.values.tolist()):
        u = TraceInvariants(dim=3, values=values)
        assert u.values.dtype == np.float64
        assert u.order == 3
        assert np.array_equal(char_coefficients(u), char_coefficients(t))
        assert np.array_equal(bezoutian(u), bezoutian(t))
        assert discriminant(u) == discriminant(t)


def test_every_tuple_is_built_by_its_constructor(monkeypatch):
    # trace_invariants and newton_extend past the order build their tuples
    # through the constructor's checks, once each; the verdict, B and det B
    # of a fresh tuple, and the Bloch route, build no tuple at all.  The
    # module's TraceInvariants is swapped for a subclass that counts the
    # instances made and the checks run (setting __new__ on the class
    # itself would leave it unable to build tuples once undone)
    built, checked = [], []

    class Counted(TraceInvariants):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

        def __post_init__(self):
            checked.append(self)
            super().__post_init__()

    monkeypatch.setattr(invariants, "TraceInvariants", Counted)
    for N in (2, 3, 5, 8):
        rho = sample_states(N, 1, seed=N)[0]
        t = trace_invariants(rho)
        assert len(built) == len(checked) == 1
        ext = newton_extend(t, 3 * N)
        assert len(built) == len(checked) == 2 and checked == [t, ext]
        assert newton_extend(t, N) is t
        fresh = trace_invariants(rho)
        built.clear()
        checked.clear()
        check_state_traces(fresh)
        discriminant(fresh)
        bezoutian(fresh)
        check_state_bloch(to_bloch(rho))
        assert built == checked == []


def test_derived_arrays_are_read_only():
    t = trace_invariants(diag_state(0.5, 0.3, 0.2))
    for a in (
        char_coefficients(t),
        bezoutian(t),
        newton_extend(t, 6).values,
        char_coefficients(newton_extend(t, 6)),
    ):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    # so no caller can corrupt what later calls read
    fresh = trace_invariants(diag_state(0.5, 0.3, 0.2))
    assert np.array_equal(char_coefficients(t), char_coefficients(fresh))
    assert np.array_equal(newton_extend(t, 6).values, newton_extend(fresh, 6).values)
    assert np.array_equal(grad_matrix(t), bezoutian(t) * np.outer([1, 2, 3], [1, 2, 3]))


def test_newton_extension_prefixes_agree():
    # the memoised extension through t_{2N-2} is cut or continued, never redone
    t = trace_invariants(diag_state(0.4, 0.3, 0.2, 0.1))
    long = newton_extend(t, 12)
    for upto in range(5, 12):
        assert np.array_equal(newton_extend(t, upto).values, long.values[:upto])
        assert np.array_equal(newton_extend(newton_extend(t, upto), 12).values, long.values)


def test_bezoutian_qubit():
    # eigenvalues (3/4, 1/4): B = [[2, 1], [1, 5/8]], det B = (1/2)^2 = 1/4
    t = trace_invariants(diag_state(0.75, 0.25))
    B = bezoutian(t)
    assert np.max(np.abs(B - np.array([[2.0, 1.0], [1.0, 0.625]]))) < 1e-14
    assert discriminant(t) == pytest.approx(0.25, abs=1e-14)


def test_discriminant_is_squared_vandermonde():
    rng = np.random.default_rng(7)
    for N in (2, 3, 4, 5):
        for _ in range(20):
            eigs = rng.dirichlet(np.ones(N))
            t = trace_invariants(diag_state(*eigs))
            vand = 1.0
            for i in range(N):
                for j in range(i + 1, N):
                    vand *= (eigs[i] - eigs[j]) ** 2
            assert discriminant(t) == pytest.approx(vand, rel=1e-8, abs=1e-13)


def test_qutrit_discriminant_value():
    t = trace_invariants(diag_state(0.5, 1 / 3, 1 / 6))
    assert discriminant(t) == pytest.approx(1.0 / 11664.0, rel=1e-10)


def test_bezoutian_rank_counts_distinct_eigenvalues():
    cases = [
        ((0.5, 0.5), 1),
        ((0.75, 0.25), 2),
        ((1 / 3, 1 / 3, 1 / 3), 1),
        ((0.5, 0.25, 0.25), 2),
        ((0.5, 1 / 3, 1 / 6), 3),
        ((0.4, 0.4, 0.1, 0.1), 2),
        ((0.7, 0.1, 0.1, 0.1), 2),
        ((0.4, 0.3, 0.2, 0.1), 4),
    ]
    for eigs, expected in cases:
        B = bezoutian(trace_invariants(diag_state(*eigs)))
        assert bezoutian_rank(B) == expected, eigs


def test_grad_matrix_congruence():
    # Grad = D B D with D = diag(1..N); for (3/4, 1/4) det Grad = 4 det B = 1
    t = trace_invariants(diag_state(0.75, 0.25))
    G = grad_matrix(t)
    B = bezoutian(t)
    D = np.diag([1.0, 2.0])
    assert np.max(np.abs(G - D @ B @ D)) < 1e-14
    assert np.linalg.det(G) == pytest.approx(1.0, abs=1e-12)


def test_grad_psd_iff_bezoutian_psd():
    rng = np.random.default_rng(8)
    for _ in range(200):
        N = rng.integers(2, 6)
        eigs = rng.normal(size=N)
        t_vals = np.array([np.sum(eigs ** k) for k in range(1, N + 1)])
        t = trace_invariants(diag_state(*(eigs / eigs.sum())) if abs(eigs.sum()) > 0.1 else diag_state(*np.abs(eigs) / np.abs(eigs).sum()))
        B = bezoutian(t)
        G = grad_matrix(t)
        psd_b = np.min(np.linalg.eigvalsh(B)) >= -1e-10
        psd_g = np.min(np.linalg.eigvalsh(G)) >= -1e-10
        assert psd_b == psd_g


def test_casimirs_vanish_at_origin():
    for N in (2, 3, 4):
        c = casimirs(np.zeros(N * N - 1), algebra_tensors(N))
        assert all(v == 0.0 for v in c.as_dict().values())


def test_casimir_c2_is_scaled_norm():
    rng = np.random.default_rng(9)
    for N in (2, 3, 4, 5):
        xi = rng.normal(size=N * N - 1)
        c = casimirs(xi, algebra_tensors(N))
        assert c.c2 == pytest.approx((N - 1) * float(xi @ xi), rel=1e-12)


@pytest.mark.parametrize(
    "N, xi, name",
    [
        (3, [0, 0, 0, 0, 0, 0, 0, 1e52], "c6 = inf"),  # c6 ~ xi^6 overflows
        (3, [0, 0, 0, 0, 0, 0, 0, 1e200], "c2 = inf"),  # xi.xi itself overflows
        (3, [0, 0, 0, 0, 0, 0, 0, math.nan], "c2 = nan"),
        (2, [0, math.inf, 0], "c2 = inf"),
    ],
)
def test_casimirs_refuse_an_invariant_leaving_float64(N, xi, name):
    # refused by name, as the CLI words it, and under the suite's
    # error::RuntimeWarning without a warning
    with pytest.raises(ValueError, match=f"^invariant {name} leaves the float64 range$"):
        casimirs(np.array(xi, dtype=float), algebra_tensors(N))


def test_casimirs_screen_a_moderate_vector_by_c2_alone(monkeypatch):
    # up to c2 = 1e50 nothing can overflow, so no errstate is entered; the
    # worst directions are near the Cartan axes, where |xi v xi| is largest
    def refuse(**kwargs):
        raise AssertionError("errstate entered for a moderate xi")

    rng = np.random.default_rng(13)
    for N in range(2, 11):
        tensors = algebra_tensors(N)
        n = N * N - 1
        directions = list(rng.normal(size=(4, n))) + [np.eye(n)[m * m - 2] for m in range(2, N + 1)]
        with monkeypatch.context() as m:
            m.setattr(np, "errstate", refuse)
            for xi in directions:
                xi = xi * math.sqrt(1e50 / ((N - 1) * float(xi @ xi))) * (1.0 - 1e-15)
                c = casimirs(xi, tensors)
                assert c.c2 <= 1e50
                assert all(math.isfinite(v) for v in c.as_dict().values())
        # just above the screen the same vector is computed, and still finite
        c = casimirs(xi * 1.001, tensors)
        assert all(math.isfinite(v) for v in c.as_dict().values())


def test_quatrit_casimirs_in_moduli():
    # diagonal quatrit states: c3 and c4 as cubic/quartic polynomials in
    # the three Cartan moduli
    rng = np.random.default_rng(10)
    t4 = algebra_tensors(4)
    for _ in range(25):
        i3, i8, i15 = rng.normal(size=3) * 0.4
        xi = np.zeros(15)
        xi[2], xi[7], xi[14] = i3, i8, i15
        c = casimirs(xi, t4)
        c3_expected = (
            9.0 * i15 * (i3 ** 2 + i8 ** 2)
            + 9.0 * math.sqrt(2.0) * i8 * (i3 ** 2 - i8 ** 2 / 3.0)
            - 6.0 * i15 ** 3
        )
        c4_expected = (
            9.0 * (i3 ** 2 + i8 ** 2) ** 2
            + 36.0 * math.sqrt(2.0) * i8 * i15 * (i3 ** 2 - i8 ** 2 / 3.0)
            + 12.0 * i15 ** 4
        )
        assert c.c3 == pytest.approx(c3_expected, rel=1e-10, abs=1e-12)
        assert c.c4 == pytest.approx(c4_expected, rel=1e-10, abs=1e-12)


def test_traces_from_casimirs_matches_direct_traces():
    for N in (2, 3, 4, 5):
        states = sample_states(N, 50, seed=100 + N)
        tensors = algebra_tensors(N)
        for rho in states:
            xi = to_bloch(rho)
            c = casimirs(xi, tensors)
            t2, t3, t4 = traces_from_casimirs(c, N)
            t = trace_invariants(rho, upto=4)
            assert t2 == pytest.approx(t.t(2), abs=CHAIN_TOL)
            assert t3 == pytest.approx(t.t(3), abs=CHAIN_TOL)
            assert t4 == pytest.approx(t.t(4), abs=CHAIN_TOL)
    c = casimirs(np.zeros(3), algebra_tensors(2))
    for N in (1, 0):
        with pytest.raises(ValueError, match=f"^need N >= 2, got {N}$"):
            traces_from_casimirs(c, N)


def test_pure_state_casimir_chain():
    # pure states have t_k = 1 for all k; check via the quatrit pure point
    theta = math.acos(1.0 / 3.0)
    coords = OrbitCoordinates(dim=4, radius=1.0, angles=np.array([math.pi / 2.0, theta]))
    spec = spectrum_from_orbit(coords).raw
    rho = np.diag(spec.astype(complex))
    xi = to_bloch(rho)
    c = casimirs(xi, algebra_tensors(4))
    assert c.c2 == pytest.approx(3.0, abs=1e-10)
    assert c.c3 == pytest.approx(6.0, abs=1e-10)
    assert c.c4 == pytest.approx(12.0, abs=1e-10)
    t2, t3, t4 = traces_from_casimirs(c, 4)
    assert t2 == pytest.approx(1.0, abs=1e-10)
    assert t3 == pytest.approx(1.0, abs=1e-10)
    assert t4 == pytest.approx(1.0, abs=1e-10)


def test_qutrit_t3_bloch_along_cartan_axis():
    # xi = r e8 sits at phi = 3pi/2: t3 = 1/9 + (2/3) r^2 - (2/9) r^3
    for r in (0.0, 0.3, 0.7, 1.0):
        xi = np.zeros(8)
        xi[7] = r
        expected = 1.0 / 9.0 + (2.0 / 3.0) * r * r - (2.0 / 9.0) * r ** 3
        assert qutrit_t3_bloch(xi) == pytest.approx(expected, abs=1e-12)
    for shape in ((3,), (15,), (2, 8)):
        with pytest.raises(ValueError, match=f"must have 8 components, got {re.escape(str(shape))}$"):
            qutrit_t3_bloch(np.zeros(shape))


def test_qutrit_t3_bloch_matches_direct():
    states = sample_states(3, 200, seed=77)
    for rho in states:
        xi = to_bloch(rho)
        assert qutrit_t3_bloch(xi) == pytest.approx(
            trace_invariants(rho).t(3), abs=CLOSED_FORM_TOL
        )


def test_qutrit_t3_from_angles_matches_direct():
    rng = np.random.default_rng(78)
    for _ in range(100):
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        coords = OrbitCoordinates(dim=3, radius=r, angles=np.array([phi]))
        spec = spectrum_from_orbit(coords).raw
        rho = np.diag(spec.astype(complex))
        assert qutrit_t3_from_angles(r, phi) == pytest.approx(
            trace_invariants(rho).t(3), abs=CLOSED_FORM_TOL
        )


def test_quatrit_trace_from_angles_special_points():
    # maximally mixed: (1/4, 1/16, 1/64); pure point: (1, 1, 1)
    t2, t3, t4 = quatrit_trace_from_angles(0.0, 1.0, 1.0)
    assert (t2, t3, t4) == pytest.approx((0.25, 0.0625, 0.015625), abs=1e-14)
    theta = math.acos(1.0 / 3.0)
    t2, t3, t4 = quatrit_trace_from_angles(1.0, theta, math.pi / 2.0)
    assert t2 == pytest.approx(1.0, abs=1e-12)
    assert t3 == pytest.approx(1.0, abs=1e-12)
    assert t4 == pytest.approx(1.0, abs=1e-12)


def test_quatrit_trace_from_angles_matches_direct():
    rng = np.random.default_rng(79)
    for _ in range(100):
        r = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        coords = OrbitCoordinates(dim=4, radius=r, angles=np.array([phi, theta]))
        spec = spectrum_from_orbit(coords).raw
        rho = np.diag(spec.astype(complex))
        t = trace_invariants(rho, upto=4)
        t2, t3, t4 = quatrit_trace_from_angles(r, theta, phi)
        assert t2 == pytest.approx(t.t(2), abs=CLOSED_FORM_TOL)
        assert t3 == pytest.approx(t.t(3), abs=CLOSED_FORM_TOL)
        assert t4 == pytest.approx(t.t(4), abs=CLOSED_FORM_TOL)


def test_trace_invariants_range_errors():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        trace_invariants(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4,\)$"):
        trace_invariants(np.full(4, 0.25))
    for upto in (0, -1):
        with pytest.raises(ValueError, match=f"^need at least t_1, got upto={upto}$"):
            trace_invariants(diag_state(0.5, 0.5), upto=upto)
    t = trace_invariants(diag_state(0.5, 0.5))
    with pytest.raises(ValueError):
        t.t(3)
    with pytest.raises(ValueError):
        char_coefficients(trace_invariants(diag_state(0.5, 0.5), upto=1))
    # a tuple with no dimension N >= 1, or with values that are no
    # one-dimensional sequence of reals, is refused where it is built,
    # naming the field, before any invariant can read it
    for dim in (-1, 0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match=r"^dim must be an int >= 1, got "):
            TraceInvariants(dim=dim, values=[1.0, 0.5, 0.3])
    for values in ([[1.0, 0.5], [0.5, 0.3]], 1.0, np.ones((1, 3))):
        with pytest.raises(ValueError, match=r"^values must be one-dimensional, got shape "):
            TraceInvariants(dim=2, values=values)
    # complex values, with a zero imaginary part too, booleans and text are
    # refused, not cast to float64 with the imaginary part dropped, to 1.0
    # and 0.0, or parsed
    for values in (
        [True, False],
        np.array([True, False]),
        [[1.0, 0.5], 0.3],
        ["a", 0.5],
        [1.0, 0.5j],
        np.array([1 + 1j, 0.5]),
        np.array([1 + 0j, 0.5]),
        [np.complex128(1), 0.5],
        ["1", "0.5"],
        np.array(["1", "0.5"]),
    ):
        with pytest.raises(ValueError, match=r"^values must be a one-dimensional sequence of reals"):
            TraceInvariants(dim=2, values=values)
    # an int-like dim is kept as an int; one trace is a whole tuple at N = 1
    t = TraceInvariants(dim=np.int64(2), values=(1.0, 0.5))
    assert type(t.dim) is int and char_coefficients(t).tolist() == [1.0, 0.25]
    assert char_coefficients(TraceInvariants(dim=1, values=[1.0])).tolist() == [1.0]
