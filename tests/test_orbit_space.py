"""Tests for the orbit parameterization, strata, nested radii and
simplex-sphere intersections."""

import math
import re

import numpy as np
import pytest

from quditorbits import orbit_space
from quditorbits.orbit_space import (
    OrbitCoordinates,
    cartan_moduli,
    darboux_point,
    effective_radius,
    embedded_radii,
    intersection_polyhedron,
    orbit_from_spectrum,
    ordered_domain_check,
    polyhedron_transition_radii,
    quatrit_rank3_cos_theta,
    rank2_curve_radius,
    rank_strata,
    spectrum_from_orbit,
    trisectrix_residual,
    unit_vector,
)
from quditorbits.state_space import uniform_simplex

EXACT_TOL = 1e-12
ROUND_TRIP_TOL = 1e-10


def coords(N, r, *angles):
    return OrbitCoordinates(dim=N, radius=r, angles=np.array(angles, dtype=float))


def test_unit_vector_shapes_and_values():
    assert np.array_equal(unit_vector(2, []), np.array([1.0]))
    phi = 1.2
    n3 = unit_vector(3, [phi])
    assert np.max(np.abs(n3 - np.array([math.cos(phi / 3), math.sin(phi / 3)]))) < EXACT_TOL
    theta = 0.7
    n4 = unit_vector(4, [phi, theta])
    expected = np.array(
        [
            math.sin(theta) * math.cos(phi / 3),
            math.sin(theta) * math.sin(phi / 3),
            math.cos(theta),
        ]
    )
    assert np.max(np.abs(n4 - expected)) < EXACT_TOL
    for N in range(2, 9):
        n = unit_vector(N, np.linspace(0.3, 2.0, N - 2))
        assert abs(np.linalg.norm(n) - 1.0) < EXACT_TOL


def test_unit_vector_wrong_angle_count():
    with pytest.raises(ValueError):
        unit_vector(4, [1.0])
    for N in (1, 0):
        with pytest.raises(ValueError, match="^need N >= 2$"):
            unit_vector(N, [])


def test_pure_qutrit_at_phi_half_pi():
    spec = spectrum_from_orbit(coords(3, 1.0, math.pi / 2.0))
    assert np.max(np.abs(spec.raw - np.array([1.0, 0.0, 0.0]))) < EXACT_TOL
    assert spec.valid


def test_pure_quatrit_point():
    theta = math.acos(1.0 / 3.0)
    spec = spectrum_from_orbit(coords(4, 1.0, math.pi / 2.0, theta))
    assert np.max(np.abs(spec.raw - np.array([1.0, 0.0, 0.0, 0.0]))) < EXACT_TOL


def test_qubit_poles():
    spec = spectrum_from_orbit(coords(2, 1.0))
    assert np.max(np.abs(spec.raw - np.array([1.0, 0.0]))) < EXACT_TOL
    half = spectrum_from_orbit(coords(2, 0.5))
    assert np.max(np.abs(half.raw - np.array([0.75, 0.25]))) < EXACT_TOL


def test_t2_radial_law():
    # sum r_i^2 = 1/N + (N-1) r^2 / N for every direction
    rng = np.random.default_rng(31)
    for N in range(2, 9):
        for _ in range(20):
            r = rng.uniform(0.0, 1.0)
            angles = rng.uniform(0.1, math.pi - 0.1, size=N - 2)
            if N >= 3:
                angles[0] = rng.uniform(0.0, 3.0 * math.pi)
            spec = spectrum_from_orbit(coords(N, r, *angles))
            t2 = float(np.sum(spec.raw ** 2))
            assert t2 == pytest.approx(1.0 / N + (N - 1) * r * r / N, abs=EXACT_TOL)


def test_spectrum_sums_to_one():
    rng = np.random.default_rng(32)
    for N in (3, 4, 6):
        for _ in range(10):
            spec = spectrum_from_orbit(
                coords(N, rng.uniform(0, 1), *rng.uniform(0, math.pi, size=N - 2))
            )
            assert spec.raw.sum() == pytest.approx(1.0, abs=EXACT_TOL)


def test_orbit_round_trip_all_dims():
    rng = np.random.default_rng(33)
    for N in range(2, 9):
        for _ in range(40):
            spectrum = np.sort(uniform_simplex(N, rng))[::-1]
            c = orbit_from_spectrum(spectrum)
            back = spectrum_from_orbit(c)
            assert np.max(np.abs(back.raw - spectrum)) < ROUND_TRIP_TOL
            assert ordered_domain_check(c)


def test_orbit_round_trip_angles():
    # coordinates in the ordered domain survive spectrum -> coords
    c0 = coords(4, 0.45, 2.2, 1.0)
    spec = spectrum_from_orbit(c0)
    if spec.valid and np.all(np.diff(spec.raw) <= 0):
        c1 = orbit_from_spectrum(spec.raw)
        assert c1.radius == pytest.approx(0.45, abs=ROUND_TRIP_TOL)
        assert np.max(np.abs(c1.angles - np.array([2.2, 1.0]))) < ROUND_TRIP_TOL


def test_maximally_mixed_is_degenerate():
    c = orbit_from_spectrum(np.full(3, 1.0 / 3.0))
    assert c.radius == 0.0
    assert c.degenerate_angles


def test_orbit_from_spectrum_validation():
    for spectrum in ([1.0], []):
        with pytest.raises(ValueError, match="^need N >= 2$"):
            orbit_from_spectrum(np.array(spectrum))
    with pytest.raises(ValueError):
        orbit_from_spectrum(np.array([0.2, 0.5, 0.3]))  # not descending
    with pytest.raises(ValueError):
        orbit_from_spectrum(np.array([0.5, 0.3, 0.3]))  # sums to 1.1
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="spectrum sums to"):
            orbit_from_spectrum(np.array([bad, 0.5, 0.5]))
    # differences and sums past float64 are refused without a RuntimeWarning
    with pytest.raises(ValueError, match="^spectrum must be sorted in descending order$"):
        orbit_from_spectrum(np.array([1e308, -1e308, 1.0]))
    for spectrum in ([1e308, 1e308, -1e308], [np.inf, np.inf, 0.0]):
        with pytest.raises(ValueError, match="^spectrum sums to inf, expected 1$"):
            orbit_from_spectrum(np.array(spectrum))


def test_spectrum_from_orbit_refuses_non_finite_coordinates():
    with pytest.raises(ValueError, match="orbit radius must be finite, got inf"):
        spectrum_from_orbit(coords(3, math.inf, 2.0))
    with pytest.raises(ValueError, match=r"orbit angles must be finite, got \[0.5, nan\]"):
        spectrum_from_orbit(coords(4, 0.5, 0.5, math.nan))
    # a finite radius whose spectrum leaves float64, without a RuntimeWarning
    # (inf * 0 where n has a zero component)
    for N, radius, angles in ((3, 1.7e308, (2.0,)), (4, 1.5e308, (2.0, 1.0)), (3, 1.7e308, (0.0,))):
        message = f"eigenvalue r_1 of orbit radius {radius} leaves the float64 range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spectrum_from_orbit(coords(N, radius, *angles))
    assert np.isfinite(spectrum_from_orbit(coords(3, 1.5e308, 2.0)).raw).all()


def test_ordered_domain_boundaries_qutrit():
    # phi in [pi/2, 3pi/2] is the ordered chamber at small r
    assert ordered_domain_check(coords(3, 0.3, math.pi / 2.0))
    assert ordered_domain_check(coords(3, 0.3, math.pi))
    assert ordered_domain_check(coords(3, 0.3, 3.0 * math.pi / 2.0))
    assert not ordered_domain_check(coords(3, 0.3, 0.0))
    assert not ordered_domain_check(coords(3, 0.3, 1.9 * math.pi))
    # large r at phi past the rank-2 curve leaves the simplex
    assert not ordered_domain_check(coords(3, 0.9, 3.0 * math.pi / 2.0))


def test_cartan_moduli_match_radius_times_direction():
    c = coords(3, 0.6, 2.0)
    spec = spectrum_from_orbit(c)
    moduli = cartan_moduli(spec.raw)
    n = unit_vector(3, [2.0])
    assert np.max(np.abs(moduli - 0.6 * n)) < EXACT_TOL


def test_rank_strata_regular_orbit():
    rep = rank_strata(3, coords(3, 0.3, math.pi))
    assert rep.label == "O_123"
    assert rep.multiplicities == (1, 1, 1)
    assert rep.rank == 3
    assert rep.orbit_dimension == 6
    assert rep.stratum == "interior"
    assert rep.effective_radius is None


def test_rank_strata_pure_qutrit():
    rep = rank_strata(3, coords(3, 1.0, math.pi / 2.0))
    assert rep.label == "O_1|23"
    assert rep.multiplicities == (1, 2)
    assert rep.rank == 1
    assert rep.orbit_dimension == 4
    assert rep.stratum == "pure"
    assert rep.effective_radius == pytest.approx(1.0, abs=EXACT_TOL)


def test_rank_strata_maximally_mixed():
    rep = rank_strata(3, coords(3, 0.0, 0.0))
    assert rep.label == "O_(123)"
    assert rep.multiplicities == (3,)
    assert rep.orbit_dimension == 0
    assert rep.stratum == "interior"


@pytest.mark.parametrize(
    "labels",
    [
        {(0.7, 0.3): "O_12", (0.5, 0.5): "O_(12)"},
        {
            (0.5, 0.3, 0.2): "O_123",
            (0.4, 0.3, 0.3): "O_1|23",
            (0.4, 0.4, 0.2): "O_12|3",
            (1 / 3, 1 / 3, 1 / 3): "O_(123)",
        },
        {
            (0.4, 0.3, 0.2, 0.1): "O_1234",
            (0.4, 0.2, 0.2, 0.2): "O_1|234",
            (0.3, 0.3, 0.3, 0.1): "O_123|4",
            (0.3, 0.3, 0.2, 0.2): "O_12|34",
            (0.4, 0.3, 0.3, 0.0): "O_1|23|4",
            (0.25, 0.25, 0.25, 0.25): "O_(1234)",
        },
    ],
    ids=["N=2", "N=3", "N=4"],
)
def test_rank_strata_labels_each_orbit_type_once(labels):
    # the one-block spectrum I/N is labeled apart from the regular orbit
    for spectrum, label in labels.items():
        N = len(spectrum)
        rep = rank_strata(N, orbit_from_spectrum(np.array(spectrum)))
        assert rep.label == label
        assert rep.orbit_dimension == N * N - sum(m * m for m in rep.multiplicities)
    assert len(set(labels.values())) == len(labels)


def test_rank_strata_refuses_coordinates_of_another_dimension():
    with pytest.raises(ValueError, match="^coordinates are for N=3, requested N=4$"):
        rank_strata(4, coords(3, 0.3, math.pi))


def test_rank_strata_on_rank2_curve():
    # spectrum (2/3, 1/3, 0) lies on the curve at r = 1/sqrt(3)
    c = orbit_from_spectrum(np.array([2.0 / 3.0, 1.0 / 3.0, 0.0]))
    assert c.radius == pytest.approx(1.0 / math.sqrt(3.0), abs=EXACT_TOL)
    rep = rank_strata(3, c)
    assert rep.rank == 2
    assert rep.stratum == "boundary-rank-2"
    assert rep.effective_radius == pytest.approx(1.0 / 3.0, abs=1e-10)

    # (1/2, 1/2, 0) is the endpoint r = 1/2 of the curve: embedded qubit
    # is maximally mixed
    c2 = orbit_from_spectrum(np.array([0.5, 0.5, 0.0]))
    assert c2.radius == pytest.approx(0.5, abs=EXACT_TOL)
    rep2 = rank_strata(3, c2)
    assert rep2.rank == 2
    assert rep2.effective_radius == pytest.approx(0.0, abs=1e-6)


def test_rank_strata_quatrit_rank3_onset():
    c = coords(4, 1.0 / 3.0, 0.0, 0.0)  # theta = 0 points along the last axis
    spec = spectrum_from_orbit(c)
    assert np.max(np.abs(spec.raw - np.array([1 / 3, 1 / 3, 1 / 3, 0.0]))) < EXACT_TOL
    rep = rank_strata(4, c)
    assert rep.rank == 3
    assert rep.stratum == "boundary-rank-3"
    assert rep.effective_radius == pytest.approx(0.0, abs=1e-6)
    assert rep.multiplicities == (3, 1)
    assert rep.orbit_dimension == 16 - 9 - 1


def test_rank_strata_quatrit_double_zero():
    c = orbit_from_spectrum(np.array([0.7, 0.3, 0.0, 0.0]))
    rep = rank_strata(4, c)
    assert rep.rank == 2
    assert rep.stratum == "boundary-rank-2"
    # matryoshka radius at this r
    assert rep.effective_radius == pytest.approx(
        effective_radius("qubit-in-qutrit-in-quatrit", c.radius), abs=EXACT_TOL
    )


def test_effective_radius_endpoints():
    assert effective_radius("qubit-in-qutrit", 1.0) == pytest.approx(1.0, abs=EXACT_TOL)
    assert effective_radius("qubit-in-qutrit", 0.5) == pytest.approx(0.0, abs=EXACT_TOL)
    assert effective_radius("qutrit-in-quatrit", 1.0) == pytest.approx(1.0, abs=EXACT_TOL)
    assert effective_radius("qutrit-in-quatrit", 1.0 / 3.0) == pytest.approx(0.0, abs=EXACT_TOL)
    assert effective_radius("qubit-in-qutrit-in-quatrit", 1.0) == pytest.approx(1.0, abs=EXACT_TOL)
    assert effective_radius("qubit-in-qutrit-in-quatrit", 1.0 / math.sqrt(3.0)) == pytest.approx(
        0.0, abs=1e-7
    )


def test_effective_radius_matches_closed_forms():
    closed_forms = {
        "qubit-in-qutrit": (0.5, lambda r: (2.0 / math.sqrt(3.0)) * math.sqrt(r * r - 0.25)),
        "qutrit-in-quatrit": (
            1.0 / 3.0,
            lambda r: (3.0 / (2.0 * math.sqrt(2.0))) * math.sqrt(r * r - 1.0 / 9.0),
        ),
        "qubit-in-qutrit-in-quatrit": (
            1.0 / math.sqrt(3.0),
            lambda r: (3.0 / math.sqrt(6.0)) * math.sqrt(r * r - 1.0 / 3.0),
        ),
    }
    for kind, (lo, formula) in closed_forms.items():
        for r in np.linspace(lo + 1e-3, 1.0, 400):
            assert effective_radius(kind, r) == pytest.approx(formula(r), abs=1e-14)


def test_effective_radius_domain_errors():
    with pytest.raises(ValueError):
        effective_radius("qubit-in-qutrit", 0.3)
    with pytest.raises(ValueError):
        effective_radius("qutrit-in-quatrit", 1.2)
    with pytest.raises(ValueError):
        effective_radius("nonsense", 0.9)
    # NaN is no radius, on every guard
    for kind in ("qubit-in-qutrit", "qutrit-in-quatrit", "qubit-in-qutrit-in-quatrit"):
        with pytest.raises(ValueError, match=f"{kind} stratum exists for r in"):
            effective_radius(kind, math.nan)
    with pytest.raises(ValueError, match="rank-3 surface exists for r in"):
        quatrit_rank3_cos_theta(math.nan)
    with pytest.raises(ValueError, match="Bloch radius must lie in"):
        intersection_polyhedron(3, math.nan)


def test_embedded_radii_follow_the_corner_radii():
    # each kind with the rank k of its stratum, which begins at the corner radius r_k
    kinds = {
        3: [("qubit-in-qutrit", 2)],
        4: [("qutrit-in-quatrit", 3), ("qubit-in-qutrit-in-quatrit", 2)],
    }
    for N, table in kinds.items():
        onsets = [orbit_space._corner_radius(N, k) for _, k in table]
        for r in np.append(np.linspace(0.0, 1.0, 41), onsets):
            radii = embedded_radii(N, r)
            assert list(radii) == [kind for (kind, _), lo in zip(table, onsets) if r >= lo]
            assert all(radii[kind] == effective_radius(kind, r) for kind in radii)
    assert embedded_radii(2, 0.7) == embedded_radii(5, 0.7) == {}


def test_embedded_radii_refuse_a_nan_radius():
    # NaN reaches effective_radius's refusal, as inf does, instead of
    # reading as a radius short of every stratum
    for N, kind, lo in ((3, "qubit-in-qutrit", 0.5), (4, "qutrit-in-quatrit", 1 / 3)):
        for r in (math.nan, math.inf):
            message = f"{kind} stratum exists for r in [{lo:.6f}, 1], got r={r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                embedded_radii(N, r)


def test_rank_strata_reads_the_embedding_of_its_rank():
    cases = {
        (0.7, 0.3, 0.0): "qubit-in-qutrit",
        (1.0, 0.0, 0.0): "qubit-in-qutrit",
        (0.5, 0.3, 0.2, 0.0): "qutrit-in-quatrit",
        (0.7, 0.3, 0.0, 0.0): "qubit-in-qutrit-in-quatrit",
        (1.0, 0.0, 0.0, 0.0): "qubit-in-qutrit-in-quatrit",
    }
    for spectrum, kind in cases.items():
        c = orbit_from_spectrum(np.array(spectrum))
        assert rank_strata(len(spectrum), c).effective_radius == effective_radius(kind, c.radius)
    # full rank, or a dimension with no embedding in the table
    for spectrum in ((0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1), (0.5, 0.3, 0.2, 0.0, 0.0)):
        c = orbit_from_spectrum(np.array(spectrum))
        assert rank_strata(len(spectrum), c).effective_radius is None


def test_effective_radius_t2_nesting():
    # t2 of the rank-deficient parent equals t2 of the embedded child at
    # the effective radius
    for r in np.linspace(1.0 / 3.0, 1.0, 100):
        r_star = effective_radius("qutrit-in-quatrit", r)
        t2_parent = 0.25 + 0.75 * r * r
        t2_child = 1.0 / 3.0 + (2.0 / 3.0) * r_star * r_star
        assert t2_parent == pytest.approx(t2_child, abs=EXACT_TOL)
    for r in np.linspace(0.5, 1.0, 100):
        r_star = effective_radius("qubit-in-qutrit", r)
        t2_parent = 1.0 / 3.0 + (2.0 / 3.0) * r * r
        t2_child = 0.5 + 0.5 * r_star * r_star
        assert t2_parent == pytest.approx(t2_child, abs=EXACT_TOL)


def test_effective_radius_composition():
    for r in np.linspace(1.0 / math.sqrt(3.0) + 1e-9, 1.0, 50):
        via_chain = effective_radius("qubit-in-qutrit", effective_radius("qutrit-in-quatrit", r))
        direct = effective_radius("qubit-in-qutrit-in-quatrit", r)
        assert via_chain == pytest.approx(direct, abs=1e-10)


def test_rank2_curve_radius_endpoints():
    assert rank2_curve_radius(math.pi / 2.0) == pytest.approx(1.0, abs=EXACT_TOL)
    assert rank2_curve_radius(3.0 * math.pi / 2.0) == pytest.approx(0.5, abs=EXACT_TOL)
    with pytest.raises(ValueError):
        rank2_curve_radius(0.0)
    # a NaN passes "sin(phi/3) <= 0" and inf reaches math.sin's domain error
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^orbit angles must be finite, got phi={phi}$"):
            rank2_curve_radius(phi)


def test_rank2_curve_gives_rank2_spectra():
    for phi in np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, 50):
        r = rank2_curve_radius(phi)
        spec = spectrum_from_orbit(coords(3, r, phi))
        assert abs(spec.raw[-1]) < 1e-12
        assert spec.raw[0] >= spec.raw[1] >= -1e-12


def test_trisectrix_special_points():
    assert trisectrix_residual(1.0, math.pi / 2.0) == pytest.approx(0.0, abs=EXACT_TOL)
    assert trisectrix_residual(0.0, 1.0) == pytest.approx(0.5, abs=EXACT_TOL)
    # generic off-curve point does not vanish
    assert abs(trisectrix_residual(0.5, math.pi / 2.0)) > 1e-3


def test_trisectrix_refuses_non_finite_points():
    # refused by name, without a RuntimeWarning (which the suite makes an error)
    for r in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^orbit radius must be finite, got {r}$"):
            trisectrix_residual(r, 1.0)
    for phi in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^orbit angles must be finite, got phi={phi}$"):
            trisectrix_residual(0.5, phi)


def test_trisectrix_vanishes_on_rank2_curve():
    for phi in np.linspace(math.pi / 2.0, 3.0 * math.pi / 2.0, 100):
        r = rank2_curve_radius(phi)
        assert abs(trisectrix_residual(r, phi)) < 1e-10


def test_quatrit_rank3_surface():
    assert quatrit_rank3_cos_theta(1.0) == pytest.approx(1.0 / 3.0, abs=EXACT_TOL)
    assert quatrit_rank3_cos_theta(1.0 / 3.0) == pytest.approx(1.0, abs=EXACT_TOL)
    with pytest.raises(ValueError):
        quatrit_rank3_cos_theta(0.2)
    # points on the surface have exactly one zero eigenvalue
    for r in np.linspace(0.34, 0.99, 30):
        theta = math.acos(quatrit_rank3_cos_theta(r))
        spec = spectrum_from_orbit(coords(4, r, math.pi / 2.0, theta))
        # the zero sits at the bottom when the point is in the ordered domain
        assert np.min(np.abs(spec.raw)) < 1e-10


def test_darboux_point_matches_spectrum():
    rng = np.random.default_rng(34)
    for N in range(2, 9):
        for _ in range(10):
            r = rng.uniform(0.0, 1.0)
            angles = rng.uniform(0.0, math.pi, size=N - 2)
            c = coords(N, r, *angles)
            assert np.max(np.abs(darboux_point(c) - spectrum_from_orbit(c).raw)) < EXACT_TOL


def test_darboux_point_refuses_what_spectrum_from_orbit_refuses():
    for r, message in (
        (math.nan, "orbit radius must be nonnegative, got nan"),
        (-0.5, "orbit radius must be nonnegative, got -0.5"),
        (math.inf, "orbit radius must be finite, got inf"),
    ):
        for N, angles in ((2, ()), (3, (2.0,)), (4, (2.0, 1.0))):
            for build in (darboux_point, spectrum_from_orbit):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build(coords(N, r, *angles))


def test_triangle_image_of_qutrit_spectra():
    # ordered spectra land in the triangle 0 <= I3 <= sqrt(3)/2,
    # I3/sqrt(3) <= I8 <= 1/2
    rng = np.random.default_rng(35)
    tol = 1e-12
    for _ in range(500):
        spectrum = np.sort(uniform_simplex(3, rng))[::-1]
        i3, i8 = cartan_moduli(spectrum)
        assert -tol <= i3 <= math.sqrt(3.0) / 2.0 + tol
        assert i3 / math.sqrt(3.0) - tol <= i8 <= 0.5 + tol
    # vertices: maximally mixed, rank-2 balanced, pure
    assert np.max(np.abs(cartan_moduli(np.array([1 / 3, 1 / 3, 1 / 3])))) < tol
    assert np.max(np.abs(cartan_moduli(np.array([0.5, 0.5, 0.0])) - np.array([0.0, 0.5]))) < tol
    assert np.max(
        np.abs(cartan_moduli(np.array([1.0, 0.0, 0.0])) - np.array([math.sqrt(3.0) / 2.0, 0.5]))
    ) < tol


def test_rank2_spectra_land_on_top_edge():
    rng = np.random.default_rng(36)
    for _ in range(100):
        a = rng.uniform(0.5, 1.0)
        i3, i8 = cartan_moduli(np.array([a, 1.0 - a, 0.0]))
        assert i8 == pytest.approx(0.5, abs=1e-12)


def test_quatrit_convex_body_image():
    # ordered quatrit spectra satisfy 0 <= I3, I8 >= I3/sqrt(3),
    # I15 >= I8/sqrt(2), I15 <= 1/3
    rng = np.random.default_rng(37)
    tol = 1e-12
    for _ in range(500):
        spectrum = np.sort(uniform_simplex(4, rng))[::-1]
        i3, i8, i15 = cartan_moduli(spectrum)
        assert i3 >= -tol
        assert i8 >= i3 / math.sqrt(3.0) - tol
        assert i15 >= i8 / math.sqrt(2.0) - tol
        assert i15 <= 1.0 / 3.0 + tol


def test_rank3_spectra_land_on_i15_slice():
    rng = np.random.default_rng(38)
    for _ in range(100):
        s3 = np.sort(uniform_simplex(3, rng))[::-1]
        spectrum = np.concatenate([s3, [0.0]])
        assert cartan_moduli(spectrum)[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_intersection_arc_qutrit():
    small = intersection_polyhedron(3, 0.4)
    assert small["kind"] == "full-chamber arc"
    assert small["phi_range"] == pytest.approx([math.pi / 2.0, 3.0 * math.pi / 2.0])
    assert small["circle_radius"] == pytest.approx(math.sqrt(2.0 / 3.0) * 0.4, abs=EXACT_TOL)

    big = intersection_polyhedron(3, 0.8)
    assert big["kind"] == "arc truncated by r_3 = 0"
    phi_hi = 3.0 * math.asin(1.0 / 1.6)
    assert big["phi_range"][1] == pytest.approx(phi_hi, abs=EXACT_TOL)
    assert big["arc_angle"] == pytest.approx((phi_hi - math.pi / 2.0) / 3.0, abs=EXACT_TOL)
    # truncated endpoint has a zero eigenvalue
    assert big["endpoints"][1][2] == pytest.approx(0.0, abs=1e-12)

    third = 1.0 / 3.0
    assert intersection_polyhedron(3, 0.0) == {
        "N": 3,
        "r": 0.0,
        "circle_radius": 0.0,
        "center": [third] * 3,
        "kind": "point",
        "phi_range": None,
        "arc_angle": 0.0,
        "endpoints": [[third] * 3],
    }


def test_intersection_arc_ends_on_simplex_edges():
    # phi_lo = pi/2 on the edge v_1 v_3 (r_2 = r_3); phi_hi = 3pi/2 on the
    # edge v_2 v_3 (r_1 = r_2) up to r = 1/2, then 3 asin(1/(2r)) on r_3 = 0
    edge_cases = [1e-14, 1e-10, 1e-6, 0.5 - 1e-12, 0.5 + 1e-12]
    for r in np.concatenate((edge_cases, np.linspace(0.01, 1.0, 100))):
        rep = intersection_polyhedron(3, r)
        phi_hi = 1.5 * math.pi if r <= 0.5 else 3.0 * math.asin(0.5 / r)
        assert rep["phi_range"] == pytest.approx([0.5 * math.pi, phi_hi], abs=1e-12)
        lo, hi = (np.array(v) for v in rep["endpoints"])
        assert lo[1] == lo[2]
        assert (hi[0] == hi[1]) if r <= 0.5 else (hi[2] == 0.0)
        for v in (lo, hi):
            assert v.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(v - 1.0 / 3.0) == pytest.approx(rep["circle_radius"], abs=1e-15)


def test_intersection_polyhedron_vertex_counts():
    assert intersection_polyhedron(4, 0.2)["n_vertices"] == 3
    assert intersection_polyhedron(4, 0.5)["n_vertices"] == 4
    assert intersection_polyhedron(4, 0.8)["n_vertices"] == 3
    assert intersection_polyhedron(4, 1.0)["kind"] == "point"
    assert intersection_polyhedron(4, 1.0)["vertices"][0] == pytest.approx(
        [1.0, 0.0, 0.0, 0.0], abs=1e-9
    )


def test_intersection_polyhedron_vertices_valid():
    for r in (0.2, 0.5, 0.8):
        rep = intersection_polyhedron(4, r)
        for v in rep["vertices"]:
            v = np.array(v)
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(v) <= 1e-9)
            assert v[-1] >= -1e-9
            # on the sphere
            assert np.linalg.norm(v - 0.25) == pytest.approx(
                rep["sphere_radius"], abs=1e-9
            )


def test_polyhedron_transition_radii():
    lo, hi = polyhedron_transition_radii()
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert hi == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    # and against the vertex counts on either side: 3 -> 4, then 4 -> 3
    for r, below, above in ((lo, 3, 4), (hi, 4, 3)):
        assert intersection_polyhedron(4, r - 1e-6)["n_vertices"] == below
        assert intersection_polyhedron(4, r + 1e-6)["n_vertices"] == above


def test_polyhedron_has_no_spurious_vertex_near_transitions():
    for r in np.linspace(0.0, 1.0, 2001):
        assert intersection_polyhedron(4, r)["n_vertices"] <= 4
    for e in range(4, 13):
        step = 10.0 ** -e
        third = intersection_polyhedron(4, 1.0 / 3.0 + step)
        assert (third["kind"], third["n_vertices"]) == ("spherical quadrilateral", 4)
        root = intersection_polyhedron(4, 1.0 / math.sqrt(3.0) + step)
        assert (root["kind"], root["n_vertices"]) == ("spherical triangle", 3)


def _ordered_simplex_vertex(x, tol=1e-12):
    """x is a spectrum on the ordered simplex lying on at least N - 2 of its
    N facets x_i = x_{i+1}, x_N = 0, i.e. on one of its edges."""
    facets = np.append(-np.diff(x), x[-1])
    on_simplex = abs(x.sum() - 1.0) < tol and np.all(facets >= -tol)
    return on_simplex and np.sum(facets < tol) >= len(x) - 2


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_polyhedron_vertex_count_between_corner_radii(N):
    # inside (r_{k+1}, r_k) the sphere meets the k (N - k) edges joining
    # the corners v_1..v_k to v_{k+1}..v_N, each once
    corners = [math.sqrt((N / k - 1.0) / (N - 1.0)) for k in range(1, N + 1)]
    for k in range(1, N):
        for r in np.linspace(corners[k], corners[k - 1], 7)[1:-1]:
            vertices = orbit_space._polyhedron_vertices(N, r)
            assert len(vertices) == k * (N - k)
            R = math.sqrt((N - 1) / N) * r
            for v in vertices:
                assert _ordered_simplex_vertex(v)
                assert np.linalg.norm(v - 1.0 / N) == pytest.approx(R, abs=1e-14)
            gaps = np.linalg.norm(vertices[:, None] - vertices[None], axis=2)
            assert np.all(gaps + np.eye(len(vertices)) > 1e-9)


def test_intersection_validation():
    with pytest.raises(ValueError):
        intersection_polyhedron(5, 0.5)
    with pytest.raises(ValueError):
        intersection_polyhedron(3, 1.5)
