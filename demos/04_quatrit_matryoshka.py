"""
Nested state spaces: the quatrit orbit space contains the qutrit's
==================================================================

Rank-deficient quatrit states form a copy of the qutrit orbit space
sitting inside the quatrit one, and the rank-2 states inside that form a
qubit ball: the spaces nest like matryoshka dolls.  This script locates
the rank-3 surface, maps strata onto their effective lower-dimensional
radii, and tracks the positivity polyhedron as the radius grows.
"""

import numpy as np

from quditorbits import (
    OrbitCoordinates,
    effective_radius,
    intersection_polyhedron,
    orbit_from_spectrum,
    polyhedron_transition_radii,
    quatrit_rank3_cos_theta,
    rank_strata,
    spectrum_from_orbit,
)

np.set_printoptions(precision=6, suppress=True)


# ---------------------------------------------------------------------------
# The rank-3 surface: cos(theta) = 1 / (3 r) kills the last eigenvalue
# ---------------------------------------------------------------------------

# A quatrit orbit point has radius r and two polar angles (phi, theta).
# Whenever cos(theta) = 1/(3r), the fourth spectral component vanishes for
# every phi, so the whole circle of directions lies on the rank-3 face
# (wherever the other three components stay admissible).
print("fourth spectral component on the cos(theta) = 1/(3r) surface:")
for r in (0.5, 0.7, 0.9):
    theta = np.arccos(quatrit_rank3_cos_theta(r))
    worst = 0.0
    for phi in np.linspace(np.pi / 2, 3 * np.pi / 2, 7):
        coords = OrbitCoordinates(dim=4, radius=r, angles=np.array([phi, theta]))
        spec = spectrum_from_orbit(coords)
        worst = max(worst, abs(spec.raw[-1]))
    print(f"  r = {r}: max |p_4| over the phi sweep = {worst:.2e}")


# ---------------------------------------------------------------------------
# Effective radii: each nesting step is a radius remap
# ---------------------------------------------------------------------------

# Rank-deficient spectra land at a smaller radius when re-read in the
# lower-dimensional orbit space.  The remaps compose.
for spec in ([0.5, 0.3, 0.2, 0.0], [0.6, 0.4, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]):
    coords4 = orbit_from_spectrum(spec)
    s = rank_strata(4, coords4)
    # keep at least two levels so the pure state re-reads as a pure qubit
    nonzero = spec[: max(s.rank, 2)]
    coords_low = orbit_from_spectrum(nonzero)
    print(f"\nspectrum {np.array(spec)}: label {s.label}, rank {s.rank}, "
          f"r4 = {coords4.radius:.6f}")
    print(f"  re-read as a {len(nonzero)}-level spectrum: "
          f"r{len(nonzero)} = {coords_low.radius:.6f}")
    if s.rank == 3:
        print(f"  effective_radius('qutrit-in-quatrit', r4) = "
              f"{effective_radius('qutrit-in-quatrit', coords4.radius):.6f}")
    if s.rank == 2:
        print(f"  effective_radius('qubit-in-qutrit-in-quatrit', r4) = "
              f"{effective_radius('qubit-in-qutrit-in-quatrit', coords4.radius):.6f}")

# Composition: dropping from 4 levels to 3 and then to 2 agrees with the
# single remap from 4 to 2.
r4 = 0.85
chained = effective_radius("qubit-in-qutrit", effective_radius("qutrit-in-quatrit", r4))
direct = effective_radius("qubit-in-qutrit-in-quatrit", r4)
print(f"\nremap composition at r4 = {r4}: chained = {chained:.12f}, "
      f"direct = {direct:.12f}")


# ---------------------------------------------------------------------------
# The positivity polyhedron on spheres of growing radius
# ---------------------------------------------------------------------------

# At a fixed radius the admissible orbit directions form a spherical
# polygon.  Its vertex count changes at two transition radii, where the
# sphere passes the simplex corners (1/3, 1/3, 1/3, 0) and (1/2, 1/2, 0, 0).
lo, hi = polyhedron_transition_radii()
print(f"\ntransition radii: {lo:.9f} (= 1/3), {hi:.9f} (= 1/sqrt(3))")

for r in (0.25, 0.45, 0.8, 1.0):
    poly = intersection_polyhedron(4, r)
    if poly["kind"] == "point":
        print(f"r = {r}: single point (the pure state)")
        continue
    print(f"r = {r}: {poly['kind']} with {poly['n_vertices']} vertices")
    for v in poly["vertices"]:
        print(f"    vertex spectrum {np.asarray(v)}")
