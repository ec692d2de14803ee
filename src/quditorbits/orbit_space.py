"""Orbit-space parameterization of qudit spectra.

A unitary orbit of density matrices is labeled by its ordered spectrum,
or equivalently by a radial coordinate r = |I| and a unit vector on the
sphere S^{N-2} of traceless diagonal (Cartan) directions:

    r_i = 1/N + sqrt(2(N-1)/N) r mu_i . n(angles),

with mu_i the weights of the defining representation.  The angle
convention is nested-polar with the innermost pair tripled,
n = (cos(phi/3), sin(phi/3)) for N = 3, extended outward by one polar
angle per extra dimension with the last Cartan axis as the pole
(n = (sin(theta) cos(phi/3), sin(theta) sin(phi/3), cos(theta)) for
N = 4).  The division by three makes the positivity boundary algebraic:
for a qutrit the rank-2 stratum is the polar curve r = 1/(2 sin(phi/3)),
a branch of the Maclaurin trisectrix.

Boundary machinery: rank strata with orbit dimensions, effective Bloch
radii of the embedded lower qudits (a rank-2 qutrit is a qubit of radius
(2/sqrt(3)) sqrt(r^2 - 1/4), and so on down the matryoshka), and the
intersection of the ordered eigenvalue simplex with the sphere of states
at fixed r (an arc for N = 3, a spherical triangle or quadrilateral for
N = 4).  All of it is read off the corners v_k = (1/k, ..., 1/k, 0, ..., 0)
of the ordered simplex, at Bloch radii r_k = sqrt((N/k - 1)/(N - 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .state_space import TRACE_TOL, _stratum
from .su_algebra import darboux_frame, weight_vectors

ANGLE_CONVENTION = "nested-polar-phi3-last-cartan-axis"

# Eigenvalues closer than this are treated as degenerate when strata are
# labeled.
DEGENERACY_TOL = 1e-7

# Eigenvalues below this count as zeros for rank purposes.
ZERO_TOL = 1e-9

# Slack on ordering / nonnegativity predicates.
ORDER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OrbitCoordinates:
    """Radial-angular coordinates of a unitary orbit.

    angles has N - 2 entries (phi first, then one polar angle per level
    moving outward); radius lies in [0, 1] for spectra on the simplex.
    """

    dim: int
    radius: float
    angles: np.ndarray
    degenerate_angles: bool = False


@dataclass(frozen=True)
class StratumReport:
    """Degeneracy pattern of an orbit and its geometric consequences."""

    label: str
    multiplicities: tuple
    rank: int
    orbit_dimension: int
    stratum: str
    effective_radius: float | None = None


class OrbitSpectrum(NamedTuple):
    """Raw and ordered eigenvalue tuples produced by spectrum_from_orbit."""

    raw: np.ndarray
    ordered: np.ndarray
    valid: bool


def unit_vector(N: int, angles) -> np.ndarray:
    """Unit vector on S^{N-2} in the nested-polar convention.

    angles = (phi,) for N = 3, (phi, theta) for N = 4, one more polar
    angle per further level; empty for N = 2 where the sphere S^0
    degenerates to the point n = (1).
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float)) if angles is not None else np.array([])
    if N < 2:
        raise ValueError("need N >= 2")
    if len(angles) != N - 2:
        raise ValueError(f"su({N}) orbit needs {N - 2} angles, got {len(angles)}")
    if not np.isfinite(angles).all():
        raise ValueError(f"orbit angles must be finite, got {angles.tolist()}")
    if N == 2:
        return np.array([1.0])
    phi = angles[0]
    n = np.array([np.cos(phi / 3.0), np.sin(phi / 3.0)])
    for t in angles[1:]:
        n = np.concatenate([np.sin(t) * n, [np.cos(t)]])
    return n


def spectrum_from_orbit(coords: OrbitCoordinates) -> OrbitSpectrum:
    """Eigenvalue tuple of the orbit, r_i = 1/N + sqrt(2(N-1)/N) r mu_i.n.

    The raw tuple keeps the weight ordering (descending exactly when the
    coordinates lie in the ordered domain); `ordered` is sorted, and
    `valid` flags nonnegativity of the smallest eigenvalue.  A negative,
    NaN or infinite radius is no orbit coordinate and raises; a finite
    radius above 1 gives a tuple that is not `valid`, and one so large
    that an eigenvalue leaves float64 raises, naming the first, without a
    RuntimeWarning.
    """
    N = coords.dim
    _require_orbit_radius(coords.radius)
    n = unit_vector(N, coords.angles)
    mu = weight_vectors(N).weights
    # the scaled radius may overflow to inf, and inf * 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        raw = 1.0 / N + math.sqrt(2.0 * (N - 1) / N) * coords.radius * (mu @ n)
    if not np.isfinite(raw).all():
        i = int(np.isfinite(raw).argmin())
        raise ValueError(f"eigenvalue r_{i + 1} of orbit radius {coords.radius} leaves the float64 range")
    ordered = np.sort(raw)[::-1]
    return OrbitSpectrum(raw=raw, ordered=ordered, valid=bool(ordered[-1] >= -ORDER_TOL))


def _require_orbit_radius(r: float) -> None:
    """Refuse a negative, NaN (the negated >=) or infinite orbit radius."""
    if not r >= 0.0:
        raise ValueError(f"orbit radius must be nonnegative, got {r}")
    if r == math.inf:
        raise ValueError(f"orbit radius must be finite, got {r}")


def cartan_moduli(spectrum: np.ndarray) -> np.ndarray:
    """Cartan components I_a = sqrt(N/(2(N-1))) sum_i r_i (H_a)_ii.

    These are the Bloch components of the diagonal representative; their
    Euclidean length is the orbit radius r.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    N = len(spectrum)
    mu = weight_vectors(N).weights
    return math.sqrt(2.0 * N / (N - 1)) * (spectrum @ mu)


def orbit_from_spectrum(spectrum) -> OrbitCoordinates:
    """Invert the parameterization: spectrum -> (radius, angles).

    Expects a descending spectrum summing to 1 within TRACE_TOL.  The
    maximally mixed point has r = 0 and no well-defined angles; it is
    returned with zero angles and the degenerate_angles flag set.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    N = len(spectrum)
    if N < 2:
        raise ValueError("need N >= 2")
    # without a RuntimeWarning: a sum or difference past float64 is a signed
    # inf, and inf - inf a NaN, which the sum test refuses
    with np.errstate(over="ignore", invalid="ignore"):
        total = spectrum.sum()
        ascending = np.diff(spectrum) > 1e-10
    if not abs(total - 1.0) <= TRACE_TOL:  # not >, so that NaN fails
        raise ValueError(f"spectrum sums to {total}, expected 1")
    if ascending.any():
        raise ValueError("spectrum must be sorted in descending order")

    moduli = cartan_moduli(spectrum)
    r = float(np.linalg.norm(moduli))
    if r < 1e-13:
        return OrbitCoordinates(
            dim=N, radius=0.0, angles=np.zeros(N - 2), degenerate_angles=True
        )
    n = moduli / r
    angles = np.zeros(N - 2)
    v = n
    # Peel polar angles from the outermost axis inward, then untriple phi.
    for level in range(N - 2, 1, -1):
        angles[level - 1] = math.atan2(np.linalg.norm(v[:-1]), v[-1])
        v = v[:-1]
    if N >= 3:
        angles[0] = 3.0 * math.atan2(v[1], v[0])
    return OrbitCoordinates(dim=N, radius=r, angles=angles)


def ordered_domain_check(coords: OrbitCoordinates) -> bool:
    """True when the raw eigenvalue tuple is descending and nonnegative.

    This predicate, not a hardcoded angle interval, defines the ordered
    domain; for a qutrit it carves out phi in [pi/2, 3pi/2] with
    r sin(phi/3) <= 1/2, and for a quatrit additionally
    cot(theta) >= sin(phi/3)/sqrt(2).
    """
    raw = spectrum_from_orbit(coords).raw
    descending = bool(np.all(np.diff(raw) <= ORDER_TOL))
    return descending and bool(raw[-1] >= -ORDER_TOL)


def _degeneracy_blocks(ordered: np.ndarray) -> list:
    blocks = [[1]]
    for i in range(1, len(ordered)):
        if abs(ordered[i - 1] - ordered[i]) <= DEGENERACY_TOL:
            blocks[-1].append(i + 1)
        else:
            blocks.append([i + 1])
    return blocks


def rank_strata(N: int, coords: OrbitCoordinates) -> StratumReport:
    """Classify the orbit through a point of the ordered domain.

    The label lists equal-eigenvalue groups separated by bars, e.g. O_1|23
    for r_1 > r_2 = r_3.  All-distinct spectra get the compact regular
    label, O_123 at N = 3, and the one-block spectrum of I/N gets O_(123),
    so no two orbit types share a label.  The orbit dimension is
    N^2 - sum of squared multiplicities.  The rank counts the ordered
    eigenvalues above ZERO_TOL (at least 1), and the stratum is read off
    it by the rule of the positivity checks (state_space._stratum):
    "pure", "interior" at full rank, "boundary-rank-k" otherwise, and
    "not-a-state" for a spectrum off the simplex.  For boundary strata of
    a qutrit or quatrit the Bloch radius of the embedded lower-dimensional
    qudit is attached.
    """
    if coords.dim != N:
        raise ValueError(f"coordinates are for N={coords.dim}, requested N={N}")
    spec = spectrum_from_orbit(coords)
    ordered = spec.ordered
    blocks = _degeneracy_blocks(ordered)
    mults = tuple(len(b) for b in blocks)
    groups = ["".join(str(i) for i in b) for b in blocks]
    if len(blocks) == 1:
        label = f"O_({groups[0]})"
    elif len(blocks) == N:
        label = "O_" + "".join(groups)
    else:
        label = "O_" + "|".join(groups)
    orbit_dim = N * N - int(sum(m * m for m in mults))
    rank = max(int(np.sum(ordered > ZERO_TOL)), 1)
    stratum = _stratum(spec.valid, rank, N) or "not-a-state"

    # a pure state is the rank-2 stratum's far end, where its qubit is pure
    kind = _EMBEDDINGS.get((N, max(rank, 2)))
    return StratumReport(
        label=label,
        multiplicities=mults,
        rank=rank,
        orbit_dimension=orbit_dim,
        stratum=stratum,
        effective_radius=effective_radius(kind, coords.radius) if spec.valid and kind else None,
    )


# (N, k): the rank-k stratum of a qudit of dimension N, whose embedded
# rank-k qudit is maximally mixed at the corner radius r_k.
_EMBEDDINGS = {
    (3, 2): "qubit-in-qutrit",
    (4, 3): "qutrit-in-quatrit",
    (4, 2): "qubit-in-qutrit-in-quatrit",
}
_EMBEDDED_IN = {kind: Nk for Nk, kind in _EMBEDDINGS.items()}


def effective_radius(kind: str, r: float) -> float:
    """Bloch radius of the qudit embedded in a rank-deficient boundary state.

    kind is one of "qubit-in-qutrit" (rank-2 qutrit, r in [1/2, 1]),
    "qutrit-in-quatrit" (rank-3 quatrit, r in [1/3, 1]) or
    "qubit-in-qutrit-in-quatrit" (rank-2 quatrit, r in [1/sqrt(3), 1]).
    A rank-k state of dimension N has t_2 = 1/N + (N-1) r^2 / N, which
    the embedded qudit matches at
    r* = sqrt(k (N-1) / (N (k-1)) (r^2 - r_k^2)), zero at the corner
    radius r_k.  The two-step chain composes: the matryoshka radius
    equals the qubit-in-qutrit radius evaluated at the qutrit-in-quatrit
    one.
    """
    try:
        N, k = _EMBEDDED_IN[kind]
    except KeyError:
        raise ValueError(
            f"unknown embedding {kind!r}; expected one of {sorted(_EMBEDDED_IN)}"
        ) from None
    lo = _corner_radius(N, k)
    r = _radius_in(r, lo, kind + " stratum exists for r in [{lo:.6f}, 1], got r={r}")
    return math.sqrt(k * (N - 1) / (N * (k - 1)) * (r * r - lo * lo))


def embedded_radii(N: int, r: float) -> dict:
    """effective_radius, by kind, of each embedding of a dimension-N qudit
    whose rank-k stratum reaches the orbit radius r (r >= r_k), the larger
    embedded qudit first; empty where no rank-deficient stratum does (the
    negated < hands a NaN r to effective_radius, which refuses it)."""
    return {
        kind: effective_radius(kind, r)
        for (n, k), kind in _EMBEDDINGS.items()
        if n == N and not r < _corner_radius(N, k)
    }


def rank2_curve_radius(phi: float) -> float:
    """Radial coordinate of the rank-2 qutrit stratum, r = 1/(2 sin(phi/3)).

    That is r_2 / sin(phi/3), with r_2 = 1/2 the corner radius of
    (1/2, 1/2, 0).  Stays within the Bloch ball for phi in [pi/2, 3pi/2].
    """
    if not math.isfinite(phi):
        raise ValueError(f"orbit angles must be finite, got phi={phi}")
    s = math.sin(phi / 3.0)
    if s <= 0.0:
        raise ValueError(f"rank-2 curve undefined at phi={phi} (sin(phi/3) <= 0)")
    return _corner_radius(3, 2) / s


def quatrit_rank3_cos_theta(r: float) -> float:
    """Polar angle of the rank-3 quatrit surface: cos(theta) = 1/(3r), r in [1/3, 1].

    The surface is the slice I_15 = r_3 of the last Cartan axis, where
    r_3 = 1/3 is the Bloch radius of the corner (1/3, 1/3, 1/3, 0).
    """
    lo = _corner_radius(4, 3)
    return lo / _radius_in(r, lo, "rank-3 surface exists for r in [{lo:.6f}, 1], got r={r}")


def trisectrix_residual(r: float, phi: float) -> float:
    """Implicit Maclaurin-trisectrix equation evaluated at a polar point.

    With x = r cos(phi), y = r sin(phi) and node parameter a = r_2 = 1/2
    the curve is (x^2 + y^2)(y - 3a) + 4a^3 = 0; the rank-2 qutrit stratum
    r = 1/(2 sin(phi/3)) makes the residual vanish identically.  A NaN or
    infinite r or phi raises."""
    if not math.isfinite(r):
        raise ValueError(f"orbit radius must be finite, got {r}")
    if not math.isfinite(phi):
        raise ValueError(f"orbit angles must be finite, got phi={phi}")
    a = _corner_radius(3, 2)
    y = r * np.sin(phi)
    return float(r * r * (y - 3.0 * a) + 4.0 * a**3)


def _radius_in(r: float, lo: float, message: str) -> float:
    """r clamped to [lo, 1], or ValueError(message.format(lo=lo, r=r)) when r
    lies outside by more than 1e-12; the negated <= refuses NaN too."""
    if not lo - 1e-12 <= r <= 1.0 + 1e-12:
        raise ValueError(message.format(lo=lo, r=r))
    return min(max(r, lo), 1.0)


def _corner_radius(N: int, k: int) -> float:
    """Bloch radius r_k = sqrt((N/k - 1)/(N - 1)) of the corner
    v_k = (1/k, ..., 1/k, 0, ..., 0) of the ordered simplex.

    r_k is where the rank-k stratum begins: 1 for k = 1 down to 0 for
    k = N, and 1, 1/sqrt(3), 1/3, 0 for a quatrit.
    """
    return math.sqrt((N - k) / (k * (N - 1)))


def _corner(N: int, k: int) -> np.ndarray:
    """The corner v_k = (1/k, ..., 1/k, 0, ..., 0) of the ordered simplex."""
    return np.concatenate((np.full(k, 1.0 / k), np.zeros(N - k)))


def _sphere_radius(N: int, r: float) -> float:
    """Radius sqrt((N-1)/N) r of the fixed-t2 sphere inside the simplex plane."""
    return math.sqrt((N - 1) / N) * r


def _polyhedron_vertices(N: int, r: float) -> np.ndarray:
    """Vertices of (ordered simplex) ∩ (sphere at radius r), as spectra.

    The vertices are where the sphere crosses the edges v_j v_k (j < k)
    of the simplex.  Seen from the centre c = v_N the foot of the edge's
    perpendicular is v_k, as (v_k - c).(v_j - v_k) = 0, so the distance
    to c grows monotonically along the edge and the sphere crosses it
    once, at v_k + s (v_j - v_k) with s = sqrt((r^2 - r_k^2)/(r_j^2 - r_k^2)),
    whenever r_k <= r <= r_j.  Inside (r_{k+1}, r_k) that makes k (N - k)
    vertices; a crossing at s = 0 or 1 is a corner, counted once.
    """
    radii = [_corner_radius(N, k) for k in range(1, N + 1)]
    vertices = {}
    for j in range(1, N):
        for k in range(j + 1, N + 1):
            rj, rk = radii[j - 1], radii[k - 1]
            if not rk <= r <= rj:
                continue
            s = math.sqrt((r * r - rk * rk) / (rj * rj - rk * rk))
            if s == 0.0:
                vertices[k] = _corner(N, k)
            elif s == 1.0:
                vertices[j] = _corner(N, j)
            else:
                vk = _corner(N, k)
                vertices[j, k] = vk + s * (_corner(N, j) - vk)
    return np.array(sorted(vertices.values(), key=lambda x: tuple(np.round(x, 12))))


def polyhedron_transition_radii() -> tuple:
    """Radii where the vertex count of the quatrit polyhedron changes.

    These are the corner radii (r_3, r_2) = (1/3, 1/sqrt(3)): the count
    goes 3 -> 4 when the sphere passes the corner (1/3, 1/3, 1/3, 0), the
    onset of the rank-3 stratum, and 4 -> 3 when it passes
    (1/2, 1/2, 0, 0), the onset of the rank-2 stratum.
    """
    return (_corner_radius(4, 3), _corner_radius(4, 2))


def _arc_angle(spectrum) -> float:
    """The qutrit angle phi of a spectrum, by orbit_from_spectrum."""
    return float(orbit_from_spectrum(spectrum).angles[0])


def intersection_polyhedron(N: int, r: float) -> dict:
    """Geometry of (ordered simplex) ∩ (sphere of Bloch radius r).

    For N = 3 the intersection is a circular arc: the report carries the
    circle radius sqrt(2/3) r, the phi range of the ordered domain, the
    geometric opening angle (phi range divided by three) and the endpoint
    spectra.  For N = 4 it is a spherical polygon on the sphere of radius
    (sqrt(3)/2) r: the report lists the vertices, classifies triangle
    versus quadrilateral, and attaches the two transition radii, the
    corner radii r_3 = 1/3 and r_2 = 1/sqrt(3).
    """
    r = _radius_in(r, 0.0, "Bloch radius must lie in [0, 1], got {r}")
    if N not in (3, 4):
        raise ValueError(f"intersection geometry is implemented for N = 3 and 4, got N={N}")
    center = _corner(N, N).tolist()
    if N == 3:
        if r == 0.0:
            return {
                "N": 3,
                "r": 0.0,
                "circle_radius": 0.0,
                "center": center,
                "kind": "point",
                "phi_range": None,
                "arc_angle": 0.0,
                "endpoints": [center],
            }
        # The arc ends on the edges v_1 v_3 and v_2 v_3, or past r_2 v_1 v_2.
        # phi is constant on edges out of the centre v_3: below r_2 read it at r_2.
        r2 = _corner_radius(3, 2)
        ends = sorted(_polyhedron_vertices(3, r).tolist(), key=_arc_angle)
        phis = sorted(map(_arc_angle, _polyhedron_vertices(3, max(r, r2))))
        phi_lo, phi_hi = phis[0], phis[-1]  # one vertex, the pure corner, at r = 1
        return {
            "N": 3,
            "r": float(r),
            "circle_radius": _sphere_radius(3, r),
            "center": center,
            "kind": "full-chamber arc" if r <= r2 else "arc truncated by r_3 = 0",
            "phi_range": [phi_lo, phi_hi],
            "arc_angle": (phi_hi - phi_lo) / 3.0,
            "endpoints": [ends[0], ends[-1]],
        }
    vertices = _polyhedron_vertices(4, r)
    nv = len(vertices)
    return {
        "N": 4,
        "r": float(r),
        "sphere_radius": _sphere_radius(4, r),
        "center": center,
        "kind": {1: "point", 3: "spherical triangle", 4: "spherical quadrilateral"}[nv],
        "n_vertices": nv,
        "vertices": vertices.tolist(),
        "transition_radii": list(polyhedron_transition_radii()),
    }


def darboux_point(coords: OrbitCoordinates) -> np.ndarray:
    """Spectrum reassembled from the Darboux frame, d + sum_a s_a e^(a).

    The frame coefficients are s_a = sqrt((N-1)/N) r n_a, i.e. the point
    on the intersection sphere in frame coordinates; agrees with
    spectrum_from_orbit identically, and refuses the radii it refuses.
    """
    N = coords.dim
    _require_orbit_radius(coords.radius)
    n = unit_vector(N, coords.angles)
    frame = darboux_frame(N)
    s = _sphere_radius(N, coords.radius) * n
    return np.full(N, 1.0 / N) + s @ frame
