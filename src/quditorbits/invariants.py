"""Unitary invariants of unit-trace Hermitian matrices.

Trace power sums t_k = tr(rho^k), the characteristic-polynomial
coefficients S_k obtained from them through the Newton recursion, the
Bezoutian matrix B_ij = t_{i+j-2} whose determinant is the spectral
discriminant, and the Casimir invariants built from the adjoint vector
with the symmetric vee product.

Two closed-form families are included for cross-checking the orbit
parameterization: t_3 of a qutrit as an explicit polynomial in the eight
Bloch components, and t_2, t_3, t_4 of a quatrit as trigonometric
polynomials in the radial coordinate and the two sphere angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su_algebra import StructureTensors, vee_product

HERMITICITY_TOL = 1e-12

# Rank cutoff for the Bezoutian, relative to its spectral scale.  Two
# eigenvalues of rho closer than the 1e-7 distinctness threshold produce a
# Bezoutian eigenvalue of order 1e-14, which is also the noise floor of the
# trace pipeline; 1e-13 sits on that boundary.
BEZOUTIAN_RANK_CUTOFF = 1e-13


@dataclass(frozen=True, eq=False)
class TraceInvariants:
    """Power-sum traces t_1..t_m of an N x N unit-trace Hermitian matrix.

    values[k-1] holds t_k; t_0 = N by convention.
    """

    dim: int
    values: np.ndarray

    @property
    def order(self) -> int:
        return len(self.values)

    def t(self, k: int) -> float:
        if k == 0:
            return float(self.dim)
        if not 1 <= k <= self.order:
            raise ValueError(f"t_{k} not available (have t_1..t_{self.order})")
        return float(self.values[k - 1])


@dataclass(frozen=True)
class CasimirValues:
    """Casimir invariants of degrees 2..6 evaluated on an adjoint vector."""

    c2: float
    c3: float
    c4: float
    c5: float
    c6: float

    def as_dict(self) -> dict:
        return {"c2": self.c2, "c3": self.c3, "c4": self.c4, "c5": self.c5, "c6": self.c6}


def trace_invariants(rho: np.ndarray, upto: int | None = None) -> TraceInvariants:
    """Compute t_k = tr(rho^k) for k = 1..upto by repeated multiplication.

    Parameters
    ----------
    rho : ndarray
        Hermitian N x N matrix (defect above 1e-12 raises).
    upto : int, optional
        Highest power; defaults to N.

    Notes
    -----
    Traces of Hermitian powers are real; the imaginary residue is checked
    against 1e-12 (relative to the trace magnitude) and discarded.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    N = rho.shape[0]
    defect = np.max(np.abs(rho - rho.conj().T))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |rho - rho^dag| = {defect:.3e}")
    if upto is None:
        upto = N
    if upto < 1:
        raise ValueError(f"need at least t_1, got upto={upto}")

    values = np.empty(upto)
    power = rho
    for k in range(1, upto + 1):
        tk = np.trace(power)
        if abs(tk.imag) > HERMITICITY_TOL * max(1.0, abs(tk)):
            raise ValueError(f"trace of power {k} has imaginary residue {tk.imag:.3e}")
        values[k - 1] = tk.real
        if k < upto:
            power = power @ rho
    return TraceInvariants(dim=N, values=values)


def _trace_invariants_stack(rhos: np.ndarray):
    """trace_invariants(rho).values for every matrix of a (B, N, N) stack at once.

    The same checks and the same arithmetic as the single-matrix loop, so
    each row of the (B, N) result is bit-identical to it.  A matrix the
    loop would reject is not raised on: its row index maps to the loop's
    ValueError in the returned dict, and its row of values is undefined.
    """
    B, N = rhos.shape[0], rhos.shape[-1]
    errors = {}
    defect = np.max(np.abs(rhos - rhos.conj().swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    for b in np.flatnonzero(defect > HERMITICITY_TOL):
        errors[int(b)] = ValueError(
            f"matrix is not Hermitian: max |rho - rho^dag| = {defect[b]:.3e}"
        )
    T = np.empty((B, N))
    power = rhos
    for k in range(1, N + 1):
        tk = np.trace(power, axis1=1, axis2=2)
        size = np.abs(tk)
        residue = np.abs(tk.imag) > HERMITICITY_TOL * np.where(size > 1.0, size, 1.0)
        for b in np.flatnonzero(residue):
            errors.setdefault(
                int(b), ValueError(f"trace of power {k} has imaginary residue {tk[b].imag:.3e}")
            )
        T[:, k - 1] = tk.real
        if k < N:
            power = power @ rhos
    return T, errors


def char_coefficients(t: TraceInvariants) -> np.ndarray:
    """Characteristic coefficients S_1..S_N by the Newton recursion.

    k S_k = sum_{i=1..k} (-1)^(i-1) S_{k-i} t_i with S_0 = 1.  S_k equals
    the k-th elementary symmetric polynomial of the eigenvalues.
    """
    N = t.dim
    if t.order < N:
        raise ValueError(f"need t_1..t_{N} to form S_1..S_{N}, have order {t.order}")
    signed_t = t.values[:N] * (-1.0) ** np.arange(N)
    S = np.ones(N + 1)
    for k in range(1, N + 1):
        S[k] = np.dot(S[k - 1 :: -1], signed_t[:k]) / k
    return S[1:]


def _char_coefficients_stack(T: np.ndarray) -> np.ndarray:
    """char_coefficients for every row of a (B, N) array of t_1..t_N.

    Each dot product of the recursion is a contiguous (1, k) @ (k, 1)
    matmul, which rounds exactly as the np.dot of the single-tuple loop
    does (a sum of products or an einsum does not), so every row is
    bit-identical to char_coefficients of that row.
    """
    B, N = T.shape
    signed_t = T * (-1.0) ** np.arange(N)
    S = np.ones((B, N + 1))
    for k in range(1, N + 1):
        lhs = np.ascontiguousarray(S[:, k - 1 :: -1])[:, np.newaxis, :]
        rhs = np.ascontiguousarray(signed_t[:, :k])[:, :, np.newaxis]
        S[:, k] = (lhs @ rhs)[:, 0, 0] / k
    return S[:, 1:]


def newton_extend(t: TraceInvariants, upto: int) -> TraceInvariants:
    """Extend a trace tuple past t_N with the Newton recursion.

    t_k = S_1 t_{k-1} - S_2 t_{k-2} + ... -(-1)^N S_N t_{k-N} for k > N.
    Returns the input unchanged when it already reaches `upto`.
    """
    if upto <= t.order:
        return t
    return _newton_extend(t, char_coefficients(t), upto)


def _newton_extend(t: TraceInvariants, S: np.ndarray, upto: int) -> TraceInvariants:
    """newton_extend past t.order < upto, from S = char_coefficients(t)."""
    N = t.dim
    signed_S = S * (-1.0) ** np.arange(N)
    ext = np.concatenate(([float(N)], t.values, np.empty(upto - t.order)))
    for k in range(t.order + 1, upto + 1):
        ext[k] = np.dot(signed_S, ext[k - 1 : k - N - 1 : -1])
    return TraceInvariants(dim=N, values=ext[1:])


def bezoutian(t: TraceInvariants) -> np.ndarray:
    """Bezoutian (Hankel) matrix B_ij = t_{i+j-2}, i, j = 1..N, t_0 = N."""
    N = t.dim
    ext = np.concatenate(([float(N)], newton_extend(t, 2 * N - 2).values))
    i = np.arange(N)
    return ext[np.add.outer(i, i)]


def discriminant(t: TraceInvariants) -> float:
    """det B = prod_{i<j} (r_i - r_j)^2, the discriminant of the spectrum."""
    return float(np.linalg.det(bezoutian(t)))


def _discriminant(t: TraceInvariants, S: np.ndarray) -> float:
    """discriminant(t) from S = char_coefficients(t) that the caller has
    already formed, so that the extension does not form it again."""
    upto = 2 * t.dim - 2
    ext = t if upto <= t.order else _newton_extend(t, S, upto)
    return discriminant(ext)


def bezoutian_rank(B: np.ndarray, cutoff: float | None = None) -> int:
    """Numerical rank of the Bezoutian; equals the number of distinct roots.

    The default cutoff is BEZOUTIAN_RANK_CUTOFF scaled by the largest
    absolute eigenvalue, calibrated so that root pairs closer than the
    1e-7 distinctness threshold count as coincident.
    """
    w = np.linalg.eigvalsh(np.asarray(B, dtype=float))
    scale = max(1.0, float(np.max(np.abs(w))))
    if cutoff is None:
        cutoff = BEZOUTIAN_RANK_CUTOFF * scale
    return int(np.sum(np.abs(w) > cutoff))


def grad_matrix(t: TraceInvariants) -> np.ndarray:
    """Scaled Bezoutian Grad_ij = i j t_{i+j-2} = (D B D)_ij, D = diag(1..N).

    Being a congruence by an invertible diagonal matrix, Grad is positive
    semidefinite exactly when B is.
    """
    B = bezoutian(t)
    d = np.arange(1, t.dim + 1, dtype=float)
    return B * np.outer(d, d)


def casimirs(xi: np.ndarray, tensors: StructureTensors) -> CasimirValues:
    """Casimir invariants c_2..c_6 of an adjoint vector.

    With v the symmetric vee product and the chains left-associated,
        c2 = (N-1) xi.xi            c3 = (N-1) xi.(xi v xi)
        c4 = (N-1) |xi v xi|^2      c5 = (N-1) ((xi v xi) v xi).(xi v xi)
        c6 = (N-1) |(xi v xi) v xi|^2.
    Under this normalization c2 = (N-1) r^2 for a Bloch vector of length r.
    """
    xi = np.asarray(xi, dtype=float)
    N = tensors.dim
    w = float(N - 1)
    v2 = vee_product(xi, xi, tensors)
    v3 = vee_product(v2, xi, tensors)
    return CasimirValues(
        c2=w * float(xi @ xi),
        c3=w * float(xi @ v2),
        c4=w * float(v2 @ v2),
        c5=w * float(v3 @ v2),
        c6=w * float(v3 @ v3),
    )


def traces_from_casimirs(c: CasimirValues, N: int) -> tuple:
    """Reconstruct (t_2, t_3, t_4) from Casimir invariants.

    The embedding rho = I/N + sqrt((N-1)/(2N)) xi.lam gives exactly
        t2 = (1 + c2) / N
        t3 = (1 + 3 c2 + c3) / N^2
        t4 = (1 + 6 c2 + 4 c3 + c2^2 + c4) / N^3
    for every N >= 2.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    t2 = (1.0 + c.c2) / N
    t3 = (1.0 + 3.0 * c.c2 + c.c3) / N**2
    t4 = (1.0 + 6.0 * c.c2 + 4.0 * c.c3 + c.c2**2 + c.c4) / N**3
    return (t2, t3, t4)


def qutrit_t3_bloch(xi: np.ndarray) -> float:
    """t_3 of a qutrit as an explicit cubic in the Bloch components.

    Valid for any xi in R^8 fed through the standard embedding; the state
    need not be positive.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (8,):
        raise ValueError(f"qutrit Bloch vector must have 8 components, got {xi.shape}")
    x1, x2, x3, x4, x5, x6, x7, x8 = xi
    r2 = float(xi @ xi)
    s3 = np.sqrt(3.0)
    return (
        1.0 / 9.0
        + (2.0 / 3.0) * r2
        + (2.0 / s3) * x1 * (x4 * x6 + x5 * x7)
        + (2.0 / s3) * x2 * (x5 * x6 - x4 * x7)
        + (1.0 / s3) * x3 * (x4**2 + x5**2 - x6**2 - x7**2)
        + (1.0 / 9.0)
        * x8
        * (6.0 * (x1**2 + x2**2 + x3**2) - 3.0 * (x4**2 + x5**2 + x6**2 + x7**2) - 2.0 * x8**2)
    )


def qutrit_t3_from_angles(r: float, phi: float) -> float:
    """t_3 of a qutrit orbit in polar coordinates: 1/9 + 2r^2/3 + 2r^3 sin(phi)/9."""
    return 1.0 / 9.0 + (2.0 / 3.0) * r**2 + (2.0 / 9.0) * r**3 * np.sin(phi)


def quatrit_trace_from_angles(r: float, theta: float, phi: float) -> tuple:
    """Closed-form (t_2, t_3, t_4) of a quatrit orbit in (r, theta, phi).

    theta is the polar angle against the last Cartan axis and phi the
    tripled azimuthal angle of the innermost pair.  At the pure-state
    point (r = 1, cos theta = 1/3, phi = pi/2) all three traces equal 1.
    """
    st, ct = np.sin(theta), np.cos(theta)
    b3 = 4.0 * np.sqrt(2.0) * st**3 * np.sin(phi) - 3.0 * ct - 5.0 * np.cos(3.0 * theta)
    b4 = (
        32.0 * np.sqrt(2.0) * st**3 * ct * np.sin(phi)
        + 4.0 * np.cos(2.0 * theta)
        + 7.0 * np.cos(4.0 * theta)
        + 45.0
    )
    t2 = 0.25 + 0.75 * r**2
    t3 = 1.0 / 16.0 + (9.0 / 16.0) * r**2 + (3.0 / 64.0) * r**3 * b3
    t4 = 1.0 / 64.0 + (9.0 / 32.0) * r**2 + (3.0 / 64.0) * r**3 * b3 + (3.0 / 512.0) * r**4 * b4
    return (float(t2), float(t3), float(t4))
