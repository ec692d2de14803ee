"""Unitary invariants of unit-trace Hermitian matrices.

Trace power sums t_k = tr(rho^k), the characteristic-polynomial
coefficients S_k obtained from them through the Newton recursion, the
Bezoutian matrix B_ij = t_{i+j-2} whose determinant is the spectral
discriminant, and the Casimir invariants built from the adjoint vector
with the symmetric vee product.

A trace tuple (TraceInvariants) forms S, B, det B and the certificate
at most once, so a caller that asks for one twice, as the trace route's
check followed by discriminant does for S and B, pays for it once.  The
traces of a matrix are formed by one running product (_power_traces),
summed off each power's diagonal left to right (_trace) and screened
once, by one rule (_refused), on one matrix's Python complex numbers and
on a stack's arrays alike, and come out of _screened as Python floats.
Every tuple is built by the one constructor and meets its checks.  One
tuple's S_k, Newton extension (_extension, which B reads without
building a tuple) and verdict are formed on its floats, converted once
per tuple, and check_state_bloch runs the same helpers on a matrix's
floats without building a tuple.

Every matrix input of the package meets one Hermiticity gate here,
max |rho - rho^dag| <= HERMITIAN_TOL, which refuses a NaN defect too.
HERMITIAN_TOL lives in su_algebra, whose structure_constants holds a
basis to it as well.

Two closed-form families are included for cross-checking the orbit
parameterization: t_3 of a qutrit as an explicit polynomial in the eight
Bloch components, and t_2, t_3, t_4 of a quatrit as trigonometric
polynomials in the radial coordinate and the two sphere angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .su_algebra import HERMITIAN_TOL, StructureTensors, _contraction_matrix, _readonly

# Rank cutoff for the Bezoutian, relative to its spectral scale.  Two
# eigenvalues of rho closer than the 1e-7 distinctness threshold produce a
# Bezoutian eigenvalue of order 1e-14, which is also the noise floor of the
# trace pipeline; 1e-13 sits on that boundary.
BEZOUTIAN_RANK_CUTOFF = 1e-13

_EPS = float(np.finfo(float).eps)

# Largest c2 = (N-1)|xi|^2 for which casimirs skips its overflow screen.
# |xi v eta| <= K |xi| |eta|, where K^2 <= (N-1)(N^2-4)(N^2-1)/2 bounds
# the vee product by the Frobenius norm of d, so c6 <= K^4 c2^3 / (N-1)^2
# < N^8 c2^3, and no entry or partial sum of M, v2 and v3 is larger: below
# 1e50 nothing leaves float64 for any N < 10^19.
_CASIMIR_SAFE_C2 = 1e50


@dataclass(frozen=True, eq=False)
class TraceInvariants:
    """Power-sum traces t_1..t_m of an N x N unit-trace Hermitian matrix.

    values[k-1] holds t_k; t_0 = N by convention.  values is the tuple's
    own read-only float64 copy of what it was built from (an array, a
    tuple or a list of real numbers), so the tuple never changes.  The
    constructor is the only way a tuple is built, and it refuses a dim
    that is not an int >= 1, values that are not one-dimensional or not
    real (complex numbers, even with a zero imaginary part, booleans and
    text are not cast), and a NaN or infinite value, named by the lowest
    such t_k.  The traces are also held as Python floats, converted once,
    on which S_1..S_N, the Newton extension and the trace route's verdict
    are formed.  That makes its derived invariants safe to keep: S_1..S_N (as
    floats, and as char_coefficients' read-only array), the Bezoutian
    (gathered from the extension's screened floats, so finite) and its
    determinant are each formed at most once per tuple, on first use, and
    handed out read-only; so is the trace route's test that B is positive
    semidefinite.
    """

    dim: int
    values: np.ndarray
    _t: list = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        try:
            values = np.array(self.values)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"values must be a one-dimensional sequence of reals: {exc}") from None
        if values.dtype.kind not in "iuf":
            raise ValueError(f"values must be a one-dimensional sequence of reals, got {values.dtype}")
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        values = _readonly(values.astype(float, copy=False))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_t", _finite_traces(values.tolist()))

    @property
    def order(self) -> int:
        return len(self.values)

    def t(self, k: int) -> float:
        if k == 0:
            return float(self.dim)
        if not 1 <= k <= self.order:
            raise ValueError(f"t_{k} not available (have t_1..t_{self.order})")
        return self._t[k - 1]

    @cached_property
    def _S(self) -> list:
        """S_1..S_N as Python floats, by _newton on the tuple's t_1..t_N."""
        if self.order < self.dim:
            raise ValueError(
                f"need t_1..t_{self.dim} to form S_1..S_{self.dim}, have order {self.order}"
            )
        return _finite_coefficients(_newton(self._t[: self.dim]))

    @cached_property
    def _S_array(self) -> np.ndarray:
        return _readonly(np.array(self._S))

    @cached_property
    def _bezoutian(self) -> np.ndarray:
        ext = _extension(self, 2 * self.dim - 2)  # t_1..t_{2N-2}, or more
        return _readonly(np.array([float(self.dim), *ext])[_hankel(self.dim)[0]])

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _disc(self) -> float:
        disc = float(np.linalg.det(self._bezoutian))
        if not math.isfinite(disc):
            raise ValueError("discriminant leaves the float64 range")
        return disc

    @cached_property
    def _bezoutian_psd(self) -> bool:
        """Procesi-Schwarz: the tuple has a Hermitian matrix iff B is
        positive semidefinite.  Tested without eigenvalues, by a Cholesky
        factorisation of B + delta I, delta = 4 N eps max|B| (about B's
        rounding); B is finite, as _extension screens what it reads.  B's
        first row and last column hold every t_k of B, so max|B| is read
        off them."""
        B = self._bezoutian
        size = max(map(abs, B[0].tolist() + B[:, -1].tolist()))
        try:
            np.linalg.cholesky(B + 4.0 * self.dim * _EPS * size * _hankel(self.dim)[1])
        except np.linalg.LinAlgError:
            return False
        return True


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
        Hermitian N x N matrix (defect above HERMITIAN_TOL, or NaN, raises).
    upto : int, optional
        Highest power; defaults to N.

    Notes
    -----
    Traces of Hermitian powers are real; the imaginary residue is checked
    against HERMITIAN_TOL (relative to the trace magnitude) and discarded.
    A trace that overflows float64 is refused too.  The lowest power with
    a residue or an overflow names it in the error.  The real parts go to
    the TraceInvariants constructor, whose checks every tuple meets.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    _require_hermitian(rho)
    if upto is None:
        upto = rho.shape[0]
    if upto < 1:
        raise ValueError(f"need at least t_1, got upto={upto}")
    return TraceInvariants(rho.shape[0], _screened(*_power_traces(rho, upto)))


def _screened(tk: list, refused: list) -> list:
    """One matrix's traces t_1..t_upto as Python floats, from the complex
    traces and the refusal mask of _power_traces: the lowest refused power
    raises, named for leaving float64 or for its imaginary residue.  The
    one screen of trace_invariants and check_state_bloch."""
    if any(refused):
        k = refused.index(True)
        if not cmath.isfinite(tk[k]):
            raise ValueError(f"trace of power {k + 1} leaves the float64 range")
        raise ValueError(f"trace of power {k + 1} has imaginary residue {tk[k].imag:.3e}")
    return [z.real for z in tk]


@np.errstate(over="ignore", invalid="ignore")
def _power_traces(rho: np.ndarray, upto: int):
    """tr(rho^k), k = 1..upto, over the leading axes of a (..., N, N) array,
    for trace_invariants and check_states_bloch alike, and _refused's mask
    of the traces trace_invariants refuses.  One running product p = p rho,
    from a C-ordered copy of rho, serves one matrix and a stack, and each
    power's _trace is read as it is formed.  One matrix gets its traces and
    mask as lists of Python complex numbers and bools; a stack gets them as
    complex (upto, ...) and bool arrays, power first.  Powers that overflow
    raise no RuntimeWarning.
    """
    p = np.ascontiguousarray(rho)
    tk = [_trace(p)]
    for _ in range(1, upto):
        p = p @ rho
        tk.append(_trace(p))
    if rho.ndim == 2:
        return tk, [*map(_refused, tk)]
    tk = np.array(tk)
    return tk, _refused(tk)


def _trace(a: np.ndarray):
    """The trace of a matrix, or over the leading axes of a (..., N, N)
    stack: 0 + the N diagonal lanes, added left to right, as Python
    complex numbers for one matrix and as the stack's diagonal columns,
    which round alike, so a stacked trace equals its matrix's bit for bit.
    Starting from 0 turns a -0.0 sum into 0.0, as ndarray.trace does.  Its
    error is at most (N - 1) u sum |d_i| (Higham, Accuracy and Stability
    of Numerical Algorithms, 4.2), far below that of the powers it sums."""
    if a.ndim == 2:
        lanes = a.diagonal().tolist()
    else:
        d = a.diagonal(0, -2, -1)
        lanes = (d[..., i] for i in range(d.shape[-1]))
    total = 0
    for lane in lanes:
        total = total + lane
    return total


def _refused(t):
    """True where a trace t_k is not finite (t - t is then NaN, not 0) or
    its imaginary residue exceeds HERMITIAN_TOL relative to max(1, |t_k|):
    one rule for a Python complex number and, elementwise, a complex array.
    (abs of a Python complex raises only if |t_k| leaves float64 while both
    parts are finite, which takes a residue above 1e-8 |t_k|; a matrix
    within the Hermiticity gate has a residue of rounding size there.)"""
    residue = abs(t.imag)
    return ((residue > HERMITIAN_TOL) & (residue > HERMITIAN_TOL * abs(t))) | (t - t != 0)


@np.errstate(invalid="ignore")
def _hermitian_defect(a: np.ndarray):
    """max |a - a^dag| over the last two axes of a matrix or a (B, N, N)
    stack: a scalar or a (B,) array, NaN wherever an entry is NaN or an
    infinity meets itself (inf - inf), without a RuntimeWarning."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _require_hermitian(a: np.ndarray) -> None:
    """Raise unless every matrix of a has a defect within HERMITIAN_TOL;
    the negated <= refuses a NaN defect too."""
    defect = _hermitian_defect(a)
    if a.ndim > 2:  # a stack is as Hermitian as its worst matrix
        defect = defect.max(initial=0.0)
    if not defect <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")


def char_coefficients(t: TraceInvariants) -> np.ndarray:
    """Characteristic coefficients S_1..S_N by the Newton recursion.

    k S_k = sum_{i=1..k} (-1)^(i-1) S_{k-i} t_i with S_0 = 1.  S_k equals
    the k-th elementary symmetric polynomial of the eigenvalues.  Formed
    once per tuple; the array is read-only.  An S_k that leaves float64
    raises, naming the lowest such k (the tuple holds no non-finite t_k).
    """
    return t._S_array


def _newton(t: list) -> list:
    """k S_k = sum_{i=1..k} (-1)^(i-1) S_{k-i} t_i with S_0 = 1, on a list
    t_1..t_N of Python floats (one tuple, check_state_bloch) or of the
    equal-shape columns of a stack (check_states_bloch), which round alike,
    so a row's S is its tuple's, bit for bit, on any layout.  An S_k that
    leaves float64 (S_2 t_2 may overflow while every t_k is finite) comes
    out inf or NaN, for the caller to refuse; on columns it warns unless
    the caller ignores it, as _stack_columns does."""
    signed = [x if i % 2 == 0 else -x for i, x in enumerate(t)]
    S = [1.0]
    for k in range(1, len(t) + 1):
        S.append(_backward_dot(S, signed, k - 1, k) / k)
    return S[1:]


def _finite_coefficients(S: list) -> list:
    """S_1..S_N of one tuple, as Python floats, unchanged if finite; else
    the lowest S_k that leaves float64 raises.  S_N is finite only if every
    S_k is (S_k enters S_{k+1} as S_k t_1), so a finite S costs one test."""
    if not math.isfinite(S[-1]):
        k = [*map(math.isfinite, S)].index(False) + 1
        raise ValueError(f"characteristic coefficient S_{k} leaves the float64 range")
    return S


def _backward_dot(a: list, b: list, top: int, n: int):
    """sum_{j<n} b[j] a[top - j]: plain multiplies and adds, never fused as a
    BLAS dot may, in order of j from the first product (so a signed zero
    survives), which round alike on Python floats and stack columns."""
    acc = b[0] * a[top]
    for j in range(1, n):
        acc = acc + b[j] * a[top - j]
    return acc


@cache
def _hankel(N: int) -> tuple:
    """The read-only N x N Hankel index i + j that gathers B from
    t_0..t_{2N-2}, and the identity that shifts B for its certificate."""
    i = np.arange(N)
    index, identity = np.add.outer(i, i), np.eye(N)
    index.flags.writeable = identity.flags.writeable = False
    return index, identity


def newton_extend(t: TraceInvariants, upto: int) -> TraceInvariants:
    """Extend a trace tuple past t_N with the Newton recursion.

    t_k = S_1 t_{k-1} - S_2 t_{k-2} + ... -(-1)^N S_N t_{k-N} for k > N.
    Returns the input unchanged when it already reaches `upto`, else a new
    tuple of _extension's floats.  Each call extends from the tuple's own
    traces and keeps nothing.  Each step reads only the N values before it,
    and the new tuple forms its own S from the same t_1..t_N, so extending
    in stages gives the bits of one run.  A t_k that leaves float64 raises,
    naming the lowest such k, as any tuple does.
    """
    return t if upto <= t.order else TraceInvariants(t.dim, _extension(t, upto))


def _extension(t: TraceInvariants, upto: int) -> list:
    """t_1..t_upto as Python floats, the one producer of the Newton
    extension: the tuple's own list if it reaches upto (it may run past),
    else that list continued by the recursion.  A t_k that leaves float64
    raises, naming the lowest such k, as it would in a tuple."""
    if upto <= t.order:
        return t._t
    signed = [s if i % 2 == 0 else -s for i, s in enumerate(t._S)]
    ext = [float(t.dim), *t._t]  # t_0..t_m
    for k in range(len(ext), upto + 1):
        ext.append(_backward_dot(ext, signed, k - 1, t.dim))
    return _finite_traces(ext[1:])


def _finite_traces(t: list) -> list:
    """t_1..t_m unchanged if every one is finite, else the lowest t_k that
    is not raises: the one screen of a tuple and of its extension."""
    if not all(map(math.isfinite, t)):
        k = [*map(math.isfinite, t)].index(False)
        raise ValueError(f"trace t_{k + 1} = {t[k]} is not finite")
    return t


def bezoutian(t: TraceInvariants) -> np.ndarray:
    """Bezoutian (Hankel) matrix B_ij = t_{i+j-2}, i, j = 1..N, t_0 = N.

    Formed once per tuple from _extension's t_1..t_{2N-2}, with no extended
    tuple built; an extension that leaves float64 is refused, and the
    array is read-only.
    """
    return t._bezoutian


def discriminant(t: TraceInvariants) -> float:
    """det B = prod_{i<j} (r_i - r_j)^2, the discriminant of the spectrum.

    Formed once per tuple.  A determinant that leaves float64 raises.
    """
    return t._disc


def bezoutian_rank(B: np.ndarray) -> int:
    """Numerical rank of the Bezoutian; equals the number of distinct roots.

    The cutoff is BEZOUTIAN_RANK_CUTOFF scaled by the largest absolute
    eigenvalue (at least 1), calibrated so that root pairs closer than the
    1e-7 distinctness threshold count as coincident.
    """
    w = np.abs(np.linalg.eigvalsh(np.asarray(B, dtype=float)))
    return int(np.sum(w > BEZOUTIAN_RANK_CUTOFF * max(1.0, float(w.max()))))


def grad_matrix(t: TraceInvariants) -> np.ndarray:
    """Scaled Bezoutian Grad_ij = i j t_{i+j-2} = (D B D)_ij, D = diag(1..N).

    Being a congruence by an invertible diagonal matrix, Grad is positive
    semidefinite exactly when B is.
    """
    d = np.arange(1, t.dim + 1, dtype=float)
    return bezoutian(t) * np.outer(d, d)


def casimirs(xi: np.ndarray, tensors: StructureTensors) -> CasimirValues:
    """Casimir invariants c_2..c_6 of an adjoint vector.

    With v the symmetric vee product and the chains left-associated,
        c2 = (N-1) xi.xi            c3 = (N-1) xi.(xi v xi)
        c4 = (N-1) |xi v xi|^2      c5 = (N-1) ((xi v xi) v xi).(xi v xi)
        c6 = (N-1) |(xi v xi) v xi|^2.
    Under this normalization c2 = (N-1) r^2 for a Bloch vector of length r.
    The vee products are read off one contraction matrix M(xi), with
    M(xi) eta = xi v eta: v2 = M xi and v3 = M v2, which is (xi v xi) v xi
    because d is totally symmetric.  c2 takes no vee product.

    c2 is formed first and screens the rest: up to _CASIMIR_SAFE_C2 no
    invariant can leave float64, so a moderate xi pays one compare.  Above
    it the chain runs without RuntimeWarnings and a NaN or infinite
    invariant is refused, naming the first.

    Raises
    ------
    ValueError
        If xi is no vector of length N^2 - 1, or an invariant is not
        finite (``invariant c6 = inf leaves the float64 range``).
    """
    xi = np.asarray(xi, dtype=float)
    w = float(tensors.dim - 1)
    # the BLAS dot of xi @ xi, which raises no RuntimeWarning on overflow
    c2 = w * float(np.vdot(xi, xi))
    if c2 <= _CASIMIR_SAFE_C2:
        return _casimir_chain(xi, c2, w, tensors)
    with np.errstate(over="ignore", invalid="ignore"):
        c = _casimir_chain(xi, c2, w, tensors)
    for name, value in c.as_dict().items():
        if not math.isfinite(value):
            raise ValueError(f"invariant {name} = {value} leaves the float64 range")
    return c


def _casimir_chain(xi: np.ndarray, c2: float, w: float, tensors: StructureTensors):
    """CasimirValues from c2 = w xi.xi and the vee chain, w = N - 1."""
    M = _contraction_matrix(xi, tensors)
    v2 = M @ xi
    v3 = M @ v2  # (xi v xi) v xi = xi v (xi v xi), as d is symmetric
    return CasimirValues(
        c2=c2,
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
