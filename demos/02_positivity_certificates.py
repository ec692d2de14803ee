"""
Positivity certificates for density matrices without diagonalization
====================================================================

A unit-trace Hermitian matrix is a state exactly when every coefficient
S_1..S_N of its characteristic polynomial is nonnegative.  The S_k are
polynomials in the power-sum traces t_k = tr(rho^k), so the test needs no
eigenvalue decomposition.  This script certifies a few matrices three
ways and shows that the verdicts coincide.
"""

import numpy as np

from quditorbits import (
    bezoutian,
    bezoutian_rank,
    char_coefficients,
    check_state_bloch,
    check_state_traces,
    check_states_bloch,
    discriminant,
    eig_oracle,
    from_bloch,
    to_bloch,
    trace_invariants,
)

np.set_printoptions(precision=6, suppress=True)


def report(name, rho):
    xi = to_bloch(rho)
    t = trace_invariants(rho)
    bloch = check_state_bloch(xi)
    trace = check_state_traces(t)
    eigs = eig_oracle(rho)
    print(f"\n{name}")
    print(f"  traces t_2..t_{len(rho)}: "
          + ", ".join(f"{v:.6f}" for v in t.values[1:]))
    print(f"  char coefficients S_1..S_{len(rho)}: "
          + ", ".join(f"{v:+.6f}" for v in char_coefficients(t)))
    print(f"  Bloch route:  is_state={bloch.is_state}  stratum={bloch.stratum}"
          f"  margin={bloch.margin:+.3e}")
    print(f"  trace route:  is_state={trace.is_state}  rank={trace.rank}")
    print(f"  eigenvalue oracle: {eigs}")
    return t


# ---------------------------------------------------------------------------
# Interior, boundary, and non-state examples for a qutrit
# ---------------------------------------------------------------------------

report("maximally mixed qutrit", np.eye(3) / 3)

report("generic interior state diag(0.5, 0.3, 0.2)", np.diag([0.5, 0.3, 0.2]))

report("rank-2 boundary state diag(0.7, 0.3, 0)", np.diag([0.7, 0.3, 0.0]))

# Scaling a pure state's Bloch vector past unit length leaves the state set:
# one characteristic coefficient turns negative and the margin goes with it.
pure = np.zeros((3, 3))
pure[0, 0] = 1.0
xi_out = 1.05 * to_bloch(pure)
report("pure state pushed 5% outside the Bloch ball", from_bloch(xi_out))


# ---------------------------------------------------------------------------
# The discriminant and the Bezoutian detect spectral collisions
# ---------------------------------------------------------------------------

# disc = prod_{i<j} (r_i - r_j)^2 vanishes exactly on degenerate spectra,
# and the rank of the Bezoutian matrix counts distinct eigenvalues.
for name, spec in (
    ("all distinct", [0.5, 0.3, 0.2]),
    ("one double", [0.4, 0.4, 0.2]),
    ("fully degenerate", [1 / 3, 1 / 3, 1 / 3]),
):
    t = trace_invariants(np.diag(spec))
    B = bezoutian(t)
    print(f"\n{name} {spec}: disc = {discriminant(t):+.3e}, "
          f"rank(B) = {bezoutian_rank(B)}")


# ---------------------------------------------------------------------------
# The certificate is cheap on batches: no eigensolver in the loop
# ---------------------------------------------------------------------------

rng = np.random.default_rng(7)
xis = np.empty((2000, 8))
for xi in xis:
    xi[:] = rng.normal(size=8)
    xi *= rng.uniform() ** (1 / 8) / np.linalg.norm(xi)
# one stacked pass judges them all, each verdict equal to check_state_bloch's
inside = sum(verdict.is_state for verdict in check_states_bloch(xis))
outside = len(xis) - inside
print(f"\n2000 random Bloch vectors in the unit ball: "
      f"{inside} states, {outside} outside the state set")
print("(for N > 2 the state body is strictly smaller than the Bloch ball)")
