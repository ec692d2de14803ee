"""Seeded benchmark inputs, built with numpy only.

Nothing here imports quditorbits: the matrices, the JSONL records and the
Bloch vectors depend on the seed alone, so a change to the program cannot
change what it is fed.  The same seed gives byte-identical inputs.

Segments (shares are exact after rounding, order is a seeded shuffle):

* ``gaussian``   trace-corrected Gaussian Hermitian matrices, mostly not states;
* ``haar``       uniform-simplex spectra conjugated by a Haar unitary;
* ``degenerate`` rank-deficient spectra, half of them with a doubled top eigenvalue;
* ``nudged``     a degenerate state plus a traceless perturbation of norm 1e-5,
  pushed either way off the boundary.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

NUDGE = 1e-5

# Segment shares of the check stream, and of the route corpus in acceptance
# criterion 2's layout.
STREAM_MIX = {"haar": 0.5, "gaussian": 0.25, "degenerate": 0.125, "nudged": 0.125}
ROUTE_MIX = {"gaussian": 0.5, "haar": 0.25, "degenerate": 0.125, "nudged": 0.125}


def _hermitian_unit_trace(m: np.ndarray) -> np.ndarray:
    """Symmetrize exactly and move the trace defect onto the diagonal."""
    N = m.shape[0]
    h = (m + m.conj().T) / 2.0
    h += (1.0 - np.trace(h).real) / N * np.eye(N)
    return h


def _haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _conjugate(spec: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = _haar_unitary(len(spec), rng)
    return _hermitian_unit_trace((u * spec) @ u.conj().T)


def _gaussian(N, rng):
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return _hermitian_unit_trace(z)


def _haar(N, rng):
    return _conjugate(rng.dirichlet(np.ones(N)), rng)


def _degenerate(N, rng):
    zeros = int(rng.integers(1, N))
    spec = np.zeros(N)
    spec[: N - zeros] = np.sort(rng.dirichlet(np.ones(N - zeros)))[::-1]
    if N - zeros >= 2 and rng.random() < 0.5:
        spec[0] = spec[1] = (spec[0] + spec[1]) / 2.0
    return _conjugate(spec, rng)


def _nudged(N, rng):
    base = _degenerate(N, rng)
    h = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h).real * np.eye(N) / N
    h /= np.linalg.norm(h)
    return _hermitian_unit_trace(base + NUDGE * rng.choice([-1.0, 1.0]) * h)


_MAKERS = {"gaussian": _gaussian, "haar": _haar, "degenerate": _degenerate, "nudged": _nudged}


def corpus(N: int, count: int, mix: dict, rng: np.random.Generator):
    """`count` N x N unit-trace Hermitian matrices in the given segment mix.

    Returns (matrices of shape (count, N, N), segment name per matrix).
    """
    names = list(mix)
    sizes = [int(round(count * mix[name])) for name in names]
    sizes[0] += count - sum(sizes)
    segments = [name for name, size in zip(names, sizes) for _ in range(size)]
    segments = [segments[i] for i in rng.permutation(count)]
    matrices = np.stack([_MAKERS[seg](N, rng) for seg in segments])
    return matrices, segments


def gell_mann(N: int) -> np.ndarray:
    """The generalized Gell-Mann basis in the documented order.

    For m = 2..N: the pairs E_jm + E_mj and -i(E_jm - E_mj) for j = 1..m-1,
    then H_{m-1} = sqrt(2/(k(k+1))) diag(1, .., 1, -k, 0, ..) with k = m-1.
    """
    out = []
    for m in range(1, N):
        for j in range(m):
            sym = np.zeros((N, N), dtype=complex)
            sym[j, m] = sym[m, j] = 1.0
            asym = np.zeros((N, N), dtype=complex)
            asym[j, m], asym[m, j] = -1.0j, 1.0j
            out += [sym, asym]
        diag = np.zeros(N)
        diag[:m] = 1.0
        diag[m] = -m
        out.append(math.sqrt(2.0 / (m * (m + 1))) * np.diag(diag).astype(complex))
    return np.array(out)


def bloch_scale(N: int) -> float:
    return math.sqrt((N - 1) / (2.0 * N))


def bloch_vectors(matrices: np.ndarray) -> np.ndarray:
    """xi_i = tr(rho lam_i) / (2 sqrt((N-1)/(2N))) for a stack of matrices."""
    N = matrices.shape[-1]
    overlaps = np.einsum("ajk,bkj->ba", gell_mann(N), matrices)
    return overlaps.real / (2.0 * bloch_scale(N))


def matrices_from_bloch(xis: np.ndarray, N: int) -> np.ndarray:
    """Inverse of bloch_vectors: rho = I/N + sqrt((N-1)/(2N)) xi.lam."""
    return np.eye(N) / N + bloch_scale(N) * np.einsum("ba,ajk->bjk", xis, gell_mann(N))


def stream_chunks(seed: int, chunks: int, size: int, N: int = 3):
    """JSONL payloads for `quditorbits check`, half `xi` and half `rho` records.

    Returns a list of dicts with the payload bytes, the generating matrices,
    the record kinds and the segments, one per chunk.
    """
    rng = np.random.default_rng([seed, 1])
    matrices, segments = corpus(N, chunks * size, STREAM_MIX, rng)
    kinds = np.array(["xi", "rho"])[rng.permutation(np.arange(chunks * size) % 2)]
    xis = bloch_vectors(matrices)
    out = []
    for c in range(chunks):
        lines = []
        for i in range(c * size, (c + 1) * size):
            if kinds[i] == "xi":
                record = {"xi": xis[i].tolist()}
            else:
                record = {"rho": np.stack([matrices[i].real, matrices[i].imag], -1).tolist()}
            lines.append(json.dumps(record))
        out.append(
            {
                "payload": ("\n".join(lines) + "\n").encode(),
                "matrices": matrices[c * size : (c + 1) * size],
                "kinds": list(kinds[c * size : (c + 1) * size]),
                "segments": segments[c * size : (c + 1) * size],
            }
        )
    return out


def route_corpus(seed: int, sizes, per_n: int):
    """Criterion-2 style corpus per N: {N: (matrices, segments)}."""
    return {N: corpus(N, per_n, ROUTE_MIX, np.random.default_rng([seed, 2, N])) for N in sizes}


def unit_vectors(seed: int, sizes, count: int):
    """`count` uniformly random unit vectors in R^(N^2-1) per N."""
    out = {}
    for N in sizes:
        v = np.random.default_rng([seed, 3, N]).standard_normal((count, N * N - 1))
        out[N] = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def digest(*parts) -> str:
    """SHA-256 over byte strings and arrays, for comparing inputs across runs."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]
