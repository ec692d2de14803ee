"""Generalized Gell-Mann basis of su(N) and its structure data.

This module builds the N^2 - 1 traceless Hermitian generators of su(N)
normalized to tr(lam_i lam_j) = 2 delta_ij, together with everything the
rest of the library hangs off of them:

* the totally symmetric (d) and antisymmetric (f) structure constants of
  the multiplication rule
      lam_i lam_j = (2/N) delta_ij I + sum_k (d_ijk + i f_ijk) lam_k,
  contracted from the nonzero generator entries over the triples
  i <= j <= k and kept as sparse tables of those triples alone (no dense
  (N^2-1)^3 array is ever formed),
* the weight vectors of the defining representation (the halved diagonals
  of the Cartan generators),
* the symmetric "vee" product (xi v eta)_k ~ d_ijk xi_i eta_j on adjoint
  vectors, as M(xi) eta with the symmetric contraction matrix
  M(xi)_ik ~ d_ijk xi_j, which one bincount over every ordering of the
  nonzero d_ijk forms (casimirs builds it once and applies it twice), and
* the orthonormal Darboux frame spanning the traceless diagonal subspace
  of the eigenvalue simplex.

Ordering convention: for each m = 2..N the off-diagonal pairs
(E_jm + E_mj) and -i(E_jm - E_mj) are emitted for j = 1..m-1, followed by
the diagonal generator H_{m-1}.  The diagonal generators therefore sit at
1-based positions m^2 - 1 (3, 8, 15, ...), and for N = 3 the numbering
coincides with the conventional lambda_1..lambda_8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Entries of d and f smaller than this are treated as exact zeros when the
# sparse tables are built.
SPARSITY_THRESHOLD = 1e-12

# Orthonormality defect tolerated before structure-constant extraction
# refuses the input basis.
ORTHONORMALITY_TOL = 1e-10

# Hermiticity defect max |a - a^dag| tolerated by every matrix input of the
# package (a basis here, a matrix in invariants), and imaginary residue of
# tr(rho^k) tolerated relative to |t_k|.  A defect moves tr(rho^k) at first
# order only in its imaginary part, which is dropped or refused; the real
# part moves at second order, O(k^2 defect^2).
HERMITIAN_TOL = 1e-10

# Rough cap on the products formed at once by the sparse triple-trace
# contraction; the generators are processed in chunks below it.
CONTRACTION_CHUNK_TERMS = 1 << 20


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Stacked su(N) generators.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension N.
    elements : ndarray, shape (N**2 - 1, N, N), complex
        Generators stacked along the first axis, read-only.
    cartan_indices : tuple of int
        1-based positions of the diagonal (Cartan) generators,
        (3, 8, 15, ..., N**2 - 1).
    """

    dim: int
    elements: np.ndarray
    cartan_indices: tuple

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    def element(self, i: int) -> np.ndarray:
        """Return generator lambda_i (1-based index)."""
        if not 1 <= i <= self.size:
            raise ValueError(f"generator index {i} outside 1..{self.size}")
        return self.elements[i - 1]

    def cartan(self, k: int) -> np.ndarray:
        """Return the k-th diagonal generator H_k, k = 1..N-1 (1-based)."""
        if not 1 <= k <= self.dim - 1:
            raise ValueError(f"Cartan index {k} outside 1..{self.dim - 1}")
        return self.elements[self.cartan_indices[k - 1] - 1]


@dataclass(frozen=True, eq=False)
class StructureTensors:
    """Structure constants of su(N) as sparse tables.

    ``d_index``/``d_values`` (and ``f_index``/``f_values``) are the only
    stored form: the constants in coordinate form over their canonical
    triples alone, i <= j <= k for d and i < j < k for f (d is totally
    symmetric, f totally antisymmetric and zero when two indices agree),
    sorted by (i, j, k).  ``d_index`` is a read-only (3, nnz) array of
    0-based indices and ``d_values`` the matching read-only values, so
    d[d_index[0][m], d_index[1][m], d_index[2][m]] = d_values[m]; every
    other ordering of a triple holds the same value (f negated on the odd
    orderings).  Only the vee product reads d over every ordering, which
    _vee_table forms from the canonical block; f's orderings are never
    formed.

    The maps ``d`` and ``f``, derived from the tables on first read, hold
    the same triples.  Keys are 1-based index triples, in ascending order.
    """

    dim: int
    d_index: np.ndarray
    d_values: np.ndarray
    f_index: np.ndarray
    f_values: np.ndarray

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    def d_value(self, i: int, j: int, k: int) -> float:
        """Symmetric constant d_ijk for an arbitrary index permutation."""
        return self.d.get(tuple(sorted((i, j, k))), 0.0)

    def f_value(self, i: int, j: int, k: int) -> float:
        """Antisymmetric constant f_ijk for an arbitrary index permutation."""
        key = tuple(sorted((i, j, k)))
        value = self.f.get(key, 0.0)
        if value == 0.0:
            return 0.0
        return value * _permutation_sign((i, j, k))

    @cached_property
    def d(self) -> dict:
        *ijk, values = _canonical_rows(self, "d")
        return dict(zip(zip(*ijk), values))

    @cached_property
    def f(self) -> dict:
        *ijk, values = _canonical_rows(self, "f")
        return dict(zip(zip(*ijk), values))

    @cached_property
    def _vee_table(self) -> tuple:
        """(j, flat (i, k) key i n + k, sqrt(N(N-1)/2) d_ijk) over every ordering
        of the d entries: what _contraction_matrix reads, formed once per table."""
        (i, j, k), values = _every_ordering(self.d_index, self.d_values)
        N = self.dim
        scaled = np.sqrt(N * (N - 1) / 2.0) * values
        return _readonly(j), _readonly(i * self.size + k), _readonly(scaled)


@dataclass(frozen=True, eq=False)
class WeightSystem:
    """Weights of the defining representation of su(N).

    weights[i, a] is the a-th component of the weight vector mu^(i+1)
    attached to the i-th basis state; each weight has N - 1 components.
    They satisfy sum_i mu_i = 0 and sum_i mu_i^a mu_i^b = delta_ab / 2.
    """

    dim: int
    weights: np.ndarray

    def weight(self, i: int) -> np.ndarray:
        """Weight vector of the i-th basis state (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"state index {i} outside 1..{self.dim}")
        return self.weights[i - 1]


def _permutation_sign(triple) -> float:
    """Parity of the permutation sorting a 3-tuple with distinct entries."""
    i, j, k = triple
    sign = 1.0
    if i > j:
        i, j, sign = j, i, -sign
    if j > k:
        j, k, sign = k, j, -sign
    if i > j:
        i, j, sign = j, i, -sign
    return sign


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def gell_mann_basis(N: int) -> BasisSet:
    """Construct the generalized Gell-Mann basis of su(N).

    Parameters
    ----------
    N : int
        Hilbert-space dimension, N >= 2.

    Returns
    -------
    BasisSet
        N^2 - 1 traceless Hermitian matrices with tr(lam_i lam_j) =
        2 delta_ij.  Diagonal generators H_k = sqrt(2/(k(k+1))) *
        diag(1, ..., 1, -k, 0, ..., 0) occupy positions m^2 - 1.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"su(N) requires an integer dimension N >= 2, got {N!r}")
    N = int(N)

    # Zero-based, the pair (j, m), j < m, of block m holds its symmetric
    # generator at m^2 - 1 + 2j and its antisymmetric one next to it; block
    # m ends with H_m at (m + 1)^2 - 2.
    elements = np.zeros((N * N - 1, N, N), dtype=complex)
    r = np.arange(N)
    m, j = _ragged_ranges(np.zeros(N, dtype=int), r)  # j = 0..m-1 for each m
    sym = m * m - 1 + 2 * j
    elements[sym, j, m] = elements[sym, m, j] = 1.0
    elements[sym + 1, j, m] = -1.0j
    elements[sym + 1, m, j] = 1.0j
    k = r[1:]
    scale = np.sqrt(2.0 / (k * (k + 1)))
    elements[(m + 1) ** 2 - 2, j, j] = scale[m - 1]
    elements[(k + 1) ** 2 - 2, k, k] = scale * -k

    cartan = tuple(m * m - 1 for m in range(2, N + 1))
    return BasisSet(dim=N, elements=_readonly(elements), cartan_indices=cartan)


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray):
    """Concatenate the ranges starts[g] .. starts[g] + counts[g] - 1.

    Returns (owner, index): index[m] is a member of the range of group
    owner[m], groups in order.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    offsets = np.cumsum(counts) - counts
    index = np.repeat(starts - offsets, counts) + np.arange(owner.size)
    return owner, index


def _sum_by_key(keys: np.ndarray, weights: np.ndarray):
    """Sorted distinct keys and the complex sum of the weights of each."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    real = np.bincount(inverse, weights=weights.real, minlength=uniq.size)
    imag = np.bincount(inverse, weights=weights.imag, minlength=uniq.size)
    return uniq, real + 1j * imag


def _triple_traces(n: int, N: int, gen, row, col, val):
    """T_abc = tr(lam_a lam_b lam_c) = sum lam_a[x,y] lam_b[y,z] lam_c[z,x]
    over the triples a <= b <= c, from the nonzero entries (a, x, y, value)
    of n stacked N x N generators, in generator order.

    Two joins: entries sharing y are paired, for b >= a only, and summed
    over y into P_ab[x, z], and each P_ab[x, z] is matched with the entries
    lam_c[z, x], for c >= b only.  The entries of a row, and of a position,
    are kept in generator order, so the matches at or above a generator
    are the tail of their range and no other ordering of a triple is
    formed.  Each T_abc sums the same products, in the same order, as the
    contraction over every ordered triple would.  Generators a are taken
    in chunks so that no chunk forms more than about
    CONTRACTION_CHUNK_TERMS products, which bounds memory on a dense
    basis.  Returns the Gram tr(lam_a lam_b), a <= b, the sum of the x = z
    entries of P_ab, as sorted flat keys a n + b and values, then the
    sorted flat keys (a n + b) n + c of the triples a <= b <= c with a
    nonzero term and their complex traces.
    """
    # (row, generator) and (position, generator) keys in sorted order: a
    # search for (y, a) finds where the generators a and up of row y start
    by_row = np.argsort(row, kind="stable")
    row_gen = row[by_row] * n + gen[by_row]
    row_count = np.bincount(row, minlength=N)
    row_end = np.cumsum(row_count)
    pos = row * N + col
    by_pos = np.argsort(pos, kind="stable")
    pos_gen = pos[by_pos] * n + gen[by_pos]
    pos_count = np.bincount(pos, minlength=N * N)
    pos_end = np.cumsum(pos_count)

    # Upper bound on the products formed per generator a: its first-join
    # pairs times the most entries any second-join position can match.
    bound = np.bincount(gen, weights=row_count[col], minlength=n) * pos_count.max()
    window = (np.cumsum(bound) - bound) // CONTRACTION_CHUNK_TERMS
    first_gen = np.concatenate(([0], np.flatnonzero(np.diff(window)) + 1, [n]))
    edges = np.searchsorted(gen, first_gen)

    gram_keys, grams, keys, traces = [], [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        first = np.arange(lo, hi)
        y = col[first]
        start = np.searchsorted(row_gen, y * n + gen[first])
        owner, idx = _ragged_ranges(start, row_end[y] - start)
        e1, e2 = first[owner], by_row[idx]
        pair_key = ((gen[e1] * n + gen[e2]) * N + row[e1]) * N + col[e2]
        pair_key, pair = _sum_by_key(pair_key, val[e1] * val[e2])
        ab, x, z = pair_key // (N * N), (pair_key // N) % N, pair_key % N
        gram_key, gram = _sum_by_key(ab[x == z], pair[x == z])
        gram_keys.append(gram_key)
        grams.append(gram)
        where = z * N + x
        start = np.searchsorted(pos_gen, where * n + ab % n)
        owner, idx = _ragged_ranges(start, pos_end[where] - start)
        e3 = by_pos[idx]
        k, t = _sum_by_key(ab[owner] * n + gen[e3], pair[owner] * val[e3])
        keys.append(k)
        traces.append(t)
    return tuple(map(np.concatenate, (gram_keys, grams, keys, traces)))


def _gram_defect(n: int, gram_key: np.ndarray, gram: np.ndarray):
    """max |tr(lam_a lam_b) - 2 delta_ab| over a <= b, from the sparse Gram
    of _triple_traces; a generator with no diagonal key has tr(lam_a^2) = 0.
    NaN if an entry is."""
    on = gram_key % (n + 1) == 0  # a n + b = a (n + 1) exactly when a = b
    diag = np.zeros(n, dtype=complex)
    diag[gram_key[on] // (n + 1)] = gram[on]
    return np.abs(np.concatenate((diag - 2.0, gram[~on]))).max()


def _every_ordering(index: np.ndarray, values: np.ndarray):
    """The d table over every ordered triple, from its canonical block, the
    sorted columns (a, b, c), a <= b <= c, of index and their values, which
    come first.  Each column adds its two other cyclic orderings unless
    a = b = c, and its three odd orderings if a < b < c.  Masks, no sort."""
    a, b, c = index
    cyclic = a < c
    odd = (a < b) & (b < c)
    ac, bc, cc = a[cyclic], b[cyclic], c[cyclic]
    ao, bo, co = a[odd], b[odd], c[odd]
    table = np.empty((3, values.size + 2 * ac.size + 3 * ao.size), dtype=index.dtype)
    np.concatenate((a, bc, cc, ao, bo, co), out=table[0])
    np.concatenate((b, cc, ac, co, ao, bo), out=table[1])
    np.concatenate((c, ac, bc, bo, co, ao), out=table[2])
    cv, ov = values[cyclic], values[odd]
    return table, np.concatenate((values, cv, cv, ov, ov, ov))


def _canonical_rows(tensors: StructureTensors, name: str) -> tuple:
    """1-based i, j, k lists and the value list of the d or f table, in stored order."""
    index, values = getattr(tensors, f"{name}_index"), getattr(tensors, f"{name}_values")
    return (*(index + 1).tolist(), values.tolist())


def structure_constants(basis: BasisSet) -> StructureTensors:
    """Extract d_ijk and f_ijk from a basis via sparse trace contractions.

    d_ijk = tr({lam_i, lam_j} lam_k) / 4 and
    f_ijk = -i tr([lam_i, lam_j] lam_k) / 4, which for an orthonormal
    Hermitian basis reduce to the real and imaginary halves of
    T_ijk = tr(lam_i lam_j lam_k).  T is contracted over the nonzero
    entries of the generators only, so no (N^2-1)^3 array is formed: the
    standard basis has about 2.5 N^2 entries, about 2.5 N in a row, and
    the work grows like N^3.  Any orthonormal Hermitian basis goes through
    the same path; a dense one costs more but stays in bounded memory.

    Only the triples i <= j <= k are contracted.  For Hermitian generators
    T is invariant under cyclic permutations and turns into its complex
    conjugate under odd ones, so d is totally symmetric and f totally
    antisymmetric (f vanishes when two indices agree), and the contracted
    triples determine every other ordering.  Each table stores its
    canonical block alone (d: i <= j <= k, f: i < j < k), sorted by
    (i, j, k), the order in which _triple_traces emits it; the vee product
    forms d's other orderings from it, and f's are never formed.  Entries
    below SPARSITY_THRESHOLD are dropped.

    Both gates read the same nonzero entries: the orthonormality gate the
    Gram tr(lam_i lam_j), i <= j, of the first join, and the Hermiticity
    gate max |lam_i - lam_i^dag|, held to HERMITIAN_TOL like every matrix
    input, since the symmetries of d and f rely on it.

    Raises
    ------
    ValueError
        If the basis fails tr(lam_i lam_j) = 2 delta_ij beyond 1e-10, or
        has a NaN or infinite entry, or if a generator fails
        lam = lam^dag beyond HERMITIAN_TOL.
    """
    n, N, lam = basis.size, basis.dim, basis.elements
    gen, row, col = np.nonzero(lam)
    val = lam[gen, row, col]
    with np.errstate(invalid="ignore"):
        gram_key, gram, keys, traces = _triple_traces(n, N, gen, row, col, val)
        defect = _gram_defect(n, gram_key, gram)
        # max |lam - lam^dag| over the nonzero entries alone: a zero entry
        # adds 0 if its mirror is zero, and else its mirror's term
        hermitian = np.abs(val - lam[gen, col, row].conj()).max(initial=0.0)
    if not defect <= ORTHONORMALITY_TOL:
        raise ValueError(
            f"basis is not orthonormal: max |tr(l_i l_j) - 2 delta_ij| = {defect:.3e}"
        )
    if not hermitian <= HERMITIAN_TOL:
        raise ValueError(f"basis is not Hermitian: max |l_i - l_i^dag| = {hermitian:.3e}")
    index = np.array(np.unravel_index(keys, (n, n, n)))
    i, j, k = index
    d, f = traces.real / 2.0, traces.imag / 2.0
    d_keep = np.abs(d) >= SPARSITY_THRESHOLD
    f_keep = (np.abs(f) >= SPARSITY_THRESHOLD) & (i < j) & (j < k)
    return StructureTensors(
        dim=basis.dim,
        d_index=_readonly(index[:, d_keep]),
        d_values=_readonly(d[d_keep]),
        f_index=_readonly(index[:, f_keep]),
        f_values=_readonly(f[f_keep]),
    )


@lru_cache(maxsize=None)
def algebra_tensors(N: int) -> StructureTensors:
    """Cached structure constants for the standard basis of su(N)."""
    return structure_constants(gell_mann_basis(N))


@lru_cache(maxsize=None)
def weight_vectors(N: int) -> WeightSystem:
    """Weights of the defining representation, mu^(i)_a = (H_a)_ii / 2."""
    basis = gell_mann_basis(N)
    weights = np.empty((N, N - 1))
    for a in range(N - 1):
        weights[:, a] = np.real(np.diag(basis.cartan(a + 1))) / 2.0
    return WeightSystem(dim=N, weights=_readonly(weights))


def vee_product(xi: np.ndarray, eta: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """Symmetric bilinear product (xi v eta)_k = sqrt(N(N-1)/2) d_ijk xi_i eta_j.

    For N = 2 the d tensor vanishes identically and so does the product.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = tensors.size
    if xi.shape != (n,) or eta.shape != (n,):
        raise ValueError(
            f"vee product for su({tensors.dim}) needs vectors of length {n}, "
            f"got {xi.shape} and {eta.shape}"
        )
    return _contraction_matrix(xi, tensors) @ eta


def _contraction_matrix(xi: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """M(xi)_ik = sqrt(N(N-1)/2) sum_j d_ijk xi_j, so that M(xi) eta = xi v eta.

    One bincount over every ordering of the d entries, keyed by flat (i, k);
    M is symmetric, as d is.  Raises unless xi is a float vector of length N^2 - 1.
    """
    n = tensors.size
    if xi.shape != (n,):
        raise ValueError(
            f"su({tensors.dim}) needs adjoint vectors of length {n}, got shape {xi.shape}"
        )
    j, key, scaled = tensors._vee_table
    return np.bincount(key, weights=scaled * xi[j], minlength=n * n).reshape(n, n)


@lru_cache(maxsize=None)
def darboux_frame(N: int) -> np.ndarray:
    """Orthonormal frame e^(a) = sqrt(2) mu^(a) on the eigenvalue simplex.

    Returns an (N-1, N) array whose rows span the traceless diagonal
    directions: e^(a) . e^(b) = delta_ab and each row is orthogonal to the
    barycenter direction (1, ..., 1)/N.
    """
    mu = weight_vectors(N).weights
    return _readonly(np.sqrt(2.0) * mu.T.copy())


def basis_to_json(basis: BasisSet) -> dict:
    """JSON-ready dump: each matrix as a row-major list of [re, im] pairs."""
    lam = basis.elements
    return {
        "N": basis.dim,
        "elements": np.stack((lam.real, lam.imag), -1).reshape(basis.size, -1, 2).tolist(),
        "cartan_indices": list(basis.cartan_indices),
    }


def tensors_to_json(tensors: StructureTensors) -> dict:
    """JSON-ready dump of the sparse tables with 1-based index triples,
    read straight off the coordinate tables, which hold the canonical
    triples alone (i <= j <= k for d, i < j < k for f), in stored order.
    That order is sorted by (i, j, k), since _triple_traces emits sorted
    keys chunk by chunk in ascending generator order, so the dump builds
    no map and sorts nothing."""
    payload = {"N": tensors.dim}
    for name in ("d", "f"):
        rows = zip(*_canonical_rows(tensors, name))
        payload[name] = [{"i": i, "j": j, "k": k, "value": v} for i, j, k, v in rows]
    return payload
