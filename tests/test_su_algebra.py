"""Tests for the su(N) basis, structure constants, weights and frames."""

import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

import quditorbits.su_algebra as su_algebra
from quditorbits.invariants import casimirs
from quditorbits.state_space import haar_unitary
from quditorbits.su_algebra import (
    HERMITIAN_TOL,
    SPARSITY_THRESHOLD,
    BasisSet,
    StructureTensors,
    algebra_tensors,
    basis_to_json,
    darboux_frame,
    gell_mann_basis,
    structure_constants,
    tensors_to_json,
    vee_product,
    weight_vectors,
)

ORTHO_TOL = 1e-12
JACOBI_TOL = 1e-10
RECON_TOL = 1e-10
REFERENCE_TOL = 1e-15
VEE_TOL = 1e-13


def dense(t, name):
    """The dense (N^2-1)^3 array of d or f, scattered here from the library's
    canonical coordinate table t.d_index/t.d_values or t.f_index/t.f_values
    into all six orderings of each triple, f negated on the odd ones."""
    n = t.size
    out = np.zeros((n, n, n))
    index, values = getattr(t, name + "_index"), getattr(t, name + "_values")
    for perm in itertools.permutations(range(3)):
        sign = su_algebra._permutation_sign(perm) if name == "f" else 1.0
        out[tuple(index[list(perm)])] = sign * values
    return out


def dense_reference_tables(basis):
    """Test-only reference: d and f from the dense (N^2-1)^3 triple trace.

    This is the einsum extractor the library used before it contracted
    over the sparse generator entries.  Returns (d_map, f_map, d, f) with
    the maps keyed like StructureTensors.d/f and d, f the dense arrays.
    """
    lam = basis.elements
    t3 = np.einsum("aij,bjk,cki->abc", lam, lam, lam, optimize=True)
    d = t3.real / 2.0
    f = t3.imag / 2.0
    d[np.abs(d) < SPARSITY_THRESHOLD] = 0.0
    f[np.abs(f) < SPARSITY_THRESHOLD] = 0.0
    d_map = {
        (int(i) + 1, int(j) + 1, int(k) + 1): float(d[i, j, k])
        for i, j, k in zip(*np.nonzero(d))
        if i <= j <= k
    }
    f_map = {
        (int(i) + 1, int(j) + 1, int(k) + 1): float(f[i, j, k])
        for i, j, k in zip(*np.nonzero(f))
        if i < j < k
    }
    return d_map, f_map, d, f


def rotated_basis(N, seed):
    """The standard basis conjugated by a seeded Haar unitary: every entry nonzero."""
    basis = gell_mann_basis(N)
    u = haar_unitary(N, np.random.default_rng(seed))
    elements = u @ basis.elements @ u.conj().T
    return BasisSet(dim=N, elements=elements, cartan_indices=basis.cartan_indices)


def complex_mixed_basis(s):
    """su(3) with lam_1 and lam_4 mixed by the complex orthogonal rotation
    [[cosh s, i sinh s], [-i sinh s, cosh s]]: orthonormal, with the
    Hermiticity defect 2 sinh(s)."""
    basis = gell_mann_basis(3)
    mixed = basis.elements.copy()
    l1, l4 = basis.element(1), basis.element(4)
    mixed[0] = math.cosh(s) * l1 + 1j * math.sinh(s) * l4
    mixed[3] = -1j * math.sinh(s) * l1 + math.cosh(s) * l4
    return BasisSet(dim=3, elements=mixed, cartan_indices=basis.cartan_indices)


def max_table_difference(a, b):
    assert list(a.d) == list(b.d) and list(a.f) == list(b.f)
    diffs = [abs(a.d[k] - b.d[k]) for k in a.d] + [abs(a.f[k] - b.f[k]) for k in a.f]
    return max(diffs, default=0.0)


def test_basis_counts_and_cartan_positions():
    for N in range(2, 7):
        basis = gell_mann_basis(N)
        assert basis.size == N * N - 1
        assert basis.cartan_indices == tuple(m * m - 1 for m in range(2, N + 1))
        # 1-based indices, refused outside their range
        for i in (0, N * N):
            with pytest.raises(ValueError, match=f"^generator index {i} outside 1..{N * N - 1}$"):
                basis.element(i)
        for k in (0, N):
            with pytest.raises(ValueError, match=f"^Cartan index {k} outside 1..{N - 1}$"):
                basis.cartan(k)


def test_qubit_basis_is_pauli():
    basis = gell_mann_basis(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    for k, sigma in enumerate([sx, sy, sz], start=1):
        assert np.allclose(basis.element(k), sigma, atol=0)


def test_qutrit_cartan_elements():
    basis = gell_mann_basis(3)
    h1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    h2 = np.diag([1.0, 1.0, -2.0]).astype(complex) / math.sqrt(3.0)
    assert np.allclose(basis.cartan(1), h1, atol=ORTHO_TOL)
    assert np.allclose(basis.cartan(2), h2, atol=ORTHO_TOL)


def test_orthonormality_tr_2delta():
    for N in range(2, 7):
        el = gell_mann_basis(N).elements
        gram = np.einsum("aij,bji->ab", el, el)
        assert np.max(np.abs(gram - 2.0 * np.eye(N * N - 1))) < ORTHO_TOL


def test_hermiticity_and_tracelessness():
    for N in range(2, 7):
        for lam in gell_mann_basis(N).elements:
            assert np.max(np.abs(lam - lam.conj().T)) < ORTHO_TOL
            assert abs(np.trace(lam)) < ORTHO_TOL


def test_cartan_d_values_su3():
    t = algebra_tensors(3)
    assert t.d_value(3, 3, 8) == pytest.approx(1.0 / math.sqrt(3.0), abs=ORTHO_TOL)
    assert t.d_value(8, 8, 8) == pytest.approx(-1.0 / math.sqrt(3.0), abs=ORTHO_TOL)


def test_cartan_d_values_su4():
    t = algebra_tensors(4)
    assert t.d_value(3, 3, 8) == pytest.approx(1.0 / math.sqrt(3.0), abs=ORTHO_TOL)
    assert t.d_value(8, 8, 8) == pytest.approx(-1.0 / math.sqrt(3.0), abs=ORTHO_TOL)
    assert t.d_value(3, 3, 15) == pytest.approx(1.0 / math.sqrt(6.0), abs=ORTHO_TOL)
    assert t.d_value(8, 8, 15) == pytest.approx(1.0 / math.sqrt(6.0), abs=ORTHO_TOL)
    assert t.d_value(15, 15, 15) == pytest.approx(-math.sqrt(2.0 / 3.0), abs=ORTHO_TOL)


def test_su2_has_no_symmetric_constants():
    t = algebra_tensors(2)
    assert t.d == {}
    assert np.max(np.abs(dense(t, "d"))) == 0.0
    # f must be the Levi-Civita tensor
    assert t.f_value(1, 2, 3) == pytest.approx(1.0, abs=ORTHO_TOL)
    assert t.f_value(2, 1, 3) == pytest.approx(-1.0, abs=ORTHO_TOL)


def test_su3_f_constants():
    t = algebra_tensors(3)
    assert t.f_value(1, 2, 3) == pytest.approx(1.0, abs=ORTHO_TOL)
    assert t.f_value(1, 4, 7) == pytest.approx(0.5, abs=ORTHO_TOL)
    assert t.f_value(4, 5, 8) == pytest.approx(math.sqrt(3.0) / 2.0, abs=ORTHO_TOL)
    assert t.f_value(6, 7, 8) == pytest.approx(math.sqrt(3.0) / 2.0, abs=ORTHO_TOL)


def test_tensor_symmetries():
    for N in (3, 4):
        t = algebra_tensors(N)
        d, f = dense(t, "d"), dense(t, "f")
        assert np.allclose(d, np.transpose(d, (1, 0, 2)), atol=ORTHO_TOL)
        assert np.allclose(d, np.transpose(d, (0, 2, 1)), atol=ORTHO_TOL)
        assert np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=ORTHO_TOL)
        assert np.allclose(f, np.transpose(f, (1, 2, 0)), atol=ORTHO_TOL)


def test_product_reconstruction():
    # lambda_i lambda_j = (2/N) delta_ij I + sum_k (d_ijk + i f_ijk) lambda_k
    for N in range(2, 6):
        basis = gell_mann_basis(N)
        t = algebra_tensors(N)
        el = basis.elements
        n = basis.size
        lhs = np.einsum("aij,bjk->abik", el, el)
        rhs = np.einsum("ab,ik->abik", (2.0 / N) * np.eye(n), np.eye(N)).astype(complex)
        rhs += np.einsum("abc,cik->abik", dense(t, "d") + 1j * dense(t, "f"), el)
        assert np.max(np.abs(lhs - rhs)) < RECON_TOL


def test_jacobi_identity():
    # f_ade f_bcd cyclic sum vanishes
    for N in (3, 4):
        f = dense(algebra_tensors(N), "f")
        term = np.einsum("ade,bcd->abce", f, f)
        cyc = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
        assert np.max(np.abs(cyc)) < JACOBI_TOL


def test_weight_examples():
    w3 = weight_vectors(3).weights
    s3 = math.sqrt(3.0)
    expected3 = np.array([[0.5, 1 / (2 * s3)], [-0.5, 1 / (2 * s3)], [0.0, -1 / s3]])
    assert np.max(np.abs(w3 - expected3)) < ORTHO_TOL

    w4 = weight_vectors(4).weights
    assert np.max(np.abs(w4[3] - np.array([0.0, 0.0, -3.0 / (2.0 * math.sqrt(6.0))]))) < ORTHO_TOL

    # weight(i) is the i-th row, 1-based, and refuses an index outside 1..N
    system = weight_vectors(3)
    for i in (1, 2, 3):
        assert np.array_equal(system.weight(i), system.weights[i - 1])
        assert np.max(np.abs(system.weight(i) - expected3[i - 1])) < ORTHO_TOL
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"^state index {i} outside 1..3$"):
            system.weight(i)


def test_weight_identities():
    for N in range(2, 9):
        w = weight_vectors(N)
        assert np.max(np.abs(w.weights.sum(axis=0))) < ORTHO_TOL
        gram = w.weights.T @ w.weights
        assert np.max(np.abs(gram - 0.5 * np.eye(N - 1))) < ORTHO_TOL
        # weights are half the Cartan diagonals
        basis = gell_mann_basis(N)
        for a, idx in enumerate(basis.cartan_indices):
            diag = np.real(np.diag(basis.element(idx)))
            assert np.max(np.abs(diag - 2.0 * w.weights[:, a])) < ORTHO_TOL


def test_vee_product_cartan_directions():
    # qutrit: e8 v e8 = -e8;  quatrit: e15 v e15 = -2 e15 / ... fixed value
    t3 = algebra_tensors(3)
    e8 = np.zeros(8)
    e8[7] = 1.0
    out = vee_product(e8, e8, t3)
    expect = np.zeros(8)
    expect[7] = math.sqrt(3.0) * (-1.0 / math.sqrt(3.0))
    assert np.max(np.abs(out - expect)) < ORTHO_TOL

    t4 = algebra_tensors(4)
    e15 = np.zeros(15)
    e15[14] = 1.0
    out4 = vee_product(e15, e15, t4)
    expect4 = np.zeros(15)
    expect4[14] = math.sqrt(6.0) * (-math.sqrt(2.0 / 3.0))
    assert np.max(np.abs(out4 - expect4)) < ORTHO_TOL


def test_vee_product_bilinear_and_symmetric():
    rng = np.random.default_rng(42)
    for N in range(3, 9):
        tables = [algebra_tensors(N)]
        if N <= 5:
            tables.append(structure_constants(rotated_basis(N, seed=N)))
        for t in tables:
            x, y, z = rng.normal(size=(3, N * N - 1))
            assert np.max(np.abs(vee_product(x, y, t) - vee_product(y, x, t))) <= VEE_TOL
            assert np.allclose(
                vee_product(x + 2.0 * z, y, t),
                vee_product(x, y, t) + 2.0 * vee_product(z, y, t),
                atol=ORTHO_TOL,
            )


def test_vee_product_shape_validation():
    t = algebra_tensors(3)
    with pytest.raises(ValueError):
        vee_product(np.zeros(7), np.zeros(8), t)


def test_casimirs_refuse_a_wrong_length_vector():
    with pytest.raises(ValueError, match="length 8"):
        casimirs(np.zeros(7), algebra_tensors(3))


def test_darboux_frame_values():
    f2 = darboux_frame(2)
    assert np.max(np.abs(f2 - np.array([[1.0, -1.0]]) / math.sqrt(2.0))) < ORTHO_TOL
    f3 = darboux_frame(3)
    expected = np.array(
        [
            [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0],
            [1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)],
        ]
    )
    assert np.max(np.abs(f3 - expected)) < ORTHO_TOL


def test_darboux_frame_orthonormal_in_simplex_plane():
    for N in range(2, 9):
        f = darboux_frame(N)
        assert f.shape == (N - 1, N)
        assert np.max(np.abs(f @ f.T - np.eye(N - 1))) < ORTHO_TOL
        assert np.max(np.abs(f.sum(axis=1))) < ORTHO_TOL


def test_basis_json_round_trip_values():
    basis = gell_mann_basis(3)
    payload = basis_to_json(basis)
    assert payload["N"] == 3
    assert payload["cartan_indices"] == [3, 8]
    lam1 = payload["elements"][0]
    # row-major [re, im] pairs: lambda_1 has ones at (1,2) and (2,1)
    assert lam1[1] == [1.0, 0.0] and lam1[3] == [1.0, 0.0]


def _contract_in_chunks(monkeypatch) -> list:
    """Cap the triple-trace contraction at about 2^16 products per chunk;
    the list returned records one entry per join, two per chunk."""
    joins = []
    ragged = su_algebra._ragged_ranges

    def counted_ragged(starts, counts):
        joins.append(starts.size)
        return ragged(starts, counts)

    monkeypatch.setattr(su_algebra, "_ragged_ranges", counted_ragged)
    monkeypatch.setattr(su_algebra, "CONTRACTION_CHUNK_TERMS", 1 << 16)
    return joins


def test_tensors_json_sorted_and_one_based(monkeypatch):
    tables = [structure_constants(gell_mann_basis(N)) for N in range(2, 9)]
    # a dense basis contracted in many chunks is stored sorted too
    joins = _contract_in_chunks(monkeypatch)
    tables.append(structure_constants(rotated_basis(5, seed=5)))
    assert len(joins) // 2 >= 10  # two joins per chunk
    for t in tables:
        n = t.size
        # a cold table is dumped straight off its coordinate form: no map is built
        payload = tensors_to_json(t)
        assert "d" not in vars(t) and "f" not in vars(t)
        d_keys = [(e["i"], e["j"], e["k"]) for e in payload["d"]]
        assert d_keys == sorted(d_keys)
        assert all(1 <= i <= j <= k <= n for i, j, k in d_keys)
        f_keys = [(e["i"], e["j"], e["k"]) for e in payload["f"]]
        assert f_keys == sorted(f_keys)
        assert all(1 <= i < j < k <= n for i, j, k in f_keys)
        for name in ("d", "f"):
            items = sorted(getattr(t, name).items())
            rows = [{"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in items]
            assert payload[name] == rows


def test_structure_constants_rejects_bad_basis():
    basis = gell_mann_basis(3)
    broken = basis.elements.copy()
    broken[0] = broken[0] * 2.0
    with pytest.raises(ValueError):
        structure_constants(type(basis)(dim=3, elements=broken, cartan_indices=basis.cartan_indices))


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1j * np.inf])
def test_structure_constants_refuses_non_finite_basis(entry):
    # a NaN defect fails no "defect > tol" test; the gate must refuse it
    basis = gell_mann_basis(3)
    broken = basis.elements.copy()
    broken[0, 0, 1] = entry
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        structure_constants(BasisSet(dim=3, elements=broken, cartan_indices=basis.cartan_indices))


def _refused_defect(basis):
    """The defect in structure_constants' refusal of basis, and the same
    defect from the dense Gram product tr(lam_a lam_b), formed here."""
    with pytest.raises(ValueError, match="basis is not orthonormal") as refusal:
        structure_constants(basis)
    lam, n = basis.elements, basis.size
    gram = lam.reshape(n, -1) @ lam.swapaxes(1, 2).reshape(n, -1).T
    reported = float(str(refusal.value).rsplit("= ", 1)[1])
    return reported, np.max(np.abs(gram - 2.0 * np.eye(n))), gram


def _with_elements(basis, elements):
    return BasisSet(dim=basis.dim, elements=elements, cartan_indices=basis.cartan_indices)


def test_gram_gate_refuses_an_off_diagonal_defect():
    # every tr(l_a l_a) is still 2; only tr(l_1 l_2) = sqrt(2) is wrong
    basis = gell_mann_basis(4)
    broken = basis.elements.copy()
    broken[1] = (broken[0] + broken[1]) / math.sqrt(2.0)
    reported, defect, gram = _refused_defect(_with_elements(basis, broken))
    assert np.allclose(np.diagonal(gram), 2.0)
    assert reported == pytest.approx(defect, rel=1e-3)
    assert defect == pytest.approx(math.sqrt(2.0))


def test_gram_gate_refuses_an_all_zero_generator():
    # a zero generator has no pair in the join; its Gram entry must read 0
    basis = gell_mann_basis(4)
    broken = basis.elements.copy()
    broken[4] = 0.0
    reported, defect, _ = _refused_defect(_with_elements(basis, broken))
    assert reported == pytest.approx(defect, rel=1e-3)
    assert defect == 2.0


def test_gram_gate_over_several_chunks(monkeypatch):
    # a dense basis contracted in many chunks gives the one-chunk tables, and
    # a Gram defect in a late chunk is still caught
    basis = rotated_basis(6, seed=6)
    monkeypatch.setattr(su_algebra, "CONTRACTION_CHUNK_TERMS", 1 << 62)
    whole = structure_constants(basis)
    joins = _contract_in_chunks(monkeypatch)
    chunked = structure_constants(basis)
    assert len(joins) // 2 >= 10  # two joins per chunk
    for name in ("d_index", "d_values", "f_index", "f_values"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))
    broken = basis.elements.copy()
    broken[30] *= 1.001
    reported, defect, _ = _refused_defect(_with_elements(basis, broken))
    assert reported == pytest.approx(defect, rel=1e-3)
    assert defect == pytest.approx(2.0 * (1.001**2 - 1.0), rel=1e-6)


def test_invalid_dimension():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


def test_sparse_build_matches_dense_reference():
    for N in range(2, 8):
        basis = gell_mann_basis(N)
        t = structure_constants(basis)
        d_map, f_map, d, f = dense_reference_tables(basis)
        assert list(t.d) == list(d_map) and list(t.f) == list(f_map)
        assert max((abs(t.d[k] - v) for k, v in d_map.items()), default=0.0) <= REFERENCE_TOL
        assert max((abs(t.f[k] - v) for k, v in f_map.items()), default=0.0) <= REFERENCE_TOL
        # the coordinate tables cover exactly the canonical nonzero triples,
        # sorted by (i, j, k): i <= j <= k for d, i < j < k for f
        i, j, k = index = np.array(np.nonzero(d))
        assert np.array_equal(t.d_index, index[:, (i <= j) & (j <= k)])
        i, j, k = index = np.array(np.nonzero(f))
        assert np.array_equal(t.f_index, index[:, (i < j) & (j < k)])
        assert np.max(np.abs(dense(t, "d") - d)) <= REFERENCE_TOL
        assert np.max(np.abs(dense(t, "f") - f)) <= REFERENCE_TOL


def test_vee_product_matches_dense_contraction():
    rng = np.random.default_rng(11)
    for N in range(3, 7):
        t = algebra_tensors(N)
        _, _, d, _ = dense_reference_tables(gell_mann_basis(N))
        scale = math.sqrt(N * (N - 1) / 2.0)
        for _ in range(5):
            x, y = rng.normal(size=(2, N * N - 1))
            expect = scale * np.einsum("ijk,i,j->k", d, x, y)
            assert np.max(np.abs(vee_product(x, y, t) - expect)) <= VEE_TOL


def dense_casimirs(xi, d, N):
    """c2..c6 from the dense d by einsum: the casimirs docstring's chains."""
    scale = math.sqrt(N * (N - 1) / 2.0)
    v2 = scale * np.einsum("ijk,i,j->k", d, xi, xi)
    v3 = scale * np.einsum("ijk,i,j->k", d, v2, xi)
    return (N - 1) * np.array([xi @ xi, xi @ v2, v2 @ v2, v3 @ v2, v3 @ v3])


@pytest.mark.parametrize("rotated", [False, True])
def test_casimirs_match_dense_contraction(rotated):
    rng = np.random.default_rng(12)
    for N in range(3, 7):
        basis = rotated_basis(N, seed=N) if rotated else gell_mann_basis(N)
        t = structure_constants(basis)
        _, _, d, _ = dense_reference_tables(basis)
        scale = math.sqrt(N * (N - 1) / 2.0)
        for xi in rng.normal(size=(6, N * N - 1)):
            got = np.array(list(casimirs(xi, t).as_dict().values()))
            # c_k is a sum of terms of size (N - 1) scale^(k-2) |xi|^k
            size = (N - 1) * scale ** np.arange(5) * np.linalg.norm(xi) ** np.arange(2, 7)
            assert np.all(np.abs(got - dense_casimirs(xi, d, N)) <= VEE_TOL * size)


def test_casimir_c2_is_exactly_the_squared_length():
    # what a caller may test bit for bit: c2 = (N - 1) xi.xi
    rng = np.random.default_rng(2)
    for N in range(2, 9):
        t = algebra_tensors(N)
        for xi in rng.normal(size=(8, N * N - 1)):
            assert casimirs(xi, t).c2 == (N - 1) * float(xi @ xi)


def test_rotated_basis_gives_standard_tables():
    # tr(U a U^+ U b U^+ U c U^+) = tr(abc): a dense basis, same constants
    for N in (3, 4):
        t = structure_constants(rotated_basis(N, seed=N))
        assert max_table_difference(t, algebra_tensors(N)) <= VEE_TOL


def test_rotated_basis_build_stays_small():
    tracemalloc.start()
    try:
        t = structure_constants(rotated_basis(6, seed=6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert max_table_difference(t, algebra_tensors(6)) <= VEE_TOL


def test_su10_table_sizes():
    # counts measured with the dense reference extractor
    t = algebra_tensors(10)
    assert (len(t.d), len(t.f)) == (1164, 681)


def test_su16_builds_fast_and_reproduces_products():
    start = time.perf_counter()
    t = algebra_tensors.__wrapped__(16)
    assert time.perf_counter() - start < 2.0
    N, n = 16, 255
    el = gell_mann_basis(N).elements
    rng = np.random.default_rng(16)
    pairs = [(i, i) for i in rng.integers(1, n + 1, size=4)]
    pairs += [tuple(p) for p in rng.integers(1, n + 1, size=(36, 2))]
    for i, j in pairs:
        lhs = el[i - 1] @ el[j - 1]
        coeff = np.array([t.d_value(i, j, k) + 1j * t.f_value(i, j, k) for k in range(1, n + 1)])
        rhs = np.tensordot(coeff, el, axes=1)
        if i == j:
            rhs = rhs + (2.0 / N) * np.eye(N)
        assert np.max(np.abs(lhs - rhs)) < RECON_TOL


def test_library_paths_build_no_dense_tensor():
    t = structure_constants(gell_mann_basis(5))
    xi = np.random.default_rng(5).normal(size=24)
    casimirs(xi, t)
    tensors_to_json(t)
    assert "d_dense" not in vars(t) and "f_dense" not in vars(t)
    for table in (t.d_index, t.d_values, t.f_index, t.f_values, *t._vee_table):
        assert not table.flags.writeable


def all_orderings_reference(basis):
    """Test-only reference: the coordinate tables as the library built them
    before it contracted only i <= j <= k.  T_abc = tr(lam_a lam_b lam_c)
    for every ordered triple from the same two sparse joins, one generator
    a at a time, d = Re T / 2 and f = Im T / 2 each thresholded, columns
    sorted by (i, j, k).  Returns (d_index, d_values, f_index, f_values)."""
    lam = basis.elements
    n, N, _ = lam.shape
    gen, row, col = np.nonzero(lam)
    val = lam[gen, row, col]

    def ranges(starts, counts):
        owner = np.repeat(np.arange(counts.size), counts)
        offsets = np.cumsum(counts) - counts
        return owner, np.repeat(starts - offsets, counts) + np.arange(owner.size)

    def sum_by_key(keys, weights):
        uniq, inverse = np.unique(keys, return_inverse=True)
        real = np.bincount(inverse, weights=weights.real, minlength=uniq.size)
        imag = np.bincount(inverse, weights=weights.imag, minlength=uniq.size)
        return uniq, real + 1j * imag

    by_row = np.argsort(row, kind="stable")
    row_count = np.bincount(row, minlength=N)
    row_start = np.cumsum(row_count) - row_count
    pos = row * N + col
    by_pos = np.argsort(pos, kind="stable")
    pos_count = np.bincount(pos, minlength=N * N)
    pos_start = np.cumsum(pos_count) - pos_count
    keys, traces = [], []
    for a in range(n):
        first = np.flatnonzero(gen == a)
        owner, idx = ranges(row_start[col[first]], row_count[col[first]])
        e1, e2 = first[owner], by_row[idx]
        pair_key = ((gen[e1] * n + gen[e2]) * N + row[e1]) * N + col[e2]
        pair_key, pair = sum_by_key(pair_key, val[e1] * val[e2])
        ab, x, z = pair_key // (N * N), (pair_key // N) % N, pair_key % N
        where = z * N + x
        owner, idx = ranges(pos_start[where], pos_count[where])
        e3 = by_pos[idx]
        k, t = sum_by_key(ab[owner] * n + gen[e3], pair[owner] * val[e3])
        keys.append(k)
        traces.append(t)
    index = np.array(np.unravel_index(np.concatenate(keys), (n, n, n)))
    traces = np.concatenate(traces)
    tables = []
    for values in (traces.real / 2.0, traces.imag / 2.0):
        keep = np.abs(values) >= SPARSITY_THRESHOLD
        tables += [index[:, keep], values[keep]]
    return tuple(tables)


def _cases(rotated, chunked):
    """(basis, chunked) parameters: the standard basis at N = 2..10, then
    the rotated bases at the N of rotated and, chunked, at those of chunked."""
    cases = [pytest.param(gell_mann_basis(N), False, id=f"standard-{N}") for N in range(2, 11)]
    for Ns, chunk, suffix in ((rotated, False, ""), (chunked, True, "-chunked")):
        cases += [pytest.param(rotated_basis(N, seed=N), chunk, id=f"rotated-{N}{suffix}") for N in Ns]
    return cases


@pytest.mark.parametrize("basis, chunked", _cases(rotated=range(2, 7), chunked=(5, 6)))
def test_canonical_triples_keep_the_all_orderings_bits(basis, chunked, monkeypatch):
    # contracting i <= j <= k only sums the same products in the same order:
    # the stored tables, the maps and the JSON dump are the reference's bits
    if chunked:
        joins = _contract_in_chunks(monkeypatch)
    t = structure_constants(basis)
    if chunked:
        assert len(joins) // 2 >= 10  # two joins per chunk
    d_index, d_values, f_index, f_values = all_orderings_reference(basis)
    # the vee product's orderings of d cover the reference's ordered d
    # triples, each within rounding
    every_index, every_values = su_algebra._every_ordering(t.d_index, t.d_values)
    assert every_values.size == d_values.size
    order = np.lexsort(every_index[::-1])
    assert np.array_equal(every_index[:, order], d_index)
    assert np.max(np.abs(every_values[order] - d_values), initial=0.0) <= REFERENCE_TOL
    blocks = []
    for name, index, values in (("d", d_index, d_values), ("f", f_index, f_values)):
        i, j, k = index
        canonical = (i < j) & (j < k) if name == "f" else (i <= j) & (j <= k)
        index, values = index[:, canonical], values[canonical]
        # the stored table is the canonical block, sorted, with the reference's bits
        assert np.array_equal(getattr(t, f"{name}_index"), index)
        assert getattr(t, f"{name}_values").tobytes() == values.tobytes()
        blocks += [index, values]
    reference = StructureTensors(basis.dim, *blocks)
    assert json.dumps(tensors_to_json(t)) == json.dumps(tensors_to_json(reference))
    assert t.d == reference.d and t.f == reference.f
    # c2 is the same float; c3..c6 move by rounding in the vee sums alone
    N = basis.dim
    scale = math.sqrt(N * (N - 1) / 2.0)
    for xi in np.random.default_rng(N).normal(size=(4, N * N - 1)):
        got = np.array(list(casimirs(xi, t).as_dict().values()))
        want = np.array(list(casimirs(xi, reference).as_dict().values()))
        assert got[0] == want[0] == (N - 1) * float(xi @ xi)
        size = (N - 1) * scale ** np.arange(5) * np.linalg.norm(xi) ** np.arange(2, 7)
        assert np.all(np.abs(got - want) <= VEE_TOL * size)


@pytest.mark.parametrize(
    "basis, chunked",
    _cases(rotated=(3, 4, 6), chunked=(6,))
    # within the Hermiticity gate: Im T_abc with two equal indices reaches
    # about 1e-11, above the sparsity threshold, yet f stores no such entry
    + [pytest.param(complex_mixed_basis(4e-11), False, id="mixed-3-within-tolerance")],
)
def test_stored_tables_are_exactly_symmetric(basis, chunked, monkeypatch):
    # every ordering of a triple holds the same bits: d totally symmetric,
    # f totally antisymmetric, each canonical triple stored once
    if chunked:
        _contract_in_chunks(monkeypatch)
    t = structure_constants(basis)
    for name in ("d", "f"):
        D = dense(t, name)
        if name == "d":
            # d's expansion for the vee product lists each ordered triple once
            # (its sorted flat keys are the dense array's nonzeros), with the
            # bits of its canonical entry
            index, values = su_algebra._every_ordering(t.d_index, t.d_values)
            assert np.array_equal(np.sort(np.ravel_multi_index(index, D.shape)), np.flatnonzero(D))
            assert D[tuple(index)].tobytes() == values.tobytes()
        else:
            # six orderings of each f triple, whose indices are distinct
            assert np.count_nonzero(D) == 6 * t.f_values.size
        for perm in itertools.permutations(range(3)):
            odd = su_algebra._permutation_sign(perm) < 0
            sign = -1.0 if name == "f" and odd else 1.0
            assert np.array_equal(D.transpose(perm), sign * D), (name, perm)


def test_structure_constants_refuse_a_non_hermitian_basis():
    # tr(l_i l_j) is still 2 delta_ij, but l_1 - l_1^dag = 2i sinh(s) lam_4,
    # so T_acb = conj T_abc fails and the orderings read by symmetry would
    # be wrong
    s = 0.3
    basis = complex_mixed_basis(s)
    gram = np.einsum("aij,bji->ab", basis.elements, basis.elements)
    assert np.max(np.abs(gram - 2.0 * np.eye(8))) < 1e-15
    with pytest.raises(ValueError, match="basis is not Hermitian") as refusal:
        structure_constants(basis)
    reported = float(str(refusal.value).rsplit("= ", 1)[1])
    assert reported == pytest.approx(2.0 * math.sinh(s), rel=1e-3)
    assert reported > HERMITIAN_TOL
