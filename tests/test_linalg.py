"""Kernel-level checks: arithmetic semantics, decompositions, ensembles, JSON."""

import json

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    DimensionError,
    as_matrix,
    dag,
    embed_block,
    ginibre,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    polar_decompose,
    random_ensemble,
    svd,
)


def test_adjoint_conjugates():
    a = as_matrix([[1j]])
    assert dag(a)[0, 0] == -1j


def test_trace_and_product():
    a = as_matrix([[1, 2], [2, 4]])
    b = as_matrix([[1, 0], [0, 4]])
    assert np.trace(b) == 5
    # hand multiplication oracle
    assert np.allclose(a @ b, [[1, 8], [2, 16]])


def test_as_matrix_rejects_bad_shapes_and_nan():
    with pytest.raises(DimensionError):
        as_matrix([1, 2, 3])
    with pytest.raises(DimensionError):
        as_matrix([[1, 2], [3, 4], [5, 6]], square=True)
    with pytest.raises(ContractError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ContractError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_hermitian_eig_known_spectra():
    dec = hermitian_eig([[1, 2], [2, 4]])
    assert np.allclose(dec.eigenvalues, [0.0, 5.0], atol=1e-12)
    dec = hermitian_eig(np.diag([1.0, 4.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 4.0], atol=1e-14)
    dec = hermitian_eig(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ContractError):
        hermitian_eig([[0, 1], [0, 0]])


def test_hermitian_eig_reconstruction_property():
    for k in range(2, 7):
        for trial in range(200):
            a = random_ensemble("hermitian", k, seed=1000 * k + trial)
            dec = hermitian_eig(a)
            q, w = dec.eigenvectors, dec.eigenvalues
            assert np.all(np.diff(w) >= 0)
            recon = q @ np.diag(w.astype(complex)) @ dag(q)
            assert operator_norm(a - recon) <= 1e-11 * (1 + operator_norm(a))
            assert operator_norm(dag(q) @ q - np.eye(k)) <= 1e-11


def test_svd_examples():
    assert np.allclose(svd(np.diag([3.0, -2.0])).singular_values, [3.0, 2.0])
    # A*A = 36 I, so both singular values are 6
    assert np.allclose(svd([[0, -6], [6, 0]]).singular_values, [6.0, 6.0])
    assert np.allclose(svd(np.zeros((2, 3))).singular_values, 0.0)


def test_svd_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        dec = svd(a)
        recon = dec.left_vectors[:, :3] @ np.diag(dec.singular_values.astype(complex)) @ dag(dec.right_vectors)[:3, :]
        assert operator_norm(a - recon) <= 1e-12 * (1 + operator_norm(a))
        s = dec.singular_values
        assert np.all(s >= 0) and np.all(np.diff(s) <= 0)


def test_operator_norm_examples():
    assert operator_norm([[0, -6], [6, 0]]) == pytest.approx(6.0, abs=1e-12)
    assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    # A*A = diag(0, 1)
    assert operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_submultiplicative_and_unitary_invariant():
    for trial in range(30):
        a = random_ensemble("ginibre", 4, seed=trial)
        b = random_ensemble("ginibre", 4, seed=500 + trial)
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10
        u = random_ensemble("haar_unitary", 4, seed=1000 + trial)
        v = random_ensemble("haar_unitary", 4, seed=1500 + trial)
        assert operator_norm(u @ a @ v) == pytest.approx(operator_norm(a), abs=1e-10)


def test_kron_mixed_product():
    for trial in range(20):
        a = random_ensemble("ginibre", 2, seed=trial)
        b = random_ensemble("ginibre", 3, seed=100 + trial)
        c = random_ensemble("ginibre", 2, seed=200 + trial)
        d = random_ensemble("ginibre", 3, seed=300 + trial)
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert operator_norm(lhs - rhs) <= 1e-10


def test_polar_examples():
    u = random_ensemble("haar_unitary", 3, seed=5)
    w, p = polar_decompose(u)
    assert operator_norm(w - u) <= 1e-12
    assert operator_norm(p - np.eye(3)) <= 1e-12

    w, p = polar_decompose(np.diag([2.0, 3.0]))
    assert operator_norm(w - np.eye(2)) <= 1e-12
    assert np.allclose(np.diagonal(p), [2.0, 3.0])

    a = as_matrix([[0, 1], [0, 0]])
    w, p = polar_decompose(a)
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-14)
    assert operator_norm(a - w @ p) <= 1e-14
    assert operator_norm(dag(w) @ w - np.eye(2)) <= 1e-14


def test_polar_property():
    for trial in range(40):
        dim = 2 + trial % 3
        a = random_ensemble("ginibre", dim, seed=trial)
        if trial % 5 == 0:
            a[:, 0] = 0.0  # force rank deficiency
        w, p = polar_decompose(a)
        assert operator_norm(a - w @ p) <= 1e-10 * (1 + operator_norm(a))
        assert operator_norm(dag(w) @ w - np.eye(dim)) <= 1e-12
        assert np.linalg.eigvalsh((p + dag(p)) / 2).min() >= -1e-11


def test_random_ensembles():
    u1 = random_ensemble("haar_unitary", 3, seed=123)
    u2 = random_ensemble("haar_unitary", 3, seed=123)
    assert np.array_equal(u1, u2)
    assert operator_norm(dag(u1) @ u1 - np.eye(3)) <= 1e-12

    h = random_ensemble("hermitian", 2, seed=9)
    assert operator_norm(h - dag(h)) == 0.0

    n = random_ensemble("normal", 3, seed=17)
    comm = n @ dag(n) - dag(n) @ n
    assert operator_norm(comm) <= 1e-12 * operator_norm(n) ** 2

    with pytest.raises(ContractError):
        random_ensemble("bogus", 3, seed=0)


def test_embed_block():
    a = as_matrix([[1, 2], [3, 4]])
    big = embed_block(a, 3, 1, 2)
    assert big.shape == (6, 6)
    assert np.allclose(big[2:4, 4:6], a)
    assert np.count_nonzero(big) == 4


def test_matrix_json_roundtrip():
    a = random_ensemble("ginibre", 3, seed=3)
    obj = matrix_to_json(a)
    text = json.dumps(obj)
    back = matrix_from_json(json.loads(text))
    assert np.array_equal(a, back)


def test_matrix_json_rejects_mismatch():
    good = matrix_to_json(np.eye(2))
    bad = dict(good, rows=3)
    with pytest.raises(DimensionError):
        matrix_from_json(bad)
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [[0, 0], [0, 0]]})
    with pytest.raises(ContractError):
        matrix_from_json("not an object")


def test_ginibre_shape_equals_successive_single_draws():
    # a single draw takes its real part, then its imaginary part
    def single(rng, dim):
        re = rng.standard_normal((dim, dim))
        return (re + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)

    for seed in range(50):
        for dim, shape in ((3, ()), (2, (1,)), (3, (5,)), (4, (2, 3))):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            stacked = ginibre(dim, rng, shape)
            singles = np.stack([single(ref, dim) for _ in range(int(np.prod(shape)))])
            assert stacked.shape == shape + (dim, dim)
            assert np.array_equal(stacked.reshape(singles.shape), singles)
            assert rng.bit_generator.state == ref.bit_generator.state
