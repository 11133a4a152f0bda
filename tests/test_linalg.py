"""Kernel-level checks: arithmetic semantics, decompositions, ensembles, JSON."""

import json

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    DimensionError,
    as_matrix,
    dag,
    ginibre,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    random_ensemble,
)
from gruss_lab.linalg import ENSEMBLES, ensemble_sample, ensemble_stack


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


def test_an_ensemble_stack_builds_each_sample_as_random_ensemble_does():
    # kinds interleaved, so each kind's rows are a strided part of the stack
    kinds = [ENSEMBLES[n % 4] for n in range(11)]
    samples = [ensemble_sample(kind, 3, seed=40 + n) for n, kind in enumerate(kinds)]
    stack = ensemble_stack(samples)
    for n, kind in enumerate(kinds):
        assert np.array_equal(stack[n], random_ensemble(kind, 3, seed=40 + n))


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
