"""Averages of unitaries: scalar phases, matrix decomposition, rescaling."""

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    dag,
    decompose_unitary_sum,
    ginibre,
    operator_norm,
    rescale_for_decomposition,
    scalar_unimodular_sum,
)


def test_scalar_cube_roots_of_unity():
    z = scalar_unimodular_sum(0.0, 3)
    expected = {1.0 + 0j, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)}
    for zi in z:
        assert min(abs(zi - e) for e in expected) <= 1e-12
    assert abs(z.sum()) <= 1e-12


def test_scalar_even_case():
    z = scalar_unimodular_sum(0.5, 4)
    assert np.allclose(sorted(z, key=np.angle),
                       sorted([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)] * 2,
                              key=np.angle))
    assert z.sum() == pytest.approx(2.0, abs=1e-12)


def test_scalar_relaxed_endpoint():
    z = scalar_unimodular_sum(1.0, 2, mode="relaxed")
    assert np.allclose(z, [1.0, 1.0])


def test_scalar_contract_errors():
    with pytest.raises(ContractError):
        scalar_unimodular_sum(0.5, 3)  # 0.5 > 1 - 2/3 in strict mode
    with pytest.raises(ContractError):
        scalar_unimodular_sum(1.5, 4, mode="relaxed")
    with pytest.raises(ContractError):
        scalar_unimodular_sum(0.0, 1)
    # one value out of range rejects the whole array
    for bad in (0.5, -0.1, np.nan):
        with pytest.raises(ContractError):
            scalar_unimodular_sum(np.array([0.1, bad, 0.2]), 3)


def test_scalar_phase_invariants():
    rng = np.random.default_rng(3)
    for m in range(2, 12):
        limit = 1.0 - 2.0 / m
        for _ in range(20):
            s = float(rng.uniform(0, limit))
            z = scalar_unimodular_sum(s, m)
            assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-14
            assert abs(z.sum() - m * s) <= 1e-12


def test_scalar_sum_of_an_array_is_the_per_value_sums():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4, 7):
        for mode, limit in (("strict", 1.0 - 2.0 / m), ("relaxed", 1.0)):
            if mode == "strict" and m < 3:
                continue
            s = np.append(rng.uniform(0.0, limit, 6), [0.0, limit])
            z = scalar_unimodular_sum(s, m, mode=mode)
            assert z.shape == (s.size, m)
            for t, s_t in enumerate(s):
                assert np.array_equal(z[t], scalar_unimodular_sum(float(s_t), m, mode=mode))


def test_decompose_returns_the_unitaries_as_one_stack():
    # unitary j is U diag(z_j) V*, z_j the j-th phases of the singular values
    for n, m, mode in ((1, 3, "strict"), (3, 4, "strict"), (4, 7, "strict"), (3, 2, "relaxed")):
        a = ginibre(n, seed=n + m)
        limit = 1.0 if mode == "relaxed" else 1.0 - 2.0 / m
        a = a * (0.8 * limit / operator_norm(a))
        dec = decompose_unitary_sum(a, m, mode=mode)
        assert dec.unitaries.shape == (m, n, n)
        u, s, vh = np.linalg.svd(a)
        phases = np.stack([scalar_unimodular_sum(s_t, m, mode=mode) for s_t in s])
        for j in range(m):
            assert np.array_equal(dec.unitaries[j], u @ np.diag(phases[:, j]) @ vh)


def test_decompose_zero_matrix():
    dec = decompose_unitary_sum(np.zeros((2, 2)), 3)
    assert operator_norm(sum(dec.unitaries)) <= 1e-12
    for u in dec.unitaries:
        assert operator_norm(dag(u) @ u - np.eye(2)) <= 1e-12


def test_decompose_scalar_multiple_of_identity():
    dec = decompose_unitary_sum(0.5 * np.eye(2), 5)  # 0.5 < 3/5
    mean = sum(dec.unitaries) / 5
    assert operator_norm(mean - 0.5 * np.eye(2)) <= 1e-12
    assert dec.reconstruction_error <= 1e-12


def test_decompose_random_strict():
    for m in (3, 4, 7, 10):
        for trial in range(10):
            a = ginibre(3, seed=100 * m + trial)
            a = a * (0.9 * (1 - 2.0 / m) / operator_norm(a))
            dec = decompose_unitary_sum(a, m)
            assert dec.reconstruction_error <= 1e-10 * (1 + operator_norm(a))
            for u in dec.unitaries:
                assert operator_norm(dag(u) @ u - np.eye(3)) <= 1e-10


def test_decompose_rank_deficient_contraction():
    # rank 1: the full SVD must complete U and V* to unitaries on the kernel
    g = ginibre(3, seed=4)
    a = np.outer(g[:, 0], g[0].conj())
    a *= 0.5 * (1.0 - 2.0 / 5) / operator_norm(a)
    assert np.linalg.matrix_rank(a) == 1
    for m, mode in ((5, "strict"), (2, "relaxed")):
        dec = decompose_unitary_sum(a, m, mode=mode)
        for u in dec.unitaries:
            assert operator_norm(dag(u) @ u - np.eye(3)) <= 1e-12
        assert operator_norm(sum(dec.unitaries) / m - a) <= 1e-12


def test_decompose_relaxed_handles_contractions():
    a = ginibre(4, seed=6)
    a = a / operator_norm(a)  # norm exactly 1
    dec = decompose_unitary_sum(a, 2, mode="relaxed")
    assert dec.reconstruction_error <= 1e-10 * (1 + operator_norm(a))


def test_decompose_norm_hypothesis_enforced():
    a = np.eye(2) * 0.5
    with pytest.raises(ContractError):
        decompose_unitary_sum(a, 3)  # 0.5 >= 1/3
    with pytest.raises(ContractError):
        decompose_unitary_sum(2.0 * np.eye(2), 4, mode="relaxed")


def test_rescale_known_values():
    a = ginibre(3, seed=1)
    a = a / operator_norm(a)  # ||A|| = 1
    scaled, big_m = rescale_for_decomposition(a, 3)
    assert big_m == pytest.approx(11.0 / 3.0, abs=1e-12)
    assert operator_norm(scaled) == pytest.approx(3.0 / 11.0, abs=1e-12)
    assert operator_norm(scaled) < 1.0 - 2.0 / 3.0

    b = 2.0 * a
    _, big_m = rescale_for_decomposition(b, 4)
    assert big_m == pytest.approx(4.5, abs=1e-12)


def test_rescale_limit_approaches_norm():
    a = ginibre(2, seed=9)
    nrm = operator_norm(a)
    # the prefactor (m^2+2)/(m^2-2m) = 1 + (2m+2)/(m^2-2m) decreases to 1;
    # at m = 200 it is 40002/39600, at m = 2005 it drops below 1.001
    _, big_m = rescale_for_decomposition(a, 200)
    assert big_m == pytest.approx(40002.0 / 39600.0 * nrm, rel=1e-12)
    _, big_m = rescale_for_decomposition(a, 2005)
    assert big_m <= 1.001 * nrm


def test_rescale_rejects_zero_and_small_m():
    with pytest.raises(ContractError):
        rescale_for_decomposition(np.zeros((2, 2)), 3)
    with pytest.raises(ContractError):
        rescale_for_decomposition(np.eye(2), 2)


def test_rescale_then_decompose_reconstructs():
    for m in (3, 5, 10):
        for trial in range(10):
            a = ginibre(3, seed=17 * m + trial)
            scaled, big_m = rescale_for_decomposition(a, m)
            dec = decompose_unitary_sum(scaled, m, mode="strict")
            recon = (big_m / m) * sum(dec.unitaries)
            assert operator_norm(recon - a) <= 1e-9 * (1 + operator_norm(a))
