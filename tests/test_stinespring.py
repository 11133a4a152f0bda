"""Dilation construction: isometry, representation, defect identity."""

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    NotCompletelyPositiveError,
    apply,
    dag,
    delta_normal,
    dilate,
    dilation_residual,
    from_kraus,
    ginibre,
    haar_unitary,
    homomorphism_check,
    identity_map,
    lemma2_defect_identity,
    operator_norm,
    random_ensemble,
    random_unital_cp,
    transpose_map,
    unitary_conj,
)


def test_dilate_identity_map():
    dil = dilate(identity_map(3))
    assert dil.env_dim == 1
    assert operator_norm(dil.isometry - np.eye(3)) <= 1e-12
    a = ginibre(3, seed=1)
    assert operator_norm(dil.dilated_apply(a) - a) <= 1e-12


def test_dilate_unitary_conjugation():
    u = haar_unitary(3, seed=5)
    dil = dilate(unitary_conj(u))
    assert dil.env_dim == 1
    assert operator_norm(dil.isometry - dag(u)) <= 1e-12
    a = ginibre(3, seed=2)
    assert operator_norm(u @ a @ dag(u) - dil.dilated_apply(a)) <= 1e-12


def test_dilate_non_cp_raises_from_kraus_recovery():
    with pytest.raises(NotCompletelyPositiveError):
        dilate(transpose_map(2))


def test_dilate_rejects_non_cp_and_non_unital():
    with pytest.raises(ContractError):
        dilate(transpose_map(2))
    with pytest.raises(ContractError):
        dilate(from_kraus([2.0 * np.eye(2)]))


def test_dilation_properties_random():
    for trial in range(25):
        dim = 2 + trial % 2
        phi = random_unital_cp(dim, 1 + trial % (dim * dim), seed=trial)
        dil = dilate(phi)
        assert dil.env_dim <= dim * dim
        v = dil.isometry
        assert operator_norm(dag(v) @ v - np.eye(dim)) <= 1e-10
        for s in range(5):
            a = ginibre(dim, seed=100 * trial + s)
            resid = operator_norm(apply(phi, a) - dil.dilated_apply(a))
            assert resid <= 1e-9 * (1 + operator_norm(a))


def test_range_complement_is_projection():
    phi = random_unital_cp(3, 4, seed=9)
    dil = dilate(phi)
    v = dil.isometry
    proj = np.eye(v.shape[0]) - v @ dag(v)
    assert operator_norm(proj @ proj - proj) <= 1e-10


def test_pi_preserves_norm():
    phi = random_unital_cp(3, 2, seed=13)
    dil = dilate(phi)
    for trial in range(20):
        a = ginibre(3, seed=trial)
        assert operator_norm(dil.pi(a)) == pytest.approx(operator_norm(a), abs=1e-10)


def test_dilation_residual():
    phi = random_unital_cp(3, 4, seed=6)
    dil = dilate(phi)
    assert dilation_residual(phi, dil, samples=0) == 0.0
    worst = dilation_residual(phi, dil, samples=20, seed=2)
    assert 0.0 < worst <= 1e-12
    assert dilation_residual(phi, dil, samples=20, seed=2) == worst

    # the worst of the same draws, recomputed sample by sample
    rng = np.random.default_rng(2)
    expected = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        resid = operator_norm(apply(phi, a) - dil.dilated_apply(a))
        expected = max(expected, resid / (1 + operator_norm(a)))
    assert worst == expected

    # a dilation of another map is caught
    other = dilate(random_unital_cp(3, 4, seed=7))
    assert dilation_residual(phi, other, samples=5) > 1e-3


def test_homomorphism_check():
    dil = dilate(identity_map(2))
    rep = homomorphism_check(dil, samples=10, seed=0)
    assert rep["max_product_residual"] == 0.0
    assert rep["max_adjoint_residual"] == 0.0
    assert rep["unital_exact"]

    dil = dilate(random_unital_cp(3, 5, seed=3))
    rep = homomorphism_check(dil, samples=50, seed=1)
    assert rep["max_product_residual"] <= 1e-10
    assert rep["max_adjoint_residual"] <= 1e-12
    assert rep["unital_exact"]


def test_homomorphism_check_matches_per_sample_recomputation():
    dil = dilate(random_unital_cp(3, 4, seed=6))
    rep = homomorphism_check(dil, samples=0)
    assert rep == {"samples": 0, "max_product_residual": 0.0,
                   "max_adjoint_residual": 0.0, "unital_exact": True}

    # 37 samples: two full blocks and a partial one
    rep = homomorphism_check(dil, samples=37, seed=4)
    rng = np.random.default_rng(4)
    max_product = max_adjoint = 0.0
    for _ in range(37):
        a = ginibre(3, rng)
        b = ginibre(3, rng)
        scale = 1.0 + operator_norm(a) * operator_norm(b)
        max_product = max(max_product,
                          operator_norm(dil.pi(a @ b) - dil.pi(a) @ dil.pi(b)) / scale)
        max_adjoint = max(max_adjoint, operator_norm(dil.pi(dag(a)) - dag(dil.pi(a))))
    assert rep["samples"] == 37
    assert rep["max_product_residual"] == max_product
    assert rep["max_adjoint_residual"] == max_adjoint
    assert 0.0 < max_product <= 1e-12

    with pytest.raises(ContractError):
        homomorphism_check(dil, samples=-1)
    with pytest.raises(ContractError):
        dilation_residual(dil.source, dil, samples=-2)


def test_defect_identity_trivial_cases():
    dil = dilate(identity_map(2))
    lhs, rhs = lemma2_defect_identity(dil, np.eye(2), 0.3 + 1j, -7.0)
    assert lhs <= 1e-14 and rhs <= 1e-14

    u = haar_unitary(3, seed=7)
    dil = dilate(unitary_conj(u))
    a = ginibre(3, seed=8)
    lhs, rhs = lemma2_defect_identity(dil, a, 2.0, -1.0j)
    assert lhs <= 1e-12 * (1 + operator_norm(a) ** 2)


def test_defect_identity_random_tuples():
    for dim in (2, 3):
        for trial in range(100):
            phi = random_unital_cp(dim, 1 + trial % (dim * dim), seed=trial)
            dil = dilate(phi)
            rng = np.random.default_rng(10_000 + trial)
            a = ginibre(dim, seed=500 + trial)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            mu = complex(rng.standard_normal(), rng.standard_normal())
            lhs, rhs = lemma2_defect_identity(dil, a, lam, mu)
            scale = 1 + operator_norm(a) ** 2
            assert abs(lhs - rhs) <= 1e-9 * scale
            eye = np.eye(dim)
            assert lhs <= (operator_norm(a - lam * eye) * operator_norm(a - mu * eye)
                           + 1e-9 * scale)


def test_defect_bounded_by_squared_distance_at_disk_center():
    for trial in range(30):
        phi = random_unital_cp(3, 4, seed=trial)
        dil = dilate(phi)
        a = random_ensemble("normal", 3, seed=trial)
        d = delta_normal(a)
        lam = d.minimizer
        lhs, _ = lemma2_defect_identity(dil, a, lam, lam)
        assert lhs <= d.value**2 + 1e-8
