"""Dilation construction: isometry, representation, defect identity."""

import dataclasses
import json
import math

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    DimensionError,
    NotCompletelyPositiveError,
    apply,
    dag,
    dilate,
    dilation_residual,
    from_kraus,
    ginibre,
    haar_unitary,
    homomorphism_check,
    identity_map,
    lemma2_defect_identity,
    map_to_json,
    operator_norm,
    random_ensemble,
    random_unital_cp,
    to_choi,
    transpose_map,
    unitalize,
    unitary_conj,
)
from gruss_lab.cli import route
from oracles import delta_normal


def _unital_kraus(k, d, rank, seed):
    # a unital CP map M_k -> M_d from ``rank`` Ginibre d x k Kraus operators
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((rank, d, k)) + 1j * rng.standard_normal((rank, d, k))
    return unitalize(from_kraus(ops))


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


def test_pi_refuses_a_square_matrix_of_the_wrong_size_as_a_dimension_error():
    dil = dilate(random_unital_cp(3, 2, seed=13))
    for a in (np.eye(2), np.eye(4)):
        with pytest.raises(DimensionError, match="pi expects a 3x3 matrix"):
            dil.pi(a)
    with pytest.raises(DimensionError):
        dil.pi(np.zeros((3, 2)))


def test_dilation_residual():
    phi = random_unital_cp(3, 4, seed=6)
    for form in (phi, to_choi(phi)):
        assert dilation_residual(form, dilate(form)) <= 1e-12

    # a dilation of another map is caught
    other = dilate(random_unital_cp(3, 4, seed=7))
    assert dilation_residual(phi, other) > 1e-3

    # V' = V + eps E: the residual bounds the defect of V' on every A
    dil = dilate(phi)
    rng = np.random.default_rng(3)
    e = rng.standard_normal(dil.isometry.shape) + 1j * rng.standard_normal(dil.isometry.shape)
    moved = dataclasses.replace(dil, isometry=dil.isometry + 1e-6 * e)
    resid = dilation_residual(phi, moved)
    assert resid > 1e-9
    for s in range(20):
        a = ginibre(3, seed=s)
        assert operator_norm(apply(phi, a) - moved.dilated_apply(a)) <= \
            math.sqrt(3) * operator_norm(a) * resid + 1e-12


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

    # 37 samples: two full blocks and a partial one; each residual read off
    # the k x k block that I_r (x) . repeats
    rep = homomorphism_check(dil, samples=37, seed=4)
    rng = np.random.default_rng(4)
    max_product = max_adjoint = 0.0
    for _ in range(37):
        a = ginibre(3, rng)
        b = ginibre(3, rng)
        scale = 1.0 + operator_norm(a) * operator_norm(b)
        max_product = max(max_product, operator_norm(a @ b - a @ b) / scale)
        max_adjoint = max(max_adjoint, operator_norm(dag(a) - dag(a)))
    assert rep["samples"] == 37
    assert rep["max_product_residual"] == max_product
    assert rep["max_adjoint_residual"] == max_adjoint
    assert max_product == 0.0

    with pytest.raises(ContractError):
        homomorphism_check(dil, samples=-1)


def test_homomorphism_check_draws_nothing(monkeypatch):
    dils = [dilate(identity_map(2)), dilate(random_unital_cp(3, 4, seed=6)),
            dilate(to_choi(random_unital_cp(4, 3, seed=2)))]

    def forbidden(*args, **kwargs):
        raise AssertionError("homomorphism_check drew a sample")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    for dil in dils:
        for seed in range(5):
            for samples in (0, 5, 37):
                assert homomorphism_check(dil, samples=samples, seed=seed) == {
                    "samples": samples, "max_product_residual": 0.0,
                    "max_adjoint_residual": 0.0, "unital_exact": True}


def test_dilate_draws_nothing_and_ignores_the_seed(monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("dilate drew a sample")

    phi = random_unital_cp(3, 4, seed=6)
    for name, form in (("kraus", phi), ("choi", to_choi(phi))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(map_to_json(form)))
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-{seed}-report.json"
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", forbidden)
                assert route(["dilate", "--map", str(path), "--samples", "20",
                              "--seed", seed, "--output", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["wallTimeMs"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert "seed" not in reports[0]["config"]


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


def test_pi_is_the_kronecker_product_with_the_identity():
    for phi in (random_unital_cp(3, 4, seed=6), _unital_kraus(2, 3, 2, seed=1)):
        dil = dilate(phi)
        a = ginibre(phi.in_dim, seed=8)
        pi_a = dil.pi(a)
        assert pi_a.shape == (dil.env_dim * phi.in_dim,) * 2
        assert pi_a.tobytes() == np.kron(np.eye(dil.env_dim), a).tobytes()


def test_dilated_apply_on_a_stack_matches_single_calls():
    for phi in (random_unital_cp(3, 4, seed=6), _unital_kraus(2, 3, 2, seed=1),
                _unital_kraus(3, 2, 2, seed=2)):
        dil = dilate(phi)
        k, d = phi.in_dim, phi.out_dim
        stack = ginibre(k, seed=5, shape=(7,))
        images = dil.dilated_apply(stack)
        assert images.shape == (7, d, d)
        for a, image in zip(stack, images):
            assert image.tobytes() == dil.dilated_apply(a).tobytes()
        with pytest.raises(DimensionError):
            dil.dilated_apply(np.eye(k + 1))
        with pytest.raises(DimensionError):
            dil.dilated_apply(np.zeros((2, 2, k, k)))
        with pytest.raises(ContractError):
            dil.dilated_apply(np.full((k, k), np.nan))


@pytest.mark.parametrize("k, d", [(2, 3), (3, 2)])
def test_non_square_dilation(k, d):
    # M_k -> M_d with k != d: the (r, k, d) layout of V's blocks is where a
    # swapped axis would still pass every test on square maps
    phi = _unital_kraus(k, d, 2, seed=10 * k + d)
    for form in (phi, to_choi(phi)):
        dil = dilate(form)
        v = dil.isometry
        assert (dil.env_dim, dil.in_dim, dil.out_dim) == (2, k, d)
        assert v.shape == (2 * k, d)
        assert operator_norm(dag(v) @ v - np.eye(d)) <= 1e-12
        for s in range(5):
            a = ginibre(k, seed=s)
            assert operator_norm(apply(phi, a) - dil.dilated_apply(a)) <= \
                1e-12 * (1 + operator_norm(a))
        assert dilation_residual(phi, dil) <= 1e-12
        assert homomorphism_check(dil, samples=20, seed=1) == {
            "samples": 20, "max_product_residual": 0.0, "max_adjoint_residual": 0.0,
            "unital_exact": True}

        a = ginibre(k, seed=9)
        lhs, rhs = lemma2_defect_identity(dil, a, 0.3 - 0.2j, -1.0 + 0.5j)
        assert lhs > 1e-2
        assert abs(lhs - rhs) <= 1e-12 * (1 + operator_norm(a) ** 2)

    # a dilation of another map is caught
    other = dilate(_unital_kraus(k, d, 2, seed=99))
    assert dilation_residual(phi, other) > 1e-3


def test_dilate_memory_stays_flat_on_a_full_rank_map(run_with_peak):
    # dilate --samples 16 on a full-rank map on M_16 (Kraus rank 256), in a
    # child interpreter that reports its own peak RSS; a dense (rk) x (rk)
    # pi(A) would take gigabytes
    result, peak_mb = run_with_peak("dilate", map_to_json(random_unital_cp(16, 256, seed=0)),
                                    "--samples", "16")
    _, base_mb = run_with_peak("dilate", map_to_json(identity_map(2)), "--samples", "16")
    hom = result["homomorphism"]
    assert result["envDim"] == 256
    assert result["isometryResidual"] <= 1e-10
    assert result["maxDilationResidual"] <= 1e-9
    assert hom["max_product_residual"] <= 1e-10
    assert hom["max_adjoint_residual"] <= 1e-10
    assert hom["unital_exact"]
    assert peak_mb - base_mb <= 100.0, (peak_mb, base_mb)
