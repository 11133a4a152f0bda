"""Instances where a bound is attained, so each check is tested from both sides.

Every suite checks only margin >= -tol: a delta that came out too large, or a
defect too small, would pass it.  On these instances the checked quantity
equals its bound, so an error either way shows.  Below them, fixed instances
where a claim fails on a map of lower positivity order than it needs, found
by hill-climbing: the checks must report these failures.
"""

import math

import numpy as np
import pytest

from gruss_lab import (
    CERTIFIED_NOT_N_POSITIVE,
    check_lemma2,
    check_theorem,
    delta,
    from_choi,
    from_kraus,
    ginibre,
    harness,
    matrix_from_json,
    n_positivity_search,
    normalized_choi_map,
    operator_norm,
    transpose_map,
)


def _corner(k, block):
    # the 2 x 2 block in the top-left corner of M_k
    out = np.zeros((k, k), dtype=np.complex128)
    out[:2, :2] = block
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_pauli_pair_attains_the_constant_two_on_the_transpose(k):
    # Phi(AB) - Phi(A)Phi(B) = [A, B]^T, and ||[A, B]|| <= 2 delta(A) delta(B)
    # for every unital positive map; sigma_x, sigma_y reach it exactly
    sigma_x = _corner(k, [[0, 1], [1, 0]])
    sigma_y = _corner(k, [[0, -1j], [1j, 0]])
    rep = check_theorem(transpose_map(k), sigma_x, sigma_y)
    assert rep.defect == 2.0
    assert rep.delta_a.value == rep.delta_b.value == 1.0
    assert rep.violated


def _vector_state(x):
    # Phi_x(X) = <x, X x> I, with Kraus operators e_j x*: unital and CP
    k = x.size
    return from_kraus([np.outer(e, x.conj()) for e in np.eye(k)])


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_a_vector_state_attains_the_bound_on_a_diagonal_c(k):
    # the defect on (C*, C) and lemma2's lhs on C are both
    # ||Cx||^2 - |<x, Cx>|^2, which is delta(C)^2 = 1 for the two extreme
    # eigenvectors mixed half and half
    c = np.diag(np.linspace(-1.0, 1.0, k)).astype(np.complex128)
    x = np.zeros(k, dtype=np.complex128)
    x[[0, -1]] = 1.0 / math.sqrt(2.0)
    phi = _vector_state(x)
    rep = check_theorem(phi, c.conj().T, c)
    lemma2 = check_lemma2(phi, c)
    for value in (rep.defect, rep.bound, lemma2["lhs"], lemma2["bound"]):
        assert abs(value - 1.0) <= math.ulp(1.0)


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_a_vector_state_attains_the_bound_on_ginibre_c(k):
    # x the top right singular vector of C - lambda* I at delta's minimizer:
    # the ratio is 1 up to the solver's bracket, which may make delta too
    # large by its certified gap, and rounding
    for seed in range(50):
        c = ginibre(k, seed=seed)
        res = delta(c)
        x = np.linalg.svd(c - res.minimizer * np.eye(k))[2][0].conj()
        phi = _vector_state(x)
        rep = check_theorem(phi, c.conj().T, c)
        ratio = rep.defect / rep.bound
        slack = (rep.delta_a.certified_gap / rep.delta_a.value
                 + rep.delta_b.certified_gap / rep.delta_b.value)
        assert 1.0 - slack - 1e-12 <= ratio <= 1.0 + 1e-12, seed
        lemma2 = check_lemma2(phi, c)
        ratio = lemma2["lhs"] / lemma2["bound"]
        assert 1.0 - 2.0 * res.certified_gap / res.value - 1e-12 <= ratio <= 1.0 + 1e-12, seed


def _matrix(data):
    return matrix_from_json({"rows": 3, "cols": 3, "data": data})


def test_the_reduction_map_on_m3_breaks_the_product_bound():
    # Phi(X) = (tr(X) I - X)/2: unital and positive, not 2-positive; a
    # second map besides the transpose that the bound fails for
    omega = np.eye(3).reshape(-1)
    phi = from_choi((np.eye(9) - np.outer(omega, omega)) / 2, 3, 3)
    assert n_positivity_search(phi, 2, starts=20, seed=0).status == CERTIFIED_NOT_N_POSITIVE
    a = _matrix("FAHkUIXdxz/vFUj9Kke5vz07sPot8gLAx6G7AIR99T/oDfxzlAn3v2f4JZMuuKW/WGVEaV3QB8CMabVe"
                "78S3P5cf5cmoDQNAMzlDRu5q579JgGW63cT1PwA3Gpe7sds/1fs7tv+c5r9F1fXCbUfWP/h9isfWMPc/"
                "D+9930bm8r8JoB1sAF7yvyu63WSnw8W/")
    b = _matrix("cSY9E5BGAEAr3k0xpgr8vxtMRKwIZQLAkiy2eK2vxr+lnBo+tUoAQNYru2+iLgbAQyHBlecr+L/pVqNY"
                "iCUQQFSF1HkX/PA/w6F8DHUI1T+CI/Vhy1bwPzMZey/1RuY/9Reg91/j0z+YSqH+PiXvP+muuUzUJdU/"
                "t7cbzxDc+L/hPBg8p6bpP8M9kXbRouQ/")
    rep = check_theorem(phi, a, b)
    assert rep.violated
    assert rep.defect / rep.bound >= 1.1
    assert rep.margin < -0.05


def test_the_covariance_block_needs_three_positivity():
    # the k = 3 trace-type map is 2-positive, not 3-positive: on this unit-norm
    # pair lemma1's covariance block is not PSD, while its Cauchy-Schwarz part
    # holds.  check_lemma1 refuses order 2, so the claim is evaluated directly
    a = _matrix("zqlsE6hd179BNDlEZm+nP8Gap7BpVOO/G71P+cDYlj+d1exdSNvOvzXTSoTzzNK/vJL1dhtpsD+PkVtl"
                "1Z+hv//GB2wmdL8/M69YHN+0q78/CXVaBd+yP4RpSqHbXaA/Yqefl/iFxD+I6MaltCzKv+aTWAwRPtI/"
                "xBMzToly1L/K1+oi1mbRPzYVqKgFwJQ/")
    b = _matrix("995KoVlQsD+CSEVNJwHHv4nIv0TKs7G/hC5xBkqQ0j/PiI3HyyPRP4QfHraThMS/fTkxUmMktz8qX95x"
                "PQXQv6/6+6WLqbK/YOI0wKfK3D/O4yNSUXraP0qMqYEit9K/sly9WtQDt7+5BWjfHXLBv+G/N1ZIsso/"
                "d1zX+D9izD/DP8TtHICJP3LPqIvEgta/")
    assert abs(operator_norm(a) - 1.0) <= 1e-12 and abs(operator_norm(b) - 1.0) <= 1e-12
    res, _ = harness._check_one(harness._CLAIMS["lemma1"], normalized_choi_map(3), a, b)
    assert res["block_min_eig"] <= -0.05
    assert not res["block_ok"]
    assert res["cauchy_ok"]
