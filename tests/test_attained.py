"""Instances where a bound is attained, so each check is tested from both sides.

Every suite checks only margin >= -tol: a delta that came out too large, or a
defect too small, would pass it.  On these instances the checked quantity
equals its bound, so an error either way shows.
"""

import math

import numpy as np
import pytest

from gruss_lab import check_lemma2, check_theorem, delta, from_kraus, ginibre, transpose_map


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
