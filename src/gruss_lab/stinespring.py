"""Stinespring dilation of unital completely positive maps on matrix algebras.

For a unital CP map Phi: M_k -> M_d with Kraus family {K_i}_{i<=r}, the
isometry V: C^d -> C^r (x) C^k defined by V xi = sum_i e_i (x) (K_i* xi)
and the unital *-homomorphism pi(A) = I_r (x) A satisfy

    Phi(A) = V* pi(A) V,        V* V = sum_i K_i K_i* = Phi(I) = I.

This is the Kraus-rank dilation; the minimal dilation is not constructed
because every identity verified here already holds for this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .linalg import Matrix, as_matrix, dag, ginibre, operator_norm
from .posmap import CERTIFIED_CP, MapRep, apply, choi_to_kraus, cp_test, is_unital


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Isometry-plus-representation realization of a unital CP map."""

    env_dim: int
    isometry: Matrix  # (env_dim * in_dim) x out_dim
    pi_dim: int
    source: MapRep

    @property
    def in_dim(self) -> int:
        return self.source.in_dim

    @property
    def out_dim(self) -> int:
        return self.source.out_dim

    def pi(self, a) -> Matrix:
        """The representation pi(A) = I_r (x) A."""
        a = as_matrix(a, square=True)
        if a.shape[0] != self.in_dim:
            raise ContractError(f"pi expects a {self.in_dim}x{self.in_dim} matrix")
        return np.kron(np.eye(self.env_dim, dtype=np.complex128), a)

    def dilated_apply(self, a) -> Matrix:
        """V* pi(A) V, which should reproduce Phi(A)."""
        v = self.isometry
        return dag(v) @ self.pi(a) @ v


def dilate(phi: MapRep) -> StinespringDilation:
    """Construct the Kraus-rank Stinespring dilation of a unital CP map."""
    if cp_test(phi).status != CERTIFIED_CP:
        raise ContractError("dilate requires a completely positive map (Choi not PSD)")
    if not is_unital(phi, tol=1e-9):
        raise ContractError("dilate requires a unital map (||Phi(I) - I|| too large)")
    kraus_rep = phi if phi.kraus is not None else choi_to_kraus(phi)
    ops = kraus_rep.kraus
    r = len(ops)
    v = np.vstack([dag(op) for op in ops])  # block i of V is K_i*
    return StinespringDilation(env_dim=r, isometry=v, pi_dim=r * phi.in_dim,
                               source=kraus_rep)


def dilation_residual(phi: MapRep, dilation: StinespringDilation, samples: int = 50,
                      seed=0) -> float:
    """Worst ||Phi(A) - V* pi(A) V|| / (1 + ||A||) over ``samples`` draws of A
    with standard normal real and imaginary parts (0.0 for no samples)."""
    rng = np.random.default_rng(seed)
    shape = (phi.in_dim,) * 2
    worst = 0.0
    for _ in range(samples):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        resid = operator_norm(apply(phi, a) - dilation.dilated_apply(a))
        worst = max(worst, resid / (1.0 + operator_norm(a)))
    return worst


def homomorphism_check(dilation: StinespringDilation, samples: int = 50, seed=0) -> dict:
    """Verify that pi is a unital *-homomorphism on random sample pairs.

    Returns the worst residuals over ``samples`` Ginibre pairs (A, B):
    multiplicativity pi(AB) = pi(A) pi(B), adjoint preservation
    pi(A*) = pi(A)*, and exact unitality pi(I) = I.
    """
    rng = np.random.default_rng(seed)
    k = dilation.in_dim
    max_product = 0.0
    max_adjoint = 0.0
    for _ in range(samples):
        a = ginibre(k, rng)
        b = ginibre(k, rng)
        scale = 1.0 + operator_norm(a) * operator_norm(b)
        max_product = max(
            max_product,
            operator_norm(dilation.pi(a @ b) - dilation.pi(a) @ dilation.pi(b)) / scale,
        )
        max_adjoint = max(max_adjoint, operator_norm(dilation.pi(dag(a)) - dag(dilation.pi(a))))
    eye = np.eye(k, dtype=np.complex128)
    unital_exact = bool(np.array_equal(dilation.pi(eye), np.eye(dilation.pi_dim)))
    return {
        "samples": samples,
        "max_product_residual": max_product,
        "max_adjoint_residual": max_adjoint,
        "unital_exact": unital_exact,
    }


def lemma2_defect_identity(dilation: StinespringDilation, a, lam: complex, mu: complex) -> tuple[float, float]:
    """Two routes to the self-multiplicativity defect norm.

    Returns (lhs, rhs) where

        lhs = || Phi(A*A) - Phi(A)* Phi(A) ||
        rhs = || V* (pi(A - lam I))* (I - V V*) pi(A - mu I) V ||.

    The two agree for every lam, mu because translating A by a scalar leaves
    the defect unchanged and I - V V* is the projection onto the complement
    of the range of V; moreover lhs <= ||A - lam I|| * ||A - mu I||.
    """
    a = as_matrix(a, square=True)
    phi = dilation.source
    pa = apply(phi, a)
    lhs = operator_norm(apply(phi, dag(a) @ a) - dag(pa) @ pa)

    eye_in = np.eye(dilation.in_dim, dtype=np.complex128)
    v = dilation.isometry
    proj = np.eye(v.shape[0], dtype=np.complex128) - v @ dag(v)
    pi_lam = dilation.pi(a - lam * eye_in)
    pi_mu = dilation.pi(a - mu * eye_in)
    rhs = operator_norm(dag(v) @ dag(pi_lam) @ proj @ pi_mu @ v)
    return lhs, rhs
