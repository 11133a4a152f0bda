"""Stinespring dilation of unital completely positive maps on matrix algebras.

For a unital CP map Phi: M_k -> M_d with Kraus family {K_i}_{i<=r}, the
isometry V: C^d -> C^r (x) C^k defined by V xi = sum_i e_i (x) (K_i* xi)
and the unital *-homomorphism pi(A) = I_r (x) A satisfy

    Phi(A) = V* pi(A) V,        V* V = sum_i K_i K_i* = Phi(I) = I.

This is the Kraus-rank dilation; the minimal dilation is not constructed
because every identity verified here already holds for this one.  The
randomized checks (``dilation_residual``, ``homomorphism_check``) evaluate
their samples as stacks of ``SAMPLE_BLOCK`` matrices, through the same
products as ``StinespringDilation.pi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .linalg import Matrix, as_matrix, dag, ginibre, operator_norm, operator_norms
from .posmap import UNITAL_TOL, MapRep, apply, choi_to_kraus, is_unital


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Isometry-plus-representation realization of a unital CP map."""

    env_dim: int
    isometry: Matrix  # (env_dim * in_dim) x out_dim
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
        return _pi_stack(self, a)

    def dilated_apply(self, a) -> Matrix:
        """V* pi(A) V, which should reproduce Phi(A)."""
        v = self.isometry
        return dag(v) @ self.pi(a) @ v


def dilate(phi: MapRep) -> StinespringDilation:
    """Construct the Kraus-rank Stinespring dilation of a unital CP map."""
    # a Kraus map is CP by construction; choi_to_kraus rejects a non-CP one
    kraus_rep = phi if phi.kraus is not None else choi_to_kraus(phi)
    if not is_unital(phi):
        raise ContractError(f"dilate requires a unital map (||Phi(I) - I|| > {UNITAL_TOL:g})")
    ops = kraus_rep.kraus
    r = len(ops)
    v = np.conj(ops).transpose(0, 2, 1).reshape(-1, phi.out_dim)  # block i of V is K_i*
    return StinespringDilation(env_dim=r, isometry=v, source=kraus_rep)


#: samples drawn and checked as one stack this many at a time; bounds memory
SAMPLE_BLOCK = 16


def _blocks(samples: int):
    if samples < 0:
        raise ContractError(f"samples must be >= 0, got {samples}")
    for lo in range(0, samples, SAMPLE_BLOCK):
        yield min(SAMPLE_BLOCK, samples - lo)


def _pi_stack(dilation: StinespringDilation, a: np.ndarray) -> np.ndarray:
    # I_r (x) A for one matrix or for each A of an (S, k, k) stack, formed
    # entry by entry as np.kron forms it, without np.kron's per-call overhead
    r, k = dilation.env_dim, a.shape[-1]
    eye = np.eye(r, dtype=np.complex128)[:, None, :, None]
    return (eye * a[..., None, :, None, :]).reshape(*a.shape[:-2], r * k, r * k)


def dilation_residual(phi: MapRep, dilation: StinespringDilation, samples: int = 50,
                      seed=0) -> float:
    """Worst ||Phi(A) - V* pi(A) V|| / (1 + ||A||) over ``samples`` draws of A
    with standard normal real and imaginary parts (0.0 for no samples).

    The draws come from ``default_rng(seed)`` in sample order and are checked
    ``SAMPLE_BLOCK`` at a time as stacks, through the same products per
    sample as ``apply`` and ``dilated_apply``, so the result is the one a
    sample-by-sample loop gives, to the last bit.
    """
    rng = np.random.default_rng(seed)
    k = phi.in_dim
    v = dilation.isometry
    worst = 0.0
    for size in _blocks(samples):
        parts = rng.standard_normal((size, 2, k, k))
        a = parts[:, 0] + 1j * parts[:, 1]
        resid = operator_norms(apply(phi, a) - dag(v) @ _pi_stack(dilation, a) @ v)
        worst = max(worst, float(np.max(resid / (1.0 + operator_norms(a)))))
    return worst


def homomorphism_check(dilation: StinespringDilation, samples: int = 50, seed=0) -> dict:
    """Verify that pi is a unital *-homomorphism on random sample pairs.

    Returns the worst residuals over ``samples`` Ginibre pairs (A, B):
    multiplicativity pi(AB) = pi(A) pi(B), adjoint preservation
    pi(A*) = pi(A)*, and exact unitality pi(I) = I.  The pairs come from
    ``default_rng(seed)`` in sample order (A before B, as ``ginibre`` draws
    them) and are checked ``SAMPLE_BLOCK`` at a time as stacks, with one
    batched norm per residual kind.
    """
    rng = np.random.default_rng(seed)
    k = dilation.in_dim
    max_product = 0.0
    max_adjoint = 0.0
    for size in _blocks(samples):
        pairs = ginibre(k, rng, (size, 2))
        a, b = pairs[:, 0], pairs[:, 1]
        norms = operator_norms(pairs)
        scale = 1.0 + norms[:, 0] * norms[:, 1]
        pi_a = _pi_stack(dilation, a)
        product = operator_norms(_pi_stack(dilation, a @ b) - pi_a @ _pi_stack(dilation, b))
        adjoint = operator_norms(_pi_stack(dilation, dag(a)) - dag(pi_a))
        max_product = max(max_product, float(np.max(product / scale)))
        max_adjoint = max(max_adjoint, float(np.max(adjoint)))
    eye = np.eye(k, dtype=np.complex128)
    unital_exact = bool(np.array_equal(dilation.pi(eye), np.eye(dilation.env_dim * k)))
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
    p_aa, p_a = apply(phi, np.stack([dag(a) @ a, a]))
    lhs = operator_norm(p_aa - dag(p_a) @ p_a)

    eye_in = np.eye(dilation.in_dim, dtype=np.complex128)
    v = dilation.isometry
    proj = np.eye(v.shape[0], dtype=np.complex128) - v @ dag(v)
    pi_lam = dilation.pi(a - lam * eye_in)
    pi_mu = dilation.pi(a - mu * eye_in)
    rhs = operator_norm(dag(v) @ dag(pi_lam) @ proj @ pi_mu @ v)
    return lhs, rhs
