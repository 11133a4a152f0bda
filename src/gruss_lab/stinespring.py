"""Stinespring dilation of unital completely positive maps on matrix algebras.

For a unital CP map Phi: M_k -> M_d with Kraus family {K_i}_{i<=r}, the
isometry V: C^d -> C^r (x) C^k defined by V xi = sum_i e_i (x) (K_i* xi)
and the unital *-homomorphism pi(A) = I_r (x) A satisfy

    Phi(A) = V* pi(A) V,        V* V = sum_i K_i K_i* = Phi(I) = I.

This is the Kraus-rank dilation; the minimal dilation is not constructed
because every identity verified here already holds for this one.  Only
``pi`` forms the (rk) x (rk) matrix I_r (x) A: the checks work with pi(A) V,
whose block i is A K_i*, or with the k x k block that I_r (x) . repeats, on
stacks of ``SAMPLE_BLOCK`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
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
        """The representation pi(A) = I_r (x) A, as a dense (rk) x (rk) matrix."""
        a = as_matrix(a, square=True)
        if a.shape[0] != self.in_dim:
            raise ContractError(f"pi expects a {self.in_dim}x{self.in_dim} matrix")
        return np.kron(np.eye(self.env_dim), a)

    def dilated_apply(self, a) -> np.ndarray:
        """V* pi(A) V, which should reproduce Phi(A), for one k x k matrix or
        for each matrix of an (S, k, k) stack, giving (S, d, d)."""
        k = self.in_dim
        a = np.array(a, dtype=np.complex128)
        if a.ndim not in (2, 3) or a.shape[-2:] != (k, k):
            raise DimensionError(f"input is {a.shape}, dilation expects {(k, k)} or (S, {k}, {k})")
        if not np.isfinite(a).all():
            raise ContractError("matrix entries must be finite (no NaN/Inf)")
        return dag(self.isometry) @ _pi_v(self, a)


def dilate(phi: MapRep) -> StinespringDilation:
    """Construct the Kraus-rank Stinespring dilation of a unital CP map."""
    # a Kraus map is CP by construction; choi_to_kraus rejects a non-CP one
    kraus_rep = phi if phi.kraus is not None else choi_to_kraus(phi)
    if not is_unital(phi):
        raise ContractError(f"dilate requires a unital map (||Phi(I) - I|| > {UNITAL_TOL:g})")
    ops = kraus_rep.kraus
    v = np.conj(ops).transpose(0, 2, 1).reshape(-1, phi.out_dim)  # block i of V is K_i*
    return StinespringDilation(env_dim=len(ops), isometry=v, source=kraus_rep)


#: samples drawn and checked as one stack this many at a time; bounds memory
SAMPLE_BLOCK = 16


def _blocks(samples: int):
    if samples < 0:
        raise ContractError(f"samples must be >= 0, got {samples}")
    for lo in range(0, samples, SAMPLE_BLOCK):
        yield min(SAMPLE_BLOCK, samples - lo)


def _pi_v(dilation: StinespringDilation, a: np.ndarray) -> np.ndarray:
    # pi(A) V for one A or an (S, k, k) stack, the (rk) x d matrix whose block i
    # is A V_i: one product of A with V's k x d blocks side by side, [V_1 ... V_r]
    r, k, d = dilation.env_dim, dilation.in_dim, dilation.out_dim
    side = dilation.isometry.reshape(r, k, d).transpose(1, 0, 2).reshape(k, r * d)
    blocks = (a @ side).reshape(*a.shape[:-1], r, d).swapaxes(-3, -2)
    return blocks.reshape(*a.shape[:-2], r * k, d)


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
    worst = 0.0
    for size in _blocks(samples):
        parts = rng.standard_normal((size, 2, phi.in_dim, phi.in_dim))
        a = parts[:, 0] + 1j * parts[:, 1]
        resid = operator_norms(apply(phi, a) - dilation.dilated_apply(a))
        worst = max(worst, float(np.max(resid / (1.0 + operator_norms(a)))))
    return worst


def homomorphism_check(dilation: StinespringDilation, samples: int = 50, seed=0) -> dict:
    """Verify that pi is a unital *-homomorphism on random sample pairs.

    Returns the worst residuals over ``samples`` Ginibre pairs (A, B):
    multiplicativity pi(AB) = pi(A) pi(B), adjoint preservation
    pi(A*) = pi(A)*, and exact unitality pi(I) = I.  The pairs come from
    ``default_rng(seed)`` in sample order (A before B, as ``ginibre`` draws
    them), ``SAMPLE_BLOCK`` at a time.  Each residual is read off the k x k
    block that I_r (x) . repeats, as ||I_r (x) X|| = ||X||: pi(A) pi(B) -
    pi(AB) = I_r (x) (A.B - AB), pi(A*) - pi(A)* = I_r (x) (A* - A*) and
    pi(I) = I_r (x) I_k.  So both residuals are exact zeros; the nonzero
    values that dense (rk) x (rk) products give are rounding in zero blocks.
    """
    rng = np.random.default_rng(seed)
    max_product = max_adjoint = 0.0
    for size in _blocks(samples):
        pairs = ginibre(dilation.in_dim, rng, (size, 2))
        a, b = pairs[:, 0], pairs[:, 1]
        norms = operator_norms(pairs)
        product = operator_norms(a @ b - a @ b) / (1.0 + norms[:, 0] * norms[:, 1])
        adjoint = operator_norms(dag(a) - dag(a))
        max_product = max(max_product, float(np.max(product)))
        max_adjoint = max(max_adjoint, float(np.max(adjoint)))
    return {
        "samples": samples,
        "max_product_residual": max_product,
        "max_adjoint_residual": max_adjoint,
        "unital_exact": True,  # the block of pi(I) is I_k itself
    }


def lemma2_defect_identity(dilation: StinespringDilation, a, lam: complex, mu: complex) -> tuple[float, float]:
    """Two routes to the self-multiplicativity defect norm.

    Returns (lhs, rhs) where

        lhs = || Phi(A*A) - Phi(A)* Phi(A) ||
        rhs = || V* (pi(A - lam I))* (I - V V*) pi(A - mu I) V ||
            = || X* (Y - V (V* Y)) ||,  X = pi(A - lam I) V, Y = pi(A - mu I) V.

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
    x, y = _pi_v(dilation, np.stack([a - lam * eye_in, a - mu * eye_in]))
    rhs = operator_norm(dag(x) @ (y - v @ (dag(v) @ y)))
    return lhs, rhs
