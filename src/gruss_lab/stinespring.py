"""Stinespring dilation of unital completely positive maps on matrix algebras.

For a unital CP map Phi: M_k -> M_d with Kraus family {K_i}_{i<=r}, the
isometry V: C^d -> C^r (x) C^k defined by V xi = sum_i e_i (x) (K_i* xi)
and the unital *-homomorphism pi(A) = I_r (x) A satisfy

    Phi(A) = V* pi(A) V,        V* V = sum_i K_i K_i* = Phi(I) = I.

This is the Kraus-rank dilation; the minimal dilation is not constructed
because every identity verified here already holds for this one.  Only
``pi`` forms the (rk) x (rk) matrix I_r (x) A: the checks work with pi(A) V,
whose block i is A K_i*.

What each field of the ``dilate`` command measures:

- ``isometryResidual``, ||V* V - I||: the unitality of the Kraus family.
- ``maxDilationResidual`` (``dilation_residual``), ||J_Phi - W* W||_F with
  W = V as r x kd: W* W is the Choi matrix of A -> V* pi(A) V, so the
  identity is decided on all k^2 matrix units at once, without samples, in
  O((kd)^2) memory, and ||Phi(A) - V* pi(A) V|| <= sqrt(k) ||A|| times it.
  On a Choi-form map it tests the Kraus recovery ``choi_to_kraus``; on a
  Kraus-form map it catches a layout error in V.
- ``homomorphism`` (``homomorphism_check``): exact by construction, since
  pi(A) = I_r (x) A repeats one k x k block; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import Matrix, as_matrix, dag, operator_norm
from .posmap import UNITAL_TOL, MapRep, apply, choi_matrix, choi_to_kraus, is_unital


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


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ContractError(f"samples must be >= 0, got {samples}")


def _pi_v(dilation: StinespringDilation, a: np.ndarray) -> np.ndarray:
    # pi(A) V for one A or an (S, k, k) stack, the (rk) x d matrix whose block i
    # is A V_i: one product of A with V's k x d blocks side by side, [V_1 ... V_r]
    r, k, d = dilation.env_dim, dilation.in_dim, dilation.out_dim
    side = dilation.isometry.reshape(r, k, d).transpose(1, 0, 2).reshape(k, r * d)
    blocks = (a @ side).reshape(*a.shape[:-1], r, d).swapaxes(-3, -2)
    return blocks.reshape(*a.shape[:-2], r * k, d)


def dilation_residual(phi: MapRep, dilation: StinespringDilation) -> float:
    """||J_Phi - W* W||_F for W = V reshaped to r x kd, whose row l is V's
    block V_l = K_l* flattened: block (i, j) of W* W is sum_l V_l* E_ij V_l
    = V* pi(E_ij) V, and that of J_Phi is Phi(E_ij).

    So the value bounds ||Phi(E_ij) - V* pi(E_ij) V|| for every matrix unit,
    and ||Phi(A) - V* pi(A) V|| <= sqrt(k) ||A|| * residual for every A,
    since ||M a|| <= ||M||_F ||A||_F <= ||M||_F sqrt(k) ||A|| for the Choi
    difference M.  W* W is one GEMM, and ``choi_matrix(phi)`` is subtracted
    from it in place: at most two (kd) x (kd) arrays, O((kd)^2) memory, and
    a Choi-form map's stored matrix is never written.
    """
    w = dilation.isometry.reshape(dilation.env_dim, dilation.in_dim * dilation.out_dim)
    diff = dag(w) @ w
    diff -= choi_matrix(phi)
    return float(np.linalg.norm(diff))


def homomorphism_check(dilation: StinespringDilation, samples: int = 50, seed=0) -> dict:
    """The residuals of pi as a unital *-homomorphism, which are exact.

    Multiplicativity pi(AB) = pi(A) pi(B), adjoint preservation
    pi(A*) = pi(A)* and unitality pi(I) = I hold exactly for
    pi(A) = I_r (x) A: each residual is I_r (x) X for the k x k residual X
    of one block, A.B - AB or A* - A*, where both sides are one and the same
    product, and the block of pi(I) is I_k itself.  So the worst residuals
    over any ``samples`` pairs are 0.0 and unitality is exact, for every
    map; nothing is drawn, and ``seed`` is not read.  The nonzero values
    that dense (rk) x (rk) products give are rounding in zero blocks.
    """
    _check_samples(samples)
    return {
        "samples": samples,
        "max_product_residual": 0.0,
        "max_adjoint_residual": 0.0,
        "unital_exact": True,
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
