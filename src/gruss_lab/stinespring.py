"""Stinespring dilation of unital completely positive maps on matrix algebras.

For a unital CP map Phi: M_k -> M_d with Kraus family {K_i}_{i<=r}, the
isometry V: C^d -> C^r (x) C^k defined by V xi = sum_i e_i (x) (K_i* xi)
and the unital *-homomorphism pi(A) = I_r (x) A satisfy

    Phi(A) = V* pi(A) V,        V* V = sum_i K_i K_i* = Phi(I) = I.

This is the Kraus-rank dilation; the minimal dilation is not constructed
because every identity verified here already holds for this one.  Only
``pi`` forms the (rk) x (rk) matrix I_r (x) A: the checks work with pi(A) V,
whose block i is A K_i*, on stacks sized by ``linalg.BLOCK_ENTRIES``.

What each field of the ``dilate`` command measures:

- ``isometryResidual``, ||V* V - I||: the unitality of the Kraus family.
- ``maxDilationResidual`` (``dilation_residual``), Phi(A) against
  V* pi(A) V on sampled A.  On a Kraus-form map both sides are the same
  products K_i A K_i* summed in two orders, so it reads rounding only; on a
  Choi-form map V comes from the Kraus recovery ``choi_to_kraus``, and it
  tests that recovery against the Choi matrix.
- ``homomorphism`` (``homomorphism_check``): exact by construction, since
  pi(A) = I_r (x) A repeats one k x k block; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import BLOCK_ENTRIES, Matrix, as_matrix, dag, operator_norm, operator_norms
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


def dilation_residual(phi: MapRep, dilation: StinespringDilation, samples: int = 50,
                      seed=0) -> float:
    """Worst ||Phi(A) - V* pi(A) V|| / (1 + ||A||) over ``samples`` draws of A
    with standard normal real and imaginary parts (0.0 for no samples).

    On a Kraus-form map both sides are the same Kraus products in two orders,
    so the value is rounding (at most a few 1e-16); on a Choi-form map it
    tests the Kraus recovery behind V.  The draws come from
    ``default_rng(seed)`` in sample order and are checked as stacks of as
    many samples as keep pi(A) V, r * k * d entries per sample, within
    ``linalg.BLOCK_ENTRIES`` (16 at a time at k = d = 16, r = 256; at
    k <= 5 every sample at once), through the same products per sample as
    ``apply`` and ``dilated_apply``, so the result is the one a
    sample-by-sample loop gives, to the last bit.
    """
    _check_samples(samples)
    r, k, d = dilation.env_dim, dilation.in_dim, dilation.out_dim
    stack = max(1, BLOCK_ENTRIES // (r * k * d))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lo in range(0, samples, stack):
        parts = rng.standard_normal((min(stack, samples - lo), 2, phi.in_dim, phi.in_dim))
        a = parts[:, 0] + 1j * parts[:, 1]
        resid = operator_norms(apply(phi, a) - dilation.dilated_apply(a))
        worst = max(worst, float(np.max(resid / (1.0 + operator_norms(a)))))
    return worst


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
