"""Writing a contraction as an average of unitaries, constructively.

In any unital C*-algebra, ||A|| < 1 - 2/m (m > 2) guarantees m unitaries
with m A = U_1 + ... + U_m (Kadison and Pedersen, Math. Scand. 57, 1985).
On a matrix algebra the decomposition can be built explicitly from one
singular value decomposition, and it works for every contraction (relaxed
mode: ||A|| <= 1, m >= 2):

1. A = U diag(s_t) V*  (SVD, s_t in [0, ||A||], ||A|| = s_0);
2. each singular value s_t is written as a mean of m unimodular numbers;
3. U_j = U diag_t(z_j^(t)) V* is unitary and their mean is A.

This is a constructive specialization, not the original existence proof:
strict mode enforces the classical hypothesis, relaxed mode exposes what
the matrix construction actually supports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError
from .linalg import Matrix, as_matrix, diagonal_stack, operator_norm

#: largest number of unitaries a decomposition builds; at 1024 the
#: unitaries of a 32 x 32 matrix take 16 MB
MAX_UNITARIES = 1024


@dataclass(frozen=True, eq=False)
class UnitarySumDecomposition:
    """m unitaries, as one (m, n, n) array, whose mean reconstructs the
    decomposed operator."""

    m: int
    unitaries: np.ndarray
    reconstruction_error: float


def scalar_unimodular_sum(s, m: int, mode: str = "strict") -> np.ndarray:
    """m unit-modulus complex numbers summing to m*s; for an array of values,
    an (..., m) array whose row t sums to m*s_t.

    Even m: m/2 conjugate pairs e^(+-i theta) with cos(theta) = s.
    Odd m: one 1 plus (m-1)/2 conjugate pairs with cos(theta) = (ms-1)/(m-1).
    Strict mode requires 0 <= s <= 1 - 2/m; relaxed mode allows the full
    range 0 <= s <= 1 (both phase formulas stay well defined there); one
    value out of range rejects the array.  Pair phases are emitted in a
    fixed (+, -) order, so output is deterministic.
    """
    if mode not in ("strict", "relaxed"):
        raise ContractError(f"unknown mode {mode!r}")
    if m < 2:
        raise ContractError(f"need m >= 2, got {m}")
    s = np.asarray(s, dtype=np.float64)
    limit = 1.0 - 2.0 / m if mode == "strict" else 1.0
    bad = ~((-1e-12 <= s) & (s <= limit + 1e-12))  # NaN is out of range too
    if bad.any():
        raise ContractError(f"s={float(s[bad][0])} outside [0, {limit}] for mode={mode!r}, m={m}")
    s = np.clip(s, 0.0, 1.0)
    c = s if m % 2 == 0 else np.clip((m * s - 1.0) / (m - 1.0), -1.0, 1.0)
    theta = np.arccos(c)
    pairs = np.tile(np.stack([np.exp(1j * theta), np.exp(-1j * theta)], axis=-1), m // 2)
    if m % 2 == 0:
        return pairs
    return np.concatenate((np.ones(s.shape + (1,), dtype=np.complex128), pairs), axis=-1)


def decompose_unitary_sum(a, m: int, mode: str = "strict") -> UnitarySumDecomposition:
    """Produce m unitaries averaging to A by splitting its singular values.

    Strict mode enforces ||A|| < 1 - 2/m with m >= 3; relaxed mode accepts
    any contraction (||A|| <= 1) and m >= 2.  An m above ``MAX_UNITARIES``
    is a ``ContractError`` before anything is allocated.
    """
    if m > MAX_UNITARIES:
        raise ContractError(f"m must be <= MAX_UNITARIES = {MAX_UNITARIES}, got {m}")
    a = as_matrix(a, square=True)
    if mode not in ("strict", "relaxed"):
        raise ContractError(f"unknown mode {mode!r}")
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    nrm = float(s[0])
    if mode == "strict":
        if m < 3:
            raise ContractError(f"strict mode needs m >= 3, got {m}")
        threshold = 1.0 - 2.0 / m
        if not nrm < threshold:
            raise ContractError(
                f"strict mode needs ||A|| < 1 - 2/m: ||A|| = {nrm:.6g}, threshold {threshold:.6g}"
            )
    else:
        if m < 2:
            raise ContractError(f"relaxed mode needs m >= 2, got {m}")
        if nrm > 1.0 + 1e-10:
            raise ContractError(f"relaxed mode needs ||A|| <= 1, got {nrm:.6g}")

    # row t of the phase table averages to s_t; unitary j is U diag(column j) V*
    phases = scalar_unimodular_sum(np.minimum(s, 1.0), m, mode=mode)
    unitaries = u @ diagonal_stack(phases.T) @ vh
    err = operator_norm(sum(unitaries) / m - a)
    return UnitarySumDecomposition(m=m, unitaries=unitaries, reconstruction_error=err)


def rescale_for_decomposition(a, m: int) -> tuple[Matrix, float]:
    """Scale A so the strict hypothesis holds with margin.

    Returns (A/M, M) with M = (m^2+2)/(m^2-2m) * ||A||, so that
    ||A/M|| = (m^2-2m)/(m^2+2) < 1 - 2/m and A = (M/m) * sum of the m
    unitaries of the rescaled operator.
    """
    a = as_matrix(a, square=True)
    if m < 3:
        raise ContractError(f"rescale_for_decomposition needs m >= 3, got {m}")
    nrm = operator_norm(a)
    if nrm == 0.0:
        raise ContractError("rescale_for_decomposition requires A != 0")
    big_m = (m * m + 2.0) / (m * m - 2.0 * m) * nrm
    return a / big_m, float(big_m)
