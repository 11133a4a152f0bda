"""Dense complex-matrix kernels shared by every other module.

Matrices are plain ``numpy`` arrays of dtype ``complex128``.  All functions
are pure: they never mutate their arguments, and random sampling takes the
seed (or an explicit ``numpy.random.Generator``) as a parameter, so results
are reproducible and safe to compute concurrently.  The seeded generator is
numpy's default PCG64; determinism is guaranteed within this implementation,
not bit-for-bit across library versions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Matrix = np.ndarray

#: relative tolerance used when an operation requires a Hermitian input
HERM_TOL = 1e-10


def as_matrix(values, *, square: bool = False) -> Matrix:
    """Coerce ``values`` to a finite 2-D complex128 array (always a copy)."""
    a = np.array(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a.real).all() or not np.isfinite(a.imag).all():
        raise ContractError("matrix entries must be finite (no NaN/Inf)")
    return a


def dag(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return np.conj(a).T


def operator_norm(a) -> float:
    """Largest singular value of ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    return float(s[0]) if s.size else 0.0

def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., n, m) stack."""
    try:
        s = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"batched svd did not converge: {exc}") from exc
    return s[..., 0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Hermitian eigendecomposition A = Q diag(w) Q* with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: Matrix


@dataclass(frozen=True, eq=False)
class SingularDecomposition:
    """A = U diag(s) V* with s descending and U, V orthonormal columns."""

    singular_values: np.ndarray
    left_vectors: Matrix
    right_vectors: Matrix


def hermitian_eig(a, herm_tol: float = HERM_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises ContractError when ``a`` is not Hermitian within ``herm_tol``
    relative to its norm, and NumericError if the kernel fails to converge.
    """
    a = as_matrix(a, square=True)
    if operator_norm(a - dag(a)) > herm_tol * operator_norm(a):
        raise ContractError("input is not Hermitian within tolerance")
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigh did not converge: {exc}") from exc
    return EigenDecomposition(eigenvalues=w, eigenvectors=q)


def svd(a) -> SingularDecomposition:
    """Full singular value decomposition of an arbitrary complex matrix."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    return SingularDecomposition(singular_values=s, left_vectors=u, right_vectors=dag(vh))


def polar_decompose(a) -> tuple[Matrix, Matrix]:
    """Polar factorization A = W P with W unitary and P positive semidefinite.

    Rank-deficient input is handled automatically: the full SVD supplies an
    orthonormal completion, so W is always unitary.
    """
    a = as_matrix(a, square=True)
    dec = svd(a)
    u, s, v = dec.left_vectors, dec.singular_values, dec.right_vectors
    w = u @ dag(v)
    p = v @ np.diag(s.astype(np.complex128)) @ dag(v)
    return w, p


def embed_block(a: Matrix, blocks: int, row: int, col: int) -> Matrix:
    """Place ``a`` at block position (row, col) of a blocks x blocks zero grid."""
    if not (0 <= row < blocks and 0 <= col < blocks):
        raise DimensionError(f"block position ({row}, {col}) outside {blocks}x{blocks} grid")
    unit = np.zeros((blocks, blocks), dtype=np.complex128)
    unit[row, col] = 1.0
    return np.kron(unit, np.asarray(a, dtype=np.complex128))


# ---------------------------------------------------------------------------
# seeded random ensembles


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(dim: int, seed=0) -> Matrix:
    """Complex Ginibre matrix: i.i.d. standard complex normal entries."""
    rng = _rng(seed)
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_unitary(dim: int, seed=0) -> Matrix:
    """Haar-distributed unitary via QR of a Ginibre sample.

    The QR factor is made unique by pushing the phases of diag(R) into Q,
    which is what makes the distribution Haar.
    """
    g = ginibre(dim, seed)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph = np.where(np.abs(ph) < 1e-300, 1.0, ph / np.abs(ph))
    return q * ph


def random_hermitian(dim: int, seed=0) -> Matrix:
    """Hermitian sample (G + G*)/2; Hermitian exactly, entry by entry."""
    g = ginibre(dim, seed)
    return (g + dag(g)) / 2.0


def random_normal(dim: int, seed=0) -> Matrix:
    """Normal sample Q diag(z) Q* with Haar Q and complex Gaussian z."""
    rng = _rng(seed)
    q = haar_unitary(dim, rng)
    z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
    return q @ np.diag(z) @ dag(q)


_ENSEMBLES = {
    "ginibre": ginibre,
    "haar_unitary": haar_unitary,
    "hermitian": random_hermitian,
    "normal": random_normal,
}


def random_ensemble(kind: str, dim: int, seed=0) -> Matrix:
    """Draw one matrix from a named ensemble, deterministically in ``seed``."""
    if dim < 1:
        raise ContractError(f"ensemble dimension must be >= 1, got {dim}")
    try:
        sampler = _ENSEMBLES[kind]
    except KeyError:
        raise ContractError(f"unknown ensemble {kind!r}; expected one of {sorted(_ENSEMBLES)}") from None
    return sampler(dim, seed)


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": r, "cols": c, "re": [[...]], "im": [[...]]}


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the row-major re/im JSON layout."""
    a = as_matrix(a)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj) -> Matrix:
    """Parse the matrix JSON layout, rejecting shape mismatches."""
    if not isinstance(obj, dict):
        raise ContractError("matrix JSON must be an object")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise ContractError(f"matrix JSON is missing keys {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
        raise ContractError("matrix JSON rows/cols must be positive integers")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"matrix JSON re/im are not numeric arrays: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionError(
            f"matrix JSON shape mismatch: declared {rows}x{cols}, "
            f"re {re.shape}, im {im.shape}"
        )
    return as_matrix(re + 1j * im)
