"""Dense complex-matrix kernels shared by every other module: coercion and
the adjoint, operator norms of one matrix or of a stack, seeded random
ensembles, the matrix JSON wire format (written as the exact base64
bytes of the complex128 buffer; read from that or from re/im number lists),
and the one memory bound, ``BLOCK_ENTRIES``, that sizes every stacked step.
The decompositions the lab needs (Choi spectra, the SVDs of the Delta
solver, the Schmidt decomposition and the unitary average) call numpy where
they are used.

Matrices are plain ``numpy`` arrays of dtype ``complex128``.  All functions
are pure: they never mutate their arguments, and random sampling takes the
seed (or an explicit ``numpy.random.Generator``) as a parameter, so results
are reproducible and safe to compute concurrently.  The seeded generator is
numpy's default PCG64; determinism is guaranteed within this implementation,
not bit-for-bit across library versions.
"""

from __future__ import annotations

import binascii
import itertools

import numpy as np

from .errors import ContractError, DimensionError, NumericError

Matrix = np.ndarray

#: bound on the complex entries (16 MB) of the largest array one stacked step
#: forms, shared by the trial blocks and the positivity-search stacks: each
#: takes as many items as fit, so large shapes take fewer.  It bounds
#: memory, not results
BLOCK_ENTRIES = 2**20


def as_matrix(values, *, square: bool = False) -> Matrix:
    """Coerce ``values`` to a finite 2-D complex128 array (always a copy)."""
    a = np.array(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-D matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # both parts of every entry
        raise ContractError("matrix entries must be finite (no NaN/Inf)")
    return a


def dag(a: Matrix) -> Matrix:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.conj(a).swapaxes(-1, -2)


def operator_norm(a) -> float:
    """Largest singular value of ``a``: the one-matrix ``operator_norms``."""
    return float(operator_norms(a))


def operator_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (..., n, m) stack (0 if empty)."""
    try:
        s = np.linalg.svd(np.asarray(stack, dtype=np.complex128), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])


def diagonal_stack(v) -> np.ndarray:
    """The diagonal matrix of each vector of a (..., n) stack, built as
    ``np.diag`` builds one."""
    v = np.asarray(v)
    n = v.shape[-1]
    out = np.zeros(v.shape + (n,), dtype=v.dtype)
    out[..., range(n), range(n)] = v
    return out


# ---------------------------------------------------------------------------
# seeded random ensembles


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(dim: int, seed=0, shape: tuple = ()) -> Matrix:
    """Complex Ginibre matrix (i.i.d. standard complex normal entries), or a
    ``shape + (dim, dim)`` array equal bit for bit to successive single draws."""
    parts = _rng(seed).standard_normal((*shape, 2, dim, dim))
    return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)


#: the kinds of ``random_ensemble``
ENSEMBLES = ("ginibre", "haar_unitary", "hermitian", "normal")


def ensemble_sample(kind: str, dim: int, seed=0) -> tuple:
    """The random numbers ``random_ensemble(kind, dim, seed)`` draws, in its
    order, as ``(kind, G, z)``: a Ginibre sample G, then for the normal kind
    the complex Gaussian eigenvalues z (None for the other kinds)."""
    if dim < 1:
        raise ContractError(f"ensemble dimension must be >= 1, got {dim}")
    if kind not in ENSEMBLES:
        raise ContractError(f"unknown ensemble {kind!r}; expected one of {sorted(ENSEMBLES)}")
    rng = _rng(seed)
    g = ginibre(dim, rng)
    z = None
    if kind == "normal":
        z = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
    return kind, g, z


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    # the QR factor of each sample, made unique by pushing the phases of
    # diag(R) into Q, which is what makes the distribution Haar
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    ph = np.where(np.abs(ph) < 1e-300, 1.0, ph / np.abs(ph))
    return q * ph[..., None, :]


def ensemble_stack(samples) -> np.ndarray:
    """The (T, n, n) stack of the matrices that ``random_ensemble`` builds
    from T samples of ``ensemble_sample`` (of any kinds, one n): G for
    ginibre, (G + G*)/2 for hermitian, the Haar unitary Q of G's QR for
    haar_unitary, and Q diag(z) Q* for normal.  Each kind is built as one
    stack, and each matrix gets the bits it gets alone."""
    kinds = np.array([kind for kind, _, _ in samples])
    x = np.stack([g for _, g, _ in samples])
    herm = np.flatnonzero(kinds == "hermitian")
    if herm.size:
        x[herm] = (x[herm] + dag(x[herm])) / 2.0
    haar = np.flatnonzero(kinds == "haar_unitary")
    if haar.size:
        x[haar] = _haar_from_ginibre(x[haar])
    normal = np.flatnonzero(kinds == "normal")
    if normal.size:
        q = _haar_from_ginibre(x[normal])
        z = np.stack([samples[i][2] for i in normal])
        x[normal] = q @ diagonal_stack(z) @ dag(q)
    return x


def random_ensemble(kind: str, dim: int, seed=0) -> Matrix:
    """Draw one matrix from a named ensemble (one of ``ENSEMBLES``),
    deterministically in ``seed``: the one-matrix case of ``ensemble_stack``."""
    return ensemble_stack([ensemble_sample(kind, dim, seed)])[0]


def haar_unitary(dim: int, seed=0) -> Matrix:
    """Haar-distributed unitary via QR of a Ginibre sample."""
    return random_ensemble("haar_unitary", dim, seed)


# ---------------------------------------------------------------------------
# JSON wire format.  A report writes each matrix as its exact bytes,
#     {"rows": r, "cols": c, "data": "<base64>"},
# the row-major little-endian complex128 buffer (16 bytes an entry, real part
# first), so every double and its sign bit survive and the text is the same on
# every run.  Inputs, which are often written by hand, may instead give
#     {"rows": r, "cols": c, "re": [[...]], "im": [[...]]},
# row-major lists of JSON numbers; that layout is read, never written.


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the base64 ``data`` JSON layout."""
    a = as_matrix(a)
    raw = a.astype("<c16", copy=False).tobytes()
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }


def _decode_data(data, rows: int, cols: int) -> np.ndarray:
    if not isinstance(data, str):
        raise ContractError("matrix JSON data must be a base64 string")
    try:
        raw = binascii.a2b_base64(data)
        # a2b_base64 skips characters outside the alphabet; only the text
        # that re-encodes to itself is accepted
        canonical = binascii.b2a_base64(raw, newline=False) == data.encode("ascii")
    except ValueError:  # bad padding or a non-ASCII character
        canonical = False
    if not canonical:
        raise ContractError("matrix JSON data is not padded base64 text")
    if len(raw) != rows * cols * 16:
        raise DimensionError(
            f"matrix JSON shape mismatch: declared {rows}x{cols} "
            f"({rows * cols * 16} bytes), data has {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(rows, cols)


def _list_part(part) -> np.ndarray:
    # every entry of a (rows, cols) list must be a JSON number: numpy would
    # read "1e3" as 1000.0 and true as 1.0.  A list entry is left to the
    # shape check, and a part that is not a list of rows to numpy.
    try:
        kinds = set(map(type, itertools.chain.from_iterable(part)))
    except TypeError:
        kinds = set()
    if any(t is bool or not issubclass(t, (int, float, list)) for t in kinds):
        raise ContractError("matrix JSON re/im entries must be JSON numbers")
    try:
        return np.asarray(part, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"matrix JSON re/im are not numeric arrays: {exc}") from exc


def matrix_from_json(obj) -> Matrix:
    """Parse either matrix JSON layout, rejecting shape mismatches."""
    if not isinstance(obj, dict):
        raise ContractError("matrix JSON must be an object")
    layout = {"data"} if "data" in obj else {"re", "im"}
    missing = ({"rows", "cols"} | layout) - set(obj)
    if missing:
        raise ContractError(f"matrix JSON is missing keys {sorted(missing)}")
    if "data" in obj and ("re" in obj or "im" in obj):
        raise ContractError("matrix JSON has both data and re/im")
    rows, cols = obj["rows"], obj["cols"]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (rows, cols)):
        raise ContractError("matrix JSON rows/cols must be positive integers")
    if "data" in obj:
        return as_matrix(_decode_data(obj["data"], rows, cols))
    re, im = _list_part(obj["re"]), _list_part(obj["im"])
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionError(
            f"matrix JSON shape mismatch: declared {rows}x{cols}, "
            f"re {re.shape}, im {im.shape}"
        )
    # the parts are set, not summed: re + 1j * im would turn -0.0 into +0.0
    out = np.empty((rows, cols), dtype=np.complex128)
    out.real, out.imag = re, im
    return as_matrix(out)
