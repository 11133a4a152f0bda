"""Linear maps between matrix algebras: representations and positivity tests.

A map Phi: M_k -> M_d is stored in exactly one of two forms:

* Kraus -- a family of d x k matrices ``K_i`` with Phi(X) = sum_i K_i X K_i*
  (exists iff the map is completely positive), stored as one (L, d, k)
  array with the Kraus rank L first; Phi is unital iff sum_i K_i K_i* = I.
* Choi  -- the dk x dk matrix J = sum_ij E_ij (x) Phi(E_ij), where E_ij are
  the k x k matrix units; viewed as a k x k grid of d x d blocks, block
  (i, j) is Phi(E_ij).

The superoperator, the d^2 x k^2 matrix S with vec(Phi(X)) = S vec(X) on
column-major vectorizations (S = sum_i conj(K_i) (x) K_i for a Kraus map),
is only a conversion of the Choi matrix (``superop_matrix``), never a
storage form.  Compositions, mixtures and non-Kraus amplifications are built
on the Choi matrix.

The amplification Phi_n acts blockwise on n x n operator matrices:
output block (i, j) = Phi(input block (i, j)).

Positivity criteria.  Phi is n-positive iff <x, J x> >= 0 for every unit
vector x in C^k (x) C^d of Schmidt rank at most n (for n >= min(k, d) this
is complete positivity, i.e. J PSD).  Every decision reads J as Hermitian
and refuses a J that is not: its map does not preserve adjoints.  See B. M.
Terhal and P. Horodecki, Phys. Rev. A 61, 040301(R) (2000), and L.
Skowronek, E. Stormer and K. Zyczkowski, J. Math. Phys. 50, 062106 (2009).
Deciding n-positivity for 1 < n < min(k, d) is hard in general;
``n_positivity_search`` therefore returns *certified* refutations (an
explicit witness) but only *heuristic* confirmations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    NotCompletelyPositiveError,
    NumericError,
    UnitalizationError,
)
from .linalg import (
    BLOCK_ENTRIES,
    Matrix,
    as_matrix,
    dag,
    ginibre,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    operator_norms,
)

#: a searched witness (n < min(k, d)) whose Rayleigh value is at or below
#: -WITNESS_TOL * ||J||_F certifies "not n-positive"
WITNESS_TOL = 1e-8
#: a positivity-search start stops after the first sweep that lowers its
#: value by at most SWEEP_TOL * ||J||_F, or after MAX_SWEEPS sweeps
SWEEP_TOL = 1e-12
MAX_SWEEPS = 200
#: Choi eigenvalues down to -CHOI_PSD_TOL * ||J||_F still count as PSD;
#: below it cp_test refutes and choi_to_kraus raises
CHOI_PSD_TOL = 1e-9
#: relative cutoff below which Choi eigenvalues are dropped in Kraus recovery
KRAUS_CUTOFF = 1e-11
#: a map is unital when ||Phi(I) - I|| <= UNITAL_TOL
UNITAL_TOL = 1e-9
#: relative cutoff below which Schmidt coefficients are dropped from a witness
_SCHMIDT_REL_TOL = 1e-12
#: largest dimension that a builtin map, a trial suite or the explorer
#: builds; at 32 the largest array a config can request (a Choi matrix or a
#: full-rank Kraus family, 32**4 complex entries) is 16 MB
MAX_DIM = 32

CERTIFIED_NOT_N_POSITIVE = "certified_not_n_positive"
HEURISTICALLY_N_POSITIVE = "heuristically_n_positive"
CERTIFIED_CP = "certified_cp"


@dataclass(frozen=True, eq=False)
class MapRep:
    """A linear map M_k -> M_d in Kraus form (``kraus`` set) or Choi form
    (``choi`` set); exactly one of the two is stored.  ``kraus`` is the
    (L, d, k) array of the L Kraus operators (build it with ``from_kraus``)."""

    in_dim: int
    out_dim: int
    kraus: np.ndarray | None = None
    choi: Matrix | None = None

    @property
    def form(self) -> str:
        return "kraus" if self.kraus is not None else "choi"


@dataclass(frozen=True, eq=False)
class NPositivityVerdict:
    """Outcome of a positivity-order test.

    ``witness_a``/``witness_b`` are (r, k) and (r, d) coefficient arrays
    defining x = sum_r kron(a_r, b_r); they are populated whenever a best
    vector is known, but only a ``certified_not_n_positive`` status asserts
    that the witness value is negative.
    """

    n: int
    status: str
    min_value_found: float
    witness_a: np.ndarray | None
    witness_b: np.ndarray | None
    starts: int


# ---------------------------------------------------------------------------
# constructors and conversions


def from_kraus(ops) -> MapRep:
    """Build a (completely positive) map from its Kraus family: L d x k
    matrices, as a sequence or as an (L, d, k) array."""
    ops = _kraus_family(ops)
    # a copy over a (d, L, k) buffer: apply's d x Lk [K_1 ... K_L] is a view
    wide = np.array(ops.transpose(1, 0, 2), order="C")
    return MapRep(in_dim=ops.shape[2], out_dim=ops.shape[1], kraus=wide.transpose(1, 0, 2))


def _kraus_family(ops) -> np.ndarray:
    # a Kraus family as a checked complex (L, d, k) array
    try:
        ops = np.asarray(ops, dtype=np.complex128)
    except ValueError:  # operators of different shapes (or not numbers)
        raise DimensionError("Kraus operators must be numeric matrices of one shape") from None
    if ops.shape[:1] == (0,):
        raise ContractError("a Kraus family needs at least one operator")
    if ops.ndim != 3 or min(ops.shape) < 1:
        raise DimensionError(f"a Kraus family must be an (L, d, k) stack, got shape {ops.shape}")
    if not np.isfinite(ops).all():
        raise ContractError("Kraus operator entries must be finite (no NaN/Inf)")
    return ops


def from_choi(j, in_dim: int, out_dim: int) -> MapRep:
    j = as_matrix(j, square=True)
    if j.shape[0] != in_dim * out_dim:
        raise DimensionError(
            f"Choi matrix is {j.shape[0]}x{j.shape[0]}, expected {in_dim * out_dim}"
        )
    return MapRep(in_dim=in_dim, out_dim=out_dim, choi=j)


def identity_map(k: int) -> MapRep:
    return from_kraus([np.eye(k, dtype=np.complex128)])


def choi_matrix(phi: MapRep) -> Matrix:
    """The Choi matrix J = sum_ij E_ij (x) Phi(E_ij) of ``phi``."""
    if phi.choi is not None:
        return phi.choi
    return choi_kraus_stack([phi])[0]


def choi_kraus_stack(maps: list) -> np.ndarray:
    """The (N, dk, dk) stack of the Choi matrices of N Kraus-form maps
    M_k -> M_d of any Kraus ranks, one einsum per rank: ``choi_matrix`` of
    a Kraus map is its one-map case."""
    if any(phi.kraus is None for phi in maps):
        raise ContractError("a stack of Kraus maps takes Kraus-form maps only")
    groups = _rank_groups([phi.kraus for phi in maps])
    parts = []
    for rows, buf in groups:
        # J = sum_l w_l w_l* with w_l = vec of K_l^T (index (i, a) -> K_l[a, i])
        w = buf.transpose(0, 2, 3, 1).reshape(len(rows), buf.shape[2], -1)
        parts.append(np.einsum("gli,glj->gij", w, w.conj()))
    return _in_input_order(groups, parts)


def superop_matrix(phi: MapRep) -> Matrix:
    """The superoperator on column-major vectorizations, a reshuffle of the
    Choi matrix (a conversion; no map is stored in this form)."""
    k, d = phi.in_dim, phi.out_dim
    j4 = choi_matrix(phi).reshape(k, d, k, d)  # [a, alpha, b, beta]
    return np.ascontiguousarray(j4.transpose(3, 1, 2, 0).reshape(d * d, k * k))


def to_choi(phi: MapRep) -> MapRep:
    return MapRep(in_dim=phi.in_dim, out_dim=phi.out_dim, choi=choi_matrix(phi))


def choi_to_kraus(phi: MapRep) -> MapRep:
    """Recover a Kraus family from the Choi matrix.

    Eigenvalues in (-CHOI_PSD_TOL * ||J||_F, 0) are clamped to zero, lower
    ones raise ``NotCompletelyPositiveError``; eigenvalues below
    KRAUS_CUTOFF * ||J|| are discarded.
    """
    k, d = phi.in_dim, phi.out_dim
    w, vecs = np.linalg.eigh(_hermitian_choi(phi))
    if w[0] < -CHOI_PSD_TOL * np.linalg.norm(w):
        raise NotCompletelyPositiveError(
            f"Choi eigenvalue {w[0]:.3e} < -{CHOI_PSD_TOL:.0e} ||J||_F; map is not CP"
        )
    w = np.clip(w, 0.0, None)
    keep = w > KRAUS_CUTOFF * max(float(w[-1]), 1e-300)
    if not keep.any():  # zero map
        return from_kraus(np.zeros((1, d, k)))
    ops = vecs[:, keep].T.reshape(-1, k, d).transpose(0, 2, 1)  # vec K_l^T / sqrt(w_l)
    return from_kraus(np.sqrt(w[keep])[:, None, None] * ops)


def apply(phi: MapRep, x) -> np.ndarray:
    """Evaluate Phi(X) on one k x k matrix, or Phi on each matrix of an
    (S, k, k) stack, giving an (S, d, d) stack.  Each matrix of a stack goes
    through the same products as on its own, so with the same rounding."""
    k, d = phi.in_dim, phi.out_dim
    xs = np.array(x, dtype=np.complex128)
    if xs.ndim not in (2, 3) or xs.shape[-2:] != (k, k):
        raise DimensionError(f"input is {xs.shape}, map expects {(k, k)} or (S, {k}, {k})")
    if not np.isfinite(xs).all():
        raise ContractError("matrix entries must be finite (no NaN/Inf)")
    if phi.kraus is not None:
        return _kraus_images(phi.kraus.transpose(1, 0, 2).reshape(d, -1), xs)
    out = apply_choi_stack(phi.choi.reshape(k, d, k, d), xs.reshape(-1, k, k))
    return out.reshape(*xs.shape[:-2], d, d)


def _kraus_images(wide: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # apply's kernel, [K_1 X ... K_L X] W* with W = [K_1 ... K_L] the d x Lk
    # matrix of the family: two GEMMs, on one X or an (S, k, k) stack of them
    d, k = wide.shape[0], xs.shape[-1]
    kx = wide.reshape(-1, k) @ xs
    return kx.reshape(*kx.shape[:-2], d, -1) @ dag(wide)


def apply_choi_stack(j4: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Phi on each matrix of an (S, k, k) stack for a Choi matrix reshaped
    (k, d, k, d), or for each of a (T, k, d, k, d) stack of them on a
    (T, S, k, k) stack, giving (T, S, d, d): block (i, j) of J is Phi(E_ij).
    Each map's S matrices go through the same products as in ``apply``."""
    return np.einsum("...sij,...iajb->...sab", xs, j4)


def unital_mask(images_of_identity: np.ndarray) -> np.ndarray:
    """Whether ||Phi(I) - I|| <= UNITAL_TOL, for Phi(I) or for each of a
    (..., d, d) stack of them (the trial engine maps I as one more input)."""
    eye = np.eye(images_of_identity.shape[-1])
    return operator_norms(images_of_identity - eye) <= UNITAL_TOL


def amplify(phi: MapRep, n: int) -> MapRep:
    """The blockwise amplification Phi_n on M_n(M_k) ~ M_{nk}."""
    if n < 1:
        raise ContractError(f"amplification order must be >= 1, got {n}")
    if n == 1:
        return phi
    k, d = phi.in_dim, phi.out_dim
    eye = np.eye(n, dtype=np.complex128)
    if phi.kraus is not None:
        return from_kraus(np.kron(eye, phi.kraus))  # kron(I_n, K_l) for each l
    # Phi_n(E_pq (x) E_ij) = E_pq (x) Phi(E_ij): J_n[(p,i,p',a),(q,j,q',b)]
    # = delta_pp' delta_qq' J[(i,a),(j,b)]
    j_amp = np.einsum("iajb,pP,qQ->piPaqjQb", phi.choi.reshape(k, d, k, d), eye, eye)
    return from_choi(j_amp.reshape(n * k * n * d, n * k * n * d), n * k, n * d)


def compose(after: MapRep, before: MapRep) -> MapRep:
    """The composition after o before."""
    if before.out_dim != after.in_dim:
        raise DimensionError(
            f"cannot compose: inner dims {before.out_dim} vs {after.in_dim}"
        )
    k, c, d = before.in_dim, before.out_dim, after.out_dim
    # (A o B)(E_ij) = sum_ce B(E_ij)[c, e] A(E_ce), so
    # J[(i,a),(j,b)] = sum_ce J_B[(i,c),(j,e)] J_A[(c,a),(e,b)]
    j = np.einsum("icje,caeb->iajb", choi_matrix(before).reshape(k, c, k, c),
                  choi_matrix(after).reshape(c, d, c, d))
    return from_choi(j.reshape(k * d, k * d), k, d)


def mix(maps, weights) -> MapRep:
    """Linear combination of maps with the same dimensions (Choi form)."""
    maps = list(maps)
    weights = [float(w) for w in weights]
    if len(maps) != len(weights) or not maps:
        raise ContractError("mix needs equally many maps and weights, at least one")
    k, d = maps[0].in_dim, maps[0].out_dim
    if any((phi.in_dim, phi.out_dim) != (k, d) for phi in maps):
        raise DimensionError("mixed maps must share dimensions")
    return from_choi(mix_choi_stack([choi_matrix(phi) for phi in maps], weights), k, d)


def mix_choi_stack(chois, weights) -> np.ndarray:
    """The Choi matrix sum_m w_m J_m of a mixture, or a stack of them: each
    J_m is one Choi matrix or a (T, N, N) stack, each w_m a number or a
    (T,) array, and leading axes broadcast, so one map may be mixed with a
    stack.  Terms are added in order, as ``mix`` adds them."""
    j = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in chois)), dtype=np.complex128)
    for c, w in zip(chois, weights):
        j += np.asarray(w, dtype=np.float64)[..., None, None] * c
    return j


def phi_of_identity(phi: MapRep) -> Matrix:
    return apply(phi, np.eye(phi.in_dim, dtype=np.complex128))


def is_unital(phi: MapRep) -> bool:
    """||Phi(I) - I|| <= UNITAL_TOL: the one-map case of ``unital_mask``."""
    return bool(unital_mask(phi_of_identity(phi)))


def unitalize(phi: MapRep) -> MapRep:
    """Congruence-rescale so the map sends I to I: X -> S^(-1/2) Phi(X) S^(-1/2).

    Requires S = Phi(I) to be Hermitian positive definite; preserves complete
    positivity (on Kraus maps it acts by K_i -> S^(-1/2) K_i, on a Choi
    matrix by Phi(E_ij) -> S^(-1/2) Phi(E_ij) S^(-1/2) on each d x d block).
    """
    if phi.kraus is not None:
        return unitalize_kraus_stack([phi.kraus])[0]
    k, d = phi.in_dim, phi.out_dim
    r = _inverse_sqrt(phi_of_identity(phi))
    blocks = phi.choi.reshape(k, d, k, d).transpose(0, 2, 1, 3)  # [i, j] is Phi(E_ij)
    return from_choi((r @ blocks @ dag(r)).transpose(0, 2, 1, 3).reshape(k * d, k * d), k, d)


def unitalize_kraus_stack(families: list) -> list[MapRep]:
    """The unital maps, in Kraus form, of Kraus families given as (L, d, k)
    arrays of any ranks L that share d and k.  With W = [K_1 ... K_L] the
    d x Lk matrix of a family, S = Phi(I) = W W* and the unital family is
    S^(-1/2) W: two products per Kraus rank, on the stack of its families'
    W, and the inverse square roots of all S as one stack.  The Kraus case
    of ``unitalize``, and of ``random_unital_cp``, is its one-family case."""
    groups = _rank_groups([_kraus_family(ops) for ops in families])
    _, d, _, k = groups[0][1].shape
    wides = [buf.reshape(len(rows), d, -1) for rows, buf in groups]
    r = _inverse_sqrt(_in_input_order(groups, [w @ dag(w) for w in wides]))
    out = [None] * len(r)
    for (rows, _), w in zip(groups, wides):
        # each S^(-1/2) W is a C-ordered d x Lk matrix, from_kraus's (d, L, k)
        for i, op in zip(rows, (r[rows] @ w).reshape(len(rows), d, -1, k)):
            out[i] = MapRep(in_dim=k, out_dim=d, kraus=op.transpose(1, 0, 2))
    return out


def _rank_groups(families: list) -> list[tuple[np.ndarray, np.ndarray]]:
    # (L, d, k) Kraus families grouped by rank L, in order of first
    # appearance: each group's positions in ``families`` and its C-ordered
    # (G, d, L, k) stack of them, from_kraus's layout; a one-family group of
    # a map's Kraus buffer is a view of it, not a copy
    if not families:
        raise ContractError("a stack of Kraus families needs at least one family")
    if any(ops.shape[1:] != families[0].shape[1:] for ops in families):
        raise DimensionError("stacked Kraus families must share their dimensions d and k")
    by_rank: dict = {}
    for i, ops in enumerate(families):
        by_rank.setdefault(len(ops), []).append(i)
    groups = []
    for rows in by_rank.values():
        bufs = [families[i].transpose(1, 0, 2) for i in rows]
        groups.append((np.array(rows), np.ascontiguousarray(bufs[0])[None] if len(rows) == 1
                       else np.array(bufs)))
    return groups


def _in_input_order(groups: list, parts: list) -> np.ndarray:
    # the stack of the maps' results from each group's stack of them
    if len(parts) == 1:  # one group holds every map, in order
        return parts[0]
    n = sum(len(rows) for rows, _ in groups)
    out = np.empty((n, *parts[0].shape[1:]), dtype=parts[0].dtype)
    for (rows, _), part in zip(groups, parts):
        out[rows] = part
    return out


def _inverse_sqrt(s: np.ndarray) -> np.ndarray:
    # S^(-1/2) of Phi(I) = S, or of each matrix of a stack of them; S must be
    # Hermitian positive definite.  The guards scale by ||(S + S*)/2||, the
    # largest |eigenvalue|, and bound ||S - S*|| by its Frobenius norm.  With
    # (S + S*)/2 = Q diag(w) Q*, the result is Q's columns scaled by
    # w^(-1/2), times Q*
    w, q = np.linalg.eigh((s + dag(s)) / 2.0)
    if not np.isfinite(w).all():  # eigh returns NaN on an overflowed S
        raise NumericError("Phi(I) is not finite; cannot unitalize")
    nrm = np.max(np.abs(w), axis=-1)
    if np.any(np.linalg.norm(s - dag(s), axis=(-2, -1)) > 1e-8 * np.maximum(nrm, 1e-300)):
        raise UnitalizationError("Phi(I) is not Hermitian; cannot unitalize")
    singular = w[..., 0] <= 1e-8 * nrm
    if np.any(singular):
        raise UnitalizationError(f"Phi(I) is numerically singular (min eigenvalue "
                                 f"{np.min(w[..., 0]):.3e}); cannot unitalize")
    return (q * (1.0 / np.sqrt(w))[..., None, :]) @ dag(q)


# ---------------------------------------------------------------------------
# built-in maps


def transpose_map(k: int) -> MapRep:
    """The transpose on M_k; positive but not 2-positive (its Choi matrix is
    the swap operator)."""
    if k < 2:
        raise ContractError("transpose map needs k >= 2")
    # the identity with column i * k + a moved to a * k + i
    swap = np.eye(k * k, dtype=np.complex128)[:, np.arange(k * k).reshape(k, k).T.ravel()]
    return from_choi(swap, k, k)


def choi_map(k: int) -> MapRep:
    """T -> (k-1) tr(T) I - T on M_k, the canonical map that is
    (k-1)-positive but not k-positive (Choi, Linear Algebra Appl. 1972)."""
    if k < 2:
        raise ContractError("choi_map needs k >= 2")
    omega = np.eye(k, dtype=np.complex128).reshape(-1)  # sum_i e_i (x) e_i
    j = (k - 1) * np.eye(k * k, dtype=np.complex128) - np.outer(omega, omega.conj())
    return from_choi(j, k, k)


def normalized_choi_map(k: int) -> MapRep:
    """choi_map(k) scaled by 1/(k^2-k-1), which makes it unital."""
    base = choi_map(k)
    return from_choi(choi_matrix(base) / (k * k - k - 1), k, k)


def unitary_conj(u) -> MapRep:
    """X -> U X U* for a unitary U."""
    u = as_matrix(u, square=True)
    if operator_norm(dag(u) @ u - np.eye(u.shape[0])) > 1e-10:
        raise ContractError("unitary_conj requires a unitary matrix")
    return from_kraus([u])


def random_unital_cp(k: int, kraus_rank: int, seed=0) -> MapRep:
    """Unitalization of a random Ginibre Kraus family on M_k."""
    if kraus_rank < 1:
        raise ContractError("kraus_rank must be >= 1")
    return unitalize_kraus_stack([ginibre(k, seed, (kraus_rank,))])[0]


_BUILTINS = {
    "transpose": transpose_map,
    "choiMap": choi_map,
    "normalizedChoiMap": normalized_choi_map,
}


def builtin(name: str, dim: int) -> MapRep:
    """Construct one of the named built-in maps on M_dim, dim <= MAX_DIM."""
    factory = _BUILTINS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ContractError(f"unknown builtin map {name!r}; expected one of {sorted(_BUILTINS)}")
    if dim > MAX_DIM:
        raise ContractError(f"builtin map dim must be <= MAX_DIM = {MAX_DIM}, got {dim}")
    return factory(dim)


# ---------------------------------------------------------------------------
# positivity testing


def schmidt_decompose(x, k: int, d: int,
                      max_rank: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt decomposition of x in C^k (x) C^d.

    Returns (a, b) with rows a_r in C^k, b_r in C^d such that
    x = sum_r kron(a_r, b_r); the a_r (and the b_r) are orthogonal.
    """
    m = np.asarray(x, dtype=np.complex128).reshape(k, d)
    u, s, vh = np.linalg.svd(m)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > _SCHMIDT_REL_TOL * max(top, 1e-300)))
    rank = max(rank, 1)
    if max_rank is not None:
        rank = min(rank, max_rank)
    scale = np.sqrt(s[:rank])
    a = scale[:, None] * u[:, :rank].T
    b = scale[:, None] * vh[:rank, :]
    return a, b


def witness_vector(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Assemble x = sum_r kron(a_r, b_r) from witness coefficients."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return np.einsum("ri,ra->ia", a, b).reshape(-1)


def rayleigh_value(phi: MapRep, x) -> float:
    """<x, J x> on the Hermitian view of the Choi matrix of ``phi``."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return float(np.real(np.vdot(x, _hermitian_choi(phi) @ x)))


def _hermitian_choi(phi: MapRep) -> Matrix:
    # (J + J*)/2, the one view of J that positivity decisions read
    j = choi_matrix(phi)
    if np.linalg.norm(j - dag(j)) > CHOI_PSD_TOL * np.linalg.norm(j):
        raise ContractError("the Choi matrix is not Hermitian, so the map does not "
                            "preserve adjoints and is not positive")
    return (j + dag(j)) / 2.0


def cp_test(phi: MapRep) -> NPositivityVerdict:
    """Exact complete-positivity test via the Choi spectrum.

    ``certified_cp`` iff the minimal eigenvalue of the Hermitian Choi
    matrix is >= -CHOI_PSD_TOL * ||J||_F; either way the minimal
    eigenvector (Schmidt-decomposed) is the witness.
    """
    w, vecs = np.linalg.eigh(_hermitian_choi(phi))
    min_eig = float(w[0])
    cp = min_eig >= -CHOI_PSD_TOL * np.linalg.norm(w)  # ||w||_2 = ||J||_F
    status = CERTIFIED_CP if cp else CERTIFIED_NOT_N_POSITIVE
    a, b = schmidt_decompose(vecs[:, 0], phi.in_dim, phi.out_dim)
    return NPositivityVerdict(n=min(phi.in_dim, phi.out_dim), status=status,
                              min_value_found=min_eig, witness_a=a, witness_b=b, starts=0)


def _minimize_fixed_frame(j4: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # For each (q, n) frame of the (S, q, n) stack, minimize <x, J x> over unit
    # x = sum_r y_r (x) f_r, with J given as a (p, q, p, q) array and f_r the
    # frame's orthonormal columns: with the frame fixed this is a plain
    # Hermitian eigenproblem in the stacked y-coefficients.  Returns the
    # minima (S,) and the minimizers as (S, p, q) arrays.
    s, q, n = frames.shape
    p = j4.shape[0]
    jf = (j4.reshape(p * q * p, q) @ frames).reshape(s, p, q, p * n)
    h = (np.conj(frames).transpose(0, 2, 1)[:, None] @ jf).reshape(s, p * n, p * n)
    w, vecs = np.linalg.eigh((h + np.conj(h).transpose(0, 2, 1)) / 2.0)
    return w[:, 0], vecs[:, :, 0].reshape(s, p, n) @ frames.transpose(0, 2, 1)


def _alternating_minimum(seed: np.random.SeedSequence, d: int, n: int) -> Matrix:
    # One start of the alternating minimization: the Gaussian (d, n) matrix
    # whose orthonormalized columns are its first b-frame, drawn from the
    # start's own seed.  The descent runs in `_alternating_minima` on a stack
    # of starts; this stays one call per start because perfbench's tracer
    # counts positivity-search starts by its calls.
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))


def _alternating_minima(j4: np.ndarray, b_frames: np.ndarray, tol: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    # Alternate between the best a-side for fixed b-frames and the best b-side
    # for fixed a-frames, each start from its own (d, n) b-frame of the stack.
    # The opening half-step on the drawn b-frame counts as sweep 0, and each
    # start stops on its own after the first sweep that lowers its value by
    # at most tol, or after MAX_SWEEPS sweeps.  Block-coordinate descent never
    # raises the value, so a sweep that makes no progress leaves the start
    # where a further sweep would find it.  The a-side is the b-side with the
    # two tensor factors of J swapped.  Returns the final values (S,) and
    # vectors as (S, k, d) arrays.
    n = b_frames.shape[2]
    j4_swapped = np.ascontiguousarray(j4.transpose(1, 0, 3, 2))
    q, x = _minimize_fixed_frame(j4, b_frames)
    active = np.arange(q.size)
    for _ in range(MAX_SWEEPS):
        if active.size == 0:
            break
        u, _, _ = np.linalg.svd(x[active])
        qa, y = _minimize_fixed_frame(j4_swapped, u[:, :, :n])
        _, _, vh = np.linalg.svd(y.transpose(0, 2, 1))
        qa, xa = _minimize_fixed_frame(j4, vh[:, :n, :].transpose(0, 2, 1))
        converged = np.abs(q[active] - qa) <= tol
        q[active], x[active] = qa, xa
        active = active[~converged]
    return q, x


#: starts run as one stack at most this many at a time, and fewer where the
#: stack's largest product, k * d * max(k, d) * n complex entries per start,
#: would pass ``linalg.BLOCK_ENTRIES``; bounds memory, not results
SEARCH_BLOCK = 1024


def n_positivity_search(phi: MapRep, n: int, starts: int = 50, seed=0
                        ) -> NPositivityVerdict:
    """Minimize <x, J x> over unit vectors of Schmidt rank <= n.

    For n >= min(k, d) the Schmidt constraint is vacuous, n-positivity
    coincides with complete positivity, and the result is the exact Choi
    eigenvalue decision of ``cp_test``, which runs no start (``starts`` = 0).
    Otherwise the minimization runs ``starts`` alternating-eigenvector
    descents, each from a random frame drawn from its own child of
    ``SeedSequence(seed)``.
    The starts run as stacked kernels, as many at a time as keep the
    largest product of a stack, k * d * max(k, d) * n entries per start,
    within ``linalg.BLOCK_ENTRIES`` and at most ``SEARCH_BLOCK`` (so up to
    1024 starts of a map on M_5 at once, and 17 at k = d = 16, n = 15).
    Each stack spawns only its own seed children, and each start stops on
    its own: the opening half-step on its drawn frame counts as sweep 0,
    and the start stops after the first sweep that lowers its value by at
    most ``SWEEP_TOL * ||J||_F`` (1e-12 * ||J||_F), or after ``MAX_SWEEPS``
    sweeps (200).  The first start reaching the lowest value wins.
    Results are deterministic in (seed, starts) and do not depend on the
    stack size.  The verdict is certified only in the refutation direction.
    """
    if n < 1:
        raise ContractError(f"positivity order must be >= 1, got {n}")
    if starts < 1:
        raise ContractError(f"the search needs at least one start, got {starts}")
    k, d = phi.in_dim, phi.out_dim
    if n >= min(k, d):
        return replace(cp_test(phi), n=n)
    j4 = _hermitian_choi(phi).reshape(k, d, k, d)
    j_norm = np.linalg.norm(j4)
    # spawn numbers children on from the last: start i gets child i
    root = np.random.SeedSequence(seed)
    stack = max(1, min(SEARCH_BLOCK, BLOCK_ENTRIES // (k * d * max(k, d) * n)))
    best_val, best_x = np.inf, None
    for lo in range(0, starts, stack):
        draws = np.stack([_alternating_minimum(child, d, n)
                          for child in root.spawn(min(stack, starts - lo))])
        b_frames, _ = np.linalg.qr(draws)
        vals, xs = _alternating_minima(j4, b_frames, SWEEP_TOL * j_norm)
        first = int(np.argmin(vals))
        if vals[first] < best_val:
            best_val, best_x = float(vals[first]), xs[first].reshape(-1)

    a, b = schmidt_decompose(best_x, k, d, max_rank=n)
    x = witness_vector(a, b)
    nrm = np.linalg.norm(x)
    if nrm > 0:
        b = b / nrm
    refuted = best_val < -WITNESS_TOL * j_norm  # J = 0 is never refuted
    status = CERTIFIED_NOT_N_POSITIVE if refuted else HEURISTICALLY_N_POSITIVE
    return NPositivityVerdict(n=n, status=status, min_value_found=float(best_val),
                              witness_a=a, witness_b=b, starts=starts)


# ---------------------------------------------------------------------------
# JSON wire format for maps


def map_to_json(phi: MapRep) -> dict:
    """Serialize a map in its stored form, Kraus or Choi."""
    if phi.kraus is not None:
        return {"kind": "kraus", "ops": [matrix_to_json(op) for op in phi.kraus]}
    return {
        "kind": "choi",
        "inDim": phi.in_dim,
        "outDim": phi.out_dim,
        "matrix": matrix_to_json(choi_matrix(phi)),
    }


def _json_dim(obj: dict, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ContractError(f"map JSON {key!r} must be a positive integer, got {value!r}")
    return value


def map_from_json(obj) -> MapRep:
    """Parse the map JSON format (kraus | choi | builtin | unitaryConj)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ContractError("map JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "kraus":
        ops = obj.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ContractError("kraus map JSON needs a non-empty 'ops' list")
        return from_kraus([matrix_from_json(op) for op in ops])
    if kind == "choi":
        for key in ("inDim", "outDim", "matrix"):
            if key not in obj:
                raise ContractError(f"choi map JSON is missing {key!r}")
        return from_choi(matrix_from_json(obj["matrix"]), _json_dim(obj, "inDim"),
                         _json_dim(obj, "outDim"))
    if kind == "builtin":
        if "name" not in obj or "dim" not in obj:
            raise ContractError("builtin map JSON needs 'name' and 'dim'")
        return builtin(obj["name"], dim=_json_dim(obj, "dim"))
    if kind == "unitaryConj":
        if "u" not in obj:
            raise ContractError("unitaryConj map JSON needs 'u'")
        return unitary_conj(matrix_from_json(obj["u"]))
    raise ContractError(f"unknown map kind {kind!r}")
