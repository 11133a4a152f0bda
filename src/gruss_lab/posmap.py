"""Linear maps between matrix algebras: representations and positivity tests.

A map Phi: M_k -> M_d is stored in exactly one of three forms:

* Kraus -- a family of d x k matrices ``K_i`` with Phi(X) = sum_i K_i X K_i*
  (exists iff the map is completely positive); Phi is unital iff
  sum_i K_i K_i* = I.
* Choi  -- the dk x dk matrix J = sum_ij E_ij (x) Phi(E_ij), where E_ij are
  the k x k matrix units; viewed as a k x k grid of d x d blocks, block
  (i, j) is Phi(E_ij).
* Superop -- the d^2 x k^2 matrix acting on column-major vectorizations:
  vec(Phi(X)) = S vec(X).  For a Kraus map S = sum_i conj(K_i) (x) K_i.

The amplification Phi_n acts blockwise on n x n operator matrices:
output block (i, j) = Phi(input block (i, j)).

Positivity criteria.  Phi is n-positive iff <x, J x> >= 0 for every unit
vector x in C^k (x) C^d of Schmidt rank at most n (for n >= min(k, d) this
is complete positivity, i.e. J PSD).  See B. M. Terhal and P. Horodecki,
Phys. Rev. A 61, 040301(R) (2000), and L. Skowronek, E. Stormer and
K. Zyczkowski, J. Math. Phys. 50, 062106 (2009).  Deciding n-positivity for
1 < n < min(k, d) is hard in general; ``n_positivity_search`` therefore
returns *certified* refutations (an explicit witness) but only *heuristic*
confirmations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    NotCompletelyPositiveError,
    UnitalizationError,
)
from .linalg import (
    Matrix,
    as_matrix,
    dag,
    ginibre,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
)

#: a Rayleigh value at or below -WITNESS_TOL certifies "not n-positive"
WITNESS_TOL = 1e-8
#: Choi eigenvalues down to -CHOI_PSD_TOL still count as PSD
CHOI_PSD_TOL = 1e-9
#: relative cutoff below which Choi eigenvalues are dropped in Kraus recovery
KRAUS_CUTOFF = 1e-11

CERTIFIED_NOT_N_POSITIVE = "certified_not_n_positive"
HEURISTICALLY_N_POSITIVE = "heuristically_n_positive"
CERTIFIED_CP = "certified_cp"


@dataclass(frozen=True, eq=False)
class MapRep:
    """A linear map M_k -> M_d in Kraus, Choi or superoperator form."""

    in_dim: int
    out_dim: int
    kraus: tuple[Matrix, ...] | None = None
    choi: Matrix | None = None
    superop: Matrix | None = None

    @property
    def form(self) -> str:
        if self.kraus is not None:
            return "kraus"
        if self.choi is not None:
            return "choi"
        return "superop"


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
    """Build a (completely positive) map from its Kraus family."""
    mats = tuple(as_matrix(op) for op in ops)
    if not mats:
        raise ContractError("a Kraus family needs at least one operator")
    d, k = mats[0].shape
    for op in mats:
        if op.shape != (d, k):
            raise DimensionError(f"inconsistent Kraus shapes: {op.shape} vs {(d, k)}")
    return MapRep(in_dim=k, out_dim=d, kraus=mats)


def from_choi(j, in_dim: int, out_dim: int) -> MapRep:
    j = as_matrix(j, square=True)
    if j.shape[0] != in_dim * out_dim:
        raise DimensionError(
            f"Choi matrix is {j.shape[0]}x{j.shape[0]}, expected {in_dim * out_dim}"
        )
    return MapRep(in_dim=in_dim, out_dim=out_dim, choi=j)


def from_superop(s, in_dim: int, out_dim: int) -> MapRep:
    s = as_matrix(s)
    if s.shape != (out_dim * out_dim, in_dim * in_dim):
        raise DimensionError(
            f"superoperator is {s.shape}, expected {(out_dim**2, in_dim**2)}"
        )
    return MapRep(in_dim=in_dim, out_dim=out_dim, superop=s)


def identity_map(k: int) -> MapRep:
    return from_kraus([np.eye(k, dtype=np.complex128)])


def choi_matrix(phi: MapRep) -> Matrix:
    """The Choi matrix J = sum_ij E_ij (x) Phi(E_ij) of ``phi``."""
    k, d = phi.in_dim, phi.out_dim
    if phi.choi is not None:
        return phi.choi
    if phi.kraus is not None:
        # J = sum_l w_l w_l* with w_l = vec of K_l^T (index (i, a) -> K_l[a, i])
        w = np.stack([op.T.reshape(-1) for op in phi.kraus])
        return np.einsum("li,lj->ij", w, w.conj())
    s4 = phi.superop.reshape(d, d, k, k)  # [beta, alpha, b, a]
    return np.ascontiguousarray(s4.transpose(3, 1, 2, 0).reshape(k * d, k * d))


def superop_matrix(phi: MapRep) -> Matrix:
    """The superoperator on column-major vectorizations."""
    k, d = phi.in_dim, phi.out_dim
    if phi.superop is not None:
        return phi.superop
    if phi.kraus is not None:
        return sum(np.kron(op.conj(), op) for op in phi.kraus)
    j4 = phi.choi.reshape(k, d, k, d)  # [a, alpha, b, beta]
    return np.ascontiguousarray(j4.transpose(3, 1, 2, 0).reshape(d * d, k * k))


def to_choi(phi: MapRep) -> MapRep:
    return MapRep(in_dim=phi.in_dim, out_dim=phi.out_dim, choi=choi_matrix(phi))


def as_superop(phi: MapRep) -> MapRep:
    return MapRep(in_dim=phi.in_dim, out_dim=phi.out_dim, superop=superop_matrix(phi))


def choi_to_kraus(phi: MapRep, psd_tol: float = CHOI_PSD_TOL, cutoff: float = KRAUS_CUTOFF) -> MapRep:
    """Recover a Kraus family from the Choi matrix.

    Requires the Choi matrix to be PSD within ``psd_tol``: eigenvalues in
    (-psd_tol, 0) are clamped to zero, anything lower is an error.
    Eigenvalues below ``cutoff * ||J||`` are discarded.
    """
    k, d = phi.in_dim, phi.out_dim
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0
    w, vecs = np.linalg.eigh(jh)
    if w[0] < -psd_tol:
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {w[0]:.3e} < -{psd_tol:.0e}; map is not CP"
        )
    w = np.clip(w, 0.0, None)
    keep = w > cutoff * max(float(w[-1]), 1e-300)
    ops = []
    for wl, v in zip(w[keep], vecs[:, keep].T):
        ops.append(np.sqrt(wl) * v.reshape(k, d).T)
    if not ops:  # zero map
        ops = [np.zeros((d, k), dtype=np.complex128)]
    return from_kraus(ops)


def apply(phi: MapRep, x) -> Matrix:
    """Evaluate Phi(X)."""
    x = as_matrix(x, square=True)
    k, d = phi.in_dim, phi.out_dim
    if x.shape != (k, k):
        raise DimensionError(f"input is {x.shape}, map expects {(k, k)}")
    if phi.kraus is not None:
        # [K_1 X ... K_L X] [K_1 ... K_L]*: two GEMMs through the d x Lk stack
        wide = np.concatenate(phi.kraus, axis=1)
        return (wide.reshape(-1, k) @ x).reshape(d, -1) @ dag(wide)
    if phi.choi is not None:
        j4 = phi.choi.reshape(k, d, k, d)
        return np.einsum("ij,iajb->ab", x, j4)
    vec = x.reshape(-1, order="F")
    return (phi.superop @ vec).reshape(d, d, order="F")


def amplify(phi: MapRep, n: int) -> MapRep:
    """The blockwise amplification Phi_n on M_n(M_k) ~ M_{nk}."""
    if n < 1:
        raise ContractError(f"amplification order must be >= 1, got {n}")
    if n == 1:
        return phi
    k, d = phi.in_dim, phi.out_dim
    if phi.kraus is not None:
        eye = np.eye(n, dtype=np.complex128)
        return from_kraus([np.kron(eye, op) for op in phi.kraus])
    s4 = superop_matrix(phi).reshape(d, d, k, k)
    eye = np.eye(n, dtype=np.complex128)
    s_amp = np.einsum("BAba,pP,qQ->qBpAQbPa", s4, eye, eye)
    return from_superop(s_amp.reshape(n * d * n * d, n * k * n * k), n * k, n * d)


def compose(after: MapRep, before: MapRep) -> MapRep:
    """The composition after o before."""
    if before.out_dim != after.in_dim:
        raise DimensionError(
            f"cannot compose: inner dims {before.out_dim} vs {after.in_dim}"
        )
    s = superop_matrix(after) @ superop_matrix(before)
    return from_superop(s, before.in_dim, after.out_dim)


def mix(maps, weights) -> MapRep:
    """Linear combination of maps with the same dimensions (Choi form)."""
    maps = list(maps)
    weights = [float(w) for w in weights]
    if len(maps) != len(weights) or not maps:
        raise ContractError("mix needs equally many maps and weights, at least one")
    k, d = maps[0].in_dim, maps[0].out_dim
    j = np.zeros((k * d, k * d), dtype=np.complex128)
    for phi, w in zip(maps, weights):
        if (phi.in_dim, phi.out_dim) != (k, d):
            raise DimensionError("mixed maps must share dimensions")
        j += w * choi_matrix(phi)
    return from_choi(j, k, d)


def phi_of_identity(phi: MapRep) -> Matrix:
    return apply(phi, np.eye(phi.in_dim, dtype=np.complex128))


def is_unital(phi: MapRep, tol: float = 1e-9) -> bool:
    return operator_norm(phi_of_identity(phi) - np.eye(phi.out_dim)) <= tol


def unitalize(phi: MapRep) -> MapRep:
    """Congruence-rescale so the map sends I to I: X -> S^(-1/2) Phi(X) S^(-1/2).

    Requires S = Phi(I) to be Hermitian positive definite; preserves complete
    positivity (on Kraus maps it acts by K_i -> S^(-1/2) K_i).
    """
    s = phi_of_identity(phi)
    nrm = operator_norm(s)
    if operator_norm(s - dag(s)) > 1e-8 * max(nrm, 1e-300):
        raise UnitalizationError("Phi(I) is not Hermitian; cannot unitalize")
    w, q = np.linalg.eigh((s + dag(s)) / 2.0)
    if w[0] <= 1e-8 * nrm:
        raise UnitalizationError(
            f"Phi(I) is numerically singular (min eigenvalue {w[0]:.3e}); cannot unitalize"
        )
    inv_sqrt = q @ np.diag(1.0 / np.sqrt(w)) @ dag(q)
    if phi.kraus is not None:
        return from_kraus([inv_sqrt @ op for op in phi.kraus])
    k = phi.in_dim
    j = choi_matrix(phi)
    r = np.kron(np.eye(k, dtype=np.complex128), inv_sqrt)
    return from_choi(r @ j @ dag(r), k, phi.out_dim)


# ---------------------------------------------------------------------------
# built-in maps


def transpose_map(k: int) -> MapRep:
    """The transpose on M_k; positive but not 2-positive (its Choi matrix is
    the swap operator)."""
    if k < 2:
        raise ContractError("transpose map needs k >= 2")
    swap = np.zeros((k * k, k * k), dtype=np.complex128)
    for i in range(k):
        for a in range(k):
            swap[i * k + a, a * k + i] = 1.0
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
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    ops = [ginibre(k, rng) for _ in range(kraus_rank)]
    return unitalize(from_kraus(ops))


_BUILTINS = {
    "transpose": lambda **kw: transpose_map(kw["dim"]),
    "choiMap": lambda **kw: choi_map(kw["dim"]),
    "normalizedChoiMap": lambda **kw: normalized_choi_map(kw["dim"]),
    "unitaryConj": lambda **kw: unitary_conj(kw["u"]),
    "randomUnitalCp": lambda **kw: random_unital_cp(kw["dim"], kw["kraus_rank"], kw.get("seed", 0)),
}


def builtin(name: str, **params) -> MapRep:
    """Construct one of the named built-in maps."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ContractError(f"unknown builtin map {name!r}; expected one of {sorted(_BUILTINS)}") from None
    try:
        return factory(**params)
    except KeyError as exc:
        raise ContractError(f"builtin {name!r} is missing parameter {exc}") from None


# ---------------------------------------------------------------------------
# positivity testing


def schmidt_decompose(x, k: int, d: int, max_rank: int | None = None,
                      rel_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt decomposition of x in C^k (x) C^d.

    Returns (a, b) with rows a_r in C^k, b_r in C^d such that
    x = sum_r kron(a_r, b_r); the a_r (and the b_r) are orthogonal.
    """
    m = np.asarray(x, dtype=np.complex128).reshape(k, d)
    u, s, vh = np.linalg.svd(m)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > rel_tol * max(top, 1e-300)))
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
    """<x, J x> with J the (Hermitian part of the) Choi matrix of ``phi``."""
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return float(np.real(np.vdot(x, jh @ x)))


def cp_test(phi: MapRep) -> NPositivityVerdict:
    """Exact complete-positivity test via the Choi spectrum.

    ``certified_cp`` iff the minimal Choi eigenvalue is >= -CHOI_PSD_TOL;
    otherwise the minimal eigenvector (Schmidt-decomposed) is the witness.
    """
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0
    w, vecs = np.linalg.eigh(jh)
    min_eig = float(w[0])
    order = min(phi.in_dim, phi.out_dim)
    if min_eig >= -CHOI_PSD_TOL:
        return NPositivityVerdict(n=order, status=CERTIFIED_CP, min_value_found=min_eig,
                                  witness_a=None, witness_b=None, starts=0)
    a, b = schmidt_decompose(vecs[:, 0], phi.in_dim, phi.out_dim)
    return NPositivityVerdict(n=order, status=CERTIFIED_NOT_N_POSITIVE,
                              min_value_found=min_eig, witness_a=a, witness_b=b, starts=0)


def _orthonormal_columns(m: Matrix) -> Matrix:
    q, _ = np.linalg.qr(m)
    return q


def _minimize_fixed_b(jh: Matrix, k: int, b_frame: Matrix) -> tuple[float, np.ndarray]:
    # x = sum_r a_r (x) b_r with the b_r orthonormal; stacked a-coefficients
    # give a plain Hermitian eigenproblem because the frame columns of T are
    # orthonormal.
    cols = [np.kron(np.eye(k, dtype=np.complex128), b_frame[:, r : r + 1])
            for r in range(b_frame.shape[1])]
    t = np.hstack(cols)
    h = dag(t) @ jh @ t
    w, vecs = np.linalg.eigh((h + dag(h)) / 2.0)
    return float(w[0]), t @ vecs[:, 0]


def _minimize_fixed_a(jh: Matrix, d: int, a_frame: Matrix) -> tuple[float, np.ndarray]:
    cols = [np.kron(a_frame[:, r : r + 1], np.eye(d, dtype=np.complex128))
            for r in range(a_frame.shape[1])]
    t = np.hstack(cols)
    h = dag(t) @ jh @ t
    w, vecs = np.linalg.eigh((h + dag(h)) / 2.0)
    return float(w[0]), t @ vecs[:, 0]


def _alternating_minimum(jh: Matrix, k: int, d: int, n: int,
                         rng: np.random.Generator, max_iters: int) -> tuple[float, np.ndarray]:
    b_frame = _orthonormal_columns(
        rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    )
    q_prev = np.inf
    q, x = _minimize_fixed_b(jh, k, b_frame)
    for _ in range(max_iters):
        m = x.reshape(k, d)
        u, _, _ = np.linalg.svd(m)
        q, x = _minimize_fixed_a(jh, d, u[:, :n])
        m = x.reshape(k, d)
        _, _, vh = np.linalg.svd(m)
        q, x = _minimize_fixed_b(jh, k, vh[:n, :].T)
        if abs(q_prev - q) < 1e-12:
            break
        q_prev = q
    return q, x


def n_positivity_search(phi: MapRep, n: int, starts: int = 50, max_iters: int = 200,
                        seed=0) -> NPositivityVerdict:
    """Minimize <x, J x> over unit vectors of Schmidt rank <= n.

    For n >= min(k, d) the Schmidt constraint is vacuous, n-positivity
    coincides with complete positivity, and the result is the exact Choi
    eigenvalue decision.  Otherwise the minimization runs ``starts``
    alternating-eigenvector descents from seeded random initializations
    (deterministic in (seed, starts) regardless of execution order) and the
    verdict is certified only in the refutation direction.
    """
    if n < 1:
        raise ContractError(f"positivity order must be >= 1, got {n}")
    k, d = phi.in_dim, phi.out_dim
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0

    if n >= min(k, d):
        w, vecs = np.linalg.eigh(jh)
        best_val, best_x = float(w[0]), vecs[:, 0]
        if best_val >= -CHOI_PSD_TOL:
            a, b = schmidt_decompose(best_x, k, d)
            return NPositivityVerdict(n=n, status=CERTIFIED_CP, min_value_found=best_val,
                                      witness_a=a, witness_b=b, starts=starts)
    else:
        seq = np.random.SeedSequence(seed)
        best_val, best_x = np.inf, None
        for child in seq.spawn(starts):
            rng = np.random.default_rng(child)
            val, x = _alternating_minimum(jh, k, d, n, rng, max_iters)
            if val < best_val:
                best_val, best_x = val, x

    a, b = schmidt_decompose(best_x, k, d, max_rank=n)
    x = witness_vector(a, b)
    nrm = np.linalg.norm(x)
    if nrm > 0:
        b = b / nrm
    status = CERTIFIED_NOT_N_POSITIVE if best_val <= -WITNESS_TOL else HEURISTICALLY_N_POSITIVE
    return NPositivityVerdict(n=n, status=status, min_value_found=float(best_val),
                              witness_a=a, witness_b=b, starts=starts)


# ---------------------------------------------------------------------------
# JSON wire format for maps


def map_to_json(phi: MapRep) -> dict:
    """Serialize a map; superoperator-form maps are emitted in Choi form."""
    if phi.kraus is not None:
        return {"kind": "kraus", "ops": [matrix_to_json(op) for op in phi.kraus]}
    return {
        "kind": "choi",
        "inDim": phi.in_dim,
        "outDim": phi.out_dim,
        "matrix": matrix_to_json(choi_matrix(phi)),
    }


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
        return from_choi(matrix_from_json(obj["matrix"]), int(obj["inDim"]), int(obj["outDim"]))
    if kind == "builtin":
        if "name" not in obj or "dim" not in obj:
            raise ContractError("builtin map JSON needs 'name' and 'dim'")
        return builtin(obj["name"], dim=int(obj["dim"]))
    if kind == "unitaryConj":
        if "u" not in obj:
            raise ContractError("unitaryConj map JSON needs 'u'")
        return unitary_conj(matrix_from_json(obj["u"]))
    raise ContractError(f"unknown map kind {kind!r}")
