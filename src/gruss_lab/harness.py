"""Randomized verification harness for the multiplicativity defect bound.

The central quantity is the Gruss-type defect of a map Phi on a pair (A, B),

    defect(Phi, A, B) = || Phi(AB) - Phi(A) Phi(B) ||,

and the central claim checked here is the product bound

    defect(Phi, A, B) <= delta(A) * delta(B)        ("theorem")

for unital n-positive linear maps with n >= 3, where delta is the distance
to the scalars.  Supporting claims get their own checks:

* ``lemma1``    -- Cauchy-Schwarz-type bound ||D||^2 <= ||V_A|| ||V_B|| for
  D = Phi(AB) - Phi(A)Phi(B) and the self-defects V_A = Phi(AA*) - Phi(A)Phi(A)*
  and V_B = Phi(B*B) - Phi(B)*Phi(B), plus positivity of the covariance block
  [[V_A, D], [D*, V_B]] (the operator covariance-variance inequality).
* ``lemma2``    -- variance bound ||Phi(A*A) - Phi(A)*Phi(A)|| <= delta(A)^2
  for unital positive maps and normal A (any A when the map is CP).
* ``corollary`` -- the bound instantiated on the normalized trace-type map
  T -> ((k-1) tr(T) I - T)/(k^2-k-1), which turns it into an explicit
  matrix inequality with constant (k^2-k-1)^2/(k-1)   (k >= 4).

``reproduce_counterexample`` pins down the transpose-map instance showing
the product bound can fail for maps that are merely positive, and
``explore_two_positive`` gathers evidence on the open 2-positive case
without asserting anything about it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import (
    BLOCK_ENTRIES,
    Matrix,
    as_matrix,
    dag,
    ensemble_sample,
    ensemble_stack,
    ginibre,
    matrix_to_json,
    operator_norm,
    operator_norms,
)
from .posmap import (
    CERTIFIED_CP,
    CERTIFIED_NOT_N_POSITIVE,
    MAX_DIM,
    UNITAL_TOL,
    MapRep,
    apply,
    apply_choi_stack,
    choi_kraus_stack,
    cp_test,
    from_choi,
    map_to_json,
    mix_choi_stack,
    n_positivity_search,
    normalized_choi_map,
    transpose_map,
    unital_mask,
    unitalize_kraus_stack,
)
from .scalar_distance import DeltaResult, delta, is_normal
from .unitary_sum import decompose_unitary_sum, rescale_for_decomposition

CHECKS = ("theorem", "lemma1", "lemma2", "corollary")
FAMILIES = ("cp", "choi", "mixed", "positive")

_INPUT_KINDS = ("ginibre", "hermitian", "normal")
_NORMAL_KINDS = ("hermitian", "normal")
_INPUT_NORM_CAP = 10.0


@dataclass(frozen=True, eq=False)
class GrussReport:
    """Defect, bound and margin for a single (map, A, B) instance."""

    defect: float
    delta_a: DeltaResult
    delta_b: DeltaResult
    bound: float
    margin: float
    violated: bool
    phi: MapRep
    a: Matrix
    b: Matrix


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Aggregate of a randomized trial run; deterministic given the seed, no clock."""

    trials: int
    violations: int
    worst_margin: float | None
    worst_instance: dict | None
    seed: int
    check: str
    family: str
    # populated only by the 2-positive explorer / corollary runs
    worst_ratio: float | None = None
    worst_formula_residual: float | None = None


@dataclass(frozen=True)
class CounterexampleReport:
    """The fixed transpose-map instance where the product bound fails."""

    defect: float
    bound: float
    delta_a: float
    delta_b: float
    inequality_fails: bool


def _pair(dim: int, a, b) -> tuple[Matrix, Matrix]:
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if a.shape != b.shape or a.shape[0] != dim:
        raise DimensionError(f"defect needs A, B in M_{dim}; got {a.shape} and {b.shape}")
    return a, b


def _require_viol_tol(viol_tol: float | None) -> None:
    # margin < -nan is always false: a NaN tolerance would hide every violation
    if viol_tol is not None and math.isnan(viol_tol):
        raise ContractError("viol_tol must be a number, got nan")


# ---------------------------------------------------------------------------
# claims
#
# Each claim is one record: the positivity order its maps need, the family
# it draws, the inputs it maps, its evaluation and its worst rule.  Inputs
# and evaluations act on stacks of T trials: A and B as (T, k, k) stacks,
# the images of the inputs under Phi as a (T, S, d, d) stack and each delta
# value as a (T,) array.  The public checks below are the one-trial case of
# the trial engine, which evaluates whole blocks of trials.


def _product_inputs(a, b):
    return np.stack([a @ b, a, b], axis=1)


def _lemma1_inputs(a, b):
    return np.stack([a @ b, a, b, a @ dag(a), dag(b) @ b], axis=1)


def _lemma2_inputs(a, b):
    return np.stack([dag(a) @ a, a], axis=1)


def _defect_matrices(images):
    # Phi(AB) - Phi(A) Phi(B) from the images of [AB, A, B, ...]
    return images[:, 0] - images[:, 1] @ images[:, 2]


def _defects(images):
    return operator_norms(_defect_matrices(images))


def _theorem(images, a, b, deltas, viol_tol):
    da, db = deltas
    defect = _defects(images)
    bound = da * db
    margin = bound - defect
    tol = 1e-8 * (1.0 + bound) if viol_tol is None else viol_tol
    return {"defect": defect, "bound": bound, "margin": margin, "violated": margin < -tol}


def _explore(images, a, b, deltas, viol_tol):
    out = _theorem(images, a, b, deltas, viol_tol)
    defect, bound = out["defect"], out["bound"]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 1e-12, defect / bound,
                         np.where(defect <= 1e-10, 0.0, np.inf))
    # a candidate counterexample, recorded and never raised
    out.update(ratio=ratio, violated=ratio > 1.0 + 1e-6)
    return out


def _lemma1(images, a, b, deltas, viol_tol):
    # the covariance block [[V_A, D], [D*, V_B]] of the pair (A*, B): every
    # admitted map has positive order, so Phi(A*) = Phi(A)*
    p_ab, p_a, p_b, p_aa, p_bb = np.moveaxis(images, 1, 0)
    d = p_ab - p_a @ p_b
    v_a = p_aa - p_a @ dag(p_a)
    v_b = p_bb - dag(p_b) @ p_b
    lhs_squared = operator_norms(d) ** 2
    rhs_product = operator_norms(v_a) * operator_norms(v_b)
    block = np.concatenate([np.concatenate([v_a, d], axis=-1),
                            np.concatenate([dag(d), v_b], axis=-1)], axis=-2)
    block = (block + dag(block)) / 2.0
    block_min_eig = np.linalg.eigvalsh(block)[:, 0]
    cauchy_ok = lhs_squared <= rhs_product + 1e-8 * (1.0 + rhs_product)
    block_ok = block_min_eig >= -1e-8
    return {"lhs_squared": lhs_squared, "rhs_product": rhs_product,
            "block_min_eig": block_min_eig, "cauchy_ok": cauchy_ok, "block_ok": block_ok,
            "margin": np.minimum(rhs_product - lhs_squared, block_min_eig),
            "violated": ~(cauchy_ok & block_ok)}


def _lemma2(images, a, b, deltas, viol_tol):
    (dval,) = deltas
    p_aa, p_a = images[:, 0], images[:, 1]
    lhs = operator_norms(p_aa - dag(p_a) @ p_a)
    bound = dval * dval
    ok = lhs <= bound + 1e-8 * (1.0 + bound)
    return {"lhs": lhs, "delta": dval, "bound": bound, "ok": ok, "margin": bound - lhs,
            "violated": ~ok}


def _corollary(images, a, b, deltas, viol_tol):
    da, db = deltas
    k = a.shape[-1]
    eye = np.eye(k, dtype=np.complex128)
    c = k * k - k - 1
    ab = a @ b
    tr_a, tr_b, tr_ab = np.trace(np.stack([a, b, ab]), axis1=-2, axis2=-1)[..., None, None]
    bracket = c * tr_ab * eye - k * ab - (k - 1) * tr_a * tr_b * eye + tr_b * a + tr_a * b
    lhs = operator_norms(bracket)
    rhs = (c * c / (k - 1.0)) * da * db
    formula_residual = operator_norms((k - 1.0) / (c * c) * bracket - _defect_matrices(images))
    ok = lhs <= rhs + 1e-8 * (1.0 + rhs)
    formula_ok = formula_residual <= 1e-10 * (1.0 + lhs)
    return {"lhs": lhs, "rhs": rhs, "formula_residual": formula_residual, "ok": ok,
            "formula_ok": formula_ok, "margin": rhs - lhs, "violated": ~(ok & formula_ok)}


@dataclass(frozen=True)
class _Claim:
    """One claim as the checks and the trial engine run it."""

    name: str
    #: the positivity order its maps need
    order: int
    #: the (A, B) -> (T, S, k, k) stack of inputs it maps
    inputs: Callable
    #: (images, A, B, delta values, viol_tol) -> dict of (T,) arrays, with
    #: at least "margin" and "violated"
    evaluate: Callable
    #: the families trial t draws from, in turn (None: the suite's family)
    families: tuple[str, ...] | None = None
    #: False for a claim on A alone, which draws no B
    pair: bool = True
    #: whether it needs delta of its inputs (of A and B, or of A alone)
    uses_delta: bool = True
    #: maps that are not CP need a normal A: the engine draws it normal,
    #: check_lemma2 refuses one that is not
    normal_a: bool = False
    #: its worst trial: the smallest "margin" or the largest "ratio"
    worst: str = "margin"


_CLAIMS = {claim.name: claim for claim in (
    _Claim("theorem", 3, _product_inputs, _theorem),
    _Claim("lemma1", 3, _lemma1_inputs, _lemma1, uses_delta=False),
    _Claim("lemma2", 1, _lemma2_inputs, _lemma2, pair=False, normal_a=True),
    _Claim("corollary", 3, _product_inputs, _corollary, families=("choi",)),
    # the explorer alternates the trace-type map itself with its mixtures
    _Claim("explore", 2, _product_inputs, _explore, families=("choi", "mixed"),
           worst="ratio"),
)}


def _images(inputs: np.ndarray, maps: list | np.ndarray, what: str) -> np.ndarray:
    # the (T, S, d, d) images of the inputs under each trial's map, of a list
    # (apply) or a Choi stack (apply_choi_stack).  I is each trial's last
    # input, so the unital check reads Phi(I) from the one images call
    eye = np.broadcast_to(np.eye(inputs.shape[-1], dtype=np.complex128),
                          (len(inputs), 1, *inputs.shape[2:]))
    inputs = np.concatenate([inputs, eye], axis=1)
    if isinstance(maps, list):
        images = np.stack([apply(phi, x) for phi, x in zip(maps, inputs)])
    else:
        images = apply_choi_stack(maps, inputs)
    if not unital_mask(images[:, -1]).all():
        raise ContractError(f"{what} requires a unital map (||Phi(I) - I|| > {UNITAL_TOL:g})")
    return images[:, :-1]


def _check_one(claim: _Claim, phi: MapRep, a: Matrix, b: Matrix | None,
               viol_tol: float | None = None) -> tuple[dict, list]:
    # the claim on one instance, evaluated as a one-trial stack: its values
    # as Python scalars, and delta of its inputs if it uses delta, solved
    # once its one images call has admitted the map
    stacks = (a[None], None if b is None else b[None])
    images = _images(claim.inputs(*stacks), [phi], f"check_{claim.name}")
    found = [delta(x) for x in (a, b) if x is not None] if claim.uses_delta else []
    out = claim.evaluate(images, *stacks, tuple(np.array([r.value]) for r in found), viol_tol)
    return {key: value[0].item() for key, value in out.items()}, found


def gruss_defect(phi: MapRep, a, b) -> float:
    """|| Phi(AB) - Phi(A) Phi(B) ||."""
    a, b = _pair(phi.in_dim, a, b)
    return float(_defects(apply(phi, _product_inputs(a[None], b[None])[0])[None])[0])


def check_theorem(phi: MapRep, a, b, viol_tol: float | None = None) -> GrussReport:
    """Evaluate the product bound defect <= delta(A) delta(B) on one instance.

    The caller is responsible for the positivity order of the map (the bound
    is only claimed for unital n-positive maps with n >= 3); unitality is
    enforced here.  ``viol_tol`` (default 1e-8 (1 + bound)) may be infinite
    or negative, not NaN.
    """
    _require_viol_tol(viol_tol)
    a, b = _pair(phi.in_dim, a, b)
    res, (da, db) = _check_one(_CLAIMS["theorem"], phi, a, b, viol_tol)
    return GrussReport(defect=res["defect"], delta_a=da, delta_b=db, bound=res["bound"],
                       margin=res["margin"], violated=res["violated"], phi=phi, a=a, b=b)


def _is_cp(phi: MapRep) -> bool:
    # Kraus form is CP by construction; a Choi matrix is decided by cp_test
    return phi.kraus is not None or cp_test(phi).status == CERTIFIED_CP


def _admit(claim: _Claim, phi: MapRep, a: Matrix, order: int | None = None) -> bool:
    # the claim's hypotheses on one map, as its record states them: a CP map
    # is admitted at once (returns True); any other needs a caller-known
    # positivity order >= claim.order, and a normal A if asked
    what = f"check_{claim.name}"
    if _is_cp(phi):
        return True
    if claim.order > 1 and (order is None or order < claim.order):
        raise ContractError(f"{what} needs a CP map or a known positivity order "
                            f">= {claim.order}, got {order}")
    if claim.normal_a and not is_normal(a):
        raise ContractError(f"{what} needs a normal A on maps that are not CP")
    return False


def check_lemma1(phi: MapRep, a, b, known_positivity_order: int | None = None) -> dict:
    """Cauchy-Schwarz-type defect bound plus the block covariance matrix.

    Requires a unital map that is CP (Kraus form, or a Choi matrix that
    ``cp_test`` certifies) or known by construction to be at least 3-positive
    (``known_positivity_order``).  Returns the squared cross defect, the
    product of the two self-defects, and the minimal eigenvalue of the 2x2
    block matrix of defects, which must be PSD up to tolerance.
    """
    a, b = _pair(phi.in_dim, a, b)
    claim = _CLAIMS["lemma1"]
    _admit(claim, phi, a, known_positivity_order)
    res, _ = _check_one(claim, phi, a, b)
    return {key: res[key] for key in
            ("lhs_squared", "rhs_product", "block_min_eig", "cauchy_ok", "block_ok")}


def check_lemma2(phi: MapRep, a) -> dict:
    """Variance bound ||Phi(A*A) - Phi(A)*Phi(A)|| <= delta(A)^2.

    Requires a unital map.  The bound holds for any A on a CP map (Kraus
    form, or a Choi matrix ``cp_test`` certifies), and for normal A on a
    merely positive one, whose positivity is spot-checked with a small
    rank-1 witness search (seed 0, 8 starts).
    """
    a = as_matrix(a, square=True)
    if a.shape[0] != phi.in_dim:
        raise DimensionError(f"check_lemma2 needs A in M_{phi.in_dim}; got {a.shape}")
    claim = _CLAIMS["lemma2"]
    if not _admit(claim, phi, a):
        probe = n_positivity_search(phi, 1, starts=8, seed=0)
        if probe.status == CERTIFIED_NOT_N_POSITIVE:
            raise ContractError(
                f"map is not positive (rank-1 witness value {probe.min_value_found:.3e})"
            )
    res, _ = _check_one(claim, phi, a, None)
    return {key: res[key] for key in ("lhs", "delta", "bound", "ok")}


def reproduce_counterexample() -> CounterexampleReport:
    """Fixed instance: the transpose on M_2 with a specific positive pair.

    A = [[1, 2], [2, 4]] and B = diag(1, 4) give defect exactly 6 while
    delta(A) * delta(B) = 2.5 * 1.5 = 3.75, so the product bound fails for
    this merely positive (not 2-positive) unital map.  Deterministic: no
    randomness anywhere on this path.
    """
    a = as_matrix([[1.0, 2.0], [2.0, 4.0]])
    b = as_matrix([[1.0, 0.0], [0.0, 4.0]])
    phi = transpose_map(2)
    defect = gruss_defect(phi, a, b)
    da = delta(a, "disk").value
    db = delta(b, "disk").value
    bound = da * db
    return CounterexampleReport(defect=float(defect), bound=float(bound),
                                delta_a=float(da), delta_b=float(db),
                                inequality_fails=bool(defect > bound))


def check_corollary(k: int, a, b) -> dict:
    """Explicit matrix inequality induced by the normalized trace-type map.

    lhs = ||(k^2-k-1) tr(AB) I - k AB - (k-1) tr(A) tr(B) I
            + tr(B) A + tr(A) B||
    rhs = (k^2-k-1)^2/(k-1) * delta(A) * delta(B)

    and the bracket identity: (k-1)/(k^2-k-1)^2 times the bracketed matrix
    equals Phi(AB) - Phi(A)Phi(B) for Phi = normalized_choi_map(k).  Needs
    k >= 4 so the map is at least 3-positive, and k <= MAX_DIM.
    """
    claim = _CLAIMS["corollary"]
    _require_order("check_corollary", claim, claim.families, (k,))
    if k > MAX_DIM:
        raise ContractError(f"check_corollary needs k <= MAX_DIM = {MAX_DIM}, got {k}")
    a, b = _pair(k, a, b)
    phi = normalized_choi_map(k)
    res, _ = _check_one(claim, phi, a, b)
    return {key: res[key] for key in ("lhs", "rhs", "formula_residual", "ok", "formula_ok")}


def proof_chain(phi: MapRep, a, b, m: int) -> dict:
    """Numerically follow the averaging argument that removes normality.

    Writes A = (M/m) * sum_j U_j with M = (m^2+2)/(m^2-2m) ||A|| and the U_j
    unitary, then checks each link of

        defect(Phi, A, B) <= (M/m) sum_j defect(Phi, U_j, B)
                          <= (m^2+2)/(m^2-2m) ||A|| ||B||

    (each unitary term is bounded by ||U_j|| ||B|| = ||B||), plus the weaker
    bound defect <= ||A|| ||B||.  Requires a unital CP map, A != 0, normal B
    and m >= 3.
    """
    if m < 3:
        raise ContractError(f"proof_chain needs m >= 3, got {m}")
    a, b = _pair(phi.in_dim, a, b)
    if not is_normal(b):
        raise ContractError("proof_chain needs a normal B")
    if not _is_cp(phi):
        raise ContractError("proof_chain needs a CP map")

    scaled, big_m = rescale_for_decomposition(a, m)
    dec = decompose_unitary_sum(scaled, m, mode="strict")
    mean = sum(dec.unitaries) / m
    reconstruction = operator_norm(big_m * mean - a)

    norm_a, norm_b = operator_norm(a), operator_norm(b)
    # (A, B) and every (U_j, B) as one instance's 3(m + 1) product inputs
    lefts = np.concatenate([a[None], dec.unitaries])
    inputs = _product_inputs(lefts, np.broadcast_to(b, lefts.shape))
    images = _images(inputs.reshape(1, -1, *a.shape), [phi], "proof_chain")
    defect, *unitary_defects = _defects(images.reshape(m + 1, 3, *images.shape[-2:]))
    sum_bound = (big_m / m) * float(np.sum(unitary_defects))
    final_bound = (m * m + 2.0) / (m * m - 2.0 * m) * norm_a * norm_b

    return {
        "m": m,
        "big_m": float(big_m),
        "defect": float(defect),
        "reconstruction_residual": float(reconstruction),
        "unitary_defects": [float(v) for v in unitary_defects],
        "sum_bound": float(sum_bound),
        "final_bound": float(final_bound),
        "link_defect_le_sum": bool(defect <= sum_bound + 1e-8 * (1.0 + sum_bound)),
        "link_terms_le_normb": bool(all(v <= norm_b + 1e-8 for v in unitary_defects)),
        "link_sum_le_final": bool(sum_bound <= final_bound + 1e-8 * (1.0 + final_bound)),
        "final_bound_formula_residual": float(abs((big_m / m) * m * norm_b - final_bound)),
        "nov_ok": bool(defect <= norm_a * norm_b + 1e-8),
    }


# ---------------------------------------------------------------------------
# randomized trial machinery
#
# Every randomized suite runs one claim through one driver.  Trial t draws
# its random numbers from its own (seed, t) generator, so any trial can be
# drawn again on its own.  Trials run in blocks, each trial drawn once: the
# driver folds each block's dimension groups into the summary as they come,
# keeping the worst trial's row to report it.  Within a block, the random
# numbers are drawn trial by trial; the maps, the inputs, the unitality
# check, Phi and the norms are built per dimension, as stacked
# kernels.  Random Kraus families, CP by construction, are unitalized as one
# stack per Kraus rank; the cp family's Kraus-form maps are applied map by
# map, and only the CP parts of the mixed and positive maps become Choi
# matrices.
# Phi runs in ``_images``, as for the public checks: one call maps each
# trial's inputs and I, and rejects a map that is not unital.  delta is the
# per-trial step, the only one the thread pool runs.


def _thread_count() -> int:
    # capped at the core count: the pool may start a thread per trial
    raw = os.environ.get("GRUSS_LAB_THREADS", "0")
    try:
        return min(max(0, int(raw)), os.cpu_count() or 1)
    except ValueError:
        return 0


def _map_over_trials(fn, trials: int, threads: int) -> list:
    if threads > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


def _trial_rng(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), int(index)])


@dataclass(frozen=True)
class _Draw:
    """A trial's random numbers, before anything is built from them."""

    dim: int
    family: str
    #: the trace-type map's weight in a mixture
    weight: float | None
    #: the Ginibre Kraus family of the random CP map, not yet unitalized
    kraus: np.ndarray | None
    #: positive family: compose(cp, transpose) rather than compose(transpose, cp)
    flip: bool
    #: the ensemble_sample of A and of B
    a: tuple
    b: tuple | None


def _draw(claim: _Claim, families: tuple, dims: tuple, seed: int, t: int) -> _Draw:
    """Trial t's random numbers from its own (seed, t) generator: the map's,
    then A's, then B's (none for a claim on A alone)."""
    rng = _trial_rng(seed, t)
    dim = dims[t % len(dims)]
    family = families[t % len(families)]
    weight = float(rng.uniform(0.0, 1.0)) if family == "mixed" else None
    kraus = None
    if family != "choi":
        kraus = ginibre(dim, rng, (int(rng.integers(1, dim * dim + 1)),))
    flip = bool(family == "positive" and rng.integers(2) != 0)
    if claim.normal_a and family != "cp":
        kind_a = _NORMAL_KINDS[t % 2]
    else:
        kind_a = _INPUT_KINDS[t % 3]
    a = ensemble_sample(kind_a, dim, rng)
    b = ensemble_sample(_INPUT_KINDS[(t // 3) % 3], dim, rng) if claim.pair else None
    return _Draw(dim, family, weight, kraus, flip, a, b)


def _inputs(samples: list) -> np.ndarray:
    """The (T, k, k) stack of drawn inputs: the matrices of their samples,
    each scaled down to norm _INPUT_NORM_CAP where it is larger."""
    x = ensemble_stack(samples)
    nrm = operator_norms(x)
    big = nrm > _INPUT_NORM_CAP
    x[big] = x[big] * (_INPUT_NORM_CAP / nrm[big])[:, None, None]
    return x


def _fixed_maps(families: tuple, dims: tuple) -> dict:
    # the trace-type map's Choi matrix, reshaped (k, k, k, k), by dimension:
    # every choi and mixed trial of a dimension shares it, built once per suite
    if not set(families) & {"choi", "mixed"}:
        return {}
    return {d: normalized_choi_map(d).choi.reshape(d, d, d, d) for d in set(dims)}


def _choi_maps(draws: list, fixed: dict) -> np.ndarray:
    """The (T, k, k, k, k) stack of the drawn maps' Choi matrices: the
    trace-type map, its mixtures with a random unital CP map, or that CP map
    composed with the transpose (before or after it)."""
    dim = draws[0].dim
    families = np.array([dr.family for dr in draws])
    j4 = np.empty((len(draws), dim, dim, dim, dim), dtype=np.complex128)
    trace = fixed.get(dim)
    if trace is not None:
        j4[families == "choi"] = trace
    rows = np.flatnonzero(families != "choi")
    if rows.size:
        # the random unital CP map that random_unital_cp builds from the
        # drawn Kraus family, in Choi form
        cp = choi_kraus_stack(unitalize_kraus_stack([draws[i].kraus for i in rows]))
        mixed = families[rows] == "mixed"
        if mixed.any():
            w = np.array([draws[i].weight for i in rows[mixed]])
            j = mix_choi_stack([trace.reshape(dim * dim, dim * dim), cp[mixed]], [w, 1.0 - w])
            j4[rows[mixed]] = j.reshape(-1, dim, dim, dim, dim)
        cp = cp.reshape(-1, dim, dim, dim, dim)
        positive = families[rows] == "positive"
        flip = np.array([draws[i].flip for i in rows])
        # the transpose's Choi matrix is the swap, so composing with it
        # permutes the CP map's Choi indices (i, a, j, b)
        after = positive & ~flip  # compose(transpose, cp): J_cp[i, b, j, a]
        j4[rows[after]] = cp[after].transpose(0, 1, 4, 3, 2)
        before = positive & flip  # compose(cp, transpose): J_cp[j, a, i, b]
        j4[rows[before]] = cp[before].transpose(0, 3, 2, 1, 4)
    return j4


@dataclass(frozen=True)
class _Group:
    """The trials of one block at one dimension, as stacks."""

    #: their trial indices, ascending
    trials: list
    a: np.ndarray
    b: np.ndarray | None
    #: the (T, S, d, d) images of the inputs
    images: np.ndarray
    #: the maps: Kraus-form maps, one per trial, or a (T, k, k, k, k) stack
    #: of Choi matrices
    maps: list | np.ndarray

    def map(self, i: int) -> MapRep:
        if isinstance(self.maps, list):
            return self.maps[i]
        # from_choi copies: the driver keeps the worst trial's map, not the stack
        k = self.maps.shape[1]
        return from_choi(self.maps[i].reshape(k * k, k * k), k, k)


def _group(claim: _Claim, draws: list, trials: list, fixed: dict) -> _Group:
    # the stacks of drawn trials at one dimension; its draws share a map
    # form, Kraus (the cp family) or Choi.  A claim needing a normal A on
    # maps that are not CP draws A normal (Hermitian or Q diag(z) Q*)
    a = _inputs([dr.a for dr in draws])
    b = _inputs([dr.b for dr in draws]) if claim.pair else None
    cp = draws[0].family == "cp"
    maps = unitalize_kraus_stack([dr.kraus for dr in draws]) if cp else _choi_maps(draws, fixed)
    return _Group(trials, a, b, _images(claim.inputs(a, b), maps, f"check {claim.name!r}"), maps)


def _run_block(claim: _Claim, families: tuple, dims: tuple, fixed: dict, seed: int, ts,
               viol_tol: float | None) -> list:
    """Trials ``ts`` as one block: a (group, evaluations) pair per dimension,
    the evaluations arrays in the order of the group's trials.  The trials
    are drawn and built here; the per-trial step, delta of a trial's inputs,
    runs through one ``_map_over_trials`` call, one step per trial, group
    by group."""
    by_dim = {}
    for t in ts:
        by_dim.setdefault(dims[t % len(dims)], []).append(t)
    groups = [_group(claim, [_draw(claim, families, dims, seed, t) for t in trials], trials,
                     fixed) for trials in by_dim.values()]
    # each trial's delta inputs: A and B, A alone, or none
    inputs = [[x[i] for x in (group.a, group.b) if x is not None and claim.uses_delta]
              for group in groups for i in range(len(group.trials))]
    steps = iter(_map_over_trials(lambda n: tuple(delta(x).value for x in inputs[n]),
                                  len(inputs), _thread_count()))
    out = []
    for group in groups:
        deltas = tuple(np.array(values) for values in zip(*(next(steps) for _ in group.trials)))
        out.append((group, claim.evaluate(group.images, group.a, group.b, deltas, viol_tol)))
    return out


def _validate_trial_config(claim: _Claim, families: tuple, dims: tuple, trials: int,
                           viol_tol: float | None) -> None:
    if not dims or any(d < 2 for d in dims):
        raise ContractError(f"dims must all be >= 2, got {list(dims)}")
    if any(d > MAX_DIM for d in dims):
        raise ContractError(f"dims must all be <= MAX_DIM = {MAX_DIM}, got {list(dims)}")
    _require_order(f"check {claim.name!r}", claim, families, dims)
    if viol_tol is not None and claim.name != "theorem":
        raise ContractError(f"viol_tol applies to check 'theorem' only, not {claim.name!r}")
    _require_viol_tol(viol_tol)
    if trials < 0:
        raise ContractError(f"trials must be >= 0, got {trials}")


def _require_order(what: str, claim: _Claim, families: tuple, dims) -> None:
    # every family drawn must have the claim's positivity order at every dim
    for drawn in families:
        bad = [d for d in dims if _known_order(drawn, d) < claim.order]
        if bad:
            raise ContractError(f"{what} needs positivity order >= {claim.order}; family "
                                f"{drawn!r} has a lower order at dims {bad}")


def _known_order(family: str, dim: int) -> float:
    # positivity orders guaranteed by construction; mixtures inherit the
    # minimum order of their components.  The cp family's Kraus-form maps
    # are CP by construction, infinite order.
    if family == "cp":
        return math.inf
    if family in ("choi", "mixed"):
        return dim - 1
    return 1


#: trials run as one block at most this many at a time, and fewer where
#: trials * dimension**4, the complex entries of a block's Choi matrices or
#: full-rank Kraus families, would pass ``linalg.BLOCK_ENTRIES``; bounds
#: memory, not results
TRIAL_BLOCK = 64


def _run_suite(check: str, family: str, dims: tuple, trials: int, seed: int,
               viol_tol: float | None = None) -> TrialSummary:
    # The one trial driver: trial t is the claim's check of draw t, run in
    # blocks.  The driver keeps the worst trial's row (smallest margin;
    # largest ratio for the explorer): its map, A and B, from which the
    # claim's one-instance check builds the report's worstInstance.
    claim = _CLAIMS[check]
    families = claim.families or (family,)  # drawn in turn, trial by trial
    _validate_trial_config(claim, families, dims, trials, viol_tol)
    fixed = _fixed_maps(families, dims)
    block = max(1, min(TRIAL_BLOCK, BLOCK_ENTRIES // max(dims) ** 4))
    by_ratio = claim.worst == "ratio"
    pick = np.argmax if by_ratio else np.argmin

    violations, margin, formula, kept = 0, np.inf, None, None
    for lo in range(0, trials, block):
        for group, out in _run_block(claim, families, dims, fixed, seed,
                                     range(lo, min(lo + block, trials)), viol_tol):
            violations += int(np.count_nonzero(out["violated"]))
            margin = np.minimum(margin, np.min(out["margin"]))
            if "formula_residual" in out:
                residual = np.max(out["formula_residual"] / (1.0 + out["lhs"]))
                formula = residual if formula is None else np.maximum(formula, residual)
            i = int(pick(out[claim.worst]))
            t, value = group.trials[i], out[claim.worst][i]
            # groups come dimension by dimension, so a later group may hold
            # lower trial indices.  pick sees the kept row and this one in
            # trial order: this one replaces it when strictly worse, or when
            # equal at a lower trial index, the tie rule of pick over all rows
            later = kept is not None and t > kept[0]
            if kept is None or pick([kept[1], value] if later else [value, kept[1]]) == int(later):
                kept = (t, value, group.map(i), group.a[i].copy(),
                        None if group.b is None else group.b[i].copy())

    worst_margin = worst_instance = None
    worst_ratio = 0.0 if by_ratio else None
    worst_formula = None if formula is None else float(formula)
    if kept is not None:
        worst, value, phi, a, b = kept
        worst_margin = float(margin)
        res, _ = _check_one(claim, phi, a, b, viol_tol)
        worst_instance = {"trialIndex": worst, "dim": dims[worst % len(dims)],
                          "map": map_to_json(phi), "a": matrix_to_json(a),
                          "b": None if b is None else matrix_to_json(b)}
        if by_ratio:
            worst_instance.update({key: res[key] for key in ("defect", "bound", "ratio")})
            worst_ratio = float(value)
        else:
            worst_instance["margin"] = res["margin"]
    # the one family drawn; a claim drawing several reports the suite's label
    return TrialSummary(trials=trials, violations=violations,
                        worst_margin=worst_margin, worst_instance=worst_instance,
                        seed=seed, check=check,
                        family=families[0] if len(families) == 1 else family,
                        worst_ratio=worst_ratio, worst_formula_residual=worst_formula)


def run_trials(check: str, family: str = "cp", dims=(2, 3, 4), trials: int = 100,
               seed: int = 0, viol_tol: float | None = None) -> TrialSummary:
    """Run seeded randomized trials of one check and aggregate violations.

    Each trial derives its own generator from (seed, trial index), so the
    aggregate is deterministic and independent of the execution order, of
    the block size (``TRIAL_BLOCK``) and of the thread count, which comes
    from GRUSS_LAB_THREADS (0 or 1 means sequential; capped at the core
    count).  The worst instance is the first trial of smallest margin.
    ``viol_tol`` is for ``theorem`` only (see ``check_theorem``).
    """
    if check not in CHECKS:
        raise ContractError(f"unknown check {check!r}; expected one of {CHECKS}")
    if family not in FAMILIES:
        raise ContractError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _run_suite(check, family, tuple(int(d) for d in dims), trials, seed, viol_tol)


def explore_two_positive(trials: int, seed: int = 0, k: int = 3) -> TrialSummary:
    """Probe the open question: does the product bound hold for 2-positive maps?

    Uses the normalized trace-type map on M_k (unital, (k-1)-positive, not
    k-positive; 2-positive and not 3-positive at k = 3) on even trials and
    unital convex mixtures of it with random CP maps on odd trials, run by
    the same driver as ``run_trials``.  A defect/bound ratio above 1 + 1e-6
    is counted as a candidate counterexample, never raised as an error:
    this is evidence gathering, not a verdict.  The worst instance is the
    trial of largest ratio; ``worst_margin`` is the smallest bound - defect.
    """
    return _run_suite("explore", "two-positive", (int(k),), trials, seed)
