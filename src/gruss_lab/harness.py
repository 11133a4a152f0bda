"""Randomized verification harness for the multiplicativity defect bound.

The central quantity is the Gruss-type defect of a map Phi on a pair (A, B),

    defect(Phi, A, B) = || Phi(AB) - Phi(A) Phi(B) ||,

and the central claim checked here is the product bound

    defect(Phi, A, B) <= delta(A) * delta(B)        ("theorem")

for unital n-positive linear maps with n >= 3, where delta is the distance
to the scalars.  Supporting claims get their own checks:

* ``lemma1``    -- Cauchy-Schwarz-type bound: defect^2 is at most the product
  of the two self-defects ||Phi(AA*) - Phi(A)Phi(A)*|| and
  ||Phi(B*B) - Phi(B)*Phi(B)||, plus positivity of the 2x2 block matrix of
  defects (the operator covariance-variance inequality).
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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .linalg import (
    Matrix,
    as_matrix,
    dag,
    matrix_to_json,
    operator_norm,
    random_ensemble,
)
from .posmap import (
    CERTIFIED_CP,
    CERTIFIED_NOT_N_POSITIVE,
    MapRep,
    apply,
    compose,
    cp_test,
    is_unital,
    map_to_json,
    mix,
    n_positivity_search,
    normalized_choi_map,
    random_unital_cp,
    transpose_map,
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
    """Aggregate of a randomized trial run; deterministic given the seed."""

    trials: int
    violations: int
    worst_margin: float | None
    worst_instance: dict | None
    seed: int
    wall_time_ms: float
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


def _pair(phi: MapRep, a, b) -> tuple[Matrix, Matrix]:
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if a.shape != b.shape or a.shape[0] != phi.in_dim:
        raise DimensionError(
            f"defect needs A, B in M_{phi.in_dim}; got {a.shape} and {b.shape}"
        )
    return a, b


def gruss_defect(phi: MapRep, a, b) -> float:
    """|| Phi(AB) - Phi(A) Phi(B) ||."""
    a, b = _pair(phi, a, b)
    p_ab, p_a, p_b = apply(phi, np.stack([a @ b, a, b]))
    return operator_norm(p_ab - p_a @ p_b)


def _require_unital(phi: MapRep, what: str) -> None:
    if not is_unital(phi):
        raise ContractError(f"{what} requires a unital map (||Phi(I) - I|| > 1e-9)")


def _require_viol_tol(viol_tol: float | None) -> None:
    # margin < -nan is always false: a NaN tolerance would hide every violation
    if viol_tol is not None and math.isnan(viol_tol):
        raise ContractError("viol_tol must be a number, got nan")


def check_theorem(phi: MapRep, a, b, viol_tol: float | None = None) -> GrussReport:
    """Evaluate the product bound defect <= delta(A) delta(B) on one instance.

    The caller is responsible for the positivity order of the map (the bound
    is only claimed for unital n-positive maps with n >= 3); unitality is
    enforced here.  ``viol_tol`` (default 1e-8 (1 + bound)) may be infinite
    or negative, not NaN.
    """
    _require_unital(phi, "check_theorem")
    _require_viol_tol(viol_tol)
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    da = delta(a)
    db = delta(b)
    bound = da.value * db.value
    defect = gruss_defect(phi, a, b)
    margin = bound - defect
    tol = 1e-8 * (1.0 + bound) if viol_tol is None else viol_tol
    return GrussReport(defect=defect, delta_a=da, delta_b=db, bound=bound,
                       margin=margin, violated=bool(margin < -tol),
                       phi=phi, a=a, b=b)


def check_lemma1(phi: MapRep, a, b, known_positivity_order: int | None = None) -> dict:
    """Cauchy-Schwarz-type defect bound plus the block covariance matrix.

    Requires a unital map that is CP (certified via the Choi spectrum) or
    known by construction to be at least 3-positive
    (``known_positivity_order``).  Returns the squared cross defect, the
    product of the two self-defects, and the minimal eigenvalue of the 2x2
    block matrix of defects, which must be PSD up to tolerance.
    """
    _require_unital(phi, "check_lemma1")
    if known_positivity_order is None:
        if cp_test(phi).status != CERTIFIED_CP:
            raise ContractError(
                "check_lemma1 needs a CP map or an explicit known_positivity_order >= 3"
            )
    elif known_positivity_order < 3:
        raise ContractError("check_lemma1 needs positivity order >= 3")

    a, b = _pair(phi, a, b)
    a_dag, b_dag = dag(a), dag(b)
    p_ab, p_a, p_b, p_aa, p_bb, p_ad, p_ba = apply(phi, np.stack(
        [a @ b, a, b, a @ a_dag, b_dag @ b, a_dag, b_dag @ a_dag]))
    lhs_squared = operator_norm(p_ab - p_a @ p_b) ** 2
    self_a = operator_norm(p_aa - p_a @ dag(p_a))
    self_b = operator_norm(p_bb - dag(p_b) @ p_b)
    rhs_product = self_a * self_b

    # block covariance matrix for the pair (X, Y) = (A*, B), with Phi(X) = p_ad
    bxx = p_aa - dag(p_ad) @ p_ad
    bxy = p_ab - dag(p_ad) @ p_b
    byx = p_ba - dag(p_b) @ p_ad
    byy = p_bb - dag(p_b) @ p_b
    block = np.block([[bxx, bxy], [byx, byy]])
    block = (block + dag(block)) / 2.0
    block_min_eig = float(np.linalg.eigvalsh(block)[0])

    return {
        "lhs_squared": float(lhs_squared),
        "rhs_product": float(rhs_product),
        "block_min_eig": block_min_eig,
        "cauchy_ok": bool(lhs_squared <= rhs_product + 1e-8 * (1.0 + rhs_product)),
        "block_ok": bool(block_min_eig >= -1e-8),
    }


def check_lemma2(phi: MapRep, a, require_normal: bool = True,
                 known_positive: bool = False, seed=0) -> dict:
    """Variance bound ||Phi(A*A) - Phi(A)*Phi(A)|| <= delta(A)^2.

    For merely positive unital maps the bound is claimed for normal A only
    (``require_normal=True``); dropping normality is allowed only when the
    map is certified CP.  Positivity of the map is spot-checked with a small
    rank-1 witness search unless ``known_positive`` says the caller already
    guarantees it (e.g. the map is a composition of positive maps).
    """
    _require_unital(phi, "check_lemma2")
    a = as_matrix(a, square=True)
    if require_normal:
        if not is_normal(a):
            raise ContractError("check_lemma2 with require_normal=True needs a normal A")
    else:
        if cp_test(phi).status != CERTIFIED_CP:
            raise ContractError(
                "check_lemma2 may drop the normality hypothesis only for certified CP maps"
            )
    if not known_positive:
        probe = n_positivity_search(phi, 1, starts=8, max_iters=60, seed=seed)
        if probe.status == CERTIFIED_NOT_N_POSITIVE:
            raise ContractError(
                f"map is not positive (rank-1 witness value {probe.min_value_found:.3e})"
            )
    p_aa, p_a = apply(phi, np.stack([dag(a) @ a, a]))
    lhs = operator_norm(p_aa - dag(p_a) @ p_a)
    dval = delta(a).value
    bound = dval * dval
    return {
        "lhs": float(lhs),
        "delta": float(dval),
        "bound": float(bound),
        "ok": bool(lhs <= bound + 1e-8 * (1.0 + bound)),
    }


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


def check_corollary(k: int, a, b, trace: MapRep | None = None) -> dict:
    """Explicit matrix inequality induced by the normalized trace-type map.

    lhs = ||(k^2-k-1) tr(AB) I - k AB - (k-1) tr(A) tr(B) I
            + tr(B) A + tr(A) B||
    rhs = (k^2-k-1)^2/(k-1) * delta(A) * delta(B)

    and the bracket identity: (k-1)/(k^2-k-1)^2 times the bracketed matrix
    equals Phi(AB) - Phi(A)Phi(B) for Phi = normalized_choi_map(k), which
    is built here unless the caller passes it as ``trace``.  Needs k >= 4 so
    the map is at least 3-positive.
    """
    if k < 4:
        raise ContractError(f"corollary check needs k >= 4 (map must be 3-positive), got {k}")
    phi = normalized_choi_map(k) if trace is None else trace
    a, b = _pair(phi, a, b)
    eye = np.eye(k, dtype=np.complex128)
    c = k * k - k - 1
    tr_a, tr_b = np.trace(a), np.trace(b)
    bracket = (c * np.trace(a @ b) * eye - k * (a @ b)
               - (k - 1) * tr_a * tr_b * eye + tr_b * a + tr_a * b)
    lhs = operator_norm(bracket)
    da = delta(a).value
    db = delta(b).value
    rhs = (c * c / (k - 1.0)) * da * db

    p_ab, p_a, p_b = apply(phi, np.stack([a @ b, a, b]))
    map_defect = p_ab - p_a @ p_b
    formula_residual = operator_norm((k - 1.0) / (c * c) * bracket - map_defect)
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "formula_residual": float(formula_residual),
        "ok": bool(lhs <= rhs + 1e-8 * (1.0 + rhs)),
        "formula_ok": bool(formula_residual <= 1e-10 * (1.0 + lhs)),
    }


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
    a = as_matrix(a, square=True)
    b = as_matrix(b, square=True)
    if not is_normal(b):
        raise ContractError("proof_chain needs a normal B")
    _require_unital(phi, "proof_chain")
    if cp_test(phi).status != CERTIFIED_CP:
        raise ContractError("proof_chain needs a certified CP map")

    scaled, big_m = rescale_for_decomposition(a, m)
    dec = decompose_unitary_sum(scaled, m, mode="strict")
    mean = sum(dec.unitaries) / m
    reconstruction = operator_norm(big_m * mean - a)

    norm_a, norm_b = operator_norm(a), operator_norm(b)
    defect = gruss_defect(phi, a, b)
    unitary_defects = [gruss_defect(phi, u, b) for u in dec.unitaries]
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
# Every randomized suite is a draw plus a check, run by one driver.  Trial t
# draws (dim, Phi, A, B) from its own (seed, t) generator, so a trial can be
# drawn again on its own: the driver replays the worst trial to report it.


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


def _draw_input(kind: str, dim: int, rng: np.random.Generator) -> Matrix:
    a = random_ensemble(kind, dim, rng)
    nrm = operator_norm(a)
    if nrm > _INPUT_NORM_CAP:
        a = a * (_INPUT_NORM_CAP / nrm)
    return a


def _draw_cp(dim: int, rng: np.random.Generator) -> MapRep:
    rank = int(rng.integers(1, dim * dim + 1))
    return random_unital_cp(dim, rank, rng)


def _draw_map(family: str, dim: int, rng: np.random.Generator, trace: MapRep | None) -> MapRep:
    # ``trace`` is the suite's normalized_choi_map(dim), built once per suite
    if family == "cp":
        return _draw_cp(dim, rng)
    if family == "choi":
        return trace
    if family == "mixed":
        w = float(rng.uniform(0.0, 1.0))
        return mix([trace, _draw_cp(dim, rng)], [w, 1.0 - w])
    if family == "positive":
        # composition of positive maps: transpose with a random unital CP
        # map, already unital (to about 1e-14) since both factors are
        cp = _draw_cp(dim, rng)
        t = transpose_map(dim)
        return compose(t, cp) if rng.integers(2) == 0 else compose(cp, t)
    raise ContractError(f"unknown trial family {family!r}")


def _trace_maps(check: str, family: str, dims: tuple) -> dict:
    # the trace-type map of each dimension, for the suites that use it
    if check in ("corollary", "explore") or family in ("choi", "mixed"):
        return {d: normalized_choi_map(d) for d in set(dims)}
    return {}


def _draw_trial(check: str, family: str, dims: tuple, trace: dict, seed: int, t: int):
    """Trial t's (dim, Phi, A, B), drawn from its own (seed, t) generator.

    The explorer alternates the ``choi`` draw, the trace-type map itself
    (even t), with the ``mixed`` draw (odd t); the corollary always takes
    the ``choi`` draw, whatever the suite's family.
    """
    rng = _trial_rng(seed, t)
    dim = dims[t % len(dims)]
    if check == "explore":
        family = ("choi", "mixed")[t % 2]
    elif check == "corollary":
        family = "choi"
    phi = _draw_map(family, dim, rng, trace.get(dim))

    if check == "lemma2" and family != "cp":
        kind_a = _NORMAL_KINDS[t % 2]
    else:
        kind_a = _INPUT_KINDS[t % 3]
    kind_b = _INPUT_KINDS[(t // 3) % 3]
    a = _draw_input(kind_a, dim, rng)
    b = _draw_input(kind_b, dim, rng)
    return dim, phi, a, b


def _validate_trial_config(check: str, family: str, dims, viol_tol: float | None) -> None:
    if check not in CHECKS:
        raise ContractError(f"unknown check {check!r}; expected one of {CHECKS}")
    if family not in FAMILIES:
        raise ContractError(f"unknown family {family!r}; expected one of {FAMILIES}")
    dims = list(dims)
    if not dims or any(int(d) < 2 for d in dims):
        raise ContractError(f"dims must all be >= 2, got {dims}")
    # every claim but lemma2's needs positivity order >= 3 (None = CP counts
    # as infinite); the corollary draws the trace-type map whatever the family
    drawn = "choi" if check == "corollary" else family
    bad = [d for d in dims if (_known_order(drawn, d) or math.inf) < 3]
    if check != "lemma2" and bad:
        raise ContractError(f"check {check!r} needs positivity order >= 3; family "
                            f"{drawn!r} has a lower order at dims {bad}")
    if viol_tol is not None and check != "theorem":
        raise ContractError(f"viol_tol applies to check 'theorem' only, not {check!r}")
    _require_viol_tol(viol_tol)


def _known_order(family: str, dim: int) -> int | None:
    # positivity orders guaranteed by construction; mixtures inherit the
    # minimum order of their components.  None = CP, certified via the Choi
    # spectrum inside the check.
    if family == "cp":
        return None
    if family in ("choi", "mixed"):
        return dim - 1
    return 1


def _check_trial(check: str, family: str, viol_tol: float | None, dim: int,
                 phi: MapRep, a: Matrix, b: Matrix) -> tuple[float, bool, dict]:
    """(margin, violated, kept): ``kept`` holds the extra values the report
    keeps, the formula residual for ``corollary`` and defect, bound and
    ratio for ``explore``."""
    if check == "explore":
        defect = gruss_defect(phi, a, b)
        bound = delta(a).value * delta(b).value
        if bound > 1e-12:
            ratio = defect / bound
        else:
            ratio = 0.0 if defect <= 1e-10 else float("inf")
        # a candidate counterexample, recorded and never raised
        return (float(bound - defect), bool(ratio > 1.0 + 1e-6),
                {"defect": float(defect), "bound": float(bound), "ratio": float(ratio)})
    if check == "theorem":
        rep = check_theorem(phi, a, b, viol_tol=viol_tol)
        return float(rep.margin), bool(rep.violated), {}
    if check == "lemma1":
        res = check_lemma1(phi, a, b, known_positivity_order=_known_order(family, dim))
        margin = min(res["rhs_product"] - res["lhs_squared"], res["block_min_eig"])
        return float(margin), not (res["cauchy_ok"] and res["block_ok"]), {}
    if check == "lemma2":
        res = check_lemma2(phi, a, require_normal=(family != "cp"), known_positive=True)
        return float(res["bound"] - res["lhs"]), not res["ok"], {}
    res = check_corollary(dim, a, b, trace=phi)  # the corollary draws the trace map
    return (float(res["rhs"] - res["lhs"]), not (res["ok"] and res["formula_ok"]),
            {"formula_residual": res["formula_residual"] / (1.0 + res["lhs"])})


def _run_suite(check: str, family: str, dims: tuple, trials: int, seed: int,
               viol_tol: float | None = None) -> TrialSummary:
    # The one trial driver: trial t is the check of draw t.  The worst trial
    # (smallest margin; largest ratio for the explorer) is drawn and checked
    # again to build the report's worstInstance.
    if trials < 0:
        raise ContractError(f"trials must be >= 0, got {trials}")
    trace = _trace_maps(check, family, dims)

    def trial(t: int):
        return _check_trial(check, family, viol_tol,
                            *_draw_trial(check, family, dims, trace, seed, t))

    t0 = time.perf_counter()
    rows = _map_over_trials(trial, trials, _thread_count())
    wall_ms = (time.perf_counter() - t0) * 1000.0

    explore = check == "explore"
    worst_margin = worst_instance = worst_formula = None
    worst_ratio = 0.0 if explore else None
    if rows:
        margins = [r[0] for r in rows]
        if explore:
            worst = int(np.argmax([r[2]["ratio"] for r in rows]))
        else:
            worst = int(np.argmin(margins))
        worst_margin = float(np.min(margins))
        dim, phi, a, b = _draw_trial(check, family, dims, trace, seed, worst)
        margin, _, kept = _check_trial(check, family, viol_tol, dim, phi, a, b)
        worst_instance = {"trialIndex": worst, "dim": dim, "map": map_to_json(phi),
                          "a": matrix_to_json(a),
                          "b": None if check == "lemma2" else matrix_to_json(b)}
        if explore:
            worst_instance.update(kept)
            worst_ratio = rows[worst][2]["ratio"]
        else:
            worst_instance["margin"] = margin
        if check == "corollary":
            worst_formula = max(r[2]["formula_residual"] for r in rows)
    return TrialSummary(trials=trials, violations=sum(1 for _, v, _ in rows if v),
                        worst_margin=worst_margin, worst_instance=worst_instance,
                        seed=seed, wall_time_ms=wall_ms, check=check, family=family,
                        worst_ratio=worst_ratio, worst_formula_residual=worst_formula)


def run_trials(check: str, family: str = "cp", dims=(2, 3, 4), trials: int = 100,
               seed: int = 0, viol_tol: float | None = None) -> TrialSummary:
    """Run seeded randomized trials of one check and aggregate violations.

    Each trial derives its own generator from (seed, trial index), so the
    aggregate is deterministic and independent of the execution order and
    of the thread count, which comes from GRUSS_LAB_THREADS (0 or 1 means
    sequential; capped at the core count).  The worst instance is the trial
    of smallest margin.
    ``viol_tol`` is for ``theorem`` only (see ``check_theorem``).
    """
    dims = tuple(int(d) for d in dims)
    _validate_trial_config(check, family, dims, viol_tol)
    return _run_suite(check, family, dims, trials, seed, viol_tol)


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
    if k < 3:
        raise ContractError(f"explore_two_positive needs k >= 3, got {k}")
    return _run_suite("explore", "two-positive", (k,), trials, seed)
