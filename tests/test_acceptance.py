"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and must not be loosened.
"""

import json
import time

import numpy as np

from gruss_lab import (
    CERTIFIED_NOT_N_POSITIVE,
    HEURISTICALLY_N_POSITIVE,
    apply,
    check_lemma1,
    choi_map,
    choi_matrix,
    cp_test,
    dag,
    decompose_unitary_sum,
    delta,
    delta_general,
    dilate,
    ginibre,
    homomorphism_check,
    n_positivity_search,
    operator_norm,
    proof_chain,
    random_ensemble,
    random_unital_cp,
    rayleigh_value,
    reproduce_counterexample,
    run_trials,
    transpose_map,
    witness_vector,
)
from gruss_lab.cli import route
from oracles import delta_grid_oracle, delta_normal


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _run_cli(tmp_path, argv):
    out = tmp_path / "report.json"
    code = route(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_01_counterexample(tmp_path):
    reproduce_counterexample()  # warm the kernels before timing
    t0 = time.perf_counter()
    rep = reproduce_counterexample()
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.defect - 6.0) <= 1e-9
          and abs(rep.delta_a - 2.5) <= 1e-9
          and abs(rep.delta_b - 1.5) <= 1e-9
          and abs(rep.bound - 3.75) <= 1e-9
          and rep.inequality_fails
          and elapsed < 0.1)
    assert _report(1, ok, f"counterexample defect={rep.defect} bound={rep.bound} "
                          f"runtime={elapsed * 1000:.1f}ms")


def test_criterion_02_theorem_suite(tmp_path):
    t0 = time.perf_counter()
    code, rep = _run_cli(tmp_path, ["verify", "theorem", "--family", "cp",
                                    "--dims", "2,3,4", "--trials", "1000"])
    elapsed = time.perf_counter() - t0
    violations = rep["result"]["violations"]
    ok = code == 0 and violations == 0 and elapsed < 60.0
    assert _report(2, ok, f"theorem suite 1000 trials, {violations} violations, "
                          f"{elapsed:.1f}s")


def test_criterion_03_corollary_suite(tmp_path):
    code, rep = _run_cli(tmp_path, ["verify", "corollary", "--dims", "4,5",
                                    "--trials", "500"])
    violations = rep["result"]["violations"]
    worst_formula = rep["result"]["worstFormulaResidual"]
    ok = code == 0 and violations == 0 and worst_formula <= 1e-10
    assert _report(3, ok, f"corollary suite 500 trials, {violations} violations, "
                          f"worst normalized formula residual {worst_formula:.2e}")


def test_criterion_04_choi_map_certification():
    ok = True
    details = []
    for k in (3, 4):
        refute = n_positivity_search(choi_map(k), k, starts=200, seed=0)
        ok &= refute.status == CERTIFIED_NOT_N_POSITIVE and refute.min_value_found <= -0.9
        confirm = n_positivity_search(choi_map(k), k - 1, starts=200, seed=0)
        ok &= confirm.status == HEURISTICALLY_N_POSITIVE and confirm.min_value_found >= -1e-7
        details.append(f"k={k}: n={k} -> {refute.min_value_found:.6f}, "
                       f"n={k - 1} -> {confirm.min_value_found:.2e}")

    # brute-force sphere-sampling oracle at k = 3: the analytically known
    # maximally entangled vector attains exactly -1 and no sampled unit
    # vector goes below it
    phi = choi_map(3)
    omega_hat = np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3)
    attained = rayleigh_value(phi, omega_hat)
    ok &= abs(attained - (-1.0)) <= 1e-12
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0
    rng = np.random.default_rng(2024)
    xs = rng.standard_normal((20000, 9)) + 1j * rng.standard_normal((20000, 9))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    sphere_vals = np.einsum("ni,ij,nj->n", xs.conj(), jh, xs).real
    ok &= sphere_vals.min() >= -1.0 - 1e-9
    search3 = n_positivity_search(phi, 3, starts=200, seed=0)
    ok &= abs(search3.min_value_found - attained) <= 1e-6
    assert _report(4, ok, "; ".join(details) + f"; oracle min(sphere)={sphere_vals.min():.4f}, "
                                               f"attained {attained:.6f}")


def test_criterion_05_transpose_map():
    verdict = cp_test(transpose_map(2))
    ok = abs(verdict.min_value_found - (-1.0)) <= 1e-9

    rank2 = n_positivity_search(transpose_map(2), 2, starts=200, seed=0)
    x = witness_vector(rank2.witness_a, rank2.witness_b)
    witness_val = rayleigh_value(transpose_map(2), x)
    ok &= abs(witness_val - (-1.0)) <= 1e-6

    rank1 = n_positivity_search(transpose_map(2), 1, starts=200, seed=0)
    ok &= rank1.min_value_found >= -1e-9
    assert _report(5, ok, f"transpose: choi min eig {verdict.min_value_found:.9f}, "
                          f"rank-2 witness {witness_val:.9f}, rank-1 min {rank1.min_value_found:.2e}")


def test_criterion_06_lemma1_suite():
    worst_gap = np.inf
    worst_block = np.inf
    ok = True
    for dim in (2, 3):
        for trial in range(100):
            phi = random_unital_cp(dim, 1 + trial % (dim * dim), seed=trial)
            a = random_ensemble(("ginibre", "hermitian", "normal")[trial % 3],
                                dim, seed=10_000 + trial)
            b = random_ensemble(("normal", "ginibre", "hermitian")[trial % 3],
                                dim, seed=20_000 + trial)
            res = check_lemma1(phi, a, b)
            gap = res["rhs_product"] + 1e-8 * (1 + res["rhs_product"]) - res["lhs_squared"]
            worst_gap = min(worst_gap, gap)
            worst_block = min(worst_block, res["block_min_eig"])
            ok &= gap >= 0 and res["block_min_eig"] >= -1e-8
    assert _report(6, ok, f"lemma1 200 instances: worst cauchy slack {worst_gap:.2e}, "
                          f"worst block eigenvalue {worst_block:.2e}")


def test_criterion_07_lemma2_suite():
    positive = run_trials("lemma2", family="positive", dims=(2, 3), trials=500, seed=0)
    cp = run_trials("lemma2", family="cp", dims=(2, 3), trials=500, seed=1)
    ok = positive.violations == 0 and cp.violations == 0
    assert _report(7, ok, f"lemma2: transpose-composed {positive.violations} violations "
                          f"(worst margin {positive.worst_margin:.2e}), "
                          f"cp {cp.violations} violations (worst margin {cp.worst_margin:.2e})")


def test_criterion_08_stinespring():
    worst_iso = 0.0
    worst_dil = 0.0
    worst_hom = 0.0
    for dim in (2, 3):
        for trial in range(100):
            phi = random_unital_cp(dim, 1 + trial % (dim * dim), seed=trial)
            dil = dilate(phi)
            v = dil.isometry
            worst_iso = max(worst_iso, operator_norm(dag(v) @ v - np.eye(dim)))
            for s in range(10):
                a = ginibre(dim, seed=1000 * trial + s)
                resid = operator_norm(dil.dilated_apply(a) -
                                      apply(phi, a)) / (1 + operator_norm(a))
                worst_dil = max(worst_dil, resid)
            hom = homomorphism_check(dil, samples=5, seed=trial)
            worst_hom = max(worst_hom, hom["max_product_residual"],
                            hom["max_adjoint_residual"])
    ok = worst_iso <= 1e-10 and worst_dil <= 1e-9 and worst_hom <= 1e-10
    assert _report(8, ok, f"stinespring 200 maps: isometry {worst_iso:.2e}, "
                          f"dilation {worst_dil:.2e}, homomorphism {worst_hom:.2e}")


def test_criterion_09_unitary_decomposition():
    worst_unit = 0.0
    worst_recon = 0.0
    ok = True
    for dim in (2, 3):
        for m in (3, 4, 7, 10):
            for trial in range(100):
                a = ginibre(dim, seed=trial + 31 * m + 1009 * dim)
                a = a * (0.9 * (1 - 2.0 / m) / operator_norm(a))
                dec = decompose_unitary_sum(a, m)
                for u in dec.unitaries:
                    worst_unit = max(worst_unit, operator_norm(dag(u) @ u - np.eye(dim)))
                worst_recon = max(worst_recon,
                                  dec.reconstruction_error / (1 + operator_norm(a)))
    ok &= worst_unit <= 1e-10 and worst_recon <= 1e-10

    phi = random_unital_cp(3, 4, seed=5)
    a = ginibre(3, seed=6)
    b = random_ensemble("normal", 3, seed=7)
    for m in (3, 5, 10, 50):
        res = proof_chain(phi, a, b, m)
        formula = (m * m + 2.0) / (m * m - 2.0 * m) * operator_norm(a) * operator_norm(b)
        ok &= abs(res["final_bound"] - formula) <= 1e-9 * (1 + formula)
        ok &= res["link_defect_le_sum"] and res["link_terms_le_normb"] and res["link_sum_le_final"]
        ok &= res["nov_ok"]
    assert _report(9, ok, f"decomposition 800 instances: unitarity {worst_unit:.2e}, "
                          f"reconstruction {worst_recon:.2e}; proof chain m in {{3,5,10,50}} holds")


def test_criterion_10_delta_cross_validation():
    ok = True
    worst_pair = 0.0
    worst_normal = 0.0
    worst_herm = 0.0
    for dim in (2, 3, 4):
        for trial in range(100):
            c = random_ensemble("ginibre", dim, seed=777 * dim + trial)
            general = delta_general(c).value
            oracle = delta_grid_oracle(c, operator_norm(c) + 1.0, 201)
            gap = abs(general - oracle.value)
            worst_pair = max(worst_pair, gap - oracle.certified_gap)
            ok &= gap <= oracle.certified_gap + 1e-9

            n = random_ensemble("normal", dim, seed=888 * dim + trial)
            diff = abs(delta_normal(n).value - delta_general(n).value)
            worst_normal = max(worst_normal, diff)
            ok &= diff <= 1e-6

            h = random_ensemble("hermitian", dim, seed=999 * dim + trial)
            w = np.linalg.eigvalsh(h)
            herm_diff = abs(delta(h).value - (w[-1] - w[0]) / 2)
            worst_herm = max(worst_herm, herm_diff)
            ok &= herm_diff <= 1e-9
    assert _report(10, ok, f"delta cross-validation 300 per route: grid slack {worst_pair:.2e}, "
                           f"normal gap {worst_normal:.2e}, hermitian gap {worst_herm:.2e}")


def test_criterion_11_explorer(tmp_path):
    t0 = time.perf_counter()
    code, rep = _run_cli(tmp_path, ["explore", "two-positive", "--trials", "10000",
                                    "--seed", "1"])
    elapsed = time.perf_counter() - t0
    result = rep["result"]
    ok = (code == 0 and elapsed < 120.0
          and "worstRatio" in result and np.isfinite(result["worstRatio"])
          and result["worstInstance"] is not None)
    assert _report(11, ok, f"explorer 10000 trials in {elapsed:.1f}s, "
                           f"worst defect/bound ratio {result['worstRatio']:.6f}")
