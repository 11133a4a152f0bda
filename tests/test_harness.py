"""Harness-level checks: defect, bounds, counterexample, trials, proof chain."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gruss_lab import (
    ContractError,
    apply,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_theorem,
    compose,
    delta,
    explore_two_positive,
    from_kraus,
    ginibre,
    gruss_defect,
    haar_unitary,
    harness,
    identity_map,
    map_from_json,
    map_to_json,
    matrix_from_json,
    mix,
    normalized_choi_map,
    operator_norm,
    proof_chain,
    random_ensemble,
    random_unital_cp,
    reproduce_counterexample,
    run_trials,
    transpose_map,
    unitalize,
    unitary_conj,
)

A_FIXED = np.array([[1.0, 2.0], [2.0, 4.0]])
B_FIXED = np.diag([1.0, 4.0])


def test_defect_vanishes_for_multiplicative_maps():
    a = ginibre(3, seed=1)
    b = ginibre(3, seed=2)
    assert gruss_defect(identity_map(3), a, b) <= 1e-12
    u = haar_unitary(3, seed=3)
    assert gruss_defect(unitary_conj(u), a, b) <= 1e-12


def test_defect_of_fixed_transpose_instance():
    assert gruss_defect(transpose_map(2), A_FIXED, B_FIXED) == pytest.approx(6.0, abs=1e-12)


def test_defect_translation_invariance_for_unital_maps():
    rng = np.random.default_rng(5)
    phi = random_unital_cp(3, 4, seed=6)
    for trial in range(20):
        a = ginibre(3, seed=trial)
        b = ginibre(3, seed=100 + trial)
        base = gruss_defect(phi, a, b)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        mu = complex(rng.standard_normal(), rng.standard_normal())
        shifted = gruss_defect(phi, a - lam * np.eye(3), b - mu * np.eye(3))
        assert abs(shifted - base) <= 1e-9 * (1 + base)


def _mixed_map(k, seed):
    return mix([normalized_choi_map(k), random_unital_cp(k, 2, seed=seed)], [0.5, 0.5])


def _positive_map(k, seed):
    return unitalize(compose(transpose_map(k), random_unital_cp(k, 2, seed=seed)))


# one trial family per stored map form, plus a unitalized composition
_SHIFT_FAMILIES = {
    "cp": ("kraus", lambda k, seed: random_unital_cp(k, 3, seed=seed)),
    "mixed": ("choi", _mixed_map),
    "positive": ("choi", _positive_map),
}
_SHIFTS = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@given(family=st.sampled_from(sorted(_SHIFT_FAMILIES)), k=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1), lam=_SHIFTS, mu=_SHIFTS)
def test_property_defect_shift_invariance(family, k, seed, lam, mu):
    form, draw = _SHIFT_FAMILIES[family]
    phi = draw(k, seed)
    assert phi.form == form
    a = ginibre(k, seed=seed + 1)
    b = ginibre(k, seed=seed + 2)
    base = gruss_defect(phi, a, b)
    shifted = gruss_defect(phi, a + lam * np.eye(k), b + mu * np.eye(k))
    assert abs(shifted - base) <= 1e-9 * (1 + base)


def test_check_theorem_on_cp_instances():
    for trial in range(20):
        phi = random_unital_cp(3, 1 + trial % 9, seed=trial)
        a = random_ensemble("ginibre", 3, seed=trial)
        b = random_ensemble("normal", 3, seed=1000 + trial)
        rep = check_theorem(phi, a, b)
        assert not rep.violated
        assert rep.bound == rep.delta_a.value * rep.delta_b.value
        # defect recomputable from the stored instance
        assert abs(gruss_defect(rep.phi, rep.a, rep.b) - rep.defect) <= 1e-10
        # the weaker norm-product bound holds too
        assert rep.defect <= operator_norm(a) * operator_norm(b) + 1e-8


def test_check_theorem_on_normalized_choi_map():
    phi = normalized_choi_map(4)
    for trial in range(20):
        a = random_ensemble("hermitian", 4, seed=trial)
        b = random_ensemble("ginibre", 4, seed=50 + trial)
        rep = check_theorem(phi, a, b)
        assert not rep.violated


def test_check_theorem_detects_the_counterexample():
    rep = check_theorem(transpose_map(2), A_FIXED, B_FIXED)
    assert rep.violated
    assert rep.margin == pytest.approx(3.75 - 6.0, abs=1e-9)


def test_nan_viol_tol_is_a_contract_error():
    # margin < -nan never holds, so a NaN tolerance would hide the violation
    with pytest.raises(ContractError):
        check_theorem(transpose_map(2), A_FIXED, B_FIXED, viol_tol=float("nan"))
    with pytest.raises(ContractError):
        run_trials("theorem", dims=(2,), trials=1, viol_tol=float("nan"))
    assert check_theorem(transpose_map(2), A_FIXED, B_FIXED, viol_tol=float("inf")).margin < 0
    assert check_theorem(transpose_map(2), A_FIXED, B_FIXED, viol_tol=-1.0).violated


@pytest.mark.parametrize("check, dims", [("lemma1", (2,)), ("lemma2", (2,)),
                                         ("corollary", (4,))])
def test_viol_tol_is_rejected_where_the_check_never_reads_it(check, dims):
    with pytest.raises(ContractError):
        run_trials(check, dims=dims, trials=1, viol_tol=1e-3)


def test_check_theorem_requires_unital():
    with pytest.raises(ContractError):
        check_theorem(from_kraus([2.0 * np.eye(2)]), A_FIXED, B_FIXED)


def test_check_lemma1_trivial_cases():
    phi = random_unital_cp(2, 3, seed=1)
    res = check_lemma1(phi, np.eye(2), np.eye(2))
    assert res["lhs_squared"] <= 1e-14
    assert res["rhs_product"] <= 1e-14
    assert res["block_min_eig"] >= -1e-10

    u = haar_unitary(3, seed=2)
    res = check_lemma1(unitary_conj(u), ginibre(3, seed=3), ginibre(3, seed=4))
    assert res["lhs_squared"] <= 1e-12
    assert res["rhs_product"] <= 1e-12


def test_check_lemma1_random_instances():
    for dim in (2, 3):
        for trial in range(100):
            phi = random_unital_cp(dim, 1 + trial % (dim * dim), seed=trial)
            a = random_ensemble(("ginibre", "hermitian", "normal")[trial % 3], dim, seed=trial)
            b = random_ensemble(("normal", "ginibre", "hermitian")[trial % 3], dim, seed=900 + trial)
            res = check_lemma1(phi, a, b)
            assert res["cauchy_ok"]
            assert res["block_ok"]


def test_check_lemma1_rejects_weak_maps():
    with pytest.raises(ContractError):
        check_lemma1(normalized_choi_map(3), np.eye(3), np.eye(3))  # only 2-positive
    with pytest.raises(ContractError):
        check_lemma1(normalized_choi_map(4), np.eye(4), np.eye(4),
                     known_positivity_order=2)


def test_check_lemma2_examples():
    phi = random_unital_cp(2, 2, seed=4)
    res = check_lemma2(phi, np.eye(2), require_normal=True)
    assert res["lhs"] <= 1e-12 and res["ok"]

    # the transpose fixes diagonal matrices, so the defect vanishes
    res = check_lemma2(transpose_map(2), np.diag([1.0, 4.0]), require_normal=True)
    assert res["lhs"] <= 1e-12
    assert res["bound"] == pytest.approx(2.25, abs=1e-9)

    composite = unitalize(compose(transpose_map(3), random_unital_cp(3, 4, seed=11)))
    a = random_ensemble("normal", 3, seed=12)
    res = check_lemma2(composite, a, require_normal=True)
    assert res["ok"]


def test_check_lemma2_hypothesis_violations():
    with pytest.raises(ContractError):
        check_lemma2(transpose_map(2), np.array([[0.0, 1.0], [0.0, 0.0]]), require_normal=True)
    with pytest.raises(ContractError):
        # dropping normality requires a CP map
        check_lemma2(transpose_map(2), np.array([[0.0, 1.0], [0.0, 0.0]]), require_normal=False)


def test_counterexample_exact_numbers():
    rep = reproduce_counterexample()
    assert rep.defect == pytest.approx(6.0, abs=1e-9)
    assert rep.delta_a == pytest.approx(2.5, abs=1e-9)
    assert rep.delta_b == pytest.approx(1.5, abs=1e-9)
    assert rep.bound == pytest.approx(3.75, abs=1e-9)
    assert rep.inequality_fails

    # the defect matrix itself: (AB)^T - A^T B^T = BA - AB for this pair
    t = transpose_map(2)
    diff = apply(t, A_FIXED @ B_FIXED) - apply(t, A_FIXED) @ apply(t, B_FIXED)
    assert np.allclose(diff, [[0.0, -6.0], [6.0, 0.0]], atol=1e-12)


def test_counterexample_bit_stable():
    r1 = reproduce_counterexample()
    r2 = reproduce_counterexample()
    assert (r1.defect, r1.bound, r1.delta_a, r1.delta_b) == (r2.defect, r2.bound, r2.delta_a, r2.delta_b)


def test_corollary_identity_inputs_vanish():
    for k in (4, 5):
        res = check_corollary(k, np.eye(k), np.eye(k))
        assert res["lhs"] <= 1e-10
        assert res["rhs"] <= 1e-10
        assert res["formula_ok"]


def test_corollary_random_instances():
    for trial in range(50):
        a = random_ensemble("hermitian", 4, seed=trial)
        b = random_ensemble("hermitian", 4, seed=700 + trial)
        res = check_corollary(4, a, b)
        assert res["ok"]
        assert res["formula_residual"] <= 1e-10 * (1 + res["lhs"])


def test_corollary_suite_builds_the_trace_map_once_per_dim(monkeypatch):
    builds = []

    def counted(k):
        builds.append(k)
        return normalized_choi_map(k)

    monkeypatch.setattr(harness, "normalized_choi_map", counted)
    s = run_trials("corollary", dims=(4, 5, 4), trials=9, seed=2)
    assert sorted(builds) == [4, 5]
    assert s.trials == 9 and s.worst_formula_residual <= 1e-10


def test_positive_suite_builds_the_transpose_once_per_dim(monkeypatch):
    builds = []

    def counted(k):
        builds.append(k)
        return transpose_map(k)

    monkeypatch.setattr(harness, "transpose_map", counted)
    s = run_trials("lemma2", family="positive", dims=(2, 3, 2), trials=9, seed=2)
    assert sorted(builds) == [2, 3]
    assert s.trials == 9 and s.violations == 0


def test_a_lemma2_trial_draws_no_b(monkeypatch):
    draws = []
    real_draw = harness.ensemble_sample

    def counted(kind, dim, rng):
        draws.append(kind)
        return real_draw(kind, dim, rng)

    monkeypatch.setattr(harness, "ensemble_sample", counted)
    for family in ("cp", "positive"):
        for t in range(4):
            draws.clear()
            drawn = harness._draw(harness._CLAIMS["lemma2"], family, (2, 3), 7, t)
            assert len(draws) == 1 and drawn.b is None
    draws.clear()
    harness._draw(harness._CLAIMS["theorem"], "cp", (2, 3), 7, 0)
    assert len(draws) == 2


def _public_trial(check, family, dims, seed, t):
    # trial t's map and inputs built one at a time by the public samplers,
    # from the trial's generator in the engine's draw order
    rng = harness._trial_rng(seed, t)
    dim = dims[t % len(dims)]
    claim = harness._CLAIMS[check]
    if claim.families is not None:
        family = claim.families[t % len(claim.families)]
    w = float(rng.uniform(0.0, 1.0)) if family == "mixed" else None
    cp = None
    if family != "choi":
        cp = random_unital_cp(dim, int(rng.integers(1, dim * dim + 1)), rng)
    phi = {"cp": lambda: cp, "choi": lambda: normalized_choi_map(dim),
           "mixed": lambda: mix([normalized_choi_map(dim), cp], [w, 1.0 - w]),
           "positive": lambda: (compose(transpose_map(dim), cp) if rng.integers(2) == 0
                                else compose(cp, transpose_map(dim)))}[family]()
    kind_a = (("hermitian", "normal")[t % 2] if claim.normal_a and family != "cp"
              else ("ginibre", "hermitian", "normal")[t % 3])
    inputs = [random_ensemble(kind_a, dim, rng)]
    if claim.pair:
        inputs.append(random_ensemble(("ginibre", "hermitian", "normal")[(t // 3) % 3], dim, rng))
    for n, x in enumerate(inputs):
        nrm = operator_norm(x)
        if nrm > harness._INPUT_NORM_CAP:
            inputs[n] = x * (harness._INPUT_NORM_CAP / nrm)
    return phi, inputs


@pytest.mark.parametrize("check, family, dims", [
    ("theorem", "cp", (2, 3)), ("lemma2", "positive", (2, 3)), ("lemma2", "mixed", (2, 3)),
    ("theorem", "choi", (4, 5)), ("explore", "two-positive", (3,)),
    ("theorem", "cp", (8, 16)), ("lemma1", "cp", (2, 3))])
def test_a_block_builds_what_the_public_samplers_build(check, family, dims):
    # the engine's stacked maps and inputs equal, bit for bit, the one-trial
    # builds of random_unital_cp, mix, compose and random_ensemble
    claim = harness._CLAIMS[check]
    fixed = harness._fixed_maps(claim, family, dims)
    _, groups = harness._run_block(claim, family, dims, fixed, 7, range(12), None)
    for group in groups:
        for i, t in enumerate(group.rows):
            phi, inputs = _public_trial(check, family, dims, 7, t)
            assert map_to_json(group.map(i)) == map_to_json(phi)
            built = [group.a[i]] + ([] if group.b is None else [group.b[i]])
            assert len(built) == len(inputs)
            for x, y in zip(built, inputs):
                assert np.array_equal(x, y)


def _summary_fields(s):
    fields = dataclasses.asdict(s)
    del fields["wall_time_ms"]
    return fields


_SUITES = [(check, family, (2, 3)) for check in ("theorem", "lemma1", "lemma2")
           for family in ("cp",)]
_SUITES += [(check, family, (4, 5)) for check in ("theorem", "lemma1")
            for family in ("choi", "mixed")]
_SUITES += [("lemma2", family, (2, 3)) for family in ("choi", "mixed", "positive")]
_SUITES += [("corollary", family, (4, 5)) for family in harness.FAMILIES]
_SUITES += [("explore", "two-positive", (3,))]


@pytest.mark.parametrize("check, family, dims", _SUITES)
def test_suites_do_not_depend_on_the_block_size(monkeypatch, check, family, dims):
    summaries = []
    for block in (1, 5, 64):
        monkeypatch.setattr(harness, "TRIAL_BLOCK", block)
        if check == "explore":
            s = explore_two_positive(13, seed=4, k=dims[0])
        else:
            s = run_trials(check, family=family, dims=dims, trials=13, seed=4)
        summaries.append(_summary_fields(s))
    assert summaries[0] == summaries[1] == summaries[2]
    assert summaries[0]["worst_instance"] is not None


def test_corollary_rejects_small_k():
    with pytest.raises(ContractError):
        check_corollary(3, np.eye(3), np.eye(3))


def test_proof_chain_identity_map():
    a = ginibre(2, seed=1)
    b = random_ensemble("normal", 2, seed=2)
    res = proof_chain(identity_map(2), a, b, 5)
    assert res["defect"] <= 1e-12
    assert res["link_defect_le_sum"] and res["link_terms_le_normb"] and res["link_sum_le_final"]


def test_proof_chain_final_bound_value():
    phi = random_unital_cp(2, 3, seed=3)
    a = ginibre(2, seed=4)
    b = random_ensemble("normal", 2, seed=5)
    res = proof_chain(phi, a, b, 10)
    # (m^2+2)/(m^2-2m) = 102/80 = 1.275 at m = 10
    expected = 1.275 * operator_norm(a) * operator_norm(b)
    assert res["final_bound"] == pytest.approx(expected, rel=1e-12)
    assert res["final_bound_formula_residual"] <= 1e-9 * (1 + res["final_bound"])
    assert res["nov_ok"]


def test_proof_chain_bound_decreases_with_m():
    phi = random_unital_cp(3, 4, seed=8)
    a = ginibre(3, seed=9)
    b = random_ensemble("hermitian", 3, seed=10)
    bounds = []
    for m in (3, 5, 10, 50):
        res = proof_chain(phi, a, b, m)
        assert res["link_defect_le_sum"] and res["link_terms_le_normb"] and res["link_sum_le_final"]
        bounds.append(res["final_bound"])
    assert all(x > y for x, y in zip(bounds, bounds[1:]))
    assert bounds[-1] >= operator_norm(a) * operator_norm(b)


def test_proof_chain_hypotheses():
    phi = random_unital_cp(2, 2, seed=11)
    with pytest.raises(ContractError):
        proof_chain(phi, np.zeros((2, 2)), np.eye(2), 5)
    with pytest.raises(ContractError):
        proof_chain(phi, np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 5)
    with pytest.raises(ContractError):
        proof_chain(phi, np.eye(2), np.eye(2), 2)


def test_run_trials_deterministic():
    s1 = run_trials("theorem", family="cp", dims=(2,), trials=10, seed=7)
    s2 = run_trials("theorem", family="cp", dims=(2,), trials=10, seed=7)
    assert s1.violations == s2.violations == 0
    assert s1.worst_margin == s2.worst_margin
    assert s1.worst_instance == s2.worst_instance


def test_run_trials_families():
    assert run_trials("theorem", family="mixed", dims=(4,), trials=20, seed=3).violations == 0
    assert run_trials("theorem", family="choi", dims=(4, 5), trials=20, seed=3).violations == 0
    assert run_trials("lemma2", family="positive", dims=(2, 3), trials=30, seed=5).violations == 0
    assert run_trials("lemma2", family="choi", dims=(3,), trials=20, seed=5).violations == 0


def test_run_trials_validation():
    with pytest.raises(ContractError):
        run_trials("theorem", family="choi", dims=(3,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("corollary", dims=(3,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("theorem", family="positive", dims=(2,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("spectral-gap", dims=(2,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("lemma1", family="mixed", dims=(3,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("lemma1", family="positive", dims=(2,), trials=5, seed=0)
    with pytest.raises(ContractError):
        run_trials("corollary", family="cp", dims=(3,), trials=5, seed=0)


def test_explore_empty_and_small():
    s = explore_two_positive(0, seed=1)
    assert s.trials == 0 and s.worst_ratio == 0.0 and s.worst_instance is None

    base = normalized_choi_map(3)
    assert gruss_defect(base, np.eye(3), np.eye(3)) <= 1e-14

    s = explore_two_positive(50, seed=1)
    assert s.worst_ratio is not None and np.isfinite(s.worst_ratio)
    assert s.worst_instance is not None
    s2 = explore_two_positive(50, seed=1)
    assert s.worst_ratio == s2.worst_ratio


def _replayed(check, family, phi, a, b):
    # the values each suite reports for a trial, recomputed through the
    # public checks
    k = a.shape[0]
    if check == "explore":
        defect = gruss_defect(phi, a, b)
        bound = delta(a).value * delta(b).value
        return {"defect": defect, "bound": bound, "ratio": defect / bound}
    if check == "theorem":
        margin = check_theorem(phi, a, b).margin
    elif check == "lemma1":
        res = check_lemma1(phi, a, b,
                           known_positivity_order=None if family == "cp" else k - 1)
        margin = min(res["rhs_product"] - res["lhs_squared"], res["block_min_eig"])
    elif check == "lemma2":
        res = check_lemma2(phi, a, require_normal=family != "cp", known_positive=True)
        margin = res["bound"] - res["lhs"]
    else:
        res = check_corollary(k, a, b)
        margin = res["rhs"] - res["lhs"]
    return {"margin": margin}


@pytest.mark.parametrize("check, family, dims", [
    ("theorem", "cp", (2, 3)), ("theorem", "mixed", (4, 5)),
    ("lemma1", "cp", (2, 3)), ("lemma1", "mixed", (4,)),
    ("lemma2", "cp", (2, 3)), ("lemma2", "positive", (2, 3)), ("lemma2", "choi", (2, 3)),
    ("corollary", "cp", (4, 5)), ("explore", "two-positive", (3,)),
])
def test_worst_instance_replays_from_the_report(check, family, dims):
    if check == "explore":
        s = explore_two_positive(24, seed=3, k=dims[0])
    else:
        s = run_trials(check, family=family, dims=dims, trials=12, seed=5)
    instance = json.loads(json.dumps(s.worst_instance))
    b = instance["b"]
    assert (b is None) == (check == "lemma2")
    replayed = _replayed(check, family, map_from_json(instance["map"]),
                         matrix_from_json(instance["a"]),
                         None if b is None else matrix_from_json(b))
    assert replayed == {key: instance[key] for key in replayed}
    if check == "explore":
        assert replayed["ratio"] == s.worst_ratio
    else:
        assert replayed["margin"] == s.worst_margin


def test_thread_count_is_capped_at_the_core_count(monkeypatch):
    # only the count is checked: no pool is started with these values
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    for raw, expected in (("100000", 4), ("3", 3), ("0", 0), ("-2", 0), ("x", 0)):
        monkeypatch.setenv("GRUSS_LAB_THREADS", raw)
        assert harness._thread_count() == expected
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    monkeypatch.setenv("GRUSS_LAB_THREADS", "8")
    assert harness._thread_count() == 1


def test_each_check_maps_its_inputs_in_one_apply_call(monkeypatch):
    stacks = []
    real_apply = harness.apply

    def counted(phi, x):
        stacks.append(np.shape(x))
        return real_apply(phi, x)

    monkeypatch.setattr(harness, "apply", counted)
    phi = random_unital_cp(4, 3, seed=2)
    a, b = ginibre(4, seed=1), ginibre(4, seed=2)
    runs = [(lambda: gruss_defect(phi, a, b), 3),
            (lambda: check_lemma1(phi, a, b), 7),
            (lambda: check_lemma2(phi, a, require_normal=False, known_positive=True), 2),
            (lambda: check_corollary(4, a, b), 3)]
    for run, size in runs:
        stacks.clear()
        run()
        assert stacks == [(size, 4, 4)]
