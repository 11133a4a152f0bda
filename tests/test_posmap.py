"""Map representations, conversions, built-ins, positivity criteria."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gruss_lab.posmap as posmap
from gruss_lab import (
    CERTIFIED_CP,
    CERTIFIED_NOT_N_POSITIVE,
    HEURISTICALLY_N_POSITIVE,
    ContractError,
    DimensionError,
    NotCompletelyPositiveError,
    UnitalizationError,
    amplify,
    apply,
    choi_map,
    choi_matrix,
    choi_to_kraus,
    compose,
    cp_test,
    dag,
    from_choi,
    from_kraus,
    ginibre,
    haar_unitary,
    identity_map,
    is_unital,
    map_from_json,
    map_to_json,
    mix,
    n_positivity_search,
    normalized_choi_map,
    operator_norm,
    random_unital_cp,
    rayleigh_value,
    superop_matrix,
    to_choi,
    transpose_map,
    unitalize,
    unitary_conj,
    witness_vector,
)
from gruss_lab.posmap import (
    WITNESS_TOL,
    apply_choi_stack,
    mix_choi_stack,
    unital_mask,
    unitalize_kraus_stack,
)


def _basis_matrix(k, i, j):
    e = np.zeros((k, k), dtype=complex)
    e[i, j] = 1.0
    return e


def test_identity_map_choi_is_rank_one_projector():
    j = choi_matrix(identity_map(2))
    omega = np.eye(2, dtype=complex).reshape(-1)
    assert np.allclose(j, np.outer(omega, omega.conj()))


def test_transpose_choi_is_swap_with_spectrum():
    j = choi_matrix(transpose_map(2))
    # direct 4x4 swap construction
    swap = np.zeros((4, 4))
    for i in range(2):
        for a in range(2):
            swap[i * 2 + a, a * 2 + i] = 1.0
    assert np.allclose(j, swap)
    assert np.allclose(np.linalg.eigvalsh(j), [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_kraus_choi_kraus_roundtrip():
    phi = random_unital_cp(3, 4, seed=8)
    back = choi_to_kraus(to_choi(phi))
    for i in range(3):
        for j in range(3):
            e = _basis_matrix(3, i, j)
            assert operator_norm(apply(phi, e) - apply(back, e)) <= 1e-10


def test_choi_to_kraus_rejects_non_cp():
    with pytest.raises(NotCompletelyPositiveError):
        choi_to_kraus(transpose_map(2))


def test_apply_examples():
    t = transpose_map(2)
    x = np.array([[1, 8], [2, 16.0]])
    assert np.allclose(apply(t, x), x.T)

    phi = choi_map(3)
    assert np.allclose(apply(phi, np.eye(3)), (9 - 3 - 1) * np.eye(3))
    assert np.allclose(apply(phi, _basis_matrix(3, 0, 0)), np.diag([1.0, 2.0, 2.0]))

    u = haar_unitary(3, seed=4)
    conj = unitary_conj(np.eye(3))
    a = ginibre(3, seed=1)
    assert np.allclose(apply(conj, a), a)
    conj_u = unitary_conj(u)
    assert operator_norm(apply(conj_u, a) - u @ a @ dag(u)) <= 1e-12


def test_representation_consistency():
    phi = random_unital_cp(3, 2, seed=12)
    forms = [phi, to_choi(phi), from_choi(choi_matrix(phi), 3, 3)]
    superop = superop_matrix(phi)
    for trial in range(20):
        x = ginibre(3, seed=trial)
        ref = apply(forms[0], x)
        for alt in forms[1:]:
            assert operator_norm(apply(alt, x) - ref) <= 1e-10
        via_superop = (superop @ x.reshape(-1, order="F")).reshape(3, 3, order="F")
        assert operator_norm(via_superop - ref) <= 1e-10


def test_kraus_apply_matches_sum_over_operators():
    rng = np.random.default_rng(31)
    for d, k, rank in ((2, 3, 1), (3, 2, 5), (4, 4, 7)):
        ops = [rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)) for _ in range(rank)]
        x = ginibre(k, seed=rank)
        ref = sum(op @ x @ dag(op) for op in ops)
        assert operator_norm(apply(from_kraus(ops), x) - ref) <= 1e-12 * operator_norm(ref)


def test_from_kraus_rejects_malformed_families():
    with pytest.raises(ContractError):
        from_kraus([])
    for ops in ([np.eye(2), np.eye(3)], [np.ones((2, 3)), np.ones((3, 2))], [np.ones(3)]):
        with pytest.raises(DimensionError):
            from_kraus(ops)
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(ContractError):
            from_kraus([np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])])


@pytest.mark.parametrize("size", [1, 3, 17])
def test_apply_on_a_stack_equals_single_applies_bit_for_bit(size):
    for k, d in ((3, 2), (2, 4)):
        xs = np.stack([ginibre(k, seed=100 * size + s) for s in range(size)])
        for phi in (_random_kraus_map(k, d, 5, seed=size), _random_choi_map(k, d, seed=size),
                    to_choi(_random_kraus_map(k, d, 2, seed=size + 1))):
            out = apply(phi, xs)
            assert out.shape == (size, d, d)
            for x, got in zip(xs, out):
                assert np.array_equal(got, apply(phi, x))


def test_apply_rejects_inputs_of_the_wrong_shape():
    phi = _random_kraus_map(3, 2, 2, seed=1)
    for x in (np.eye(2), np.ones(3), np.ones((2, 3, 3, 3)), np.ones((3, 2, 2))):
        with pytest.raises(DimensionError):
            apply(phi, x)
    with pytest.raises(ContractError):
        apply(phi, np.full((2, 3, 3), np.nan))


def test_superop_layout_matches_kraus_formula():
    # column-major vectorization: S = sum conj(K) (x) K
    k_op = ginibre(2, seed=3)
    phi = from_kraus([k_op])
    assert np.allclose(superop_matrix(phi), np.kron(k_op.conj(), k_op))


def test_amplify_identity_and_order_one():
    phi = identity_map(2)
    amp = amplify(phi, 3)
    x = ginibre(6, seed=2)
    assert operator_norm(apply(amp, x) - x) <= 1e-12
    assert amplify(phi, 1) is phi


def test_amplify_partial_transpose_of_singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    proj = np.outer(psi, psi.conj())
    amp = amplify(transpose_map(2), 2)
    w = np.linalg.eigvalsh(apply(amp, proj))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


def test_amplify_blockwise_consistency():
    phi = random_unital_cp(2, 3, seed=21)
    amp = amplify(to_choi(phi), 2)  # force the non-Kraus path
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    x = np.kron(_basis_matrix(2, i, j), _basis_matrix(2, a, b))
                    got = apply(amp, x)
                    expected = np.kron(_basis_matrix(2, i, j), apply(phi, _basis_matrix(2, a, b)))
                    assert operator_norm(got - expected) <= 1e-12


def test_unitalize():
    phi = random_unital_cp(3, 4, seed=33)
    again = unitalize(phi)
    for trial in range(5):
        x = ginibre(3, seed=trial)
        assert operator_norm(apply(again, x) - apply(phi, x)) <= 1e-12

    k_op = 2.0 * haar_unitary(2, seed=6)  # K K* = 4 I
    scaled = unitalize(from_kraus([k_op]))
    assert operator_norm(scaled.kraus[0] - k_op / 2.0) <= 1e-12

    raw = from_kraus([ginibre(3, seed=14), ginibre(3, seed=15), ginibre(3, seed=16)])
    fixed = unitalize(raw)
    assert operator_norm(apply(fixed, np.eye(3)) - np.eye(3)) <= 1e-10

    zero = from_kraus([np.zeros((2, 2))])
    with pytest.raises(UnitalizationError):
        unitalize(zero)


def test_cp_test_verdicts():
    u = haar_unitary(3, seed=2)
    assert cp_test(unitary_conj(u)).status == CERTIFIED_CP

    v = cp_test(transpose_map(2))
    assert v.status == CERTIFIED_NOT_N_POSITIVE
    assert v.min_value_found == pytest.approx(-1.0, abs=1e-12)

    # J = (k-1) I - |omega><omega| evaluates to (k-1) - k = -1 on the
    # normalized maximally entangled vector
    phi3 = choi_map(3)
    v = cp_test(phi3)
    assert v.status == CERTIFIED_NOT_N_POSITIVE
    omega_hat = np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3)
    assert rayleigh_value(phi3, omega_hat) == pytest.approx(-1.0, abs=1e-12)
    x = witness_vector(v.witness_a, v.witness_b)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    assert rayleigh_value(phi3, x) <= -1e-8


def test_cp_test_witness_on_cp_verdicts():
    # the minimal Choi eigenvector is the witness on CP verdicts too, and
    # re-evaluates to the reported minimum
    maps = [unitary_conj(haar_unitary(3, seed=2)), random_unital_cp(3, 4, seed=101),
            mix([random_unital_cp(2, 2, seed=5), identity_map(2)], [0.3, 0.7])]
    for phi in maps:
        v = cp_test(phi)
        assert v.status == CERTIFIED_CP
        x = witness_vector(v.witness_a, v.witness_b)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert abs(rayleigh_value(phi, x) - v.min_value_found) <= 1e-12


def test_search_transpose():
    v = n_positivity_search(transpose_map(2), 2, starts=50, seed=0)
    assert v.status == CERTIFIED_NOT_N_POSITIVE
    assert v.min_value_found == pytest.approx(-1.0, abs=1e-9)
    x = witness_vector(v.witness_a, v.witness_b)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    assert v.witness_a.shape[0] <= 2

    v1 = n_positivity_search(transpose_map(2), 1, starts=50, seed=0)
    assert v1.status == HEURISTICALLY_N_POSITIVE
    assert v1.min_value_found >= -1e-9


def test_search_brute_force_sphere_oracle():
    # independent check that -1 is the floor of the Rayleigh quotient of the
    # swap operator: no random unit vector goes below it, and the
    # antisymmetric singlet attains it exactly
    phi = transpose_map(2)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert rayleigh_value(phi, singlet) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(99)
    samples = rng.standard_normal((5000, 4)) + 1j * rng.standard_normal((5000, 4))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    vals = [rayleigh_value(phi, s) for s in samples]
    assert min(vals) >= -1.0 - 1e-9


def test_search_choi_family():
    for k in (3, 4):
        refute = n_positivity_search(choi_map(k), k, starts=50, seed=1)
        assert refute.status == CERTIFIED_NOT_N_POSITIVE
        assert refute.min_value_found <= -0.9

        confirm = n_positivity_search(choi_map(k), k - 1, starts=50, seed=1)
        assert confirm.status == HEURISTICALLY_N_POSITIVE
        assert confirm.min_value_found >= -1e-7


def test_search_monotone_in_n():
    # a refutation at order n implies one at every higher order
    phi = choi_map(3)
    v3 = n_positivity_search(phi, 3, starts=30, seed=5)
    assert v3.status == CERTIFIED_NOT_N_POSITIVE
    for n in (4, 5):
        v = n_positivity_search(phi, n, starts=30, seed=5)
        assert v.status == CERTIFIED_NOT_N_POSITIVE
        assert v.min_value_found <= v3.min_value_found + 1e-9


def test_search_determinism():
    a = n_positivity_search(choi_map(3), 2, starts=20, seed=77)
    b = n_positivity_search(choi_map(3), 2, starts=20, seed=77)
    assert a.min_value_found == b.min_value_found
    assert np.array_equal(a.witness_a, b.witness_a)


def _kron_minimum(jh, t):
    h = dag(t) @ jh @ t
    w, vecs = np.linalg.eigh((h + dag(h)) / 2.0)
    return float(w[0]), t @ vecs[:, 0]


def _reference_start(jh, k, d, n, child, max_iters=200):
    # one start of the search as a plain loop over kron-built frame columns
    rng = np.random.default_rng(child)
    b_frame, _ = np.linalg.qr(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
    eye_k, eye_d = np.eye(k), np.eye(d)

    def fixed_b(f):
        return _kron_minimum(jh, np.hstack([np.kron(eye_k, f[:, [r]]) for r in range(n)]))

    def fixed_a(f):
        return _kron_minimum(jh, np.hstack([np.kron(f[:, [r]], eye_d) for r in range(n)]))

    q_prev = np.inf
    q, x = fixed_b(b_frame)
    for _ in range(max_iters):
        q, x = fixed_a(np.linalg.svd(x.reshape(k, d))[0][:, :n])
        q, x = fixed_b(np.linalg.svd(x.reshape(k, d))[2][:n, :].T)
        if abs(q_prev - q) < 1e-12:
            break
        q_prev = q
    return q


def _reference_values(phi, n, starts, seed):
    j = choi_matrix(phi)
    jh = (j + dag(j)) / 2.0
    return [_reference_start(jh, phi.in_dim, phi.out_dim, n, child)
            for child in np.random.SeedSequence(seed).spawn(starts)]


def _unital_mix(k, seed):
    return mix([normalized_choi_map(k), random_unital_cp(k, 2, seed=seed)], [0.6, 0.4])


def test_stacked_search_matches_kron_reference():
    cases = [(transpose_map(k), 2) for k in (3, 4, 5)]
    cases += [(choi_map(k), n) for k in (3, 4, 5) for n in sorted({k - 1, 2})]
    cases += [(_unital_mix(3, 4), 2)]
    for phi, n in cases:
        best = min(_reference_values(phi, n, 50, seed=3))
        v = n_positivity_search(phi, n, starts=50, seed=3)
        expected = CERTIFIED_NOT_N_POSITIVE if best <= -WITNESS_TOL else HEURISTICALLY_N_POSITIVE
        assert v.status == expected
        assert abs(v.min_value_found - best) <= 1e-12


def test_search_does_not_depend_on_block_size(monkeypatch):
    for phi, n in [(transpose_map(4), 2), (choi_map(4), 3), (_unital_mix(3, 8), 2)]:
        runs = []
        for block in (1, 7, posmap.SEARCH_BLOCK, 1000):
            monkeypatch.setattr(posmap, "SEARCH_BLOCK", block)
            runs.append(n_positivity_search(phi, n, starts=40, seed=9))
        for v in runs[1:]:
            assert v.min_value_found == runs[0].min_value_found
            assert np.array_equal(v.witness_a, runs[0].witness_a)
            assert np.array_equal(v.witness_b, runs[0].witness_b)


def test_search_reports_the_starts_it_ran():
    # n >= min(k, d) is decided exactly by the Choi spectrum and runs no start
    for phi in (choi_map(3), random_unital_cp(3, 2, seed=4)):
        for n in (3, 5):
            assert n_positivity_search(phi, n, starts=50, seed=2).starts == 0
    assert n_positivity_search(transpose_map(3), 2, starts=17, seed=2).starts == 17
    assert n_positivity_search(choi_map(4), 3, starts=9, seed=2).starts == 9


def test_exact_decision_agrees_with_cp_test():
    # min Choi eigenvalue -eps: eps = 2e-9 and 5e-9 lie between CHOI_PSD_TOL
    # and WITNESS_TOL, where the exact decision must still refute
    for eps in (2e-9, 5e-9, 5e-8):
        phi = mix([identity_map(2), transpose_map(2)], [1.0 - eps, eps])
        exact = cp_test(phi)
        assert exact.status == CERTIFIED_NOT_N_POSITIVE
        for n in (2, 3):
            assert n_positivity_search(phi, n, seed=1).status == exact.status


def test_search_rejects_fewer_than_one_start():
    for starts in (0, -3):
        with pytest.raises(ContractError):
            n_positivity_search(transpose_map(3), 2, starts=starts)


_WITNESS_MAPS = {
    "transpose": transpose_map,
    "choi": choi_map,
    "unital_mix": lambda k: _unital_mix(k, 5),
    "transpose_mix": lambda k: mix([transpose_map(k), random_unital_cp(k, 3, seed=k)],
                                   [0.5, 0.5]),
}


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(_WITNESS_MAPS)), k=st.integers(2, 4),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_property_refutation_witness_re_evaluates(name, k, n, seed):
    phi = _WITNESS_MAPS[name](k)
    v = n_positivity_search(phi, n, starts=8, seed=seed)
    if v.status != CERTIFIED_NOT_N_POSITIVE:
        return
    x = witness_vector(v.witness_a, v.witness_b)
    assert v.witness_a.shape[0] <= n
    assert np.linalg.matrix_rank(x.reshape(k, k), tol=1e-10) <= n
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    value = rayleigh_value(phi, x)
    assert value <= -WITNESS_TOL
    assert abs(value - v.min_value_found) <= 1e-9


# ---------------------------------------------------------------------------
# properties: a map is stored as Kraus or Choi, and every route to Phi(X) agrees

_DIMS = st.integers(1, 4)
_SEEDS = st.integers(0, 2**32 - 1)


def _random_kraus_map(k, d, rank, seed):
    rng = np.random.default_rng(seed)
    return from_kraus([rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
                       for _ in range(rank)])


def _random_choi_map(k, d, seed):
    # a general linear map: its Choi matrix need not be PSD or even Hermitian
    return from_choi(ginibre(k * d, seed=seed), k, d)


def _close(got, ref, x):
    return operator_norm(got - ref) <= 1e-10 * (1 + operator_norm(x))


@given(k=_DIMS, d=_DIMS, rank=st.integers(1, 4), seed=_SEEDS)
def test_property_representation_round_trips(k, d, rank, seed):
    phi = _random_kraus_map(k, d, rank, seed)
    choi = to_choi(phi)
    x = ginibre(k, seed=seed + 1)
    ref = apply(phi, x)
    forms = [choi, choi_to_kraus(choi)]
    forms += [map_from_json(json.loads(json.dumps(map_to_json(f)))) for f in (phi, choi)]
    for alt in forms:
        assert alt.form in ("kraus", "choi")
        assert _close(apply(alt, x), ref, x)
    for f in (phi, choi):
        via_superop = (superop_matrix(f) @ x.reshape(-1, order="F")).reshape(d, d, order="F")
        assert _close(via_superop, ref, x)


@given(k=_DIMS, c=_DIMS, d=_DIMS, seed=_SEEDS)
@example(k=2, c=3, d=4, seed=0)
@example(k=4, c=1, d=3, seed=1)
def test_property_compose_is_composition(k, c, d, seed):
    afters = (_random_kraus_map(c, d, 2, seed), _random_choi_map(c, d, seed + 1))
    befores = (_random_kraus_map(k, c, 3, seed + 2), _random_choi_map(k, c, seed + 3))
    x = ginibre(k, seed=seed + 4)
    for after in afters:
        for before in befores:
            both = compose(after, before)
            assert both.form == "choi"
            assert (both.in_dim, both.out_dim) == (k, d)
            ref = apply(after, apply(before, x))
            assert _close(apply(both, x), ref, x)


@given(k=_DIMS, d=_DIMS, n=st.integers(1, 3), seed=_SEEDS)
def test_property_amplify_acts_blockwise(k, d, n, seed):
    x = ginibre(n * k, seed=seed)
    for phi in (_random_kraus_map(k, d, 2, seed + 1), _random_choi_map(k, d, seed + 2)):
        amp = amplify(phi, n)
        assert amp.form == phi.form
        got = apply(amp, x)
        for p in range(n):
            for q in range(n):
                block = got[p * d:(p + 1) * d, q * d:(q + 1) * d]
                ref = apply(phi, x[p * k:(p + 1) * k, q * k:(q + 1) * k])
                assert _close(block, ref, x)


def test_normalized_choi_map_is_unital():
    for k in (3, 4, 5):
        phi = normalized_choi_map(k)
        assert operator_norm(apply(phi, np.eye(k)) - np.eye(k)) <= 1e-12
    assert is_unital(normalized_choi_map(4))


def test_random_unital_cp_is_unital_cp():
    phi = random_unital_cp(3, 4, seed=101)
    assert operator_norm(apply(phi, np.eye(3)) - np.eye(3)) <= 1e-10
    assert cp_test(phi).status == CERTIFIED_CP


def test_unitalizing_a_stack_of_families_matches_one_family_at_a_time():
    # ragged Kraus ranks, each family its own generator as random_unital_cp draws it
    ranks = (1, 4, 2, 9)
    families = [ginibre(3, seed, (rank,)) for seed, rank in enumerate(ranks)]
    for seed, (rank, phi) in enumerate(zip(ranks, unitalize_kraus_stack(families))):
        assert np.array_equal(phi.kraus, random_unital_cp(3, rank, seed=seed).kraus)


def test_a_stacked_mix_matches_mix_map_by_map():
    trace = normalized_choi_map(3)
    cps = [random_unital_cp(3, 2, seed=s) for s in range(5)]
    w = np.linspace(0.1, 0.9, 5)
    stack = mix_choi_stack([choi_matrix(trace), np.stack([choi_matrix(c) for c in cps])],
                           [w, 1.0 - w])
    for n, cp in enumerate(cps):
        assert np.array_equal(stack[n], choi_matrix(mix([trace, cp], [w[n], 1.0 - w[n]])))


def test_the_unital_mask_is_is_unital_map_by_map():
    maps = [normalized_choi_map(3), choi_map(3), to_choi(random_unital_cp(3, 2, seed=1)),
            mix([normalized_choi_map(3), choi_map(3)], [0.5, 0.5])]
    eye = np.eye(3, dtype=complex)
    j4 = np.stack([choi_matrix(phi).reshape(3, 3, 3, 3) for phi in maps])
    mask = unital_mask(apply_choi_stack(j4, eye[None])[:, 0])
    assert mask.tolist() == [is_unital(phi) for phi in maps] == [True, False, True, False]


def test_positivity_preservation_on_psd_inputs():
    phi = random_unital_cp(3, 2, seed=55)
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = g @ dag(g)
        w = np.linalg.eigvalsh(apply(phi, p))
        assert w[0] >= -1e-9


def test_unital_cp_norm_one():
    phi = random_unital_cp(2, 3, seed=77)
    for trial in range(200):
        x = ginibre(2, seed=trial)
        x = x / operator_norm(x)
        assert operator_norm(apply(phi, x)) <= 1.0 + 1e-8
    assert operator_norm(apply(phi, np.eye(2))) == pytest.approx(1.0, abs=1e-10)


def test_adjoint_preservation_of_builtin_positive_maps():
    maps = [transpose_map(3), choi_map(3), normalized_choi_map(4),
            unitary_conj(haar_unitary(3, seed=8)), random_unital_cp(3, 3, seed=9)]
    for phi in maps:
        x = ginibre(phi.in_dim, seed=13)
        assert operator_norm(apply(phi, dag(x)) - dag(apply(phi, x))) <= 1e-10


def test_compose():
    t = transpose_map(2)
    double = compose(t, t)
    x = ginibre(2, seed=31)
    assert operator_norm(apply(double, x) - x) <= 1e-12


def test_map_json_roundtrip():
    phi = random_unital_cp(2, 2, seed=19)
    back = map_from_json(map_to_json(phi))
    x = ginibre(2, seed=3)
    assert operator_norm(apply(back, x) - apply(phi, x)) <= 1e-12

    t = map_from_json({"kind": "builtin", "name": "transpose", "dim": 2})
    assert np.allclose(apply(t, x), x.T)

    c = map_from_json(map_to_json(normalized_choi_map(4)))
    assert is_unital(c)

    with pytest.raises(ContractError):
        map_from_json({"kind": "wavelet"})
    with pytest.raises(ContractError):
        map_from_json({"kind": "kraus", "ops": []})
