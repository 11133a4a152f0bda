"""Distance-to-scalars: disk route, convex route, grid oracle, cross-checks."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gruss_lab import (
    ContractError,
    check_lemma2,
    delta,
    delta_general,
    delta_grid_oracle,
    delta_normal,
    ginibre,
    haar_unitary,
    is_normal,
    operator_norm,
    random_ensemble,
    smallest_enclosing_disk,
    transpose_map,
)
from gruss_lab.scalar_distance import _MAX_ITERATIONS, BRACKET_TOL


# brute-force oracle: the minimal disk is determined by <= 3 of the points,
# so enumerate every 1-, 2- and 3-subset candidate and keep the smallest
# disk that contains everything.
def _brute_force_disk(points):
    pts = [complex(p) for p in points]

    def contains_all(center, radius):
        return all(abs(p - center) <= radius + 1e-9 for p in pts)

    best = None
    for p in pts:
        if contains_all(p, 0.0) and (best is None or 0.0 < best[1]):
            best = (p, 0.0)
    for p, q in itertools.combinations(pts, 2):
        c, r = (p + q) / 2, abs(p - q) / 2
        if contains_all(c, r) and (best is None or r < best[1]):
            best = (c, r)
    for p, q, r3 in itertools.combinations(pts, 3):
        ax, ay, bx, by, cx, cy = p.real, p.imag, q.real, q.imag, r3.real, r3.imag
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-14:
            continue
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        c = complex(ux, uy)
        r = max(abs(p - c), abs(q - c), abs(r3 - c))
        if contains_all(c, r) and (best is None or r < best[1]):
            best = (c, r)
    return best


def test_disk_known_values():
    d = smallest_enclosing_disk([0.0, 5.0])
    assert d.center == pytest.approx(2.5)
    assert d.radius == pytest.approx(2.5)

    d = smallest_enclosing_disk([1.0, 4.0])
    assert d.center == pytest.approx(2.5)
    assert d.radius == pytest.approx(1.5)

    d = smallest_enclosing_disk([3 - 2j])
    assert d.center == 3 - 2j and d.radius == 0.0


def test_disk_empty_input_rejected():
    with pytest.raises(ContractError):
        smallest_enclosing_disk([])


def test_disk_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 10))
        pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = smallest_enclosing_disk(pts)
        center, radius = _brute_force_disk(pts)
        assert got.radius == pytest.approx(radius, abs=1e-8)
        # containment and boundary support
        assert all(abs(p - got.center) <= got.radius + 1e-9 for p in pts)
        if got.radius > 0:
            for s in got.support:
                assert abs(s - got.center) == pytest.approx(got.radius, abs=1e-9)


def test_delta_normal_known_values():
    res = delta_normal([[1, 2], [2, 4]])
    assert res.value == pytest.approx(2.5, abs=1e-12)
    assert res.method == "disk"

    res = delta_normal(np.eye(2))
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.minimizer == pytest.approx(1.0)

    res = delta_normal(np.diag([1.0, 4.0]))
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert res.minimizer == pytest.approx(2.5)


def test_delta_normal_rejects_non_normal():
    with pytest.raises(ContractError):
        delta_normal([[0, 1], [0, 0]])


def test_delta_general_nilpotent():
    # closed form: sigma_max(C - lam I)^2 = |lam|^2 + (1 + sqrt(1+4|lam|^2))/2,
    # increasing in |lam|, so the minimum is 1 at lam = 0
    res = delta_general([[0, 1], [0, 0]])
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert abs(res.minimizer) <= 1e-6


def test_delta_general_scalar_matrix():
    lam0 = 0.7 - 0.3j
    res = delta_general(lam0 * np.eye(3))
    assert res.value <= 1e-8
    assert res.minimizer == pytest.approx(lam0, abs=1e-6)


def test_delta_general_agrees_with_disk_on_normal_input():
    res = delta_general(np.array([[1, 2], [2, 4.0]]))
    assert res.value == pytest.approx(2.5, abs=1e-7)


def test_grid_oracle_examples():
    res = delta_grid_oracle(np.eye(2), 2.0, 101)
    assert res.value <= 0.0 + res.certified_gap + 1e-12

    res = delta_grid_oracle(np.array([[1, 2], [2, 4.0]]), operator_norm([[1, 2], [2, 4]]) + 1, 201)
    assert abs(res.value - 2.5) <= res.certified_gap + 1e-9

    c = np.array([[0, 1], [0, 0.0]])
    res = delta_grid_oracle(c, 2.0, 201)
    assert abs(res.value - 1.0) <= res.certified_gap + 1e-9

    with pytest.raises(ContractError):
        delta_grid_oracle(np.eye(2), 1.0, 1)


def test_grid_oracle_rejects_what_it_cannot_certify():
    # the square provably holds the minimizer only when the grid minimum is
    # at most the half width; a NaN half width must fail before any SVD
    cases = [(np.diag([0.0, 1.0]), -1.0), (np.diag([10.0, -10.0, -10.0, -10.0]), 0.5),
             (np.diag([0.0, 1.0]), float("nan")), (np.eye(2), float("inf")), (np.eye(2), 0.0)]
    for c, half_width in cases:
        with pytest.raises(ContractError):
            delta_grid_oracle(c, half_width, 5)

    # ||C - trace(C)/dim I|| = 15 > ||C|| + 1: the dispatcher widens its square
    res = delta(np.diag([10.0, -10.0, -10.0, -10.0]), "grid")
    assert res.value - res.certified_gap <= 10.0 <= res.value


# exhaustive reference for the pruned grid oracle: every grid point evaluated,
# first index of the smallest value
def _exhaustive_grid(c, half_width, resolution):
    center = complex(np.trace(c)) / c.shape[0]
    xs = np.linspace(-half_width, half_width, resolution)
    grid = (center + xs[:, None] + 1j * xs[None, :]).ravel()
    vals = np.linalg.svd(c - grid[:, None, None] * np.eye(c.shape[0]), compute_uv=False)[:, 0]
    best = int(np.argmin(vals))
    return float(vals[best]), complex(grid[best])


def test_pruned_grid_oracle_matches_exhaustive_search():
    cases = [(np.eye(2), 2.0, 101),
             (np.array([[1, 2], [2, 4.0]]), operator_norm([[1, 2], [2, 4]]) + 1, 201),
             (np.array([[0, 1], [0, 0.0]]), 2.0, 201)]
    for kind in ("ginibre", "hermitian", "normal"):
        for dim in range(2, 9):
            c = random_ensemble(kind, dim, seed=100 + dim)
            cases.append((c, operator_norm(c) + 1.0, 201))
    for c, half_width, resolution in cases:
        c = np.asarray(c, dtype=complex)
        res = delta_grid_oracle(c, half_width, resolution)
        assert (res.value, res.minimizer) == _exhaustive_grid(c, half_width, resolution)


def test_delta_invariances():
    rng = np.random.default_rng(23)
    for trial in range(20):
        dim = 2 + trial % 3
        c = random_ensemble("ginibre", dim, seed=trial)
        base = delta(c).value
        scale = 1 + operator_norm(c)

        mu = complex(rng.standard_normal(), rng.standard_normal())
        shifted = delta(c - mu * np.eye(dim)).value
        assert abs(shifted - base) <= 1e-8 * scale

        fac = complex(rng.standard_normal(), rng.standard_normal())
        scaled = delta(fac * c).value
        assert abs(scaled - abs(fac) * base) <= 1e-8 * (1 + abs(fac) * operator_norm(c))

        u = haar_unitary(dim, seed=900 + trial)
        rotated = delta(u @ c @ u.conj().T).value
        assert abs(rotated - base) <= 1e-8 * scale

        assert base <= operator_norm(c) + 1e-10


def test_hermitian_closed_form():
    for trial in range(30):
        dim = 2 + trial % 4
        h = random_ensemble("hermitian", dim, seed=trial)
        w = np.linalg.eigvalsh(h)
        expected = (w[-1] - w[0]) / 2
        assert delta(h).value == pytest.approx(expected, abs=1e-9)


def test_general_vs_grid_oracle():
    for dim in (2, 3, 4):
        for trial in range(100):
            c = random_ensemble("ginibre", dim, seed=dim * 1000 + trial)
            got = delta_general(c).value
            oracle = delta_grid_oracle(c, operator_norm(c) + 1.0, 201)
            assert abs(got - oracle.value) <= oracle.certified_gap + 1e-9


def test_normal_vs_general():
    for trial in range(40):
        c = random_ensemble("normal", 3, seed=trial)
        assert abs(delta_normal(c).value - delta_general(c).value) <= 1e-6


def test_dispatcher():
    c_normal = np.diag([1.0, 4.0])
    assert delta(c_normal, "auto").method == "convex"
    assert is_normal(c_normal)

    c_general = np.array([[0, 1], [0, 0.0]])
    assert delta(c_general, "auto").method == "convex"
    assert delta(c_general, "grid").method == "grid"
    with pytest.raises(ContractError):
        delta(c_general, "disk")
    with pytest.raises(ContractError):
        delta(c_general, "nope")


def test_zero_matrix():
    res = delta(np.zeros((3, 3)))
    assert res.value == 0.0
    assert res.minimizer == 0.0


def test_achieved_value_invariant():
    for trial in range(20):
        dim = 2 + trial % 3
        c = random_ensemble("ginibre", dim, seed=50 + trial)
        res = delta(c)
        achieved = operator_norm(c - res.minimizer * np.eye(dim))
        assert abs(achieved - res.value) <= 1e-10 * (1 + operator_norm(c))


def _matrix(kind, dim, seed):
    """A matrix of one of random_ensemble's kinds, or of two kinds whose top
    singular value is nearly multiple near the optimum, where delta_general
    must fall back from Newton steps: ``nearly-normal`` N + eps G, N normal
    and eps = 10^-(seed % 13) from 1 down to 1e-12, and ``jordan``, the
    Jordan block J, J + 2I, 1e6 J or 1e-8 J by seed % 4."""
    if kind == "nearly-normal":
        eps = 10.0 ** -(seed % 13)
        return random_ensemble("normal", dim, seed=seed) + eps * ginibre(dim, seed=seed + 1)
    if kind == "jordan":
        j = np.eye(dim, k=1)
        return (j, j + 2.0 * np.eye(dim), 1e6 * j, 1e-8 * j)[seed % 4]
    return random_ensemble(kind, dim, seed=seed)


def test_general_bracket_is_tight():
    for dim in range(2, 17):
        inputs = [random_ensemble("ginibre", dim, seed=31 * dim + trial) for trial in range(5)]
        inputs += [_matrix("nearly-normal", dim, seed=13 * dim + i) for i in range(13)]
        inputs += [_matrix("jordan", dim, seed=i) for i in range(4)]
        for c in inputs:
            res = delta_general(c)
            assert 0.0 <= res.certified_gap <= 1e-11 * (1 + operator_norm(c))


def _svds_per_call(monkeypatch, cs):
    """SVDs each delta_general call on the matrices ``cs`` takes, and the
    results."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    counts, results = [], []
    for c in cs:
        calls.clear()
        results.append(delta_general(c))
        counts.append(len(calls))
    return np.array(counts), results


def _counts(monkeypatch, kind, dim, seeds):
    return _svds_per_call(monkeypatch, [random_ensemble(kind, dim, seed=seed)
                                        for seed in seeds])[0]


@pytest.mark.parametrize("dim", [3, 4, 8, 16])
def test_newton_steps_cut_the_iteration_tail(monkeypatch, dim):
    # non-normal C: sigma_1 is simple at the optimum, and Newton steps on
    # sigma_1^2 replace the linear tail of column generation
    ginibre_counts = _counts(monkeypatch, "ginibre", dim, range(500, 540))
    assert ginibre_counts.mean() <= 9 and ginibre_counts.max() <= 15
    # normal C: the quadratic model is wrong, and the model points stay
    assert _counts(monkeypatch, "hermitian", dim, range(20)).max() <= 4
    assert _counts(monkeypatch, "normal", dim, range(20)).max() <= 7


def test_a_new_state_that_closes_the_bracket_ends_the_solve(monkeypatch):
    # the scalar nearest a 2 x 2 matrix is tr(C)/2, where the solve starts,
    # and the first SVD's states close the bracket there; for a normal one
    # the top singular value is double there, and its second state is needed
    assert (_counts(monkeypatch, "ginibre", 2, range(40)) == 1).all()
    assert (_counts(monkeypatch, "hermitian", 2, range(20)) == 1).all()
    assert (_counts(monkeypatch, "normal", 2, range(20)) == 1).all()
    for dim in (3, 4, 8):
        # the extreme eigenvectors of a Hermitian C close it at the model point
        assert (_counts(monkeypatch, "hermitian", dim, range(20)) == 2).all()
        assert _counts(monkeypatch, "ginibre", dim, range(500, 540)).mean() <= 6


def test_a_model_point_that_rounding_keeps_ends_the_solve(monkeypatch):
    # a 3 x 3 Jordan block under 1e-8 noise: at the model point the new
    # state no longer raises the model, so the solve stops there, early and
    # with a gap above BRACKET_TOL * value, which no bracket exit leaves
    c = np.diag(np.ones(2), 1) + 1e-8 * ginibre(3, seed=0)
    counts, (res,) = _svds_per_call(monkeypatch, [c])
    assert counts[0] <= 5 < _MAX_ITERATIONS
    assert BRACKET_TOL * res.value < res.certified_gap <= 1e-8 * res.value
    # the bracket still holds the minimum over a fine grid around the minimizer
    h = np.linspace(-3e-9, 3e-9, 41)
    grid = min(operator_norm(c - (res.minimizer + x + 1j * y) * np.eye(3)) for x in h for y in h)
    assert res.value - res.certified_gap <= grid <= res.value


@pytest.mark.parametrize("dim", [3, 4, 8, 16])
def test_newton_from_the_first_svd_shortens_non_normal_solves(monkeypatch, dim):
    # the first SVD's Newton point is taken where its model stays above the
    # lower bound, which every state of that SVD raised
    assert _counts(monkeypatch, "ginibre", dim, range(300)).mean() <= 4.6


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_the_first_svd_gives_the_spectral_disk(monkeypatch, dim):
    # at tr(C)/dim the right singular vectors of a normal C are eigenvectors,
    # so its states make the model the smallest disk around the spectrum, and
    # the second SVD, at the disk's center, closes the bracket
    hermitian = [random_ensemble("hermitian", dim, seed=seed) for seed in range(300)]
    normal = [random_ensemble("normal", dim, seed=seed) for seed in range(300)]
    counts, hermitian_res = _svds_per_call(monkeypatch, hermitian)
    assert (counts == (1 if dim == 2 else 2)).all()
    counts, normal_res = _svds_per_call(monkeypatch, normal)
    assert counts.mean() <= 2.2
    degenerate = _degenerate_spectra(dim)
    results = hermitian_res + normal_res + [delta_general(c) for c in degenerate]
    for c, res in zip(hermitian + normal + degenerate, results):
        assert abs(res.minimizer - delta_normal(c).minimizer) <= 1e-12 * (1 + operator_norm(c))


def test_normality_does_not_depend_on_the_scale_of_c():
    # ||C||^2 overflows for the first matrix and underflows for the second
    big = np.diag([1e200, 1.0])
    tiny = np.array([[0.0, 1e-170], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_normal(big)
        res = delta(big, "disk")
    assert res.minimizer == pytest.approx(5e199, rel=1e-12)
    assert res.value == pytest.approx(5e199, rel=1e-12)
    assert res.certified_gap <= 1e-12 * res.value
    assert is_normal(np.zeros((2, 2)))
    assert is_normal(np.zeros((0, 0)))
    assert not is_normal(tiny)
    with pytest.raises(ContractError):
        delta(tiny, "disk")
    with pytest.raises(ContractError):
        check_lemma2(transpose_map(2), tiny)


@pytest.mark.parametrize("c", [np.diag([1e200, 1.0]), np.diag([1e-200, 0.0]),
                               np.array([[0.0, 1e-200], [0.0, 0.0]])])
def test_delta_general_brackets_do_not_depend_on_the_scale_of_c(c):
    # the model squares distances between atoms: |z1 - z2|^2 overflows for
    # the first matrix and underflows for the others, unless C is rescaled.
    # BRACKET_TOL * (1 + ||C||) would admit any bracket for the tiny ones,
    # so the gap is held relative to the value instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = delta_general(c)
    assert res.value - res.certified_gap > 0
    assert res.certified_gap <= BRACKET_TOL * res.value
    assert res.value == pytest.approx(operator_norm(c - res.minimizer * np.eye(2)), rel=1e-12)


@pytest.mark.parametrize("e", [260, 300, 400])
def test_newton_guard_stays_finite_at_large_scales(e):
    # ||C|| ~ 2**260 is left unscaled (the spread is below 2**300), so the
    # Newton guard's products of squared norms would overflow; scaled by a
    # power of two they stay finite and decide exactly as at scale 1
    c = ginibre(3, seed=4)
    base = delta_general(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = delta_general(c * 2.0**e)
    assert (res.value, res.certified_gap) == (base.value * 2.0**e, base.certified_gap * 2.0**e)


@pytest.mark.parametrize("dim", [8, 16])
@pytest.mark.parametrize("e", [-450, -400, -340, 341, 400, 450])
def test_model_products_stay_in_range_before_the_rescale(dim, e):
    # the closed-form model multiplies three factors of the spread's size,
    # which leave the float range well before the spread's square does; at
    # an exact power-of-two scale the solve repeats the one at scale 1
    for seed in range(3):
        c = random_ensemble("normal", dim, seed=seed)
        base = delta_general(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = delta_general(c * 2.0**e)
        assert (res.value, res.certified_gap) == (base.value * 2.0**e,
                                                   base.certified_gap * 2.0**e)


def test_brackets_are_tight_relative_to_the_value_at_small_scales():
    # the stop rule's tolerance is relative to the spread, so a small C
    # gets as tight a bracket as a unit one
    cs = [ginibre(4, seed=seed) for seed in range(40)]
    for factor in (1.0, 1e-6, 1e-9, 1e-12):
        for c in cs:
            res = delta_general(factor * c)
            assert res.certified_gap <= BRACKET_TOL * res.value


@pytest.mark.parametrize("e", [-30, -60, -200])
def test_small_scales_repeat_the_solve_at_scale_one(e):
    c = ginibre(3, seed=4)
    base = delta_general(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = delta_general(c * 2.0**e)
    assert (res.value, res.certified_gap) == (base.value * 2.0**e, base.certified_gap * 2.0**e)


def test_the_normality_mask_is_is_normal_matrix_by_matrix():
    # normal and non-normal matrices of small integer entries (exact at every
    # scale), each at 2**-400, 1 and 2**400, and subnormal ones: is_normal
    # takes each matrix at its own prescale
    normal = np.array([[1.0, 2.0j, 0.0], [2.0j, 1.0, 0.0], [0.0, 0.0, 3.0]])  # I + 2iX (+) 3
    shear = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    base = [normal, shear, np.zeros((3, 3)), np.eye(3)]
    scaled = np.stack([c * 2.0**e for e in (-400, 0, 400) for c in base])
    subnormal = np.stack([c * 2.0**-1070 for c in base])
    for cs in (scaled, subnormal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = [is_normal(c) for c in cs]
        assert mask == [True, False, True, True] * (len(cs) // 4)


def test_nearly_normal_input_gets_an_honest_bracket():
    # passes is_normal, yet delta = 1e-5 (a scaled nilpotent) while the
    # spectrum is the single point 1
    c = np.array([[1.0, 1e-5], [0.0, 1.0]])
    assert is_normal(c)
    res = delta(c)
    assert res.method == "convex"
    assert res.value == pytest.approx(operator_norm(c - res.minimizer * np.eye(2)), rel=1e-12)
    assert res.certified_gap <= 1e-12 * (1 + operator_norm(c))
    assert res.value - res.certified_gap <= 1e-5 <= res.value * (1 + 1e-12)


def _degenerate_spectra(dim):
    """Normal matrices whose top singular value is repeated at the optimum:
    cyclic shift, U diag(+-1 repeated) U*, U diag(cube roots of unity
    repeated) U*, and I."""
    u = haar_unitary(dim, seed=dim)
    signs = np.resize([1.0, -1.0], dim)
    roots = np.resize(np.exp(2j * np.pi * np.arange(3) / 3), dim)
    return [np.roll(np.eye(dim), 1, axis=0),
            u @ np.diag(signs) @ u.conj().T,
            u @ np.diag(roots) @ u.conj().T,
            np.eye(dim)]


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
def test_delta_on_degenerate_spectra(dim):
    for c in _degenerate_spectra(dim):
        res = delta(c)
        tol = 1e-12 * (1 + operator_norm(c))
        assert res.certified_gap <= tol
        assert abs(res.value - delta_normal(c).value) <= tol


def test_tiny_perturbation_of_identity_is_not_zero():
    c = np.eye(3) + 1e-13 * ginibre(3, seed=4)
    res = delta(c)
    assert res.value > 0.0
    assert res.value == pytest.approx(operator_norm(c - res.minimizer * np.eye(3)), rel=1e-12)
    general = delta_general(c)
    assert res.value - res.certified_gap <= general.value
    assert general.value - general.certified_gap <= res.value


# ---------------------------------------------------------------------------
# properties: each route's [value - certified_gap, value] must contain delta(C)

_PROPERTY_SETTINGS = settings(max_examples=40)
_KINDS = st.sampled_from(("ginibre", "normal", "hermitian", "nearly-normal", "jordan"))
_SEEDS = st.integers(0, 2**32 - 1)
_FACTORS = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3)
_SHIFTS = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _brackets_meet(a, b, scale_b=1.0, slack=0.0):
    """The bracket of ``a`` meets that of ``b`` scaled by ``scale_b``."""
    return (a.value - a.certified_gap <= scale_b * b.value + slack
            and scale_b * (b.value - b.certified_gap) <= a.value + slack)


@_PROPERTY_SETTINGS
@given(kind=_KINDS, dim=st.integers(2, 5), seed=_SEEDS, alpha=_FACTORS, beta=_SHIFTS)
def test_property_affine_covariance(kind, dim, seed, alpha, beta):
    c = _matrix(kind, dim, seed)
    moved = delta(alpha * c + beta * np.eye(dim))
    slack = 1e-11 * (1 + abs(alpha) * operator_norm(c) + abs(beta))
    assert _brackets_meet(moved, delta(c), abs(alpha), slack)


@_PROPERTY_SETTINGS
@given(kind=_KINDS, dim=st.integers(2, 5), seed=_SEEDS, useed=_SEEDS)
def test_property_unitary_and_adjoint_invariance(kind, dim, seed, useed):
    c = _matrix(kind, dim, seed)
    u = haar_unitary(dim, seed=useed)
    base = delta(c)
    slack = 1e-11 * (1 + operator_norm(c))
    assert _brackets_meet(delta(u @ c @ u.conj().T), base, slack=slack)
    assert _brackets_meet(delta(c.conj().T), base, slack=slack)


@settings(max_examples=15)
@given(kind=_KINDS, dim=st.integers(2, 4), seed=_SEEDS)
def test_property_lower_bounds_below_grid_oracle(kind, dim, seed):
    c = _matrix(kind, dim, seed)
    oracle = delta_grid_oracle(c, operator_norm(c) + 1.0, 201)
    routes = [delta_general(c), oracle]
    if is_normal(c):
        routes.append(delta_normal(c))
    for res in routes:
        assert res.value - res.certified_gap <= oracle.value + 1e-12
        assert oracle.value - oracle.certified_gap <= res.value + 1e-12
