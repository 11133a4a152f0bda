"""Distance-to-scalars: the convex route, its disk and grid references, cross-checks."""

import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gruss_lab import (
    ContractError,
    check_lemma2,
    delta,
    delta_general,
    explore_two_positive,
    ginibre,
    haar_unitary,
    is_normal,
    operator_norm,
    random_ensemble,
    run_trials,
    transpose_map,
)
from gruss_lab import scalar_distance
from gruss_lab.scalar_distance import _MAX_ITERATIONS, BRACKET_TOL, _add_atom
from oracles import delta_grid_oracle, delta_normal, smallest_enclosing_disk


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


@pytest.mark.parametrize("pts", [
    [0, 1, 2, 3],  # collinear
    [(3 + 4j) * t / 8 for t in (-3, 0, 1, 5)],  # collinear off the axes, exactly
    [0, 0, 0, 4, 4, 2],  # collinear, with coincident points
    [1 + 1j] * 4,  # all coincident
    [0, 0, 1j, 1j, 2],  # coincident pairs
    [1, 1j, -1, -1j],  # four points on the boundary
    [0, 2, 2, 1 + 1j, 1 + 1j],  # a repeated third point on the diameter's circle
])
def test_disk_on_collinear_and_coincident_points(pts):
    got = smallest_enclosing_disk(pts)
    center, radius = _brute_force_disk(pts)
    assert got.radius == pytest.approx(radius, abs=1e-12)
    assert abs(got.center - center) <= 1e-12
    assert all(abs(abs(s - got.center) - got.radius) <= 1e-12 for s in got.support)


def _all_active_oracle(atoms):
    """(g, lam) of the mixture of ``atoms`` at the point where all of them
    are active, from the Gram system of the edges e_i = z_i - z_1 (lam =
    z_1 + sum_i t_i e_i with 2 Re(conj(e_i) (lam - z_1)) = |e_i|^2 + s_i - s_1),
    or None where that point has a negative weight or the atoms are
    coincident or collinear (dependent edges; always so for 4 in the plane)."""
    (z1, s1), rest = atoms[0], atoms[1:]
    if not rest:
        return s1, z1
    e = [z - z1 for z, _ in rest]
    if len(e) > 2 or (len(e) == 1 and e[0] == 0) or \
            (len(e) == 2 and e[0].real * e[1].imag == e[0].imag * e[1].real):
        return None
    gram = np.array([[(a.conjugate() * b).real for b in e] for a in e])
    t = np.linalg.solve(2.0 * gram, [abs(ei) ** 2 + s - s1 for ei, (_, s) in zip(e, rest)])
    p = [1.0 - t.sum(), *t]
    if min(p) < 0.0:
        return None
    lam = z1 + sum(ti * ei for ti, ei in zip(t, e))
    return sum(pi * (abs(z - lam) ** 2 + s) for pi, (z, s) in zip(p, atoms)), lam


def _draw_atom(rng, layout):
    """A random atom (z, s): anywhere in the plane, on one line through 0
    (exact dyadic points, so any three are exactly collinear), or on one of
    three points (coincident z with different s)."""
    s = float(rng.integers(0, 9)) / 8 if rng.random() < 0.5 else 0.0
    if layout == "plane":
        return complex(rng.standard_normal(), rng.standard_normal()), s * rng.random()
    if layout == "collinear":
        return (3 + 4j) * float(rng.integers(-8, 9)) / 8, s
    return (0j, 1 + 0j, 1j)[rng.integers(3)], s


@pytest.mark.parametrize("layout", ["plane", "collinear", "coincident"])
def test_add_atom_is_the_best_subset_holding_the_new_atom(layout):
    # atoms join as in the solvers, each violated at the current model point;
    # the new optimum must be the best all-active mixture over every subset of
    # the support plus the new atom that holds it, and no atom of that pool
    # may lie above it at its point (so it is the pool's optimum)
    rng = np.random.default_rng(("plane", "collinear", "coincident").index(layout))
    joined = 0
    for run in range(60):
        support, g, lam = [], -math.inf, 0j
        for _ in range(10):
            atom = _draw_atom(rng, layout)
            if abs(atom[0] - lam) ** 2 + atom[1] <= g:
                continue  # not violated: no solver adds it
            g, lam, new_support = _add_atom(support, atom)
            pool = [atom, *support]
            found = [_all_active_oracle([atom, *others]) for r in range(len(support) + 1)
                     for others in itertools.combinations(support, r)]
            best_g, best_lam = max((f for f in found if f is not None), key=lambda f: f[0])
            assert g == pytest.approx(best_g, rel=1e-12, abs=1e-15)
            assert abs(lam - best_lam) <= 1e-9 * (1 + abs(best_lam))
            assert atom in new_support and all(a in pool for a in new_support)
            assert max(abs(z - lam) ** 2 + s for z, s in pool) <= g + 1e-12 * (1 + abs(g))
            support = new_support
            joined += 1
    assert joined >= 250


def test_delta_normal_known_values():
    res = delta_normal([[1, 2], [2, 4]])
    assert res.value == pytest.approx(2.5, abs=1e-12)

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

    # ||C - trace(C)/dim I|| = 15 > ||C|| + 1: a square that wide holds it
    c = np.diag([10.0, -10.0, -10.0, -10.0])
    centered = c - np.trace(c) / c.shape[0] * np.eye(c.shape[0])
    res = delta_grid_oracle(c, max(operator_norm(c) + 1.0, operator_norm(centered)), 201)
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
    assert is_normal(c_normal)

    c_general = np.array([[0, 1], [0, 0.0]])
    with pytest.raises(TypeError):
        delta(c_general, "disk")  # one route: delta takes no method


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


@pytest.mark.parametrize("kind", ["hermitian", "normal", "nearly-normal", "jordan"])
def test_value_is_the_norm_at_the_minimizer(kind):
    # value is the evaluated ||C - minimizer I||, not a claim, on every kind
    # of input (test_achieved_value_invariant covers Ginibre draws); the
    # seeds cover nearly-normal's 13 perturbation sizes and jordan's 4 forms
    for dim in range(2, 17):
        for seed in range(17 * dim, 17 * dim + (13 if kind == "nearly-normal" else 4)):
            c = _matrix(kind, dim, seed)
            res = delta(c)
            achieved = operator_norm(c - res.minimizer * np.eye(dim))
            assert abs(achieved - res.value) <= 1e-12 * res.value


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


# the trial workloads' job shapes, run at seeds 1-10, with the delta_general
# calls and solver SVDs they take: two solves a trial (one for lemma2's A
# alone) and as many for each run's worst-trial check
_JOB_SHAPES = {
    "explore-k3": (lambda seed: explore_two_positive(36, seed=seed, k=3), (740, 1973)),
    "lemma2-positive": (lambda seed: run_trials("lemma2", family="positive", dims=(2, 3),
                                                trials=180, seed=seed), (1810, 2711)),
    "theorem-cp-large": (lambda seed: run_trials("theorem", family="cp", dims=(8, 16),
                                                 trials=6, seed=seed), (140, 408)),
}


@pytest.mark.parametrize("shape", sorted(_JOB_SHAPES))
def test_explorer_delta_svd_budget(monkeypatch, shape):
    # the work of delta_general on each job shape: a total of SVDs that the
    # solver's stop and step rules and its Newton pre-bound fix; a change
    # that moves a total on purpose pins the new one and says why
    svd, solve = np.linalg.svd, scalar_distance.delta_general
    svds, solves = [], []

    def counted_svd(*args, **kwargs):
        if sys._getframe(1).f_code is solve.__code__:
            svds.append(1)
        return svd(*args, **kwargs)

    def counted_solve(c):
        solves.append(1)
        return solve(c)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(scalar_distance, "delta_general", counted_solve)
    run, expected = _JOB_SHAPES[shape]
    for seed in range(1, 11):
        run(seed)
    assert (len(solves), len(svds)) == expected


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
        res = delta_normal(big)
    assert res.minimizer == pytest.approx(5e199, rel=1e-12)
    assert res.value == pytest.approx(5e199, rel=1e-12)
    assert res.certified_gap <= 1e-12 * res.value
    assert is_normal(np.zeros((2, 2)))
    assert is_normal(np.zeros((0, 0)))
    assert not is_normal(tiny)
    with pytest.raises(ContractError):
        delta_normal(tiny)
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
    # Newton guard meets squared norms near 2**520; written as ratios, its
    # terms never multiply two of them, and the solve repeats the one at
    # scale 1 exactly
    c = ginibre(3, seed=4)
    base = delta_general(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = delta_general(c * 2.0**e)
    assert (res.value, res.certified_gap) == (base.value * 2.0**e, base.certified_gap * 2.0**e)


class _Unread:
    # a P that raises when read: the calls the pre-bound settles never read P
    def __getitem__(self, key):
        raise LookupError("P was read")


def _settled_by_the_pre_bound(monkeypatch, c) -> list:
    # for each _newton_point call of one solve, whether the pre-bound alone
    # settles it, found by replaying the call with a P it cannot read
    newton, calls = scalar_distance._newton_point, []

    def recorded(p, *rest):
        calls.append(rest)
        return newton(p, *rest)

    with monkeypatch.context() as patched:
        patched.setattr(scalar_distance, "_newton_point", recorded)
        delta_general(c)
    settled = []
    for rest in calls:
        try:
            newton(_Unread(), *rest)
        except LookupError:
            settled.append(False)
        else:
            settled.append(True)
    return settled


def test_the_newton_pre_bound_decides_the_same_calls_at_every_scale(monkeypatch):
    # Python floats overflow to inf without a warning, and the Hessian sum
    # still finds the step, so only the calls the pre-bound settles show
    # where its terms leave the float range.  2**260 and 2**-260 are solved
    # unscaled (the spread is inside 2**-300 .. 2**300), where a bound that
    # multiplies two terms of f's size reads inf / inf = NaN.  The bound
    # settles calls on Hermitian, normal and nearly Hermitian C and none on
    # Ginibre C; of those it settles, only the nearly Hermitian ones have a
    # new atom's variance s above ~1e-4 f, so that (f + f2) s overflows at 2**260
    decided = []
    for kind in ("ginibre", "hermitian", "normal", "nearly hermitian"):
        for dim in (3, 8, 16):
            for seed in range(20):
                if kind == "nearly hermitian":
                    c = (random_ensemble("hermitian", dim, seed=seed)
                         + 1e-2 * ginibre(dim, seed=seed + 1000))
                else:
                    c = random_ensemble(kind, dim, seed=seed)
                base = _settled_by_the_pre_bound(monkeypatch, c)
                for e in (260, -260):
                    assert _settled_by_the_pre_bound(monkeypatch, c * 2.0**e) == base, \
                        (kind, dim, seed, e)
                decided += base
    assert 0 < sum(decided) < len(decided)


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


def test_disk_route_on_a_subnormal_matrix():
    # ||C|| of a subnormal C is inexact, and dividing by it used to overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = delta_normal(np.diag([1e-320, 0.0]))
    assert 0.0 <= res.value - res.certified_gap <= 5e-321 <= res.value


def test_subnormal_brackets_hold_delta_exactly():
    # delta(diag(a, b)) = |a - b| / 2 exactly; a subnormal result makes the
    # division by the solve's scale round, and the bracket must round outward
    tiny = 5e-324
    missed = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(1, 200):
            for j in range(5):
                res = delta(np.diag([k * tiny, j * tiny]))
                exact = abs(Fraction(k * tiny) - Fraction(j * tiny)) / 2
                lower = Fraction(res.value) - Fraction(res.certified_gap)
                if not lower <= exact <= Fraction(res.value):
                    missed.append((k, j))
    assert missed == []
    res = delta(np.diag([tiny, 0.0]))
    assert (res.value, res.certified_gap) == (tiny, tiny)


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


def _circulant(col):
    """The circulant matrix with first column ``col``: normal whatever its
    entries, as circulants commute."""
    n = len(col)
    return np.asarray(col)[(np.arange(n)[:, None] - np.arange(n)) % n]


def _exact_inputs(dim):
    """Matrices that their float entries make exactly Hermitian or exactly
    normal: Hermitian draws, circulants, and _degenerate_spectra's matrices,
    where near-repeated singular values make 1 - |P_jj|^2 cancel in the
    solver's states; among these, the nearly Hermitian one is symmetrized and
    the one that is neither circulant nor Hermitian becomes the circulant
    with its spectrum."""
    rng = np.random.default_rng(dim)
    cs = [random_ensemble("hermitian", dim, seed=seed) for seed in range(3)]
    cs += [_circulant(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) for _ in range(2)]
    for c in _degenerate_spectra(dim):
        if np.array_equal(c, _circulant(c[:, 0])):
            cs.append(c)
        elif np.allclose(c, c.conj().T):
            cs.append((c + c.conj().T) / 2)
        else:
            cs.append(_circulant(np.fft.ifft(np.linalg.eigvals(c))))
    return cs


def _exact_delta(c, mp):
    """delta(C) at mp's precision for C exactly Hermitian (half the spread of
    its eigenvalues) or circulant (the radius of the smallest disk around its
    eigenvalues, the DFT of its first column): the smallest of the disks on
    1-3 eigenvalues that hold every eigenvalue."""
    n = c.shape[0]
    if np.array_equal(c, c.conj().T):
        eigs = mp.eighe(mp.matrix(c.tolist()), eigvals_only=True)
        return (max(eigs) - min(eigs)) / 2
    col = [mp.mpc(x) for x in c[:, 0].tolist()]
    eigs = [mp.fsum(col[j] * mp.expjpi(-2 * mp.mpf(j * k) / n) for j in range(n))
            for k in range(n)]
    slack = mp.mpf(10) ** -40 * (1 + max(abs(e) for e in eigs))
    best = None
    for support in itertools.chain(*(itertools.combinations(eigs, r) for r in (1, 2, 3))):
        if len(support) < 3:
            center = mp.fsum(support) / len(support)
        else:
            a, b, z = support
            d = 2 * ((b - a).real * (z - a).imag - (b - a).imag * (z - a).real)
            if abs(d) <= slack:
                continue  # collinear: a pair decides
            lb, lz = abs(b - a) ** 2, abs(z - a) ** 2
            center = a + mp.mpc((z - a).imag * lb - (b - a).imag * lz,
                                (b - a).real * lz - (z - a).real * lb) / d
        radius = max(abs(e - center) for e in support)
        if (best is None or radius < best) and all(abs(e - center) <= radius + slack for e in eigs):
            best = radius
    return best


@pytest.mark.parametrize("dim", range(2, 17))
def test_bracket_holds_delta_to_50_digits(dim):
    # [value - certified_gap, value] holds delta(C) computed at 50 digits,
    # up to 16 rounding units of delta
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for c in _exact_inputs(dim):
            res = delta(c)
            exact = _exact_delta(c, mpmath.mp)
            assert mpmath.mpf(res.value) - mpmath.mpf(res.certified_gap) <= exact * (1 + 16 * eps)
            assert mpmath.mpf(res.value) >= exact * (1 - 16 * eps)


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
