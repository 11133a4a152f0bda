"""Distance of an operator from the scalar multiples of the identity.

For a square matrix C the quantity of interest is

    delta(C) = inf over complex lambda of  || C - lambda * I ||

in operator norm.  Three routes are implemented:

* ``delta_normal``  -- for normal C the infimum equals the radius of the
  smallest disk enclosing the spectrum (the Chebyshev radius), so it reduces
  to an eigenvalue computation plus a smallest-enclosing-disk problem.
* ``delta_general`` -- any C, by column generation over states on the
  duality

      delta(C)^2 = max over states rho of  tr(C*C rho) - |tr(C rho)|^2

  (J. G. Stampfli, Pacific J. Math. 33 (1970); R. Bhatia and P. Semrl,
  Linear Algebra Appl. 287 (1999)).  Each step evaluates ||C - lambda I||,
  an upper bound, and turns its top right singular vector into a state whose
  mixtures give lower bounds; the solver stops when the two meet.
* ``delta_grid_oracle`` -- exhaustive minimum over a square grid, kept
  deliberately independent of the other routes so they can cross-check each
  other.

Every route reports a two-sided bracket: ``value`` is an evaluated norm
||C - minimizer*I|| and ``value - certified_gap`` a lower bound on delta(C).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError
from .linalg import Matrix, as_matrix, dag, operator_norm, operator_norms

#: relative tolerance on ||CC* - C*C|| below which C is treated as normal
NORMALITY_TOL = 1e-9

#: delta_general stops once its bracket is this narrow, relative to 1 + ||C||
BRACKET_TOL = 1e-12

_CONTAINS_EPS = 1e-12
_DEDUPE_EPS = 1e-12
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SpectralDisk:
    """Smallest disk enclosing a finite set of points in the complex plane."""

    center: complex
    radius: float
    support: tuple[complex, ...]


@dataclass(frozen=True)
class DeltaResult:
    """Achieved distance to the scalars, with the minimizing scalar.

    ``value`` is always an evaluated norm ||C - minimizer*I||, never just a
    claim, so it bounds delta(C) from above; ``value - certified_gap`` bounds
    it from below (up to rounding).  The lower bound is the distance from the
    disk's center to its nearest support eigenvalue for the disk route
    (eigenvector states), the best mixture of the solver's states for the
    convex route, and the grid minimum less the grid spacing for the oracle
    (f is 1-Lipschitz).
    """

    value: float
    minimizer: complex
    method: str  # "disk" | "convex" | "grid"
    certified_gap: float


# ---------------------------------------------------------------------------
# smallest enclosing disk (randomized incremental construction)


def _contains(center: complex, radius: float, p: complex) -> bool:
    return abs(p - center) <= radius * (1.0 + _CONTAINS_EPS) + _CONTAINS_EPS


def _disk_two(a: complex, b: complex) -> tuple[complex, float, tuple[complex, ...]]:
    center = (a + b) / 2.0
    radius = max(abs(a - center), abs(b - center))
    return center, radius, (a, b)


def _circumdisk(a: complex, b: complex, c: complex):
    ax, ay, bx, by, cx, cy = a.real, a.imag, b.real, b.imag, c.real, c.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(a - b), abs(b - c), abs(c - a), 1e-300)
    if abs(d) <= 1e-14 * scale * scale:
        return None  # collinear
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = complex(ux, uy)
    radius = max(abs(a - center), abs(b - center), abs(c - center))
    return center, radius, (a, b, c)


def _disk_with_two_boundary(points, p: complex, q: complex):
    circ = _disk_two(p, q)
    left = None
    right = None
    pq = q - p
    for r in points:
        if _contains(circ[0], circ[1], r):
            continue
        cross = (pq.conjugate() * (r - p)).imag
        c = _circumdisk(p, q, r)
        if c is None:
            continue
        cc = (pq.conjugate() * (c[0] - p)).imag
        if cross > 0.0 and (left is None or cc > (pq.conjugate() * (left[0] - p)).imag):
            left = c
        elif cross < 0.0 and (right is None or cc < (pq.conjugate() * (right[0] - p)).imag):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[1] <= right[1] else right


def _disk_with_one_boundary(points, p: complex):
    disk = (p, 0.0, (p,))
    for j, q in enumerate(points):
        if not _contains(disk[0], disk[1], q):
            if disk[1] == 0.0:
                disk = _disk_two(p, q)
            else:
                disk = _disk_with_two_boundary(points[:j], p, q)
    return disk


def smallest_enclosing_disk(points, seed=0) -> SpectralDisk:
    """Minimal enclosing disk of complex points.

    Randomized incremental construction (expected linear time); the shuffle
    is driven by ``seed`` so results are reproducible.  Points closer than
    1e-12 are deduplicated first.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise ContractError("smallest_enclosing_disk needs at least one point")
    uniq: list[complex] = []
    for p in pts:
        if all(abs(p - q) > _DEDUPE_EPS for q in uniq):
            uniq.append(p)
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(uniq)))
    shuffled = [uniq[i] for i in order]

    disk = None
    for i, p in enumerate(shuffled):
        if disk is None or not _contains(disk[0], disk[1], p):
            disk = _disk_with_one_boundary(shuffled[:i], p)
    center, radius, support = disk
    return SpectralDisk(center=center, radius=float(radius), support=tuple(support))


# ---------------------------------------------------------------------------
# the three delta routes


def is_normal(c, tol: float = NORMALITY_TOL) -> bool:
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        return False
    nrm = operator_norm(c)
    return operator_norm(c @ dag(c) - dag(c) @ c) <= tol * nrm * nrm


def normal_eigenvalues(c) -> tuple[np.ndarray, Matrix]:
    """Spectrum of a normal matrix via complex Schur triangularization.

    Returns (eigenvalues, Q) with Q unitary and C = Q diag(eig) Q* up to the
    (tiny, for normal C) off-diagonal part of the Schur factor.
    """
    import scipy.linalg  # deferred: nothing on the CLI's paths needs scipy

    c = as_matrix(c, square=True)
    try:
        t, q = scipy.linalg.schur(c, output="complex")
    except Exception as exc:  # scipy raises LinAlgError/ValueError variants
        raise NumericError(f"schur decomposition failed: {exc}") from exc
    return np.diagonal(t).copy(), q


def delta_normal(c, seed=0) -> DeltaResult:
    """Distance to the scalars for a normal matrix, via the spectral disk.

    The value is ||C - center*I|| at the center of the smallest disk holding
    the spectrum.  A mixture of unit-eigenvector states is a state, so the
    smallest distance from the center to the disk's support eigenvalues is a
    lower bound on delta(C) for any C; the gap is what separates the two,
    0 up to rounding for an exactly normal C.
    """
    c = as_matrix(c, square=True)
    if not is_normal(c):
        raise ContractError(
            "delta_normal requires a normal matrix (||CC*-C*C|| too large); "
            "use delta_general instead"
        )
    try:
        eigs = np.linalg.eigvals(c)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalues did not converge: {exc}") from exc
    disk = smallest_enclosing_disk(eigs, seed=seed)
    value = operator_norm(c - disk.center * np.eye(c.shape[0]))
    lower = min(abs(p - disk.center) for p in disk.support)
    return DeltaResult(value=value, minimizer=disk.center, method="disk",
                       certified_gap=max(value - lower, 0.0))


def _norms_minus_scalars(c: Matrix, lams: np.ndarray) -> np.ndarray:
    eye = np.eye(c.shape[0], dtype=np.complex128)
    stack = c[None, :, :] - lams[:, None, None] * eye[None, :, :]
    return operator_norms(stack)


# An atom (z, s) stands for a state rho with z = tr(C rho) and
# s = tr(C*C rho) - |z|^2, so that tr((C-lam)*(C-lam) rho) = |z - lam|^2 + s.
# For weights p on atoms the mixture is a state too, which makes
#     sum_i p_i (|z_i - lam|^2 + s_i)  at  lam = sum_i p_i z_i
# a lower bound on delta(C)^2 for every p in the simplex.  Maximizing it over
# p is the dual of  min over lam of max_i |z_i - lam|^2 + s_i,  a weighted
# smallest-enclosing-disk problem that, in the plane, some 1, 2 or 3 atoms
# with every atom active decide.


def _mixture(atoms, weights) -> tuple[float, complex]:
    """(lower bound on delta^2, lam) of the mixture with these weights."""
    lam = sum(p * z for p, (z, _) in zip(weights, atoms))
    g = sum(p * (abs(z - lam) ** 2 + s) for p, (z, s) in zip(weights, atoms))
    return g, lam


def _all_active(atoms) -> tuple[float, complex] | None:
    """Mixture of 2 or 3 atoms at the point where all are active, or None
    when that point has a negative weight (another support decides) or the
    atoms are degenerate."""
    (za, sa), (zb, sb) = atoms[:2]
    e1 = zb - za
    l1 = e1.real * e1.real + e1.imag * e1.imag
    if len(atoms) == 2:
        if l1 == 0.0:
            return None
        t = (l1 + sb - sa) / (2.0 * l1)
        if not 0.0 <= t <= 1.0:
            return None
        return _mixture(atoms, (1.0 - t, t))
    zc, sc = atoms[2]
    e2 = zc - za
    det = e1.real * e2.imag - e1.imag * e2.real
    if det == 0.0:
        return None
    # lam = za + x with Re(conj(e_i) x) = (|e_i|^2 + s_i - sa) / 2
    r1 = (l1 + sb - sa) / 2.0
    r2 = (e2.real * e2.real + e2.imag * e2.imag + sc - sa) / 2.0
    x = complex(r1 * e2.imag - r2 * e1.imag, e1.real * r2 - e2.real * r1) / det
    # barycentric weights of lam in the triangle
    pb = (x.real * e2.imag - x.imag * e2.real) / det
    pc = (e1.real * x.imag - e1.imag * x.real) / det
    if pb < 0.0 or pc < 0.0 or pb + pc > 1.0:
        return None
    return _mixture(atoms, (1.0 - pb - pc, pb, pc))


def _add_atom(support: list, atom) -> tuple[float, complex, list]:
    """Optimum of the model over ``support`` plus ``atom``, with its support.

    ``atom`` is violated at the current optimum, so it belongs to the new
    support; the best all-active mixture among the subsets holding it is the
    new optimum.
    """
    best = (atom[1], atom[0], [atom])  # the atom alone is always a support
    for others in itertools.chain(itertools.combinations(support, 1),
                                  itertools.combinations(support, 2)):
        atoms = [atom, *others]
        res = _all_active(atoms)
        if res is not None and res[0] > best[0]:
            best = (res[0], res[1], atoms)
    return best


def delta_general(c) -> DeltaResult:
    """Distance to the scalars for an arbitrary square matrix.

    Column generation over states, starting at lambda = tr(C)/dim.  Each
    step takes one SVD of C - lambda I: its top singular value is an upper
    bound, and its top right singular vector v becomes the atom
    z = <v, Cv>, s = ||Cv||^2 - |z|^2.  The model
    min over lambda of max_i |z_i - lambda|^2 + s_i  over the retained
    atoms is re-solved in closed form (keeping only its 1-3 support atoms),
    which gives the next lambda and a lower bound that never decreases.  The
    solver stops when upper - lower <= BRACKET_TOL * (1 + ||C||), when
    rounding stops the lower bound from rising, or after _MAX_ITERATIONS
    steps; the value is the best evaluated norm and certified_gap the final
    upper - lower in every case.
    """
    c = as_matrix(c, square=True)
    dim = c.shape[0]
    tol = BRACKET_TOL * (1.0 + operator_norm(c))
    # work relative to tr(C)/dim, where the atoms are no larger than 2 delta
    mu = complex(np.trace(c)) / dim
    eye = np.eye(dim)
    c0 = c - mu * eye

    support: list = []
    g = -math.inf
    lam = 0j
    upper, best = math.inf, 0j
    for _ in range(_MAX_ITERATIONS):
        m = c0 - lam * eye
        try:
            _, sv, vh = np.linalg.svd(m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"svd did not converge: {exc}") from exc
        if sv[0] < upper:
            upper, best = float(sv[0]), lam
        if upper - math.sqrt(max(g, 0.0)) <= tol:
            break
        v = vh[0].conj()
        w = m @ v
        zv = complex(np.vdot(v, w))
        r = w - zv * v  # s = ||r||^2 = ||Cv||^2 - |z|^2 without the cancellation
        g_new, lam, support = _add_atom(support, (zv + lam, float(np.vdot(r, r).real)))
        if g_new <= g:
            break  # the new state no longer raises the model: rounding level
        g = g_new
    lower = math.sqrt(max(g, 0.0))
    return DeltaResult(value=upper, minimizer=mu + best, method="convex",
                       certified_gap=max(upper - lower, 0.0))


def delta_grid_oracle(c, half_width: float, resolution: int) -> DeltaResult:
    """Exhaustive minimum of ||C - lambda I|| over a square grid.

    The grid is centered at trace(C)/dim with the given half width;
    certified_gap equals the grid spacing (f is 1-Lipschitz in lambda).
    """
    c = as_matrix(c, square=True)
    if resolution < 2:
        raise ContractError(f"grid resolution must be >= 2, got {resolution}")
    center = complex(np.trace(c)) / c.shape[0]
    xs = np.linspace(-half_width, half_width, resolution)
    grid = (center + xs[:, None] + 1j * xs[None, :]).ravel()
    vals = _norms_minus_scalars(c, grid)
    best = int(np.argmin(vals))
    spacing = float(xs[1] - xs[0])
    return DeltaResult(value=float(vals[best]), minimizer=complex(grid[best]),
                       method="grid", certified_gap=spacing)


def delta(c, method: str = "auto", seed=0) -> DeltaResult:
    """Dispatch among the delta routes.

    ``auto`` uses the spectral-disk route when C is normal within tolerance
    and the convex route otherwise.
    """
    c = as_matrix(c, square=True)
    if method == "auto":
        return delta_normal(c, seed=seed) if is_normal(c) else delta_general(c)
    if method == "disk":
        return delta_normal(c, seed=seed)
    if method == "convex":
        return delta_general(c)
    if method == "grid":
        return delta_grid_oracle(c, operator_norm(c) + 1.0, 201)
    raise ContractError(f"unknown delta method {method!r}")
