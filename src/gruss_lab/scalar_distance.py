"""Distance of an operator from the scalar multiples of the identity.

For a square matrix C the quantity of interest is

    delta(C) = inf over complex lambda of  || C - lambda * I ||

in operator norm.  By the duality

    delta(C)^2 = max over states rho of  tr(C*C rho) - |tr(C rho)|^2

(J. G. Stampfli, Pacific J. Math. 33 (1970); R. Bhatia and P. Semrl,
Linear Algebra Appl. 287 (1999)) any finite set of states gives a lower
bound: the optimum of a weighted smallest-enclosing-disk model.

* ``delta_general`` -- any C, and what ``delta`` runs.  Column generation:
  each step evaluates ||C - lambda I||, an upper bound, and adds its top
  right singular vector to the model, until the two bounds meet; the first
  SVD contributes all of its states, which on a normal C make the model the
  spectral disk at once.  The next lambda is the model's minimizer, or,
  from the first SVD on, where sigma_1(C - lambda I)^2 is smooth and its
  quadratic model stays above the lower bound, the Newton point that the
  same SVD gives.
* ``delta_normal`` -- spectral reference route for normal C: the same model
  over unit eigenvectors, i.e. the smallest disk enclosing the spectrum.
* ``delta_grid_oracle`` -- exact minimum over a square grid (Lipschitz
  pruning skips points that cannot win), kept independent of the model so
  it can cross-check both routes.

Every route reports a two-sided bracket: ``value`` is an evaluated norm
||C - minimizer*I|| and ``value - certified_gap`` a lower bound on delta(C).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError
from .linalg import as_matrix, dag, operator_norm, operator_norms

#: bound on ||UU* - U*U|| for U = C/||C|| below which C is treated as normal
NORMALITY_TOL = 1e-9

#: delta_general stops once its bracket is this narrow, relative to
#: ||C - tr(C)/dim I|| / 2, a lower bound on delta(C)
BRACKET_TOL = 1e-12

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
    it from below (up to rounding).  The lower bound is the best mixture of
    the states in the model: the top singular vectors the convex route
    collected, or the unit eigenvectors behind the disk's support (its
    distance from the center to the nearest support eigenvalue); for the
    oracle it is the grid minimum less the grid spacing (f is 1-Lipschitz).
    The convex route's gap is at most BRACKET_TOL * value, unless rounding
    stops the solver first.
    """

    value: float
    minimizer: complex
    method: str  # "disk" | "convex" | "grid"
    certified_gap: float


# ---------------------------------------------------------------------------
# the delta routes


def _exact_scale(x) -> float:
    """Power of two that brings the largest |entry| of ``x`` near 1 when
    it lies outside about 2**-300 .. 2**300, else 1: the model multiplies
    three factors of that size (``_all_active``), and their product must
    stay inside the float range.  Scaling by a power of two is exact, and
    delta is positively homogeneous, so a route may solve the scaled problem
    and divide its results by the scale.  A subnormal entry is scaled by at
    most 2**1000, which keeps the scale finite."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return 1.0 if abs(e) < 300 else 2.0 ** -max(e, -1000)


def is_normal(c) -> bool:
    """Whether one matrix C is normal: ||UU* - U*U|| <= NORMALITY_TOL for
    U = C/||C||, with C = 0 and an empty C normal and a non-square C not.
    A square C with a NaN or infinite entry is refused as ``as_matrix``
    refuses it.  C is taken at its exact prescale (``_exact_scale``), which
    keeps ||C||^2 from overflowing or underflowing into the answer and a
    subnormal C's norm accurate."""
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        return False
    if c.size == 0:
        return True
    c = as_matrix(c) * _exact_scale(c)
    nrm = operator_norm(c)
    u = c / nrm if nrm > 0 else c  # C = 0 is normal
    return operator_norm(u @ dag(u) - dag(u) @ u) <= NORMALITY_TOL


def delta_normal(c) -> DeltaResult:
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
    disk = smallest_enclosing_disk(eigs)
    value = operator_norm(c - disk.center * np.eye(c.shape[0]))
    lower = min(abs(p - disk.center) for p in disk.support)
    return DeltaResult(value=value, minimizer=disk.center, method="disk",
                       certified_gap=max(value - lower, 0.0))


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


def smallest_enclosing_disk(points) -> SpectralDisk:
    """Smallest disk enclosing finitely many complex points.

    The model above with one atom (p, 0) per point, so max_i |p_i - lam|^2
    is the squared radius of the disk centered at lam: from the centroid,
    the point farthest from the current center joins the model until none
    lies outside.  The support is the 1-3 points on the boundary; the radius
    is evaluated over every point.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size == 0:
        raise ContractError("smallest_enclosing_disk needs at least one point")
    mu = complex(pts.mean())  # work relative to the centroid, like delta_general
    rel = pts - mu
    scale = _exact_scale(rel)  # the model squares distances
    rel = rel * scale
    support, g, lam = [], -math.inf, 0j
    while True:
        far = complex(rel[np.argmax(np.abs(rel - lam))])
        if abs(far - lam) ** 2 <= g:
            break
        g_new, lam, support = _add_atom(support, (far, 0.0))
        if g_new <= g:
            break  # rounding level: the farthest point sits on the boundary
        g = g_new
    center = mu + lam / scale
    return SpectralDisk(center=center, radius=float(np.abs(pts - center).max()),
                        support=tuple(mu + z / scale for z, _ in support))


def _newton_point(u, sv: list, vh, lam: complex, zv: complex, s: float,
                  g: float) -> complex | None:
    """Newton point of f(lam) = sigma_1(C0 - lam I)^2 from the full SVD
    M = C0 - lam I = sum_j sigma_j u_j v_j*, with the singular values ``sv``
    as Python floats, or None when the quadratic model predicts a value at
    or below the lower bound g (f* >= g, so the model is then wrong, as it
    always is on normal C).

    With f smooth at a simple sigma_1, the gradient over (Re, Im) lam is
    -2 (z - lam) = -2 zv, and the Hessian is
    2 I + 2 sum_{j>=2} Re(conj(c_j(e)) c_j(e')) / (sigma_1^2 - sigma_j^2)
    with c_j(e) = conj(e) sigma_1 <v_j, u_1> + e sigma_j <u_j, v_1> for
    e, e' in {1, i}.  Its largest eigenvalue is at most
    2 + 4 (sigma_1^2 + sigma_2^2) s / (sigma_1^2 (sigma_1^2 - sigma_2^2)),
    s the new atom's variance, which rules most calls out before the sum.
    That bound multiplies squares of f's size, so it is evaluated with f, f2,
    s, w and g over the power of two nearest f: exact, so the decision is the
    unscaled one wherever that stays finite, and the products never overflow.
    The sum runs over the d - 1 lower singular values in Python scalars.
    """
    s1 = sv[0]
    f, f2 = s1 * s1, sv[1] * sv[1]
    w2 = zv.real * zv.real + zv.imag * zv.imag
    r = 2.0 ** -math.frexp(f)[1]
    fr, f2r = f * r, f2 * r
    if fr - 2.0 * (w2 * r) / (2.0 + 4.0 * (fr + f2r) * (s * r) / (fr * (fr - f2r))) <= g * r:
        return None  # predicted = f - 2 w^T H^-1 w <= f - 2 |w|^2 / lambda_max(H)
    # H = 2 [[hxx, hxy], [hxy, hyy]], so the step -H^-1 grad is H^-1 (2 zv)
    hxx = hyy = hxy = 0.0
    for vu, uv, sj in zip((vh[1:] @ u[:, 0]).tolist(),  # <v_j, u_1>
                          (vh[0] @ u[:, 1:]).tolist(), sv[1:]):  # conj(<u_j, v_1>)
        p, q = s1 * vu, sj * uv.conjugate()
        c1, ci = p + q, 1j * (q - p)
        gap = f - sj * sj
        hxx += (c1.real * c1.real + c1.imag * c1.imag) / gap
        hyy += (ci.real * ci.real + ci.imag * ci.imag) / gap
        hxy += (c1.real * ci.real + c1.imag * ci.imag) / gap
    hxx, hyy = 1.0 + hxx, 1.0 + hyy
    det = hxx * hyy - hxy * hxy
    step = complex(hyy * zv.real - hxy * zv.imag, hxx * zv.imag - hxy * zv.real) / det
    if f - (zv.real * step.real + zv.imag * step.imag) <= g:
        return None
    return lam + step


def delta_general(c) -> DeltaResult:
    """Distance to the scalars for an arbitrary square matrix.

    Column generation over states, starting at lambda = tr(C)/dim.  Each
    step takes one SVD of C - lambda I: its top singular value is an upper
    bound, and its top right singular vector v becomes the atom
    z = <v, Cv>, s = ||Cv||^2 - |z|^2.  The first SVD contributes all of
    its states: after the top one, every other right singular vector whose
    atom lies above the lower bound at the current model point joins the
    model too, so on a normal C, whose singular vectors there are
    eigenvectors, the model after one SVD is the spectral disk.  The model
    min over lambda of max_i |z_i - lambda|^2 + s_i  over the retained
    atoms is re-solved in closed form (keeping only its 1-3 support atoms),
    which gives a lower bound that never decreases and the model point, its
    minimizer.  The next lambda is the model point, except where
    f = sigma_1(C - lambda I)^2 is smooth: after any step that lowered the
    upper bound, the first included, and with sigma_1 > sigma_2, the same
    SVD gives the Newton point of f (``_newton_point``), taken when its
    predicted value exceeds the lower bound.  Column generation alone
    converges linearly at such a smooth minimum, which non-normal C have;
    Newton steps converge quadratically (A. S. Lewis and M. L. Overton,
    Acta Numerica 5 (1996)).  On normal C the Newton point is never taken.

    A spread of C - tr(C)/dim whose cube would leave the float range is
    solved at an exact power-of-two scale (``_exact_scale``), with every
    bound below taken on the scaled problem.

    The solver stops when upper - lower <= tol, tested after each SVD and
    again as soon as new atoms raise the lower bound, so the atoms that
    close the bracket cost no further SVD.  tol = BRACKET_TOL *
    sigma_1(C0) / 2 for C0 = C - tr(C)/dim I, the first SVD's upper bound:
    as ||C0|| / 2 <= delta(C) <= ||C||, it is relative to delta(C) and never
    looser than BRACKET_TOL * ||C||, and C = 0 stops at once with gap 0.
    The solver also stops when rounding stops the new atom of a model point
    from raising the lower bound, or after _MAX_ITERATIONS steps; the value
    is the best evaluated norm and certified_gap the final upper - lower in
    every case.
    """
    m = np.ascontiguousarray(as_matrix(c, square=True))
    dim = m.shape[0]
    # work relative to tr(C)/dim, where the atoms are no larger than 2 delta,
    # and on a scale where the model's squared distances stay finite
    diag = m.reshape(-1)[::dim + 1]  # a view (m is C-ordered) of m's diagonal
    mu = complex(diag.sum()) / dim
    diag -= mu
    scale = _exact_scale(m)
    if scale != 1.0:
        m *= scale
    c0_diag = diag.copy()  # m holds C0 now, and C0 - lam I at each step

    support: list = []
    g = -math.inf
    lam = model = 0j  # the point evaluated next, and the model point
    upper, best = math.inf, 0j
    for step in range(_MAX_ITERATIONS):
        if step:
            np.subtract(c0_diag, lam, out=diag)
        try:
            u, sv, vh = np.linalg.svd(m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"svd did not converge: {exc}") from exc
        sv = sv.tolist()
        lowered = sv[0] < upper
        if lowered:
            upper, best = sv[0], lam
        if step == 0:
            tol = BRACKET_TOL * upper / 2.0  # ||C0|| / 2 <= delta(C0)
        if upper - math.sqrt(max(g, 0.0)) <= tol:
            break
        # the states: every right singular vector at the first step, the top
        # one after it (in vector form, cheaper for one state);
        # s = ||r||^2 = ||Mv||^2 - |z|^2 without the cancellation
        if step == 0:
            v = vh.conj().T
            w = m @ v
            zs = np.einsum("ij,ij->j", v.conj(), w)
            r = w - v * zs
            ss = np.einsum("ij,ij->j", r.conj(), r).real.tolist()
            zs = zs.tolist()
        else:
            v = vh[0].conj()
            w = m @ v
            zv = complex(np.vdot(v, w))
            r = w - zv * v
            zs, ss = [zv], [float(np.vdot(r, r).real)]
        zv, s = zs[0], ss[0]
        raised = False
        for j, (z, sj) in enumerate(zip(zs, ss)):
            z += lam
            if j and abs(z - model) ** 2 + sj <= g:
                continue  # inside the model at its point: adds nothing
            g_new, model_new, support_new = _add_atom(support, (z, sj))
            if g_new > g:
                g, model, support, raised = g_new, model_new, support_new, True
        if raised:
            if upper - math.sqrt(g) <= tol:
                break  # the new states close the bracket
        elif lam == model:
            break  # the new state no longer raises the model: rounding level
        newton = None
        if lowered and sv[0] > sv[1]:
            newton = _newton_point(u, sv, vh, lam, zv, s, g)
        lam = model if newton is None else newton
    gap = max(upper - math.sqrt(max(g, 0.0)), 0.0)
    if scale != 1.0:  # back to the units of C; at 1, dividing could flip a zero's sign
        upper, gap, best = upper / scale, gap / scale, best / scale
    return DeltaResult(value=upper, minimizer=mu + best, method="convex",
                       certified_gap=gap)


#: the grid oracle first evaluates every GRID_STRIDE-th index on each axis
GRID_STRIDE = 10


def delta_grid_oracle(c, half_width: float, resolution: int) -> DeltaResult:
    """Minimum of ||C - lambda I|| over a square grid, exact on the grid.

    The grid is centered at trace(C)/dim with the given half width;
    certified_gap equals the grid spacing (f is 1-Lipschitz in lambda).
    Lipschitz pruning (B. O. Shubert, SIAM J. Numer. Anal. 9 (1972)):
    a coarse subset, every ``GRID_STRIDE``-th index plus the last, is
    evaluated first; a point p whose nearest coarse point q has
    f(q) - |p - q| above the coarse minimum (plus a rounding slack) cannot
    be the minimum and is skipped.  Every other point is evaluated, and the
    first of the smallest values in grid order wins, as in an exhaustive
    search.  As |lambda* - trace(C)/dim| <= delta(C) <= value, the square
    provably holds the minimizer lambda* only if value <= half_width; else,
    or for a half width that is not finite and positive, ``ContractError``.
    """
    c = as_matrix(c, square=True)
    if resolution < 2:
        raise ContractError(f"grid resolution must be >= 2, got {resolution}")
    if not (math.isfinite(half_width) and half_width > 0):
        raise ContractError(f"grid half width must be finite and positive, got {half_width}")
    eye = np.eye(c.shape[0])
    center = complex(np.trace(c)) / c.shape[0]
    xs = np.linspace(-half_width, half_width, resolution)
    grid = center + xs[:, None] + 1j * xs[None, :]
    idx = np.arange(resolution)
    coarse = np.unique(np.append(idx[::GRID_STRIDE], resolution - 1))
    near = np.abs(idx[:, None] - coarse[None, :]).argmin(axis=1)  # per axis, into coarse
    f_coarse = operator_norms(c - grid[np.ix_(coarse, coarse)][..., None, None] * eye)
    lower = (f_coarse[np.ix_(near, near)]
             - np.abs(grid - grid[np.ix_(coarse[near], coarse[near])]))
    slack = 1e-9 * (1.0 + operator_norm(c))
    candidates = np.flatnonzero(lower <= f_coarse.min() + slack)
    points = grid.ravel()[candidates]
    vals = operator_norms(c - points[:, None, None] * eye)
    best = int(np.argmin(vals))
    if vals[best] > half_width:
        raise ContractError(f"grid minimum {vals[best]:.6g} > half width {half_width:.6g}")
    spacing = float(xs[1] - xs[0])
    return DeltaResult(value=float(vals[best]), minimizer=complex(points[best]),
                       method="grid", certified_gap=spacing)


def delta(c, method: str = "auto") -> DeltaResult:
    """Dispatch among the delta routes.

    ``auto`` and ``convex`` run ``delta_general`` on every square C, normal
    or not; ``disk`` is the spectral reference route (normal C only) and
    ``grid`` the exhaustive oracle (on a square that holds its check).
    Each route coerces C itself.
    """
    if method in ("auto", "convex"):
        return delta_general(c)
    if method == "disk":
        return delta_normal(c)
    if method == "grid":
        c = as_matrix(c, square=True)
        centered = c - np.trace(c) / c.shape[0] * np.eye(c.shape[0])
        return delta_grid_oracle(c, max(operator_norm(c) + 1.0, operator_norm(centered)), 201)
    raise ContractError(f"unknown delta method {method!r}")
