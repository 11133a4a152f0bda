"""Reference routes for delta(C), kept beside the tests that use them.

The lab computes delta(C) = inf over lambda of ||C - lambda I|| with one
solver, ``gruss_lab.scalar_distance.delta_general``.  The references here
check it from outside:

* ``delta_normal`` -- the spectral route for normal C: the smallest disk
  enclosing the spectrum (``smallest_enclosing_disk``), built on the
  solver's own closed-form model step ``_add_atom`` with one atom per
  eigenvalue.
* ``delta_grid_oracle`` -- the exact minimum over a square grid (Lipschitz
  pruning skips points that cannot win), independent of the model.

Each returns a ``DeltaResult`` whose [value - certified_gap, value] holds
delta(C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gruss_lab.errors import ContractError, NumericError
from gruss_lab.linalg import as_matrix, operator_norm, operator_norms
from gruss_lab.scalar_distance import DeltaResult, _add_atom, _exact_scale, is_normal


@dataclass(frozen=True)
class SpectralDisk:
    """Smallest disk enclosing a finite set of points in the complex plane."""

    center: complex
    radius: float
    support: tuple[complex, ...]


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
    return DeltaResult(value=value, minimizer=disk.center, certified_gap=max(value - lower, 0.0))


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
                       certified_gap=spacing)
