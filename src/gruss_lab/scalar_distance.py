"""Distance of an operator from the scalar multiples of the identity.

For a square matrix C the quantity of interest is

    delta(C) = inf over complex lambda of  || C - lambda * I ||

in operator norm.  By the duality

    delta(C)^2 = max over states rho of  tr(C*C rho) - |tr(C rho)|^2

(J. G. Stampfli, Pacific J. Math. 33 (1970); R. Bhatia and P. Semrl,
Linear Algebra Appl. 287 (1999)) any finite set of states gives a lower
bound: the optimum of a weighted smallest-enclosing-disk model.

``delta_general`` computes it for any C, and ``delta`` runs it.  Column
generation: each step evaluates ||C - lambda I||, an upper bound, and adds
its top right singular vector to the model, until the two bounds meet; the
first SVD contributes all of its states, which on a normal C make the model
the spectral disk at once.  The next lambda is the model's minimizer, or,
from the first SVD on, where sigma_1(C - lambda I)^2 is smooth and its
quadratic model stays above the lower bound, the Newton point that the same
SVD gives.

The result is a two-sided bracket: ``value`` is an evaluated norm
||C - minimizer*I|| and ``value - certified_gap`` a lower bound on delta(C).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .linalg import as_matrix, dag, operator_norm

#: bound on ||UU* - U*U|| for U = C/||C|| below which C is treated as normal
NORMALITY_TOL = 1e-9

#: delta_general stops once its bracket is this narrow, relative to
#: ||C - tr(C)/dim I|| / 2, a lower bound on delta(C)
BRACKET_TOL = 1e-12

_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class DeltaResult:
    """Achieved distance to the scalars, with the minimizing scalar.

    ``value`` is always an evaluated norm ||C - minimizer*I||, never just a
    claim, so it bounds delta(C) from above; ``value - certified_gap`` bounds
    it from below (up to rounding): the best mixture of the states in the
    solver's model, the top singular vectors it collected.  Where C is
    solved at a scale (``_exact_scale``) and dividing a bound by it rounds,
    as it does for a subnormal result, the bracket is rounded outward: the
    value up and the lower bound down, by one unit in the last place.  The
    gap is at most BRACKET_TOL * value, unless rounding stops the solver
    first.
    """

    value: float
    minimizer: complex
    certified_gap: float


def _exact_scale(x) -> float:
    """Power of two that brings the largest |entry| of ``x`` near 1 when
    it lies outside about 2**-300 .. 2**300, else 1: the model multiplies
    three factors of that size (``_add_atom``), and their product must
    stay inside the float range.  The Newton point's terms (``_newton_point``),
    squares and ratios of squares, then stay in range too.  Scaling by a
    power of two is exact, and delta is positively homogeneous, so a route
    may solve the scaled problem and divide its results by the scale.  A
    subnormal entry is scaled by at most 2**1000, which keeps the scale
    finite."""
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


# An atom (z, s) stands for a state rho with z = tr(C rho) and
# s = tr(C*C rho) - |z|^2, so that tr((C-lam)*(C-lam) rho) = |z - lam|^2 + s.
# For weights p on atoms the mixture is a state too, which makes
#     sum_i p_i (|z_i - lam|^2 + s_i)  at  lam = sum_i p_i z_i
# a lower bound on delta(C)^2 for every p in the simplex.  Maximizing it over
# p is the dual of  min over lam of max_i |z_i - lam|^2 + s_i,  a weighted
# smallest-enclosing-disk problem that, in the plane, some 1, 2 or 3 atoms
# with every atom active decide.


def _add_atom(support: list, atom) -> tuple[float, complex, list]:
    """Optimum of the model over ``support`` plus ``atom``, with its support.

    ``atom`` is violated at the current optimum, so it belongs to the new
    support: the new optimum is the atom alone or the best mixture, over the
    subsets of 2 or 3 atoms holding it, at the point lam where all of them
    are active.  A subset is passed over when that point has a negative
    weight (another support decides) or its atoms are degenerate: coincident,
    or collinear for 3.
    """
    za, sa = atom
    best = (sa, za, [atom])
    # lam = za + x has atom a and b = (zb, sb) active where
    # Re(conj(e) x) = q / 2, with e = zb - za and q = |e|^2 + sb - sa
    edges = []
    for b in support:
        zb, sb = b
        e = zb - za
        l = e.real * e.real + e.imag * e.imag
        q = l + sb - sa
        edges.append((b, e, q))
        if l == 0.0:
            continue
        t = q / (2.0 * l)  # x = t e on the edge
        if 0.0 <= t <= 1.0:
            lam = (1.0 - t) * za + t * zb
            g = (1.0 - t) * (abs(za - lam) ** 2 + sa) + t * (abs(zb - lam) ** 2 + sb)
            if g > best[0]:
                best = (g, lam, [atom, b])
    for (b, e1, q1), (c, e2, q2) in itertools.combinations(edges, 2):
        det = e1.real * e2.imag - e1.imag * e2.real
        if det == 0.0:
            continue
        r1, r2 = q1 / 2.0, q2 / 2.0
        x = complex(r1 * e2.imag - r2 * e1.imag, e1.real * r2 - e2.real * r1) / det
        # barycentric weights of lam in the triangle
        pb = (x.real * e2.imag - x.imag * e2.real) / det
        pc = (e1.real * x.imag - e1.imag * x.real) / det
        if pb < 0.0 or pc < 0.0 or pb + pc > 1.0:
            continue
        pa = 1.0 - pb - pc
        (zb, sb), (zc, sc) = b, c
        lam = pa * za + pb * zb + pc * zc
        g = (pa * (abs(za - lam) ** 2 + sa) + pb * (abs(zb - lam) ** 2 + sb)
             + pc * (abs(zc - lam) ** 2 + sc))
        if g > best[0]:
            best = (g, lam, [atom, b, c])
    return best


def _newton_point(p, sv: list, lam: complex, zv: complex, s: float,
                  g: float) -> complex | None:
    """Newton point of f(lam) = sigma_1(C0 - lam I)^2 from the full SVD
    M = C0 - lam I = sum_j sigma_j u_j v_j*, given as P = V* U (entries
    P_jk = <v_j, u_k>) and the singular values ``sv`` as Python floats, or
    None when the quadratic model predicts a value at or below the lower
    bound g (f* >= g, so the model is then wrong, as it always is on normal
    C).

    With f smooth at a simple sigma_1, the gradient over (Re, Im) lam is
    -2 (z - lam) = -2 zv, and the Hessian is
    2 I + 2 sum_{j>=2} Re(conj(c_j(e)) c_j(e')) / (sigma_1^2 - sigma_j^2)
    with c_j(e) = conj(e) sigma_1 P_j1 + e sigma_j conj(P_1j) for
    e, e' in {1, i}.  Its largest eigenvalue is at most
    2 (1 + 2 ((f + f2) / f) (s / (f - f2))), f2 = sigma_2^2 and s the new
    atom's variance, which rules most calls out before the sum: written as
    ratios, the bound multiplies no two terms of f's size.  The sum runs over
    the d - 1 lower singular values in Python scalars.
    """
    s1 = sv[0]
    f, f2 = s1 * s1, sv[1] * sv[1]
    w2 = zv.real * zv.real + zv.imag * zv.imag
    if f - w2 / (1.0 + 2.0 * ((f + f2) / f) * (s / (f - f2))) <= g:
        return None  # predicted = f - 2 w^T H^-1 w <= f - 2 |w|^2 / lambda_max(H)
    # H = 2 [[hxx, hxy], [hxy, hyy]], so the step -H^-1 grad is H^-1 (2 zv)
    hxx = hyy = hxy = 0.0
    for vu, uv, sj in zip(p[1:, 0].tolist(), p[0, 1:].tolist(), sv[1:]):
        a, b = s1 * vu, sj * uv.conjugate()
        c1, ci = a + b, 1j * (b - a)
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
    step takes one SVD M = C - lambda I = U diag(sigma) V*: its top
    singular value is an upper bound, and its top right singular vector v_1
    becomes the atom z = <v_1, C v_1>, s = ||C v_1||^2 - |z|^2.  As
    M v_j = sigma_j u_j, one product P = V* U holds every state's atom,
    z_j - lambda = sigma_j P_jj and s_j = sigma_j^2 (1 - |P_jj|^2), and the
    Newton terms, so no step multiplies by C.  The first SVD contributes all
    of its states: after the top one, every other right singular vector whose
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
    bound below taken on the scaled problem; where dividing a bound by the
    scale rounds, the bracket it gives is rounded outward.

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
        # one after it.  M v_j = sigma_j u_j, so with P = V* U their atoms
        # are z_j = <v_j, M v_j> = sigma_j P_jj and
        # s_j = ||M v_j||^2 - |z_j|^2 = sigma_j^2 (1 - |P_jj|^2); where v_j is
        # nearly an eigenvector that cancels to an error of ~eps sigma_j^2,
        # which moves the lower bound sqrt(g) by ~eps relative to delta
        p = vh @ u
        pjj = p.diagonal()[:dim if step == 0 else 1].tolist()
        zs = [sig * q for sig, q in zip(sv, pjj)]
        ss = [sig * sig * (1.0 - (q.real * q.real + q.imag * q.imag)) for sig, q in zip(sv, pjj)]
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
            newton = _newton_point(p, sv, lam, zv, s, g)
        lam = model if newton is None else newton
    lower = math.sqrt(max(g, 0.0))
    if scale != 1.0:  # back to the units of C; at 1, dividing could flip a zero's sign
        # a power-of-two division rounds only to a subnormal result; round
        # the bracket outward there
        value, low = upper / scale, lower / scale
        if value * scale < upper:
            value = math.nextafter(value, math.inf)
        if low * scale > lower:
            low = math.nextafter(low, -math.inf)
        upper, lower, best = value, low, best / scale
    gap = max(upper - lower, 0.0)
    return DeltaResult(value=upper, minimizer=mu + best, certified_gap=gap)


def delta(c) -> DeltaResult:
    """Distance of the square matrix C to the scalars: ``delta_general``."""
    return delta_general(c)
