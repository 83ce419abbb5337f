"""Constraint-manifold geometry: projection, the cheap normal-line retraction,
and feasible starting points.

A chart is the set {H = 0} intersected with a chosen subset of inequalities
held at zero.  Projection is a Lagrange-Newton iteration on the stationarity
system of min ||z - y||^2 subject to the chart equalities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, StepPreconditionError
from .problems import ProblemSpec, _call, as_point

# points are accepted as feasible / on-manifold up to this absolute tolerance
FEAS_TOL = 1e-9
# a step's base point counts as on its chart up to this absolute tolerance
CHART_TOL = 1e-8
# an inequality within EPS_ACT of zero is pinned as an equality; a boundary
# landing leaves the iterate up to EPS_ACT off the crossed inequality, which
# the next boundary step pins, so EPS_ACT must not exceed CHART_TOL
EPS_ACT = 1e-9
# Newton iterations of one projection
PROJECT_ITERS = 100
# bracket doublings of one psi retraction
PSI_DOUBLINGS = 60


@dataclass(frozen=True)
class ManifoldChart:
    """Equalities H = 0 plus inequality indices (1-based) pinned to zero."""

    problem: ProblemSpec
    ineq_indices: tuple = ()

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.ineq_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate inequality indices in chart")
        if any(i < 1 or i > self.problem.m_G for i in idx):
            raise ValueError("inequality index out of range for chart")
        object.__setattr__(self, "ineq_indices", idx)

    @property
    def n_rows(self) -> int:
        return self.problem.m_H + len(self.ineq_indices)


def _chart_rows(chart: ManifoldChart, x, h, g, row_shape) -> np.ndarray:
    """All rows of h(x), then the rows of g(x) pinned by the chart, each
    row of shape ``row_shape``."""
    p = chart.problem
    parts = []
    if p.m_H > 0:
        parts.append(np.asarray(h(x), dtype=float).reshape(p.m_H, *row_shape))
    if chart.ineq_indices:
        rows = np.asarray(g(x), dtype=float).reshape(p.m_G, *row_shape)
        parts.append(rows[[i - 1 for i in chart.ineq_indices]])
    if not parts:
        return np.zeros((0, *row_shape))
    return np.concatenate(parts)


def chart_value(chart: ManifoldChart, x) -> np.ndarray:
    p = chart.problem
    return _chart_rows(chart, x, p.H, p.G, ())


def chart_jacobian(chart: ManifoldChart, x) -> np.ndarray:
    p = chart.problem
    return _chart_rows(chart, x, p.DH, p.DG, (p.n,))


def project(chart: ManifoldChart, y, *, _init=None) -> np.ndarray:
    """Nearest-point projection of ``y`` onto the chart manifold.

    Lagrange-Newton iteration on the stationarity system

        z - y + DC(z)^T mu = 0,   C(z) = 0,

    initialized at ``y``, with damped steps on a merit-function increase.
    Raises ``NoConvergence`` when the iteration stalls (``y`` too far from
    the manifold, or a degenerate configuration such as an equidistant
    center point) or takes more than PROJECT_ITERS Newton steps.
    """
    p = chart.problem
    y = as_point(y, p.n)
    if chart.n_rows == 0:
        return y.copy()

    z = as_point(_init, p.n).copy() if _init is not None else y.copy()
    n = p.n

    # damped Gauss-Newton feasibility presolve when far from the manifold;
    # plain Newton on the stationarity system diverges there.  c and J are
    # the chart's value and Jacobian at z, updated with every accepted z.
    c, J = chart_value(chart, z), chart_jacobian(chart, z)
    for _ in range(60):
        if np.max(np.abs(c)) <= 1e-6:
            break
        try:
            dz = -J.T @ np.linalg.solve(J @ J.T, c)
        except np.linalg.LinAlgError:
            raise NoConvergence("projection: singular constraint Jacobian") from None
        merit0 = float(c @ c)
        step = 1.0
        for _ in range(40):
            z_try = z + step * dz
            c_try = chart_value(chart, z_try)
            if float(c_try @ c_try) < merit0:
                z, c, J = z_try, c_try, chart_jacobian(chart, z_try)
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: feasibility presolve stalled")
    else:
        raise NoConvergence("projection: feasibility presolve hit its cap")

    mu, *_ = np.linalg.lstsq(J.T, y - z, rcond=None)
    r1 = z - y + J.T @ mu
    for _ in range(PROJECT_ITERS):
        if np.max(np.abs(c)) <= 1e-12 and np.max(np.abs(r1)) <= 1e-10:
            return z
        kkt = np.zeros((n + chart.n_rows, n + chart.n_rows))
        kkt[:n, :n] = np.eye(n)
        kkt[:n, n:] = J.T
        kkt[n:, :n] = J
        rhs = -np.concatenate([r1, c])
        try:
            delta = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise NoConvergence("projection: singular KKT system (degenerate point)") from None
        dz, dmu = delta[:n], delta[n:]
        merit0 = float(c @ c + r1 @ r1)
        step = 1.0
        for _ in range(30):
            z_try = z + step * dz
            mu_try = mu + step * dmu
            c_try = chart_value(chart, z_try)
            J_try = chart_jacobian(chart, z_try)
            r1_try = z_try - y + J_try.T @ mu_try
            if float(c_try @ c_try + r1_try @ r1_try) < merit0:
                z, mu, c, J, r1 = z_try, mu_try, c_try, J_try, r1_try
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: damped Newton made no progress")
    raise NoConvergence(f"projection did not converge within {PROJECT_ITERS} iterations")


def _bisect(phi, a, fa, b):
    # phi changes sign on [a, b], fa = phi(a); returns the root s to machine
    # resolution and phi(s)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = phi(mid)
        if fm == 0.0 or (b - a) <= 1e-16 * max(1.0, abs(mid)):
            break
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return mid, fm


def retract_psi(chart: ManifoldChart, x, w) -> np.ndarray:
    """Cheap retraction along the constraint normal for single-equality charts.

    Returns x + w + s * grad(c)(x) where s is the smallest-magnitude root of
    s -> c(x + w + s * grad(c)(x)), found by doubling a bracket outward from
    s = 0 (at most PSI_DOUBLINGS times, else ``NoConvergence``) and bisecting.
    Raises ``NoConvergence`` as well when c at the returned root is not
    within FEAS_TOL of zero (c jumps across zero there, or is NaN).
    Requires x on the chart (within CHART_TOL) and w tangent (within 1e-8);
    otherwise raises ``StepPreconditionError``.
    """
    p = chart.problem
    if chart.n_rows != 1:
        raise ValueError("psi retraction is defined for single-equality charts only")
    x = as_point(x, p.n)
    w = as_point(w, p.n)
    c0 = float(chart_value(chart, x)[0])
    if abs(c0) > CHART_TOL:
        raise StepPreconditionError("retract_psi: base point is not on the chart manifold")
    g = chart_jacobian(chart, x)[0]
    gnorm = float(np.linalg.norm(g))
    if abs(g @ w) > 1e-8 * max(1.0, gnorm * float(np.linalg.norm(w))):
        raise StepPreconditionError("retract_psi: step is not tangent to the chart")

    base = x + w

    def phi(s):
        return float(chart_value(chart, base + s * g)[0])

    f0 = phi(0.0)
    if abs(f0) <= 1e-14:
        return base

    gsq = max(gnorm * gnorm, 1e-14)
    delta = max(1e-14, 0.1 * abs(f0) / gsq)
    prev = 0.0
    f_prev_pos = f0
    for _ in range(PSI_DOUBLINGS):
        roots = []
        f_pos = phi(delta)
        if (f0 < 0.0) != (f_pos < 0.0) or f_pos == 0.0:
            roots.append(_bisect(phi, prev, f_prev_pos, delta))
        f_neg = phi(-delta)
        if (f0 < 0.0) != (f_neg < 0.0) or f_neg == 0.0:
            roots.append(_bisect(phi, -delta, f_neg, -prev))
        if roots:
            s, c = min(roots, key=lambda root: abs(root[0]))
            if not abs(c) <= FEAS_TOL:
                raise NoConvergence("retract_psi: the chart value at the root exceeds FEAS_TOL")
            return base + s * g
        prev = delta
        f_prev_pos = f_pos
        delta *= 2.0
    raise NoConvergence("retract_psi: no sign change within the bracket growth limit")


def chart_retraction(chart: ManifoldChart, kind: str = "project"):
    """Retraction callable (base, step) -> point for the given chart.

    ``kind`` is "project" (nearest-point projection) or "psi": the
    normal-line root on single-row charts and the projection on charts with
    more rows.  On a chart without rows the retraction is x + w.  Every
    point the retraction returns lies within FEAS_TOL of the chart: the
    projection returns only when every chart row is within 1e-12 of zero,
    and psi checks its root; otherwise it raises ``NoConvergence``.
    """
    if chart.n_rows == 0:
        return lambda x, w: x + w
    if kind == "psi" and chart.n_rows == 1:
        return lambda x, w: retract_psi(chart, x, w)
    if kind in ("project", "psi"):
        return lambda x, w: project(chart, x + w)
    raise ValueError(f"unknown retraction kind {kind!r}")


def _project_with_retries(chart: ManifoldChart, x):
    try:
        return project(chart, x)
    except NoConvergence:
        pass
    # restart from x nudged along each coordinate in turn (degenerate targets)
    for j in range(chart.problem.n):
        init = x.copy()
        init[j] += 1e-3 * max(1.0, abs(x[j]))
        try:
            return project(chart, x, _init=init)
        except NoConvergence:
            continue
    raise NoConvergence("feasible start: projection failed from all retry seeds")


def feasible_start(problem: ProblemSpec, x) -> np.ndarray:
    """Point of the feasible set nearest to ``x`` (locally).

    Active-set loop around the chart projection: violated inequalities are
    pinned to zero, projected, and dropped again when their distance
    multiplier turns negative.  Global minimality is not guaranteed; at
    equidistant degenerate targets an arbitrary nearby feasible point is
    returned.  Raises ``EvaluationError`` naming the component when H or G
    is non-finite at ``x``, or G at a projected point: no row could count
    as violated there, so the point would pass as feasible.
    """
    x = as_point(x, problem.n)
    h_val = _call("H", problem.H, x, (problem.m_H,))
    g_val = _call("G", problem.G, x, (problem.m_G,))
    if (h_val.size == 0 or np.max(np.abs(h_val)) <= FEAS_TOL) \
            and (g_val.size == 0 or np.max(g_val) <= FEAS_TOL):
        return x.copy()

    active = {int(i) + 1 for i in np.flatnonzero(g_val > FEAS_TOL)}
    for _ in range(2 * problem.m_G + 4):
        chart = ManifoldChart(problem, tuple(sorted(active)))
        z = _project_with_retries(chart, x)
        if problem.m_G > 0:
            gz = _call("G", problem.G, z, (problem.m_G,))
            newly = {int(i) + 1 for i in np.flatnonzero(gz > FEAS_TOL)} - active
            if newly:
                active |= newly
                continue
        if active:
            # sign check of the distance multipliers: z - x + J^T mult = 0
            J = chart_jacobian(chart, z)
            mult, *_ = np.linalg.lstsq(J.T, x - z, rcond=None)
            nu = mult[problem.m_H:]
            drop = {i for i, v in zip(sorted(active), nu) if v < -FEAS_TOL}
            if drop:
                active -= drop
                continue
        return z
    raise NoConvergence("feasible start: active set did not settle")
