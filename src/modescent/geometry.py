"""Constraint-manifold geometry: projection, the retraction onto a chart, and
feasible starting points.

A chart is the set {H = 0} intersected with a chosen subset of inequalities
held at zero.  Projection is a Lagrange-Newton iteration on the stationarity
system of min ||z - y||^2 subject to the chart equalities.  Its Newton matrix
[I J^T; J 0] has an identity block, so each step is solved through the Schur
complement J J^T (range-space method, Nocedal & Wright, Numerical
Optimization, 2nd ed., sec. 16.2).  On a chart with one row (one equality,
or one pinned inequality) J J^T is the scalar ||J||^2, and the iteration
runs in Python floats, through the row maps it picks once per call (H and
DH, or G and DG read at the pinned row); a chart with k >= 2 rows solves
the k x k system with numpy.  A one-row chart whose row a problem file gives
as a sphere is projected exactly instead, in closed form and Python floats,
with no map call (``_closed_form``; 2.7 us per call on the octant3d sphere
against 38 us for the Newton iteration, best of seven timeit repeats in
process on a shared 2-core x86).
The Newton iteration serves every other case.
"""

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence, StepPreconditionError
from .problems import ProblemSpec, _call, _value, as_point

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
    # H's rows plus the pinned ones, worked out once: retract reads it at
    # every trial point
    n_rows: int = field(init=False, repr=False, compare=False)
    # the nearest-point map of the one row, where a problem file compiled
    # it as a sphere (``_closed_form``), else None; made once here too
    nearest: Callable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # operator.index refuses 1.5 and "1", which int() would read as row
        # 1, and numpy bools; a Python bool it would read as row 1 or 0
        if any(type(i) is bool for i in self.ineq_indices):
            raise TypeError("'bool' object cannot be interpreted as an integer")
        idx = tuple(sorted(operator.index(i) for i in self.ineq_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate inequality indices in chart")
        if any(i < 1 or i > self.problem.m_G for i in idx):
            raise ValueError("inequality index out of range for chart")
        object.__setattr__(self, "ineq_indices", idx)
        p = self.problem
        object.__setattr__(self, "n_rows", p.m_H + len(idx))
        nearest = None
        if self.n_rows == 1:
            fun, i = (p.H, 0) if p.m_H else (p.G, idx[0] - 1)
            rows = getattr(fun, "isotropic_rows", None)
            if rows is not None and rows[i] is not None:
                nearest = _closed_form(rows[i])
        object.__setattr__(self, "nearest", nearest)

    def retract(self, x, w) -> np.ndarray:
        """The point x + w, retracted onto the chart by ``project``: x + w
        itself on a chart without rows.  Every point returned lies within
        FEAS_TOL of the chart, since the projection returns only when every
        chart row is within 1e-12 of zero; otherwise it raises
        ``NoConvergence``."""
        if self.n_rows == 0:
            return x + w
        return project(self, x + w)


def _chart_rows(chart: ManifoldChart, x, prefix) -> np.ndarray:
    """All rows of the map named ``prefix + "H"`` at x, then the rows of
    ``prefix + "G"`` pinned by the chart: the values with prefix "", the
    Jacobians with prefix "D".  Not checked finite: every test of the
    projection fails on a NaN row."""
    p = chart.problem
    # without equalities H is absent, and _call gives its rows of none
    rows = _value(p, prefix + "H", x) if p.m_H else _call(p, prefix + "H", x)
    if not chart.ineq_indices:
        return rows
    pinned = _value(p, prefix + "G", x)[[i - 1 for i in chart.ineq_indices]]
    return np.concatenate((rows, pinned)) if p.m_H else pinned


def chart_value(chart: ManifoldChart, x) -> np.ndarray:
    return _chart_rows(chart, x, "")


def chart_jacobian(chart: ManifoldChart, x) -> np.ndarray:
    return _chart_rows(chart, x, "D")


def _gram_solve(J, rhs):
    """(J J^T)^-1 rhs for a chart of k >= 2 rows.  Raises LinAlgError when
    J J^T is singular."""
    return np.linalg.solve(J @ J.T, rhs)


def _dot(a, b):
    """a.b of two lists of Python floats, summed left to right.  Products
    only, no ``**``: an entry near 1e200 overflows to inf instead of raising
    ``OverflowError``."""
    s = 0.0
    for ai, bi in zip(a, b):
        s += ai * bi
    return s


def _row_multiplier(J, jj, y, z):
    """The multiplier mu of one chart row at z for the target y, the
    least-squares solution J (y - z) / jj of J^T mu = y - z, where jj is
    ||J||^2: J, y and z are lists of Python floats.  0 where jj is not
    positive (a NaN jj too), ``lstsq``'s minimum-norm answer."""
    return _dot(J, [yi - zi for yi, zi in zip(y, z)]) / jj if jj > 0.0 else 0.0


def project(chart: ManifoldChart, y, *, _init=None) -> np.ndarray:
    """Nearest-point projection of ``y`` onto the chart manifold.

    Lagrange-Newton iteration on the stationarity system

        z - y + DC(z)^T mu = 0,   C(z) = 0,

    initialized at ``y``, with damped steps on a merit-function increase.
    Each Newton step solves [I J^T; J 0][dz; dmu] = -[r1; c] as
    (J J^T) dmu = c - J r1, dz = -r1 - J^T dmu.  The multiplier starts at
    the least-squares solution of J^T mu = y - z.  It returns once every
    row c_i is within 1e-12 of zero and within 1e-12 ||J_i|| of it (a
    first-order distance to the row's surface of at most 1e-12), and r1 is
    within 1e-10; rows with ||J_i|| >= 1 meet the second bound with the
    first.  A one-row chart takes ``_project_one_row``, the same iteration
    in Python floats.
    Raises ``NoConvergence`` when the iteration stalls (``y`` too far from
    the manifold, or a degenerate configuration such as an equidistant
    center point) or takes more than PROJECT_ITERS Newton steps.

    Without ``_init``, a one-row chart whose row a problem file gives as a
    sphere lam ||x||^2 + b.x + d (lam != 0) first takes its exact nearest
    point in closed form (``chart.nearest``, made by ``_closed_form``), with
    no map call and no Newton step.  That point is returned only where its
    row is within 1e-12 of zero, the Newton iteration's bound on the row
    value; at the sphere's centre, or where the row rounds above that, the
    Newton iteration runs as without it.  Charts of two or more rows, maps
    given as callables, other rows (planes among them), and
    ``feasible_start``'s restarts from ``_init`` always take Newton.
    """
    p = chart.problem
    y = as_point(y, p.n)
    if chart.n_rows == 0:
        return y.copy()

    if _init is None and chart.nearest is not None:
        z = chart.nearest(y)
        if z is not None:
            return z
    z = as_point(_init, p.n).copy() if _init is not None else y.copy()
    if chart.n_rows == 1:
        return _project_one_row(chart, y, z)
    # on a far target the merit c.c overflows to inf; the damping tests
    # still order it right (a finite trial merit beats it), so the
    # overflow needs no warning
    with np.errstate(over="ignore"):
        return _project_rows(chart, y, z)


def _closed_form(row):
    """The nearest-point map y -> z of the sphere lam ||z||^2 + b.z + d = 0
    of ``row = (lam, b, d)``, lam != 0, in closed form and Python floats,
    with no map call; None where the sphere has no point.

    Its centre is c0 = -b / (2 lam) and its radius r, r^2 = ||c0||^2 - d /
    lam, and the nearest point is c0 + r (y - c0) / ||y - c0||.  There is no
    map where r^2 is not positive in floats.  The map returns None, for the
    Newton iteration to take over, at the centre (||y - c0|| not positive)
    and wherever the row at its point, computed from the same record, is not
    within 1e-12 of zero: the Newton iteration's bound on the row value.
    Every test is written so that NaN fails it.
    """
    lam, b, d = row
    c0 = [bi / (-2.0 * lam) for bi in b]
    r2 = _dot(c0, c0) - d / lam
    if not r2 > 0.0:
        return None
    r = math.sqrt(r2)

    def nearest_on_sphere(y):
        # the three sums are _dot's, inline: left to right from 0.0
        u = [yi - ci for yi, ci in zip(y.tolist(), c0)]
        uu = 0.0
        for ui in u:
            uu += ui * ui
        nu = math.sqrt(uu)
        if not nu > 0.0:
            return None
        s = r / nu
        zs = [ci + s * ui for ci, ui in zip(c0, u)]
        zz = bz = 0.0
        for bi, zi in zip(b, zs):
            zz += zi * zi
            bz += bi * zi
        if abs(lam * zz + bz + d) <= 1e-12:
            return np.array(zs)
        return None
    return nearest_on_sphere


def _project_rows(chart: ManifoldChart, y, z) -> np.ndarray:
    """``project`` from ``z`` onto a chart with k >= 2 rows, in numpy."""
    # damped Gauss-Newton feasibility presolve when far from the manifold;
    # plain Newton on the stationarity system diverges there.  c and J are
    # the chart's value and Jacobian at z, updated with every accepted z.
    c, J = chart_value(chart, z), chart_jacobian(chart, z)
    for _ in range(60):
        if abs(c).max() <= 1e-6:
            break
        try:
            dz = -J.T @ _gram_solve(J, c)
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
        if (abs(c).max() <= 1e-12 and abs(r1).max() <= 1e-10
                and all(ci * ci <= 1e-24 * _dot(Ji, Ji)
                        for ci, Ji in zip(c.tolist(), J.tolist()))):
            return z
        try:
            dmu = _gram_solve(J, c - J @ r1)
        except np.linalg.LinAlgError:
            raise NoConvergence("projection: singular KKT system (degenerate point)") from None
        dz = -r1 - J.T @ dmu
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


def _project_one_row(chart: ManifoldChart, y, z) -> np.ndarray:
    """``project`` from ``z`` onto a chart with one row, in Python floats.

    The row is picked once per call, H's when the chart holds the equality
    and else the pinned row of G, and read through the same map calls as
    ``chart_value`` and ``chart_jacobian``.  The chart value c, the
    multiplier mu and jj = ||J||^2 are scalars; z, J and r1 are
    lists, read once per point through ``tolist()``, and the array of a
    trial point is built only to call the maps.  Tolerances, damping, caps,
    messages and the order of the map calls are those of the k-row
    iteration.  A Newton step is a division by jj, and
    ``NoConvergence`` where jj is zero; the multiplier starts at
    J (y - z) / jj, or at 0 where jj is not positive.  Every test is
    written so that NaN fails it.
    """
    p = chart.problem
    name, jacobian, row = ("H", "DH", 0) if p.m_H == 1 else ("G", "DG", chart.ineq_indices[0] - 1)

    def c_at(x):
        return _value(p, name, x).tolist()[row]

    def J_at(x):
        return _value(p, jacobian, x)[row].tolist()

    ys = y.tolist()
    zs = z.tolist()
    c = c_at(z)
    J = J_at(z)
    jj = _dot(J, J)

    for _ in range(60):
        if abs(c) <= 1e-6:
            break
        if jj == 0.0:
            raise NoConvergence("projection: singular constraint Jacobian")
        q = c / jj
        dz = [-Ji * q for Ji in J]
        merit0 = c * c
        step = 1.0
        for _ in range(40):
            z_try = [zi + step * di for zi, di in zip(zs, dz)]
            z_arr = np.array(z_try)
            c_try = c_at(z_arr)
            if c_try * c_try < merit0:
                z, zs, c = z_arr, z_try, c_try
                J = J_at(z_arr)
                jj = _dot(J, J)
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: feasibility presolve stalled")
    else:
        raise NoConvergence("projection: feasibility presolve hit its cap")

    mu = _row_multiplier(J, jj, ys, zs)
    r1 = [zi - yi + Ji * mu for zi, yi, Ji in zip(zs, ys, J)]
    for _ in range(PROJECT_ITERS):
        if abs(c) <= 1e-12 and c * c <= 1e-24 * jj and all(abs(ri) <= 1e-10 for ri in r1):
            return z
        if jj == 0.0:
            raise NoConvergence("projection: singular KKT system (degenerate point)")
        dmu = (c - _dot(J, r1)) / jj
        dz = [-ri - Ji * dmu for ri, Ji in zip(r1, J)]
        merit0 = c * c + _dot(r1, r1)
        step = 1.0
        for _ in range(30):
            z_try = [zi + step * di for zi, di in zip(zs, dz)]
            mu_try = mu + step * dmu
            z_arr = np.array(z_try)
            c_try = c_at(z_arr)
            J_try = J_at(z_arr)
            r1_try = [zi - yi + Ji * mu_try for zi, yi, Ji in zip(z_try, ys, J_try)]
            if c_try * c_try + _dot(r1_try, r1_try) < merit0:
                z, zs, mu, c, J, r1 = z_arr, z_try, mu_try, c_try, J_try, r1_try
                jj = _dot(J, J)
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: damped Newton made no progress")
    raise NoConvergence(f"projection did not converge within {PROJECT_ITERS} iterations")


def _regula_falsi(phi, lo, f_lo, hi, f_hi, below, within, lo_data):
    """Shrink the bracket [lo, hi] (either order) of a root of ``phi`` by
    false position with Anderson-Bjorck scaling (Anderson and Bjorck, BIT
    13 (1973) 253-264); ``phi(t)`` returns ``(f, data)``.

    The lo end is kept where ``f <= below``, and the search stops once
    ``f_lo >= -within``.  When the same end moves twice running, the value
    kept at the other end is scaled by m = 1 - f_new/f_old, or halved where
    m is not positive (Illinois).  Where the false-position root is not
    strictly inside the bracket (a NaN or infinite value, or a failed
    retraction, at an end) the trial is the midpoint.  Gives up after 200
    trials, or once the bracket is within 1e-15 of its scale.  Returns
    ``(lo, f_lo, lo_data)``; the caller tests ``f_lo``.
    """
    # y_lo is f_lo as scaled for the interpolation; the last end to move
    # holds its own value, so f_lo and f_hi are the f_old of m
    y_lo, moved = f_lo, None
    for _ in range(200):
        if f_lo >= -within or abs(hi - lo) <= 1e-15 * max(1.0, abs(hi)):
            break
        t = lo - y_lo * (hi - lo) / (f_hi - y_lo)
        if not min(lo, hi) < t < max(lo, hi):
            t = 0.5 * (lo + hi)
        f, data = phi(t)
        if f <= below:
            if moved == "lo":
                f_hi *= _anderson_bjorck(f, f_lo)
            lo, f_lo, y_lo, lo_data, moved = t, f, f, data, "lo"
        else:
            if moved == "hi":
                y_lo *= _anderson_bjorck(f, f_hi)
            hi, f_hi, moved = t, f, "hi"
    return lo, f_lo, lo_data


def _anderson_bjorck(f_new, f_old):
    # a NaN m, from a NaN value or inf/inf, fails the test and halves
    m = 1.0 - f_new / f_old
    return m if m > 0.0 else 0.5


def retract_psi(chart: ManifoldChart, x, w) -> np.ndarray:
    """Cheap retraction along the constraint normal for single-equality charts.
    The solver does not call it: its one retraction is
    ``ManifoldChart.retract``.

    Returns x + w + s * grad(c)(x) where s is the smallest-magnitude root of
    s -> c(x + w + s * grad(c)(x)), found by doubling a bracket outward from
    s = 0 (at most PSI_DOUBLINGS times, else ``NoConvergence``) and
    shrinking each bracket with a sign change by ``_regula_falsi`` until c
    there is within 1e-12 of zero.
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
    # both tests are written so that NaN fails them
    if not abs(c0) <= CHART_TOL:
        raise StepPreconditionError("retract_psi: base point is not on the chart manifold")
    g = chart_jacobian(chart, x)[0]
    gnorm = float(np.linalg.norm(g))
    if not abs(g @ w) <= 1e-8 * max(1.0, gnorm * float(np.linalg.norm(w))):
        raise StepPreconditionError("retract_psi: step is not tangent to the chart")

    base = x + w
    sign = 1.0

    def phi(s):
        return sign * float(chart_value(chart, base + s * g)[0]), None

    f0, _ = phi(0.0)
    if abs(f0) <= 1e-14:
        return base
    # c signed so that it reads below zero at s = 0
    if f0 > 0.0:
        sign, f0 = -1.0, -f0

    gsq = max(gnorm * gnorm, 1e-14)
    delta = max(1e-14, 0.1 * abs(f0) / gsq)
    prev = 0.0
    # phi at +prev and at -prev
    f_prev = [f0, f0]
    for _ in range(PSI_DOUBLINGS):
        roots = []
        for i, side in enumerate((1.0, -1.0)):
            f, _ = phi(side * delta)
            # NaN fails the test: no sign change
            if f >= 0.0:
                # 1e-12 is the projection's own tolerance on the chart value
                roots.append(_regula_falsi(phi, side * prev, f_prev[i], side * delta, f,
                                           0.0, 1e-12, None))
            f_prev[i] = f
        if roots:
            s, c, _ = min(roots, key=lambda root: abs(root[0]))
            if not abs(c) <= FEAS_TOL:
                raise NoConvergence("retract_psi: the chart value at the root exceeds FEAS_TOL")
            return base + s * g
        prev = delta
        delta *= 2.0
    raise NoConvergence("retract_psi: no sign change within the bracket growth limit")


# (problem, {pinned rows: chart}) of the last problem asked for: a chart
# depends on nothing else, and a front asks for its charts with one problem
_charts = (None, {})


def _chart(problem: ProblemSpec, rows: tuple) -> ManifoldChart:
    """``ManifoldChart(problem, rows)``, built the first time a problem asks
    for the row tuple and then reused, instead of once per pass or step.

    The one chart cache: ``feasible_start``'s passes, the feasible Armijo
    step and the solver's boundary steps take their charts from it.  It
    keys on ``rows`` as given, and ``(True,) == (1,)``, so it stays
    internal: its callers hand it the sorted tuples of valid 1-based rows
    that active sets are, and only ``ManifoldChart`` checks an index.  A
    lookup costs 0.1 to 0.2 us, where building a chart costs 2.5 to 3.7 us
    (circle2d and octant3d charts, in process, best of seven timeit
    repeats, shared 2-core x86).  The cache holds the charts of one
    problem at a time and is read once per call, so a thread that meets
    another thread's problem there builds its own charts instead of
    returning the other's.
    """
    global _charts
    cached = _charts
    if cached[0] is not problem:
        cached = _charts = (problem, {})
    chart = cached[1].get(rows)
    if chart is None:
        chart = cached[1][rows] = ManifoldChart(problem, rows)
    return chart


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


def _most_violated(g_val, active: set) -> set:
    """The 1-based index of the row of ``g_val`` above FEAS_TOL by the most,
    outside ``active``, as a one-element set; empty when there is none.  A
    tie goes to the first row."""
    rows = [(v, i) for i, v in enumerate(g_val.tolist(), 1)
            if v > FEAS_TOL and i not in active]
    return {max(rows, key=lambda r: r[0])[1]} if rows else set()


def feasible_start(problem: ProblemSpec, x) -> np.ndarray:
    """Point of the feasible set nearest to ``x`` (locally).

    Active-set loop around the chart projection: one violated inequality
    per pass is pinned to zero, the most violated one not pinned yet, and
    a pinned one is dropped again when its distance multiplier turns
    negative.  Pinning every violated row at once can ask for a chart that
    is a single degenerate point, such as where a disk touches a line
    (Nocedal & Wright, 2nd ed., sec. 16.5: add one constraint per
    iteration).  Each pass is a function of its active set, so an active
    set seen twice closes a cycle.  A cycle drops a row somewhere, and
    only a pass that found no violated row reaches the drop, so the loop
    then returns the projection nearest to ``x`` among the cycle's passes
    that found no violated row: feasible, though a multiplier sign says
    it is not the nearest point.  Global minimality is
    not guaranteed; at equidistant degenerate targets an arbitrary nearby
    feasible point is returned.  Raises ``EvaluationError`` naming the
    component when H or G is non-finite at ``x``, or G at a projected
    point: no row could count as violated there, so the point would pass
    as feasible.

    The sign check solves z - x + J^T mult = 0 for the multipliers of the
    pass's chart at its projection z.  On a chart of one pinned row and no
    equality, the multiplier is the scalar J (x - z) / ||J||^2 in Python
    floats (``_row_multiplier``, the projection's own first multiplier),
    with J read from one DG call; a chart of k >= 2 rows solves for them
    with ``np.linalg.lstsq``.  On circle2d the one-row check costs about
    3 us, where ``lstsq`` took about 15 us (both with the DG call, in
    process, best of seven timeit repeats, shared 2-core x86).  Each pass
    takes its chart from the problem's chart cache (``_chart``), so no
    row set that an earlier pass, start or step has met is built again.
    """
    x = as_point(x, problem.n)
    h_val = _call(problem, "H", x)
    g_val = _call(problem, "G", x)
    # Python floats: H and G have few entries, and _call has checked them
    # finite, so no NaN reaches these tests
    if all(abs(h) <= FEAS_TOL for h in h_val.tolist()) \
            and all(g <= FEAS_TOL for g in g_val.tolist()):
        return x.copy()

    active = _most_violated(g_val, set())
    # active rows -> (pass number, its projection if no row was violated there)
    passes = {}
    for _ in range(2 * problem.m_G + 4):
        rows = tuple(sorted(active))
        if rows in passes:
            first = passes[rows][0]
            return min((z for k, z in passes.values() if k >= first and z is not None),
                       key=lambda z: np.linalg.norm(z - x))
        chart = _chart(problem, rows)
        z = _project_with_retries(chart, x)
        newly = _most_violated(_call(problem, "G", z), active) if problem.m_G else set()
        passes[rows] = (len(passes), None if newly else z)
        if newly:
            active |= newly
            continue
        if active:
            # sign check of the distance multipliers: z - x + J^T mult = 0
            if chart.n_rows == 1:
                # one pinned row and no equality: DG's row, read through
                # the one DG call that chart_jacobian would make
                J = _value(problem, "DG", z)[rows[0] - 1].tolist()
                nu = [_row_multiplier(J, _dot(J, J), x.tolist(), z.tolist())]
            else:
                J = chart_jacobian(chart, z)
                mult, *_ = np.linalg.lstsq(J.T, x - z, rcond=None)
                nu = mult[problem.m_H:]
            drop = {i for i, v in zip(sorted(active), nu) if v < -FEAS_TOL}
            if drop:
                active -= drop
                continue
        return z
    raise NoConvergence("feasible start: active set did not settle")
