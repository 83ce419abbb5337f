"""Armijo backtracking t = beta0 * beta^k and its feasibility-aware variants.

A step routine handed a direction or base point that violates its
preconditions raises ``StepPreconditionError``, which is both a ``NoStep``
and a ``ValueError``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoStep, StepPreconditionError
from .geometry import (CHART_TOL, EPS_ACT, FEAS_TOL, ManifoldChart, chart_retraction,
                       chart_value)
from .problems import EvalBundle

# largest backtracking exponent k of a step t = beta0 * beta^k
K_MAX = 60


@dataclass(frozen=True)
class StepResult:
    """An accepted step: length t = beta0 * beta^k (possibly shrunk further
    by feasibility repair), the Armijo left-hand side at acceptance, and the
    retracted new point.

    ``armijo_lhs`` is F(new_point); ``G_val`` is G(new_point) where the step
    computed it for its feasibility test, else None.  The descent loop hands
    both to the next ``evaluate`` instead of calling the maps again.
    """

    t: float
    k: int
    armijo_lhs: np.ndarray
    feasibility_repaired: bool
    new_point: np.ndarray
    G_val: np.ndarray | None = None


def _descent_slope(bundle, v):
    slope = bundle.DF_val @ v
    if not (slope < 0.0).all():
        raise StepPreconditionError(
            "line search requires strict componentwise descent: DF(x) v < 0")
    return slope


def _trials(retract, x, v, beta0, beta, k_max):
    """Yield ``(k, t, z)`` for t = beta0 * beta^k, k = 0..k_max, where
    z is the retracted point of the step t v, or None where the retraction
    fails.

    The retractions depend only on x and x + t v, so once x + t v rounds to
    x every later trial repeats the last one: the generator stops after
    such a trial if it failed or returned x itself.
    """
    for k in range(k_max + 1):
        t = beta0 * beta ** k
        w = t * v
        z = _try_retract(retract, x, w)
        yield k, t, z
        if (z is None or (z == x).all()) and (x + w == x).all():
            return


def _armijo(bundle, slope, sigma, t, z):
    """F(z) and whether F(z) < F(x) + sigma t DF(x) v holds (strictly, in
    every component)."""
    problem = bundle.problem
    lhs = np.asarray(problem.F(z), dtype=float).reshape(problem.m)
    return lhs, bool((lhs < bundle.F_val + sigma * t * slope).all())


def armijo_step(bundle: EvalBundle, v, retract, beta0: float, beta: float,
                sigma: float, k_max: int = K_MAX) -> StepResult:
    """Smallest k with F(retract(x, t v)) < F(x) + sigma t DF(x) v, t = beta0 beta^k.

    The inequality is strict and componentwise.  Raises ``NoStep`` when no
    k <= k_max satisfies it (numerically degenerate tolerances).
    """
    slope = _descent_slope(bundle, v)
    for k, t, z in _trials(retract, bundle.x, v, beta0, beta, k_max):
        if z is None:
            continue
        lhs, ok = _armijo(bundle, slope, sigma, t, z)
        if ok:
            return StepResult(t=t, k=k, armijo_lhs=lhs, feasibility_repaired=False,
                              new_point=z)
    raise NoStep(f"Armijo: no acceptable step within k_max={k_max}")


def _feasible(problem, z):
    """Whether G(z) <= FEAS_TOL and |H(z)| <= FEAS_TOL with every value
    finite (a point where a constraint is undefined is not feasible), and
    G(z) as computed on the way (None when there is no inequality)."""
    g = None
    if problem.m_G > 0:
        g = np.asarray(problem.G(z), dtype=float)
        if not (np.isfinite(g).all() and g.max() <= FEAS_TOL):
            return False, g
    if problem.m_H > 0:
        h = np.abs(np.asarray(problem.H(z), dtype=float))
        if not (np.isfinite(h).all() and h.max() <= FEAS_TOL):
            return False, g
    return True, g


def _try_retract(retract, x, w):
    # retractions are local maps; a failure far from the manifold just means
    # the candidate step is too long and backtracking must continue
    try:
        return retract(x, w)
    except NoConvergence:
        return None


def feasible_armijo_step(bundle: EvalBundle, v, active: tuple, config) -> StepResult:
    """Armijo step through the equality-manifold retraction that also keeps
    all inequalities satisfied (strategy with active inequalities treated as
    extra objectives).

    Requires DF(x) v < 0 and, for every inequality in ``active`` (the 1-based
    indices of the active set the direction was computed with), the strict
    inflow condition grad(G_i) v < 0.  Takes the smallest k whose point
    satisfies both Armijo and G <= 0; the repair flag records whether
    feasibility forced k past the plain Armijo k.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    for i in active:
        if bundle.DG_val[i - 1] @ v >= 0.0:
            raise StepPreconditionError(
                f"feasible Armijo step requires grad(G_{i}) v < 0 for active inequalities"
            )

    chart = ManifoldChart(problem, ())
    retract = chart_retraction(chart, config.retraction)
    k_armijo = None
    for k, t, z in _trials(retract, bundle.x, v, config.beta0, config.beta, K_MAX):
        if z is None:
            continue
        lhs, ok = _armijo(bundle, slope, config.sigma, t, z)
        if not ok:
            continue
        if k_armijo is None:
            k_armijo = k
        feasible, g = _feasible(problem, z)
        if feasible:
            return StepResult(t=t, k=k, armijo_lhs=lhs,
                              feasibility_repaired=(k != k_armijo), new_point=z, G_val=g)
    raise NoStep(f"feasible Armijo: no acceptable step within k_max={K_MAX}")


def boundary_step(bundle: EvalBundle, v, active_chart: ManifoldChart, config) -> StepResult:
    """Armijo step through the active-boundary chart projection (active
    inequalities treated as equalities).

    If the Armijo-accepted point violates a previously inactive inequality,
    the step is shrunk by repeated multiplication with beta to bracket the
    crossing, then bisected so the projected point is feasible and lands on
    the newly crossed boundary (within ``EPS_ACT``); the Armijo
    inequality is re-verified at the shrunk step.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    if active_chart.n_rows > 0 and np.abs(chart_value(active_chart, bundle.x)).max() > CHART_TOL:
        raise StepPreconditionError("boundary step requires the base point on the active chart")

    retract = chart_retraction(active_chart, config.retraction)
    outside_rows = [j - 1 for j in range(1, problem.m_G + 1)
                    if j not in active_chart.ineq_indices]

    def outside_g(z):
        """G(z) (None without outside rows) and its largest entry over the
        rows outside the chart; a failed retraction (z None) reads NaN,
        which is never feasible."""
        if z is None:
            return None, np.nan
        if not outside_rows:
            return None, -np.inf
        g = np.asarray(problem.G(z), dtype=float).reshape(problem.m_G)
        return g, float(g[outside_rows].max())

    # the shrink phase continues this generator after the accepted trial (a
    # strict Armijo test never accepts z == x, so the generator's early stop
    # cannot fire there)
    trials = _trials(retract, bundle.x, v, config.beta0, config.beta, K_MAX)
    for k_armijo, t, z in trials:
        if z is not None:
            lhs, ok = _armijo(bundle, slope, config.sigma, t, z)
            if ok:
                break
    else:
        raise NoStep(f"boundary step: Armijo failed for all k <= {K_MAX}")

    g, g_max = outside_g(z)
    if g_max <= FEAS_TOL:
        return StepResult(t=t, k=k_armijo, armijo_lhs=lhs, feasibility_repaired=False,
                          new_point=z, G_val=g)

    # shrink by beta until the projected point is feasible again; the bracket
    # keeps G(z_lo) and its outside maximum so that no point's G is computed twice
    t_hi = t
    t_lo = None
    for _, t_try, z_try in trials:
        g_try, max_try = outside_g(z_try)
        if max_try <= FEAS_TOL:
            t_lo, z_lo, g_lo, max_lo = t_try, z_try, g_try, max_try
            break
        t_hi = t_try
    if t_lo is None:
        raise NoStep("boundary step: shrinking never re-entered the feasible set")

    # bisect the bracket so a newly crossed inequality becomes active
    for _ in range(200):
        if max_lo >= -EPS_ACT:
            break
        if t_hi - t_lo <= 1e-15 * max(1.0, t_hi):
            break
        t_mid = 0.5 * (t_lo + t_hi)
        z_mid = _try_retract(retract, bundle.x, t_mid * v)
        g_mid, max_mid = outside_g(z_mid)
        if max_mid <= FEAS_TOL:
            t_lo, z_lo, g_lo, max_lo = t_mid, z_mid, g_mid, max_mid
        else:
            t_hi = t_mid
    if max_lo < -EPS_ACT:
        raise NoStep("boundary step: could not land on the newly crossed boundary")

    lhs, ok = _armijo(bundle, slope, config.sigma, t_lo, z_lo)
    if not ok:
        raise NoStep("boundary step: Armijo fails at the boundary-activating step")
    return StepResult(t=t_lo, k=k_armijo, armijo_lhs=lhs, feasibility_repaired=True,
                      new_point=z_lo, G_val=g_lo)
