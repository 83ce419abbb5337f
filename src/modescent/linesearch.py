"""Armijo backtracking t = beta0 * beta^k and its feasibility-aware variants."""

from dataclasses import dataclass

import numpy as np

from .direction import active_set
from .errors import NoConvergence, NoRoot, NoStep
from .geometry import FEAS_TOL, ManifoldChart, chart_retraction, chart_value
from .problems import EvalBundle


@dataclass(frozen=True)
class StepResult:
    """An accepted step: length t = beta0 * beta^k (possibly shrunk further
    by feasibility repair), the Armijo inequality sides at acceptance, and
    the retracted new point."""

    t: float
    k: int
    armijo_lhs: np.ndarray
    armijo_rhs: np.ndarray
    feasibility_repaired: bool
    new_point: np.ndarray


def _eval_F(problem, x):
    return np.asarray(problem.F(x), dtype=float).reshape(problem.m)


def _descent_slope(bundle, v):
    slope = bundle.DF_val @ v
    if not np.all(slope < 0.0):
        raise ValueError("line search requires strict componentwise descent: DF(x) v < 0")
    return slope


def armijo_step(bundle: EvalBundle, v, retract, beta0: float, beta: float,
                sigma: float, k_max: int = 60) -> StepResult:
    """Smallest k with F(retract(x, t v)) < F(x) + sigma t DF(x) v, t = beta0 beta^k.

    The inequality is strict and componentwise.  Raises ``NoStep`` when no
    k <= k_max satisfies it (numerically degenerate tolerances).
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    for k in range(k_max + 1):
        t = beta0 * beta ** k
        z = _try_retract(retract, bundle.x, t * v)
        if z is None:
            continue
        lhs = _eval_F(problem, z)
        rhs = bundle.F_val + sigma * t * slope
        if np.all(lhs < rhs):
            return StepResult(t=t, k=k, armijo_lhs=lhs, armijo_rhs=rhs,
                              feasibility_repaired=False, new_point=z)
    raise NoStep(f"Armijo: no acceptable step within k_max={k_max}")


def _feasible(problem, z):
    """G(z) <= FEAS_TOL and |H(z)| <= FEAS_TOL, with every value finite: a
    point where a constraint is undefined is not feasible."""
    if problem.m_G > 0:
        g = np.asarray(problem.G(z), dtype=float)
        if not (np.isfinite(g).all() and g.max() <= FEAS_TOL):
            return False
    if problem.m_H > 0:
        h = np.abs(np.asarray(problem.H(z), dtype=float))
        if not (np.isfinite(h).all() and h.max() <= FEAS_TOL):
            return False
    return True


def _pick_retraction(chart, config):
    kind = config.retraction if (config.retraction == "project" or chart.n_rows == 1) \
        else "project"
    return chart_retraction(chart, kind)


def _try_retract(retract, x, w):
    # retractions are local maps; a failure far from the manifold just means
    # the candidate step is too long and backtracking must continue
    try:
        return retract(x, w)
    except (NoConvergence, NoRoot):
        return None


def feasible_armijo_step(bundle: EvalBundle, v, config) -> StepResult:
    """Armijo step through the equality-manifold retraction that also keeps
    all inequalities satisfied (strategy with active inequalities treated as
    extra objectives).

    Requires DF(x) v < 0 and, for every inequality active at tolerance
    ``config.epsilon``, the strict inflow condition grad(G_i) v < 0.  Takes
    the smallest k whose point satisfies both Armijo and G <= 0; the repair
    flag records whether feasibility forced k past the plain Armijo k.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    act = active_set(bundle, config.epsilon)
    for i in act.indices:
        if bundle.DG_val[i - 1] @ v >= 0.0:
            raise ValueError(
                f"feasible Armijo step requires grad(G_{i}) v < 0 for active inequalities"
            )

    chart = ManifoldChart(problem, ())
    retract = _pick_retraction(chart, config)
    k_armijo = None
    for k in range(config.k_max + 1):
        t = config.beta0 * config.beta ** k
        z = _try_retract(retract, bundle.x, t * v)
        if z is None:
            continue
        lhs = _eval_F(problem, z)
        rhs = bundle.F_val + config.sigma * t * slope
        if not np.all(lhs < rhs):
            continue
        if k_armijo is None:
            k_armijo = k
        if _feasible(problem, z):
            return StepResult(t=t, k=k, armijo_lhs=lhs, armijo_rhs=rhs,
                              feasibility_repaired=(k != k_armijo), new_point=z)
    raise NoStep(f"feasible Armijo: no acceptable step within k_max={config.k_max}")


def boundary_step(bundle: EvalBundle, v, active_chart: ManifoldChart, config) -> StepResult:
    """Armijo step through the active-boundary chart projection (active
    inequalities treated as equalities).

    If the Armijo-accepted point violates a previously inactive inequality,
    the step is shrunk by repeated multiplication with beta to bracket the
    crossing, then bisected so the projected point is feasible and lands on
    the newly crossed boundary (within ``config.eps_act``); the Armijo
    inequality is re-verified at the shrunk step.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    if active_chart.n_rows > 0 and np.max(np.abs(chart_value(active_chart, bundle.x))) > 1e-8:
        raise ValueError("boundary step requires the base point on the active chart")

    retract = _pick_retraction(active_chart, config)
    outside = [j for j in range(1, problem.m_G + 1) if j not in active_chart.ineq_indices]

    def max_outside_g(z):
        if not outside:
            return -np.inf
        g = np.asarray(problem.G(z), dtype=float).reshape(problem.m_G)
        return float(np.max(g[[j - 1 for j in outside]]))

    def armijo_at(t, z):
        lhs = _eval_F(problem, z)
        rhs = bundle.F_val + config.sigma * t * slope
        return lhs, rhs, bool(np.all(lhs < rhs))

    k_armijo = None
    for k in range(config.k_max + 1):
        t = config.beta0 * config.beta ** k
        z = _try_retract(retract, bundle.x, t * v)
        if z is None:
            continue
        lhs, rhs, ok = armijo_at(t, z)
        if ok:
            k_armijo = k
            break
    if k_armijo is None:
        raise NoStep(f"boundary step: Armijo failed for all k <= {config.k_max}")

    if max_outside_g(z) <= FEAS_TOL:
        return StepResult(t=t, k=k_armijo, armijo_lhs=lhs, armijo_rhs=rhs,
                          feasibility_repaired=False, new_point=z)

    # shrink by beta until the projected point is feasible again
    t_hi = t
    k = k_armijo
    t_lo = None
    while k < config.k_max:
        k += 1
        t_try = config.beta0 * config.beta ** k
        z_try = _try_retract(retract, bundle.x, t_try * v)
        if z_try is not None and max_outside_g(z_try) <= FEAS_TOL:
            t_lo, z_lo = t_try, z_try
            break
        t_hi = t_try
    if t_lo is None:
        raise NoStep("boundary step: shrinking never re-entered the feasible set")

    # bisect the bracket so a newly crossed inequality becomes active
    for _ in range(200):
        if max_outside_g(z_lo) >= -config.eps_act:
            break
        if t_hi - t_lo <= 1e-15 * max(1.0, t_hi):
            break
        t_mid = 0.5 * (t_lo + t_hi)
        z_mid = _try_retract(retract, bundle.x, t_mid * v)
        if z_mid is not None and max_outside_g(z_mid) <= FEAS_TOL:
            t_lo, z_lo = t_mid, z_mid
        else:
            t_hi = t_mid
    if max_outside_g(z_lo) < -config.eps_act:
        raise NoStep("boundary step: could not land on the newly crossed boundary")

    lhs, rhs, ok = armijo_at(t_lo, z_lo)
    if not ok:
        raise NoStep("boundary step: Armijo fails at the boundary-activating step")
    return StepResult(t=t_lo, k=k_armijo, armijo_lhs=lhs, armijo_rhs=rhs,
                      feasibility_repaired=True, new_point=z_lo)
