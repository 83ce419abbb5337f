"""Armijo backtracking t = beta0 * beta^k and its feasibility-aware variants.

One loop, ``_backtrack``, backtracks for all three step routines, and the
rule for accepting a trial is written there once: its retraction exists,
it passes the Armijo test, and the G rows the routine names hold within
FEAS_TOL.  Each routine states only what differs.  ``armijo_step`` names no
G row, so it takes the first Armijo point.  ``feasible_armijo_step`` names
every G row; once a trial has passed Armijo the loop tests G first, so an
infeasible trial costs no F.  ``boundary_step`` names no G row either: it
takes the first Armijo point and, where that crosses a new inequality,
shortens it onto that boundary by false position with Anderson-Bjorck
scaling, with the bracket's midpoint as the safeguard.

A step routine handed a direction or base point that violates its
preconditions raises ``StepPreconditionError``, which is both a ``NoStep``
and a ``ValueError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoStep, StepPreconditionError
from .geometry import CHART_TOL, EPS_ACT, FEAS_TOL, ManifoldChart, _chart, _regula_falsi
from .problems import EvalBundle, _value

# largest backtracking exponent k of a step t = beta0 * beta^k
K_MAX = 60


@dataclass(slots=True)
class StepResult:
    """An accepted step: length t = beta0 * beta^k (possibly shrunk further
    by feasibility repair), the Armijo left-hand side at acceptance, and the
    retracted new point.

    ``armijo_lhs`` is F(new_point); ``G_val`` is G(new_point) where the step
    computed it for its feasibility test, else None.  The descent loop hands
    both to its next evaluation instead of calling the maps again; that
    G passed the feasibility test, so it is finite in every row and is
    not checked again.
    """

    t: float
    k: int
    armijo_lhs: np.ndarray
    feasibility_repaired: bool
    new_point: np.ndarray
    G_val: np.ndarray | None = None


def _descent_slope(bundle, v):
    """DF(x) v as Python floats, each required to be < 0 (NaN fails)."""
    slope = bundle.DF_val.dot(v).tolist()
    for s in slope:
        if not s < 0.0:
            raise StepPreconditionError(
                "line search requires strict componentwise descent: DF(x) v < 0")
    return slope


def _armijo(problem, f0, slope, sigma, t, z):
    """F(z) and whether F(z) < F(x) + sigma t DF(x) v holds (strictly, in
    every component; a NaN in F(z) fails it).  ``f0`` is F(x) and ``slope``
    DF(x) v, both in Python floats; each right-hand side is the same two
    roundings as the array expression F(x) + (sigma t) slope."""
    lhs = _value(problem, "F", z)
    st = sigma * t
    for f, fi, s in zip(lhs.tolist(), f0, slope):
        if not f < fi + st * s:
            return lhs, False
    return lhs, True


def _backtrack(bundle, slope, retract, v, beta0, beta, sigma, k_max, rows):
    """``(k, t, z, F(z), G(z), k_armijo)`` of the first trial t = beta0 *
    beta^k, k = 0..k_max, whose retracted point z of the step t v exists,
    passes the Armijo test, and holds the G ``rows`` (read as
    ``_outside_g`` reads them) within FEAS_TOL; None when no trial does.
    This is the one backtracking loop of all three step routines.
    ``k_armijo`` is the first k whose trial passed Armijo.

    Up to the first Armijo pass every trial calls F, and only that trial
    calls G; past it each trial tests G first and calls F only where G
    holds.  The accepted trial is the one an F-then-G test of every trial
    accepts.  With ``rows`` empty G is never called and G(z) is None.  The
    Armijo test runs in Python floats; a NaN entry fails it, so the search
    goes on.

    The retractions depend only on x and x + t v, so once x + t v rounds to
    x every later trial repeats the last one: the search stops after a
    rejected trial whose x + t v rounds to x and whose retraction failed or
    returned x itself.  Only that test reads x in Python floats, so a trial
    accepted at once pays for no ``tolist``.
    """
    problem, x, f0 = bundle.problem, bundle.x, bundle.F_val.tolist()
    k_armijo = None
    for k in range(k_max + 1):
        t = beta0 * beta ** k
        w = t * v
        z = _try_retract(retract, x, w)
        if z is not None:
            if k_armijo is None:
                lhs, ok = _armijo(problem, f0, slope, sigma, t, z)
                if ok:
                    k_armijo = k
                    g, g_max = _outside_g(problem, rows, z)
                    ok = g_max <= FEAS_TOL
            else:
                g, g_max = _outside_g(problem, rows, z)
                ok = g_max <= FEAS_TOL
                if ok:
                    lhs, ok = _armijo(problem, f0, slope, sigma, t, z)
            if ok:
                return k, t, z, lhs, g, k_armijo
        xs = x.tolist()
        if (z is None or z.tolist() == xs) \
                and all(xi + wi == xi for xi, wi in zip(xs, w.tolist())):
            return None
    return None


def armijo_step(bundle: EvalBundle, v, retract, beta0: float, beta: float,
                sigma: float, k_max: int = K_MAX) -> StepResult:
    """Smallest k with F(retract(x, t v)) < F(x) + sigma t DF(x) v, t = beta0 beta^k.

    The inequality is strict and componentwise.  The search is
    ``_backtrack`` with no G row.  Raises ``NoStep`` when no k <= k_max
    satisfies it (numerically degenerate tolerances).
    """
    slope = _descent_slope(bundle, v)
    point = _backtrack(bundle, slope, retract, v, beta0, beta, sigma, k_max, ())
    if point is None:
        raise NoStep(f"Armijo: no acceptable step within k_max={k_max}")
    k, t, z, lhs, _, _ = point
    return StepResult(t, k, lhs, False, z)


def _try_retract(retract, x, w):
    # retractions are local maps; a failure far from the manifold just means
    # the candidate step is too long and backtracking must continue
    try:
        return retract(x, w)
    except NoConvergence:
        return None


def _outside_g(problem, rows, z):
    """G(z) and its largest entry over ``rows``, the G rows outside the
    step's chart: a sequence of 0-based indices, or None for every row.
    Without such rows (an empty sequence) G is not called and the result is
    (None, -inf).  A failed retraction (z None), a NaN or a -inf entry
    reads NaN and a +inf entry reads +inf, which no feasibility test
    passes.  The chart rows need no test: the chart's retraction returns a
    point within FEAS_TOL of the chart or fails.  So a G that passes a
    feasibility test is finite in every row."""
    if z is None:
        return None, math.nan
    if rows is not None and not rows:
        return None, -math.inf
    g = _value(problem, "G", z)
    out = g.tolist()
    if rows is not None:
        out = [out[i] for i in rows]
    # NaN and -inf fail the comparison; past it, max is order-independent
    for gi in out:
        if not gi > -math.inf:
            return g, math.nan
    return g, max(out)


def feasible_armijo_step(bundle: EvalBundle, v, active: tuple, config) -> StepResult:
    """Armijo step through the equality-manifold retraction that also keeps
    all inequalities satisfied (strategy with active inequalities treated as
    extra objectives).

    Requires DF(x) v < 0 and, for every inequality in ``active`` (the 1-based
    indices of the active set the direction was computed with), the strict
    inflow condition grad(G_i) v < 0.  Takes the smallest k whose point
    satisfies both Armijo and G <= 0; the repair flag records whether
    feasibility forced k past the plain Armijo k.  The search is
    ``_backtrack`` over every G row: past the first Armijo pass a trial
    computes F only where G holds.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    for i in active:
        if bundle.DG_val[i - 1].dot(v) >= 0.0:
            raise StepPreconditionError(
                f"feasible Armijo step requires grad(G_{i}) v < 0 for active inequalities"
            )

    # every G row lies outside the chart, which pins none
    point = _backtrack(bundle, slope, _chart(problem, ()).retract, v, config.beta0, config.beta,
                       config.sigma, K_MAX, None if problem.m_G else ())
    if point is None:
        raise NoStep(f"feasible Armijo: no acceptable step within k_max={K_MAX}")
    k, t, z, lhs, g, k_armijo = point
    return StepResult(t, k, lhs, k != k_armijo, z, g)


def boundary_step(bundle: EvalBundle, v, active_chart: ManifoldChart, config) -> StepResult:
    """Armijo step through the active-boundary chart projection (active
    inequalities treated as equalities).

    Requires the base point on the chart (within ``CHART_TOL``) and every
    inequality outside the chart below ``-EPS_ACT`` there, which is what
    pinning exactly the rows with G >= -EPS_ACT leaves.  The Armijo point
    is ``_backtrack``'s with no G row.  If that point, at step t, violates
    an outside inequality, [0, t] is shrunk, keeping a feasible lower end
    (at first the base point), until that end lies within ``EPS_ACT`` of a
    crossed boundary.  The bracket shrinks by ``geometry._regula_falsi``,
    false position with Anderson-Bjorck scaling, on phi, the largest
    outside G along the step; where phi is NaN or +inf at the upper end, or
    the retraction failed there, the trial is the midpoint.  The Armijo
    inequality is re-verified at the landing step.  Every trial retracts
    through ``active_chart.retract``.  The on-chart test reads the pinned
    rows from the bundle's G and calls H only where the problem has
    equalities.
    """
    problem = bundle.problem
    slope = _descent_slope(bundle, v)
    g = bundle.G_val.tolist()
    rows = [g[i - 1] for i in active_chart.ineq_indices]
    if problem.m_H > 0:
        rows += _value(problem, "H", bundle.x).tolist()
    # Python floats; a NaN chart row fails the test
    if not all(abs(c) <= CHART_TOL for c in rows):
        raise StepPreconditionError("boundary step requires the base point on the active chart")
    outside = [i for i in range(problem.m_G) if i + 1 not in active_chart.ineq_indices]
    max_lo = max((g[i] for i in outside), default=-math.inf)
    if not max_lo < -EPS_ACT:
        raise StepPreconditionError(
            "boundary step requires every inequality outside the chart below -EPS_ACT")

    retract = active_chart.retract
    point = _backtrack(bundle, slope, retract, v, config.beta0, config.beta, config.sigma,
                       K_MAX, ())
    if point is None:
        raise NoStep(f"boundary step: Armijo failed for all k <= {K_MAX}")
    k, t, z, lhs, _, _ = point

    g, g_max = _outside_g(problem, outside, z)
    if g_max <= FEAS_TOL:
        return StepResult(t, k, lhs, False, z, g)

    def phi(t_new):
        z_new = _try_retract(retract, bundle.x, t_new * v)
        g_new, max_new = _outside_g(problem, outside, z_new)
        return max_new, (z_new, g_new)

    # shrink [0, t], keeping a feasible lower end, at first the base point,
    # whose G the bundle holds
    t_lo, max_lo, (z_lo, g_lo) = _regula_falsi(
        phi, 0.0, max_lo, t, g_max, FEAS_TOL, EPS_ACT, (bundle.x, bundle.G_val))
    if max_lo < -EPS_ACT:
        raise NoStep("boundary step: could not land on the newly crossed boundary")

    lhs, ok = _armijo(problem, bundle.F_val.tolist(), slope, config.sigma, t_lo, z_lo)
    if not ok:
        raise NoStep("boundary step: Armijo fails at the boundary-activating step")
    return StepResult(t_lo, k, lhs, True, z_lo, g_lo)
