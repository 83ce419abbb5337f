import dataclasses
import math

import numpy as np
import pytest

import modescent as md
from modescent.errors import NoConvergence
from modescent.geometry import EPS_ACT
from modescent.linesearch import (_armijo, _outside_g, armijo_step, boundary_step,
                                  feasible_armijo_step)

from conftest import make_box_problem, make_nan_equality_problem
from oracles import grid_min_norm

IDENTITY = lambda x, w: x + w


def _quad1d():
    return md.ProblemSpec(
        name="quad1d", n=1, m=1,
        F=lambda x: np.array([x[0] ** 2]),
        DF=lambda x: np.array([[2.0 * x[0]]]),
    )


# ---------------------------------------------------------------------------
# armijo_step


def test_armijo_quadratic_backtracks_once():
    # k=0 fails (F=1 >= 0.6), k=1 succeeds (F=0 < 0.8)
    b = md.evaluate(_quad1d(), [1.0])
    step = armijo_step(b, np.array([-2.0]), IDENTITY, 1.0, 0.5, 0.1)
    assert step.t == pytest.approx(0.5)
    assert step.k == 1
    assert step.new_point == pytest.approx([0.0])


def test_armijo_affine_accepts_first_step():
    p = md.ProblemSpec(
        name="aff", n=1, m=1,
        F=lambda x: np.array([-3.0 * x[0]]),
        DF=lambda x: np.array([[-3.0]]),
    )
    b = md.evaluate(p, [0.0])
    step = armijo_step(b, np.array([1.0]), IDENTITY, 0.7, 0.5, 0.5)
    assert step.t == pytest.approx(0.7)
    assert step.k == 0


def test_armijo_rejects_non_descent_direction():
    b = md.evaluate(_quad1d(), [1.0])
    with pytest.raises(ValueError):
        armijo_step(b, np.array([1.0]), IDENTITY, 1.0, 0.5, 0.1)


def test_armijo_exhaustion_raises_no_step():
    # sigma close to 1 forces k around 7 for the quadratic; cap below that
    b = md.evaluate(_quad1d(), [1.0])
    with pytest.raises(md.NoStep):
        armijo_step(b, np.array([-2.0]), IDENTITY, 1.0, 0.5, 0.99, k_max=5)
    step = armijo_step(b, np.array([-2.0]), IDENTITY, 1.0, 0.5, 0.99, k_max=20)
    assert step.t <= 1.0 / 128.0 + 1e-15


def test_armijo_satisfies_componentwise_inequality(circle2d, rng):
    for _ in range(10):
        x = rng.uniform(1.2, 2.8, size=2)
        b = md.evaluate(circle2d, x)
        # far outside the circle no inequality is active, so SP1 is SP
        d = md.solve_direction(b, md.SubproblemKind.OBJECTIVE_ICS)
        assert d.active_set == ()
        if d.alpha >= -1e-8:
            continue
        step = armijo_step(b, d.v, IDENTITY, 1.0, 0.5, 1e-4)
        assert np.all(step.armijo_lhs < b.F_val + 1e-4 * step.t * (b.DF_val @ d.v))
        assert 0.0 < step.t <= 1.0


# ---------------------------------------------------------------------------
# feasible_armijo_step


def test_feasible_armijo_hand_example():
    p = md.ProblemSpec(
        name="corner", n=2, m=1,
        F=lambda x: np.array([x[0] + x[1]]),
        DF=lambda x: np.array([[1.0, 1.0]]),
        m_G=1,
        G=lambda x: np.array([-x[0]]),
        DG=lambda x: np.array([[-1.0, 0.0]]),
    )
    b = md.evaluate(p, [0.0, 1.0])
    d = md.solve_direction(b, md.SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert d.v == pytest.approx([0.2, -0.4], abs=1e-10)
    assert d.lam == pytest.approx([0.4, 0.6], abs=1e-10)
    # cross-check the direction against the grid oracle
    _, p_oracle = grid_min_norm(np.array([[1.0, 1.0], [-1.0, 0.0]]), step=1e-3)
    assert np.linalg.norm(-d.v - p_oracle) <= 1e-6

    cfg = md.SolverConfig(beta0=0.8, beta=0.5)
    step = feasible_armijo_step(b, d.v, d.active_set, cfg)
    assert step.t == pytest.approx(0.8)
    assert not step.feasibility_repaired
    assert float(p.G(step.new_point)[0]) <= 1e-9


def test_feasible_armijo_delegates_when_ics_inactive(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    d = md.solve_direction(b, md.SubproblemKind.OBJECTIVE_ICS, 1e-4)
    cfg = md.SolverConfig(beta0=0.01, beta=0.5)
    plain = armijo_step(b, d.v, IDENTITY, cfg.beta0, cfg.beta, cfg.sigma)
    feas = feasible_armijo_step(b, d.v, d.active_set, cfg)
    assert feas.t == pytest.approx(plain.t)
    assert feas.new_point == pytest.approx(plain.new_point, abs=1e-12)
    assert not feas.feasibility_repaired


def test_feasible_armijo_repairs_infeasible_step(circle2d):
    # big beta0 makes the plain Armijo point land inside the circle
    b = md.evaluate(circle2d, (-2.0, 0.5))
    d = md.solve_direction(b, md.SubproblemKind.OBJECTIVE_ICS, 1e-4)
    cfg = md.SolverConfig(beta0=0.2, beta=0.5)
    step = feasible_armijo_step(b, d.v, d.active_set, cfg)
    assert step.feasibility_repaired
    assert float(circle2d.G(step.new_point)[0]) <= 1e-9
    assert np.all(step.armijo_lhs < b.F_val + cfg.sigma * step.t * (b.DF_val @ d.v))


def test_feasible_armijo_rejects_outflow_direction(circle2d):
    b = md.evaluate(circle2d, (1.0, 0.0))
    # (-1, 0) is descent for both objectives but increases G
    with pytest.raises(ValueError):
        feasible_armijo_step(b, np.array([-1.0, 0.0]), md.active_set(b, 1e-4),
                             md.SolverConfig())


def _nan_slope_bundle():
    # DF(x) v = (-1, NaN) for v = (-1, 0): the NaN sits in the second component,
    # where a test through Python's max would miss it (max([-1.0, nan]) is -1.0)
    p = md.ProblemSpec(name="nan-slope", n=2, m=2, F=lambda x: np.array([x[0], x[0]]),
                       DF=lambda x: np.eye(2), m_G=1, G=lambda x: np.array([-1.0]),
                       DG=lambda x: np.array([[0.0, 1.0]]))
    x = np.zeros(2)
    return md.EvalBundle(problem=p, x=x, F_val=np.zeros(2), G_val=np.array([-1.0]),
                         DF_val=np.array([[1.0, 0.0], [np.nan, 0.0]]),
                         DH_val=np.zeros((0, 2)), DG_val=np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("step", ["feasible", "boundary"])
def test_steps_reject_a_slope_with_nan_in_a_later_component(step):
    b = _nan_slope_bundle()
    v = np.array([-1.0, 0.0])
    assert (b.DF_val @ v)[0] == -1.0
    with pytest.raises(md.StepPreconditionError, match="strict componentwise descent"):
        if step == "feasible":
            feasible_armijo_step(b, v, (), md.SolverConfig())
        else:
            boundary_step(b, v, md.ManifoldChart(b.problem, ()), md.SolverConfig())


def test_feasible_armijo_never_accepts_nan_in_a_later_g_row():
    # G is NaN in its second row at every point but the base point; every
    # trial passes Armijo and the first row, so only the NaN can stop it
    p = md.ProblemSpec(name="nan-last-g", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=2,
                       G=lambda x: np.array([-1.0, -1.0 if not x.any() else np.nan]),
                       DG=lambda x: np.zeros((2, 2)))
    b = md.evaluate(p, [0.0, 0.0])
    with pytest.raises(md.NoStep, match="feasible Armijo: no acceptable step"):
        feasible_armijo_step(b, np.array([1.0, 0.0]), (), md.SolverConfig())


# ---------------------------------------------------------------------------
# boundary_step


def test_boundary_step_along_circle_matches_enumeration(circle2d):
    x = np.array([np.cos(2.0), np.sin(2.0)])
    b = md.evaluate(circle2d, x)
    d = md.solve_direction(b, md.SubproblemKind.EQUALITY_ICS, 1e-9)
    chart = md.ManifoldChart(circle2d, (1,))
    cfg = md.SolverConfig(beta0=0.1, beta=0.5)
    step = boundary_step(b, d.v, chart, cfg)

    # oracle: enumerate k with the closed-form radial projection
    slope = b.DF_val @ d.v
    for k in range(61):
        t = cfg.beta0 * cfg.beta ** k
        y = x + t * d.v
        z = y / np.linalg.norm(y)
        if np.all(circle2d.F(z) < b.F_val + cfg.sigma * t * slope):
            break
    assert step.k == k
    assert step.t == pytest.approx(cfg.beta0 * cfg.beta ** k)
    assert step.new_point == pytest.approx(z, abs=1e-9)
    assert not step.feasibility_repaired
    assert np.linalg.norm(step.new_point) == pytest.approx(1.0, abs=1e-10)


# the wall's G is linear along the step, so at either beta the landing's
# first false-position trial on [0, t] is the wall x1 = 1 itself
@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_boundary_step_activates_second_face(beta):
    p = make_box_problem()
    b = md.evaluate(p, [0.0, 0.0])
    chart = md.ManifoldChart(p, (1,))
    cfg = md.SolverConfig(beta0=3.0, beta=beta)
    step = boundary_step(b, np.array([1.0, 0.0]), chart, cfg)
    assert step.feasibility_repaired
    assert step.new_point == pytest.approx([1.0, 0.0], abs=1e-7)
    new_active = md.active_set(md.evaluate(p, step.new_point), EPS_ACT)
    assert new_active == (1, 2)
    assert float(np.max(p.G(step.new_point))) <= 1e-9


def test_boundary_step_no_step_on_exhaustion():
    # DF claims descent up the circle while F = x2 grows there, so no
    # k <= K_MAX passes Armijo
    p = md.ProblemSpec(
        name="lying", n=2, m=1,
        F=lambda x: np.array([x[1]]),
        DF=lambda x: np.array([[0.0, -1.0]]),
        m_G=1,
        G=lambda x: np.array([1.0 - x @ x]),
        DG=lambda x: np.array([-2.0 * x]),
    )
    b = md.evaluate(p, [1.0, 0.0])
    chart = md.ManifoldChart(p, (1,))
    with pytest.raises(md.NoStep, match="Armijo failed"):
        boundary_step(b, np.array([0.0, 1.0]), chart, md.SolverConfig())


def _bump_F(x):
    # -x1 plus a narrow bump of height 2 at x1 = 0.3
    return -x[0] + 2.0 * np.exp(-((x[0] - 0.3) / 0.05) ** 2)


def _bump_DF(x):
    u = (x[0] - 0.3) / 0.05
    return np.array([[-1.0 - 80.0 * u * np.exp(-u * u), 0.0]])


@pytest.mark.parametrize("F, DF, G, message", [
    # G jumps from -1 to +1 at x1 = 0.5: the bracket never gets within
    # EPS_ACT of zero
    (lambda x: np.array([-x[0]]), lambda x: np.array([[-1.0, 0.0]]),
     lambda x: np.array([-1.0 if x[0] < 0.5 else 1.0]),
     "could not land on the newly crossed boundary"),
    # the landing point x1 = 0.3 sits on top of the bump
    (lambda x: np.array([_bump_F(x)]), _bump_DF,
     lambda x: np.array([x[0] - 0.3]),
     "Armijo fails at the boundary-activating step"),
], ids=["could-not-land", "armijo-fails-at-landing"])
def test_boundary_step_repair_exits(F, DF, G, message):
    p = md.ProblemSpec(name="repair-exit", n=2, m=1, F=F, DF=DF, m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    with pytest.raises(md.NoStep, match=message):
        boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())


def _counted_G(G, seen):
    def counted(x):
        seen.append(float(x[0]))
        return G(x)
    return counted


@pytest.mark.parametrize("beyond", [np.nan, np.inf], ids=["nan", "plus-inf"])
def test_boundary_step_lands_through_the_midpoint_past_a_nonfinite_g(beyond):
    # G = x1 - 0.3 up to x1 = 0.9 and NaN or +inf past it: phi(t_hi) at the
    # Armijo step t = 1 is not finite, so the landing first takes the
    # midpoint, then the false-position root through (0, -0.3) and
    # (0.5, 0.2), which is the boundary
    seen = []
    G = _counted_G(lambda x: np.array([x[0] - 0.3 if x[0] < 0.9 else beyond]), seen)
    p = md.ProblemSpec(name="nonfinite-beyond", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    step = boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())
    assert seen[:3] == [0.0, 1.0, 0.5]
    assert seen[3:] == [pytest.approx(0.3, abs=1e-15)]
    assert step.feasibility_repaired and step.k == 0 and step.t == seen[3]
    assert -EPS_ACT <= float(p.G(step.new_point)[0]) <= 1e-9


def test_boundary_step_lands_through_the_midpoint_past_a_failed_retraction(monkeypatch):
    # phi = sqrt(x1) - sqrt(0.3) is concave, so the first false-position
    # root, sqrt(0.3) = 0.548, falls where the retraction fails
    # (0.5 <= t <= 0.9).  With no value at the upper end the landing takes
    # midpoints until the upper end has one, then false position again
    tried = []

    def retract(chart, x, w):
        tried.append(float(w[0]))
        if 0.5 <= w[0] <= 0.9:
            raise NoConvergence("retraction fails here")
        return x + w

    monkeypatch.setattr(md.ManifoldChart, "retract", retract)
    G = lambda x: np.array([math.sqrt(x[0]) - math.sqrt(0.3)])
    p = md.ProblemSpec(name="failed-retraction", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    step = boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())
    assert tried[:2] == [1.0, pytest.approx(math.sqrt(0.3), abs=1e-15)]
    # the failed trial and the feasible midpoint below it bracket the root
    assert tried[2:4] == [0.5 * tried[1], 0.5 * (tried[2] + tried[1])]
    assert len(tried) < 15
    assert step.feasibility_repaired and step.k == 0
    assert -EPS_ACT <= float(G(step.new_point)[0]) <= 1e-9


def test_boundary_step_lands_on_a_kinked_boundary_in_few_trials():
    # G = x1/0.3 - 1 below x1 = 0.3 and slope 0.36 above: phi has a kink at
    # its root.  Anderson-Bjorck scaling lands in 7 trials; halving the
    # kept value (Illinois) creeps in from the flat side and takes 29
    seen = []
    G = _counted_G(lambda x: np.array([x[0] / 0.3 - 1.0 if x[0] < 0.3 else 0.36 * (x[0] - 0.3)]),
                   seen)
    p = md.ProblemSpec(name="kink", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    step = boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())
    # G at the base point and at the Armijo step t = 1, then the landing
    assert seen[:2] == [0.0, 1.0]
    assert len(seen) - 2 <= 10
    assert step.feasibility_repaired and step.k == 0 and step.t == seen[-1]
    assert -EPS_ACT <= float(p.G(step.new_point)[0]) <= 1e-9


@pytest.mark.parametrize("beyond", [np.nan, np.inf], ids=["nan", "plus-inf"])
def test_boundary_step_bisects_to_no_step_without_a_finite_upper_value(beyond):
    # G = -1 below x1 = 0.5 and NaN or +inf from there on: no trial gives
    # the upper end a finite value, so every landing trial is the midpoint
    # of the bracket, which closes on 0.5 without landing
    seen = []
    G = _counted_G(lambda x: np.array([-1.0 if x[0] < 0.5 else beyond]), seen)
    p = md.ProblemSpec(name="nonfinite-wall", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    with pytest.raises(md.NoStep, match="could not land on the newly crossed boundary"):
        boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())
    lo, hi, bisection = 0.0, 1.0, []
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        bisection.append(mid)
        lo, hi = (mid, hi) if mid < 0.5 else (lo, mid)
    assert seen[2:] == bisection


@pytest.mark.parametrize("G", [
    # G is feasible only at the base point, where it is zero
    lambda x: np.array([0.0 if not x.any() else 1.0]),
    lambda x: np.array([-0.5 * EPS_ACT + x[0]]),
], ids=["zero", "within-eps-act"])
def test_boundary_step_requires_outside_inequalities_inside(G):
    # an inequality the chart leaves out must be below -EPS_ACT at the base
    # point, so the landing bracket's lower end starts strictly inside it
    p = md.ProblemSpec(name="outside-at-zero", n=2, m=1, F=lambda x: np.array([-x[0]]),
                       DF=lambda x: np.array([[-1.0, 0.0]]), m_G=1, G=G,
                       DG=lambda x: np.array([[1.0, 0.0]]))
    b = md.evaluate(p, [0.0, 0.0])
    with pytest.raises(md.StepPreconditionError, match="outside the chart below -EPS_ACT"):
        boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, ()), md.SolverConfig())


def test_boundary_step_requires_point_on_chart(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    chart = md.ManifoldChart(circle2d, (1,))
    with pytest.raises(ValueError):
        boundary_step(b, np.array([1.0, 0.0]), chart, md.SolverConfig())


def test_boundary_step_reads_the_pinned_rows_from_the_bundle():
    # box: floor G1 = -x2 and wall G2 = x1 - 1.  At the base point (0, 0)
    # the floor is on its chart and the wall is not.  The on-chart test
    # reads the pinned row from the bundle's G, so the step calls G at its
    # trial point only, never again at the base point
    seen = []
    box = make_box_problem()
    p = dataclasses.replace(box, G=lambda x: seen.append(x.tolist()) or box.G(x))
    b = md.evaluate(p, [0.0, 0.0])
    step = boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, (1,)), md.SolverConfig())
    assert step.new_point.tolist() == [1.0, 0.0]
    assert seen == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(md.StepPreconditionError, match="on the active chart"):
        boundary_step(b, np.array([1.0, 0.0]), md.ManifoldChart(p, (2,)), md.SolverConfig())


def test_boundary_step_rejects_a_nan_base_point():
    # a test through abs(...).max() > CHART_TOL reads NaN as on the chart,
    # and 61 projection trials failed before NoStep
    p = make_nan_equality_problem()
    b = md.evaluate(p, [0.6, 0.8])
    with pytest.raises(md.StepPreconditionError, match="on the active chart"):
        boundary_step(b, np.array([-0.8, 0.6]), md.ManifoldChart(p, ()), md.SolverConfig())


@pytest.mark.parametrize("g, rows, expected", [
    ([-1.0, -2.0], range(2), -1.0),
    ([-1.0, 5.0], [0], -1.0),
    ([-1.0, -np.inf], range(2), np.nan),
    ([np.nan, -1.0], range(2), np.nan),
    ([np.inf, -1.0], range(2), np.inf),
], ids=["all-rows", "outside-row", "minus-inf", "nan", "plus-inf"])
def test_outside_g_reads_undefined_rows_as_infeasible(g, rows, expected):
    p = md.ProblemSpec(name="g", n=1, m=1, F=lambda x: x, DF=lambda x: np.eye(1), m_G=2,
                       G=lambda x: np.array(g), DG=lambda x: np.zeros((2, 1)))
    got, g_max = _outside_g(p, rows, np.zeros(1))
    assert got.tolist() == pytest.approx(g, nan_ok=True)
    assert g_max == pytest.approx(expected, nan_ok=True)
    # a failed retraction reads NaN; no rows to test read -inf without a G call
    assert np.isnan(_outside_g(p, rows, None)[1])
    assert _outside_g(p, [], np.zeros(1)) == (None, -np.inf)


def test_armijo_test_fails_on_nan_in_the_last_component():
    # F(z) = (-1, NaN): the first component passes, only the NaN can fail
    # the test, which a loop written "if f >= bound" would let through
    p = md.ProblemSpec(name="nan-last-f", n=1, m=2, F=lambda x: np.array([-1.0, np.nan]),
                       DF=lambda x: np.ones((2, 1)))
    lhs, ok = _armijo(p, [0.0, 0.0], [-1.0, -1.0], 1e-4, 1.0, np.zeros(1))
    assert not ok and np.isnan(lhs[1])
    _, ok = _armijo(dataclasses.replace(p, F=lambda x: np.array([-1.0, -1.0])),
                    [0.0, 0.0], [-1.0, -1.0], 1e-4, 1.0, np.zeros(1))
    assert ok


@pytest.mark.parametrize("last", [np.nan, -np.inf])
def test_outside_g_reads_an_undefined_last_row_as_infeasible(last):
    # m_G = 2 with the undefined entry last, after a feasible first row
    p = md.ProblemSpec(name="g", n=1, m=1, F=lambda x: x, DF=lambda x: np.eye(1), m_G=2,
                       G=lambda x: np.array([-1.0, last]), DG=lambda x: np.zeros((2, 1)))
    assert np.isnan(_outside_g(p, None, np.zeros(1))[1])
    assert np.isnan(_outside_g(p, [0, 1], np.zeros(1))[1])
    assert _outside_g(p, [0], np.zeros(1))[1] == -1.0


def test_step_results_stay_feasible(circle2d, rng):
    cfg = md.SolverConfig(beta0=0.5, beta=0.5)
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        if float(circle2d.G(x)[0]) > -1e-6:
            continue
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, md.SubproblemKind.OBJECTIVE_ICS, cfg.epsilon)
        if d.alpha >= -1e-8:
            continue
        step = feasible_armijo_step(b, d.v, d.active_set, cfg)
        assert float(circle2d.G(step.new_point)[0]) <= 1e-9
        assert 0.0 < step.t <= cfg.beta0
