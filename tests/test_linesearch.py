import numpy as np
import pytest

import modescent as md
from modescent.geometry import EPS_ACT
from modescent.linesearch import _outside_g, armijo_step, boundary_step, feasible_armijo_step

from conftest import make_box_problem
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


# the landing bisects [0, t]: at beta = 1/2 its points are Armijo trial
# points t = beta0 beta^k, at 0.9 they are not
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


@pytest.mark.parametrize("G", [
    # G is feasible only at the base point, where it is zero
    lambda x: np.array([0.0 if not x.any() else 1.0]),
    lambda x: np.array([-0.5 * EPS_ACT + x[0]]),
], ids=["zero", "within-eps-act"])
def test_boundary_step_requires_outside_inequalities_inside(G):
    # an inequality the chart leaves out must be below -EPS_ACT at the base
    # point, so the bisection's lower end starts strictly inside it
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


@pytest.mark.parametrize("g, rows, expected", [
    ([-1.0, -2.0], slice(None), -1.0),
    ([-1.0, 5.0], [0], -1.0),
    ([-1.0, -np.inf], slice(None), np.nan),
    ([np.nan, -1.0], slice(None), np.nan),
    ([np.inf, -1.0], slice(None), np.inf),
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
