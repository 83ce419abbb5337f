import numpy as np
import pytest

import modescent as md
from modescent import geometry
from modescent.geometry import FEAS_TOL, chart_jacobian, chart_retraction, chart_value


@pytest.fixture
def circle_chart(circle2d):
    return md.ManifoldChart(circle2d, (1,))


@pytest.fixture
def sphere_chart(sphere3d):
    return md.ManifoldChart(sphere3d, ())


# ---------------------------------------------------------------------------
# project


def test_project_radial(circle_chart):
    z = md.project(circle_chart, (0.5, 0.0))
    assert z == pytest.approx([1.0, 0.0], abs=1e-9)


def test_project_identity_on_manifold(circle_chart, rng):
    for _ in range(10):
        t = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(t), np.sin(t)])
        assert md.project(circle_chart, x) == pytest.approx(x, abs=1e-9)


def test_project_center_degenerate(circle_chart):
    with pytest.raises(md.NoConvergence):
        md.project(circle_chart, (0.0, 0.0))


def test_project_satisfies_chart_and_stationarity(circle_chart, sphere_chart, rng):
    for chart in (circle_chart, sphere_chart):
        n = chart.problem.n
        for _ in range(20):
            y = rng.uniform(-2, 2, size=n)
            if np.linalg.norm(y) < 0.3:
                continue
            z = md.project(chart, y)
            assert np.max(np.abs(chart_value(chart, z))) <= 1e-10
            J = chart_jacobian(chart, z)
            mu, *_ = np.linalg.lstsq(J.T, y - z, rcond=None)
            assert np.max(np.abs(z - y + J.T @ mu)) <= 1e-9


def test_project_idempotent(circle_chart, rng):
    for _ in range(10):
        y = rng.uniform(-3, 3, size=2)
        if np.linalg.norm(y) < 0.3:
            continue
        z = md.project(circle_chart, y)
        assert md.project(circle_chart, z) == pytest.approx(z, abs=1e-9)


def test_project_nearest_against_dense_sampling(circle_chart, rng):
    ts = np.linspace(0.0, 2 * np.pi, 200001)
    boundary = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    for _ in range(5):
        y = rng.uniform(-2, 2, size=2)
        if np.linalg.norm(y) < 0.3:
            continue
        z = md.project(circle_chart, y)
        best = float(np.min(np.linalg.norm(boundary - y, axis=1)))
        assert np.linalg.norm(z - y) <= best + 1e-6


# ---------------------------------------------------------------------------
# retract_psi


def test_psi_circle_examples(circle_chart):
    out = md.retract_psi(circle_chart, (1.0, 0.0), (0.0, 0.6))
    assert out == pytest.approx([0.8, 0.6], abs=1e-10)

    out = md.retract_psi(circle_chart, (0.0, 1.0), (0.5, 0.0))
    assert out == pytest.approx([0.5, np.sqrt(0.75)], abs=1e-10)


def test_psi_zero_step_is_identity(circle_chart):
    x = np.array([np.cos(1.2), np.sin(1.2)])
    assert md.retract_psi(circle_chart, x, (0.0, 0.0)) == pytest.approx(x, abs=1e-12)


def test_psi_preconditions(circle_chart):
    with pytest.raises(ValueError):
        md.retract_psi(circle_chart, (0.5, 0.0), (0.0, 0.1))  # off manifold
    with pytest.raises(ValueError):
        md.retract_psi(circle_chart, (1.0, 0.0), (0.5, 0.0))  # not tangent


def test_psi_requires_single_row_chart(circle2d):
    chart = md.ManifoldChart(circle2d, ())
    with pytest.raises(ValueError):
        md.retract_psi(chart, (1.0, 0.0), (0.0, 0.1))


def _chart_samples(chart, rng, count):
    problem = chart.problem
    samples = []
    while len(samples) < count:
        y = rng.uniform(-1.5, 1.5, size=problem.n)
        if np.linalg.norm(y) < 0.3:
            continue
        x = md.project(chart, y)
        basis = md.tangent_basis(chart_jacobian(chart, x))
        coeff = rng.standard_normal(basis.shape[1])
        v = basis @ coeff
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        samples.append((x, v / norm))
    return samples


@pytest.mark.parametrize("kind", ["project", "psi"])
def test_retraction_first_order_slope(circle_chart, sphere_chart, rng, kind):
    for chart in (circle_chart, sphere_chart):
        if kind == "psi" and chart.n_rows != 1:
            continue
        retract = chart_retraction(chart, kind)
        for x, v in _chart_samples(chart, rng, 10):
            residuals = []
            for t in (1e-2, 1e-3):
                z = retract(x, t * v)
                assert np.max(np.abs(chart_value(chart, z))) <= FEAS_TOL
                residuals.append(float(np.linalg.norm((z - x) / t - v)))
            assert residuals[1] < residuals[0]
            assert residuals[1] <= 1e-2  # ||v|| = 1
            # a long step may fail (psi finds no root on the normal line at
            # t >= 1), but a point it returns is on the chart
            for t in (0.5, 3.0):
                try:
                    z = retract(x, t * v)
                except md.NoConvergence:
                    continue
                assert np.max(np.abs(chart_value(chart, z))) <= FEAS_TOL


def test_psi_rejects_a_root_where_the_chart_jumps():
    # past x1 = 0.5, H jumps from -1 to +1 at x2 = 0.2, so the bisection on
    # the normal line closes in on a jump instead of a zero
    p = md.ProblemSpec(
        name="jump", n=2, m=1, F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]), m_H=1,
        H=lambda x: np.array([x[1] if x[0] < 0.5 else (-1.0 if x[1] < 0.2 else 1.0)]),
        DH=lambda x: np.array([[0.0, 1.0]]))
    chart = md.ManifoldChart(p, ())
    with pytest.raises(md.NoConvergence, match="FEAS_TOL"):
        md.retract_psi(chart, (0.0, 0.0), (1.0, 0.0))


def test_chart_retraction_identity_without_rows(circle2d):
    retract = chart_retraction(md.ManifoldChart(circle2d, ()), "project")
    out = retract(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert out == pytest.approx([1.5, 1.5], abs=1e-15)


def test_psi_retraction_projects_on_multirow_charts():
    chart = md.ManifoldChart(_lens_problem(), (1, 2))
    x = np.array([0.9, np.sqrt(0.19)])
    w = np.array([0.01, -0.02])
    assert np.array_equal(chart_retraction(chart, "psi")(x, w), md.project(chart, x + w))


# ---------------------------------------------------------------------------
# feasible_start


def test_feasible_start_already_feasible(circle2d):
    x = np.array([-2.0, 0.5])
    assert md.feasible_start(circle2d, x) == pytest.approx(x, abs=1e-15)


def test_feasible_start_projects_to_boundary(circle2d):
    z = md.feasible_start(circle2d, (0.5, 0.0))
    assert z == pytest.approx([1.0, 0.0], abs=1e-9)
    # nearest-point property against dense boundary sampling
    ts = np.linspace(0.0, 2 * np.pi, 200001)
    boundary = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    best = float(np.min(np.linalg.norm(boundary - np.array([0.5, 0.0]), axis=1)))
    assert np.linalg.norm(z - np.array([0.5, 0.0])) <= best + 1e-6


def test_feasible_start_center_returns_boundary_point(circle2d):
    z = md.feasible_start(circle2d, (0.0, 0.0))
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-9)


def test_feasible_start_sphere(sphere3d):
    z = md.feasible_start(sphere3d, (2.0, 0.0, 0.0))
    assert z == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)
    assert abs(float(sphere3d.H(z)[0])) <= 1e-9


def test_feasible_start_respects_tolerances(circle2d, rng):
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        z = md.feasible_start(circle2d, x)
        assert float(circle2d.G(z)[0]) <= 1e-9


@pytest.mark.parametrize("constraints, start, component", [
    # G undefined at the start: no row counts as violated
    (dict(m_G=1, G=lambda x: np.array([np.nan if x[0] > 1.5 else x[0] - 5.0]),
          DG=lambda x: np.array([[1.0, 0.0]])), (2.0, 0.0), "G"),
    # H undefined at the start
    (dict(m_H=1, H=lambda x: np.array([np.nan if x[0] > 1.5 else x[0] - 1.0]),
          DH=lambda x: np.array([[1.0, 0.0]])), (2.0, 0.0), "H"),
    # G defined at the start, its second row undefined at the projection
    # (1, 0) onto the first row's boundary
    (dict(m_G=2, G=lambda x: np.array([1.0 - x[0], np.nan if x[0] > 0.9 else -1.0]),
          DG=lambda x: np.array([[-1.0, 0.0], [0.0, 0.0]])), (0.0, 0.0), "G"),
], ids=["G-at-start", "H-at-start", "G-at-projection"])
def test_feasible_start_rejects_undefined_constraints(constraints, start, component):
    p = md.ProblemSpec(
        name="undefined", n=2, m=2,
        F=lambda x: np.array([(x[0] - 3.0) ** 2, x[1] ** 2]),
        DF=lambda x: np.array([[2.0 * (x[0] - 3.0), 0.0], [0.0, 2.0 * x[1]]]),
        **constraints)
    with pytest.raises(md.EvaluationError) as err:
        md.feasible_start(p, start)
    assert err.value.component == component


def _lens_problem():
    # min x1 over the lens of the unit disks centred at (0, 0) and (1.8, 0);
    # the two boundary circles cross at the corners (0.9, +-sqrt(0.19))
    return md.load_problem({
        "n": 2, "m": 1,
        "objectives": [[[1.0, [1, 0]]]],
        "inequalities": [
            [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 0]]],
            [[1.0, [2, 0]], [1.0, [0, 2]], [-3.6, [1, 0]], [2.24, [0, 0]]],
        ],
    })


@pytest.mark.parametrize("start, charts, nearest", [
    # projecting onto circle 1 crosses circle 2: the active set grows
    ((1.8, 0.95), [(1,), (1, 2)], (0.9, np.sqrt(0.19))),
    # both violated at the start; circle 2's multiplier is negative at the
    # corner, so the active set shrinks back to circle 1
    ((3.0, 0.2), [(1, 2), (1,)], np.array([3.0, 0.2]) / np.hypot(3.0, 0.2)),
])
def test_feasible_start_active_set_changes(monkeypatch, start, charts, nearest):
    seen = []
    original = geometry._project_with_retries

    def spy(chart, x):
        seen.append(chart.ineq_indices)
        return original(chart, x)

    monkeypatch.setattr(geometry, "_project_with_retries", spy)
    z = md.feasible_start(_lens_problem(), start)
    assert seen == charts
    assert z == pytest.approx(nearest, abs=1e-9)


def test_chart_validation(circle2d):
    with pytest.raises(ValueError):
        md.ManifoldChart(circle2d, (2,))
    with pytest.raises(ValueError):
        md.ManifoldChart(circle2d, (1, 1))
