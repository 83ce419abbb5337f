import dataclasses
import math
import sys
import threading
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modescent as md
from modescent import geometry
from modescent.geometry import FEAS_TOL, chart_jacobian, chart_value

from conftest import make_nan_equality_problem, with_counted_maps
from oracles import project_one_row

DATA = Path(__file__).parent / "data"


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


def test_project_keeps_a_chart_point_where_the_jacobian_vanishes():
    # H = x1^3: on the chart x1 = 0 the Jacobian is zero, so the one-row
    # multiplier start must be 0 (the least-squares answer), not 0 / 0
    chart = md.ManifoldChart(md.load_problem(DATA / "cubic_chart.json"), ())
    assert np.array_equal(md.project(chart, (0.0, 0.3)), [0.0, 0.3])


def test_project_onto_two_row_chart_is_the_nearest_circle_point(rng):
    # octant3d with its inequality pinned: the unit sphere cut by x3 = 0.5,
    # the circle of radius sqrt(0.75) at height 0.5 (a 2 x 2 Schur step)
    chart = md.ManifoldChart(md.load_problem(DATA / "octant3d.json"), (1,))
    assert chart.n_rows == 2
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, size=3)
        radius = float(np.hypot(y[0], y[1]))
        if radius < 0.3:
            continue
        nearest = [np.sqrt(0.75) * y[0] / radius, np.sqrt(0.75) * y[1] / radius, 0.5]
        assert md.project(chart, y) == pytest.approx(nearest, abs=1e-12)


def _line_problem(H, DH):
    """A one-equality problem in the plane with the given maps, F = (x_1)."""
    return md.ProblemSpec(name="one-row", n=2, m=1, F=lambda x: np.array([x[0]]),
                          DF=lambda x: np.array([[1.0, 0.0]]), m_H=1, H=H, DH=DH)


def _disk_problem(cx, cy, r):
    # the disk of centre (cx, cy) and radius r as the problem's one inequality
    return md.ProblemSpec(
        name="disk", n=2, m=1, F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]), m_G=1,
        G=lambda x: np.array([(x[0] - cx) ** 2 + (x[1] - cy) ** 2 - r * r]),
        DG=lambda x: np.array([[2.0 * (x[0] - cx), 2.0 * (x[1] - cy)]]))


# (chart, centre, radius): the sphere as an equality (m_H = 1), a disk as a
# pinned inequality (m_H = 0) and the sphere of the octant3d problem file
_ONE_ROW_CHARTS = {
    "sphere": (md.ManifoldChart(md.registry_get("sphere3d"), ()), np.zeros(3), 1.0),
    "disk": (md.ManifoldChart(_disk_problem(0.75, -0.5, 1.2), (1,)),
             np.array([0.75, -0.5]), 1.2),
    "octant3d": (md.ManifoldChart(md.load_problem(DATA / "octant3d.json"), ()),
                 np.zeros(3), 1.0),
}


@st.composite
def _one_row_targets(draw):
    # a target 0.2 to 3 radii from the centre: away from the focal point,
    # and short of the distance where the damped Newton iteration stalls
    name = draw(st.sampled_from(sorted(_ONE_ROW_CHARTS)))
    chart, centre, r = _ONE_ROW_CHARTS[name]
    u = np.array(draw(st.lists(st.floats(-1, 1), min_size=chart.problem.n,
                               max_size=chart.problem.n)))
    norm = float(np.linalg.norm(u))
    if norm < 0.1:
        u, norm = np.eye(chart.problem.n)[0], 1.0
    return chart, centre + draw(st.floats(0.2, 3.0)) * r * u / norm


@settings(max_examples=300, deadline=None)
@given(_one_row_targets())
def test_one_row_projection_matches_the_numpy_reference(case):
    # the kernel sums its dot products in Python floats, the reference in
    # numpy (a fused multiply-add chain on some BLAS builds), so the two
    # may differ in the last bits, not in the point they converge to
    chart, y = case
    expected = project_one_row(chart, y)
    z = md.project(chart, y)
    assert np.max(np.abs(z - expected)) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))


_TWO_DISKS = (((0.0, 0.0), 1.0), ((1.5, 0.5), 0.8))


def _two_disk_problem():
    # two disks as the problem's inequalities and no equality: a one-row
    # chart reads its row of G at the pinned index
    return md.ProblemSpec(
        name="two-disks", n=2, m=1, F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]), m_G=2,
        G=lambda x: np.array([(x[0] - cx) ** 2 + (x[1] - cy) ** 2 - r * r
                              for (cx, cy), r in _TWO_DISKS]),
        DG=lambda x: np.array([[2.0 * (x[0] - cx), 2.0 * (x[1] - cy)]
                               for (cx, cy), _ in _TWO_DISKS]))


@pytest.mark.parametrize("pinned", [1, 2])
def test_one_row_projection_reads_the_pinned_row(pinned):
    problem = _two_disk_problem()
    chart = md.ManifoldChart(problem, (pinned,))
    for y in ((2.5, 1.5), (-1.0, -1.0), (0.5, 0.3), (3.0, -1.0), (1.2, 0.4)):
        y = np.array(y)
        z = md.project(chart, y)
        expected = project_one_row(chart, y)
        assert np.max(np.abs(z - expected)) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))
        assert abs(problem.G(z)[pinned - 1]) <= 1e-12


@pytest.mark.parametrize("pinned, component", [
    ((1,), "G"), ((1,), "DG"), ((1, 2), "G"), ((1, 2), "DG")])
def test_projection_names_a_chart_map_of_the_wrong_size(pinned, component):
    # the one-row kernel and the k-row iteration read the same maps through
    # the same size check
    problem = _two_disk_problem()
    fun = getattr(problem, component)
    problem = dataclasses.replace(problem, **{component: lambda x: np.resize(fun(x), 3)})
    with pytest.raises(md.MapShapeError) as err:
        md.project(md.ManifoldChart(problem, pinned), np.array([2.5, 1.5]))
    assert err.value.component == component


def test_one_row_projection_restarts_from_init(circle_chart):
    # the restart path of feasible_start: the centre itself stalls, a
    # nudged start converges to a point of the circle
    y, init = np.zeros(2), np.array([1e-3, 0.0])
    with pytest.raises(md.NoConvergence):
        md.project(circle_chart, y)
    z = md.project(circle_chart, y, _init=init)
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
    assert z == pytest.approx(project_one_row(circle_chart, y, init), abs=1e-12)
    # _init is only the start: elsewhere the nearest point does not move
    chart = _ONE_ROW_CHARTS["sphere"][0]
    y = np.array([2.0, 0.5, 0.0])
    init = y + [2e-3, 0.0, 0.0]
    z = md.project(chart, y, _init=init)
    assert z == pytest.approx(y / np.linalg.norm(y), abs=1e-9)
    assert z == pytest.approx(project_one_row(chart, y, init), abs=1e-12)


def test_one_row_projection_fails_where_the_map_is_nan():
    chart = md.ManifoldChart(_line_problem(
        H=lambda x: np.array([np.nan if x[0] > 1.5 else x @ x - 1.0]),
        DH=lambda x: 2.0 * x.reshape(1, 2)), ())
    with pytest.raises(md.NoConvergence, match="presolve stalled"):
        md.project(chart, (2.0, 0.0))


def test_one_row_projection_never_returns_a_nan_residual_entry():
    # c = 0 at the target and r1 = (0, NaN): Python's max([0.0, nan]) is
    # 0.0, so a convergence test through max would return the target
    chart = md.ManifoldChart(_line_problem(
        H=lambda x: np.array([x[0] - 1.0]),
        DH=lambda x: np.array([[1.0, np.nan]])), ())
    assert max([0.0, np.nan]) == 0.0
    with pytest.raises(md.NoConvergence, match="no progress"):
        md.project(chart, (1.0, 0.5))


@pytest.mark.parametrize("value, message", [
    (1.0, "singular constraint Jacobian"),  # in the feasibility presolve
    (1e-8, "singular KKT system"),  # below the presolve's 1e-6, in Newton
])
def test_one_row_projection_with_a_zero_jacobian_row(value, message):
    chart = md.ManifoldChart(_line_problem(
        H=lambda x: np.array([value]), DH=lambda x: np.zeros((1, 2))), ())
    with pytest.raises(md.NoConvergence, match=message):
        md.project(chart, (0.5, 0.5))


def test_one_row_projection_of_a_huge_target():
    # c = 1e200, so c * c overflows to inf: a square through ** would raise
    # OverflowError on Python floats
    chart = md.ManifoldChart(_line_problem(
        H=lambda x: np.array([x[0] + x[1]]), DH=lambda x: np.array([[1.0, 1.0]])), ())
    assert md.project(chart, (1e200, 0.0)).tolist() == [5e199, -5e199]


def _two_row_chart(H, DH, G, DG):
    """The chart of one equality and one pinned inequality in 3-space,
    F = (x_1): two rows, so projection takes the numpy path."""
    problem = md.ProblemSpec(name="two-row", n=3, m=1, F=lambda x: np.array([x[0]]),
                             DF=lambda x: np.array([[1.0, 0.0, 0.0]]),
                             m_H=1, H=H, DH=DH, m_G=1, G=G, DG=DG)
    return md.ManifoldChart(problem, (1,))


def _sphere_rows():
    return (lambda x: np.array([x @ x - 1.0]), lambda x: 2.0 * x.reshape(1, 3))


def _parallel_rows_chart():
    # G = 2H: the rows are parallel everywhere and J J^T is exactly singular
    H, DH = _sphere_rows()
    return _two_row_chart(H, DH, lambda x: 2.0 * H(x), lambda x: 2.0 * DH(x))


def test_two_row_projection_with_parallel_rows():
    with pytest.raises(md.NoConvergence, match="singular constraint Jacobian"):
        md.project(_parallel_rows_chart(), (2.0, 0.0, 0.0))


@pytest.mark.parametrize("G, DG", [
    (lambda x: np.array([np.nan]), lambda x: np.array([[0.0, 0.0, 1.0]])),  # pinned value
    (lambda x: np.array([x[2]]), lambda x: np.array([[0.0, np.nan, 1.0]])),  # Jacobian entry
], ids=["nan-value", "nan-jacobian"])
def test_two_row_projection_fails_on_nan(G, DG):
    chart = _two_row_chart(*_sphere_rows(), G, DG)
    with pytest.raises(md.NoConvergence):
        md.project(chart, (2.0, 0.0, 0.5))


def test_two_row_projection_with_zero_jacobian_rows():
    chart = _two_row_chart(lambda x: np.array([1.0]), lambda x: np.zeros((1, 3)),
                           lambda x: np.array([1.0]), lambda x: np.zeros((1, 3)))
    with pytest.raises(md.NoConvergence):
        md.project(chart, (0.5, 0.5, 0.5))


def test_two_row_projection_of_a_huge_target():
    # the line x1 + x2 = 0, x3 = 0; the chart value reaches 1e200, and the
    # numpy path's merit c.c overflows to inf (a warning numpy raises), yet
    # the presolve's first step lands on the line
    chart = _two_row_chart(lambda x: np.array([x[0] + x[1]]), lambda x: np.array([[1.0, 1.0, 0.0]]),
                           lambda x: np.array([x[2]]), lambda x: np.array([[0.0, 0.0, 1.0]]))
    with np.errstate(over="ignore"):
        z = md.project(chart, (1e200, 0.0, 0.0))
    assert z.tolist() == [5e199, -5e199, 0.0]


def test_two_row_projection_of_a_huge_target_does_not_warn():
    # the merit c.c overflows to inf inside project, which runs the k-row
    # iteration with numpy's overflow warning off
    chart = _two_row_chart(lambda x: np.array([x[0] + x[1]]), lambda x: np.array([[1.0, 1.0, 0.0]]),
                           lambda x: np.array([x[2]]), lambda x: np.array([[0.0, 0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = md.project(chart, (1e200, 0.0, 0.0))
    assert z.tolist() == [5e199, -5e199, 0.0]


def _equator_chart(DG=None):
    """equator3d's sphere H = ||x||^2 - 1 with its cap G = x3 pinned: a
    chart of two rows, the unit circle in the plane x3 = 0.  ``DG``
    replaces the cap's Jacobian."""
    problem = md.load_problem(DATA / "equator3d.json")
    if DG is not None:
        problem = dataclasses.replace(problem, DG=DG)
    return md.ManifoldChart(problem, (1,))


def test_two_row_projection_damps_a_newton_step(monkeypatch):
    # the ellipse x1^2 / 4 + x2^2 = 1 in the plane x3 = 0.  From (-4, -1, 0)
    # a full Newton step along the ellipse, of length 1, raises the merit
    # and is halved, and the projection still lands on the nearest point.
    # The iteration reads the Jacobian at every Newton trial, so a halved
    # trial is the midpoint of the two points read before it: the point it
    # starts from and the rejected full step
    chart = _two_row_chart(lambda x: np.array([x[0] ** 2 / 4.0 + x[1] ** 2 - 1.0]),
                           lambda x: np.array([[x[0] / 2.0, 2.0 * x[1], 0.0]]),
                           lambda x: np.array([x[2]]), lambda x: np.array([[0.0, 0.0, 1.0]]))
    points = []
    jacobian = geometry.chart_jacobian
    monkeypatch.setattr(geometry, "chart_jacobian",
                        lambda chart, x: points.append(x) or jacobian(chart, x))
    y = np.array([-4.0, -1.0, 0.0])
    z = md.project(chart, y)
    assert any(np.linalg.norm(q - a) > 0.5 and np.allclose(b, 0.5 * (a + q), rtol=1e-12, atol=0.0)
               for a, q, b in zip(points, points[1:], points[2:]))
    assert np.max(np.abs(chart_value(chart, z))) <= 1e-12
    ts = np.linspace(0.0, 2 * np.pi, 200001)
    ellipse = np.stack([2.0 * np.cos(ts), np.sin(ts), np.zeros_like(ts)], axis=1)
    assert np.linalg.norm(z - y) <= float(np.min(np.linalg.norm(ellipse - y, axis=1))) + 1e-9


@pytest.mark.parametrize("chart", [_ONE_ROW_CHARTS["sphere"][0], _equator_chart()],
                         ids=["one-row", "two-row"])
def test_projection_of_a_far_target_hits_the_presolve_cap(chart):
    # Gauss-Newton on the sphere row halves a far target's distance per
    # step: from 1e30 its 60 steps leave the row near 1e24, not below 1e-6
    with pytest.raises(md.NoConvergence, match="feasibility presolve hit its cap"):
        md.project(chart, (1e30, 0.0, 0.0))


@pytest.mark.parametrize("chart, y, message", [
    # the presolve takes the sphere row below 1e-6, but the residual
    # z - y + J^T mu sums terms near 1e10, whose rounding alone is far above
    # its 1e-10 tolerance: no step lowers the merit
    (_equator_chart(), (1e10, 0.0, 0.0), "damped Newton made no progress"),
    # within 1e-6 of the chart the presolve takes no step, and the first
    # Newton step meets the singular J J^T
    (_parallel_rows_chart(), (1.0 + 1e-8, 0.0, 0.0),
     r"singular KKT system \(degenerate point\)"),
    # a cap Jacobian twenty times too steep: each Newton step removes a
    # twentieth of the cap row, and 100 steps leave 1e-7 * 0.95^100 = 6e-10
    (_equator_chart(DG=lambda x: np.array([[0.0, 0.0, 20.0]])), (1.0, 0.0, 1e-7),
     "projection did not converge within 100 iterations"),
], ids=["no-progress", "singular-kkt", "iteration-cap"])
def test_two_row_newton_exits(chart, y, message):
    with pytest.raises(md.NoConvergence, match=message):
        md.project(chart, y)


def test_multirow_charts_take_the_numpy_path(monkeypatch, sphere3d):
    # octant3d with its cap pinned has two rows: the numpy path.  A sphere
    # given as a callable has one row and no record: the Python-float
    # Newton iteration.  The octant3d sphere, compiled from its file, is
    # projected in closed form: neither that iteration nor a chart map runs
    calls = []
    one_row = geometry._project_one_row
    monkeypatch.setattr(geometry, "_project_one_row",
                        lambda chart, y, z: calls.append(chart) or one_row(chart, y, z))
    octant, counts = with_counted_maps(md.load_problem(DATA / "octant3d.json"),
                                       ("H", "DH", "G", "DG"))
    md.project(md.ManifoldChart(octant, (1,)), (0.5, 0.5, 1.0))
    assert calls == []
    sphere = md.ManifoldChart(sphere3d, ())
    md.project(sphere, (0.5, 0.5, 1.0))
    assert calls == [sphere]
    counts.clear()
    z = md.project(md.ManifoldChart(octant, ()), (0.5, 0.5, 1.0))
    assert calls == [sphere] and not counts
    assert z == pytest.approx(np.array([0.5, 0.5, 1.0]) / np.sqrt(1.5), abs=1e-15)


# ---------------------------------------------------------------------------
# closed-form projection onto sphere rows of problem files


def _row_chart(n, row, pinned):
    """The one-row chart of the polynomial ``row`` (a problem file's list of
    [coefficient, exponents] pairs), as the file's equality or as its
    inequality pinned, with F = (x_1)."""
    key = "inequalities" if pinned else "equalities"
    problem = md.load_problem({"n": n, "m": 1, "objectives": [[[1, [1] + [0] * (n - 1)]]],
                               key: [row]})
    return md.ManifoldChart(problem, (1,) if pinned else ())


def _isotropic_row(lam, b, d):
    """lam ||x||^2 + b.x + d as a problem file's row."""
    n = len(b)
    unit = np.eye(n, dtype=int)
    return ([[lam, (2 * e).tolist()] for e in unit] + [[bj, e.tolist()] for bj, e in zip(b, unit)]
            + [[d, [0] * n]])


@st.composite
def _isotropic_targets(draw):
    # a sphere of either orientation (lam of either sign) and a target
    # 0.05 to 3 radii from its centre
    n = draw(st.integers(2, 4))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    lam = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([1.0, -1.0]))
    centre, r = vector(-1.0, 1.0), draw(st.floats(0.25, 2.0))
    b, d = -2.0 * lam * centre, lam * (centre @ centre - r * r)
    u = vector(-1.0, 1.0)
    norm = float(np.linalg.norm(u))
    if norm < 0.1:
        u, norm = np.eye(n)[0], 1.0
    y = centre + draw(st.floats(0.05, 3.0)) * r * u / norm
    chart = _row_chart(n, _isotropic_row(lam, b.tolist(), d), draw(st.booleans()))
    return chart, y


@settings(max_examples=300, deadline=None)
@given(_isotropic_targets())
# the sphere 0.25 ||x||^2 - 0.25, where ||J|| = 0.5: from this target the
# Newton iteration once returned with its row at 7.5e-13, 1.5e-12 from the
# sphere, until its return test bounded |c| / ||J|| too
@example((_row_chart(4, _isotropic_row(0.25, [0.0] * 4, -0.25), False),
          np.array([0.3318673516133211, 0.0, 0.0, 0.0])))
def test_sphere_rows_project_in_closed_form(case):
    chart, y = case
    z = chart.nearest(y)
    assert z is not None
    assert np.array_equal(md.project(chart, y), z)
    # on the chart, through the compiled map, to the Newton iteration's
    # return tolerance, and z - y parallel to the row's gradient
    assert abs(float(chart_value(chart, z)[0])) <= 1e-12
    J = chart_jacobian(chart, z)[0]
    mu = float(J @ (y - z)) / float(J @ J)
    assert np.max(np.abs(z - y + mu * J)) <= 1e-10
    # the point the Newton iteration converges to, where it does
    try:
        newton = geometry._project_one_row(chart, y, y.copy())
    except md.NoConvergence:
        return
    assert np.max(np.abs(z - newton)) <= 1e-12 * max(1.0, float(np.linalg.norm(y)))


def _outcome(project, *args):
    """The bytes of the point ``project(*args)`` returns, or its error's
    type and message."""
    try:
        return project(*args).tobytes()
    except md.NoConvergence as err:
        return type(err), str(err)


@pytest.mark.parametrize("chart, y", [
    # an ellipse: x1^2 + 2 x2^2 - 1
    (_row_chart(2, [[1, [2, 0]], [2, [0, 2]], [-1, [0, 0]]], False), (1.5, 0.7)),
    # a cross term: x1^2 + x2^2 + x1 x2 - 1
    (_row_chart(2, [[1, [2, 0]], [1, [0, 2]], [1, [1, 1]], [-1, [0, 0]]], True), (1.5, 0.7)),
    # a cross term with a zero coefficient still makes the row Newton's
    (_row_chart(2, [[1, [2, 0]], [1, [0, 2]], [0, [1, 1]], [-1, [0, 0]]], False), (1.5, 0.7)),
    # x1^3, a row of degree 3
    (md.ManifoldChart(md.load_problem(DATA / "cubic_chart.json"), ()), (0.5, 0.3)),
    # a plane: x1 + x2 - 1
    (_row_chart(2, [[1, [1, 0]], [1, [0, 1]], [-1, [0, 0]]], True), (1.5, 0.7)),
    # a constant row
    (_row_chart(2, [[1, [0, 0]]], False), (0.5, 0.3)),
], ids=["ellipse", "cross-term", "zero-cross-term", "cubic", "plane", "constant"])
def test_other_rows_take_the_newton_iteration(chart, y):
    y = np.array(y)
    assert chart.nearest is None
    assert _outcome(md.project, chart, y) == _outcome(geometry._project_one_row, chart, y, y.copy())


def test_a_target_at_the_centre_takes_the_newton_iteration():
    # the sphere's centre is equidistant from every point of it: the closed
    # form gives none, and the Newton iteration fails as it does without it,
    # or, from feasible_start's nudged start, converges
    chart = md.ManifoldChart(md.load_problem(DATA / "octant3d.json"), ())
    y = np.zeros(3)
    assert chart.nearest(y) is None
    expected = _outcome(geometry._project_one_row, chart, y, y.copy())
    assert expected[0] is md.NoConvergence
    assert _outcome(md.project, chart, y) == expected
    init = np.array([1e-3, 0.0, 0.0])
    nudged = _outcome(partial(md.project, _init=init), chart, y)
    assert nudged == _outcome(geometry._project_one_row, chart, y, init)


def test_a_sphere_of_no_points_takes_the_newton_iteration():
    # ||x||^2 + 1 = 0: r^2 = -1, so the chart has no closed form
    chart = _row_chart(2, _isotropic_row(1.0, [0.0, 0.0], 1.0), False)
    y = np.array([0.5, 0.3])
    assert chart.problem.H.isotropic_rows == ((1.0, (0.0, 0.0), 1.0),)
    assert chart.nearest is None
    assert _outcome(md.project, chart, y) == _outcome(geometry._project_one_row, chart, y, y.copy())


def test_a_point_whose_row_rounds_off_the_chart_takes_the_newton_iteration():
    # the circle of centre (1e8, 0) and radius 2: its row x1^2 - 2e8 x1 +
    # x2^2 + 1e16 - 4 cancels terms of 1e16, so at the closed form's point
    # from (1e8 - 3, 3) it rounds far above 1e-12, and the Newton iteration
    # takes over
    chart = _row_chart(2, _isotropic_row(1.0, [-2e8, 0.0], 1e16 - 4.0), False)
    y = np.array([1e8 - 3.0, 3.0])
    assert chart.nearest(y) is None
    assert _outcome(md.project, chart, y) == _outcome(geometry._project_one_row, chart, y, y.copy())


def test_the_record_belongs_to_the_compiled_map():
    # a map swapped for another callable takes no record with it; a
    # functools.wraps wrapper of the compiled map keeps it
    octant = md.load_problem(DATA / "octant3d.json")
    assert octant.H.isotropic_rows == ((1.0, (0.0, 0.0, 0.0), -1.0),)
    # the cap x3 - 0.5 is a plane: no record
    assert octant.G.isotropic_rows == (None,)
    assert md.ManifoldChart(octant, ()).nearest is not None
    # two rows: the numpy Newton iteration
    assert md.ManifoldChart(octant, (1,)).nearest is None
    swapped = dataclasses.replace(octant, H=lambda x: octant.H(x))
    assert md.ManifoldChart(swapped, ()).nearest is None
    wrapped, _ = with_counted_maps(octant, ("H",))
    assert md.ManifoldChart(wrapped, ()).nearest is not None


_FAR_DISK = (np.array([0.75, 1.25]), 0.5)


@pytest.mark.parametrize("y", [(-3.0, 3.0), (-1.0, 2.0), (-2.0, 2.5), (3.0, -3.0)])
def test_far_targets_project_onto_the_disk_of_a_problem_file(y):
    # the disk of centre (0.75, 1.25) and radius 0.5 as the inequality of
    # far_disk2d.json: the Newton iteration stalls from these targets
    chart = md.ManifoldChart(md.load_problem(DATA / "far_disk2d.json"), (1,))
    centre, r = _FAR_DISK
    y = np.array(y)
    nearest = centre + r * (y - centre) / np.linalg.norm(y - centre)
    assert np.max(np.abs(md.project(chart, y) - nearest)) <= 1e-12


def test_every_exterior_start_of_the_far_disk_is_made_feasible():
    problem = md.load_problem(DATA / "far_disk2d.json")
    centre, r = _FAR_DISK
    starts = np.random.default_rng(0).uniform(-4.0, 4.0, (1600, 2))
    exterior = starts[np.linalg.norm(starts - centre, axis=1) > r]
    assert len(exterior) == 1586
    for x in exterior:
        nearest = centre + r * (x - centre) / np.linalg.norm(x - centre)
        assert np.max(np.abs(md.feasible_start(problem, x) - nearest)) <= 1e-12


# ---------------------------------------------------------------------------
# retract_psi


def test_psi_circle_examples(circle_chart):
    out = geometry.retract_psi(circle_chart, (1.0, 0.0), (0.0, 0.6))
    assert out == pytest.approx([0.8, 0.6], abs=1e-10)

    out = geometry.retract_psi(circle_chart, (0.0, 1.0), (0.5, 0.0))
    assert out == pytest.approx([0.5, np.sqrt(0.75)], abs=1e-10)


def test_psi_zero_step_is_identity(circle_chart):
    x = np.array([np.cos(1.2), np.sin(1.2)])
    assert geometry.retract_psi(circle_chart, x, (0.0, 0.0)) == pytest.approx(x, abs=1e-12)


def test_psi_preconditions(circle_chart):
    with pytest.raises(ValueError):
        geometry.retract_psi(circle_chart, (0.5, 0.0), (0.0, 0.1))  # off manifold
    with pytest.raises(ValueError):
        geometry.retract_psi(circle_chart, (1.0, 0.0), (0.5, 0.0))  # not tangent


def test_psi_rejects_a_nan_base_point():
    # abs(nan) > CHART_TOL is False, so a test written that way let the
    # base point through to 60 bracket doublings
    chart = md.ManifoldChart(make_nan_equality_problem(), ())
    with pytest.raises(md.StepPreconditionError, match="not on the chart"):
        geometry.retract_psi(chart, (0.6, 0.8), (-0.08, 0.06))


def test_psi_rejects_a_nan_step(circle_chart):
    # the same for the tangency test: g.w is NaN
    with pytest.raises(md.StepPreconditionError, match="not tangent"):
        geometry.retract_psi(circle_chart, (1.0, 0.0), (0.0, np.nan))


def test_psi_requires_single_row_chart(circle2d):
    chart = md.ManifoldChart(circle2d, ())
    with pytest.raises(ValueError):
        geometry.retract_psi(chart, (1.0, 0.0), (0.0, 0.1))


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
        retract = chart.retract if kind == "project" else partial(geometry.retract_psi, chart)
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
    # past x1 = 0.5, H jumps from -1 to +1 at x2 = 0.2, so the root search
    # on the normal line closes in on a jump instead of a zero
    p = md.ProblemSpec(
        name="jump", n=2, m=1, F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]), m_H=1,
        H=lambda x: np.array([x[1] if x[0] < 0.5 else (-1.0 if x[1] < 0.2 else 1.0)]),
        DH=lambda x: np.array([[0.0, 1.0]]))
    chart = md.ManifoldChart(p, ())
    with pytest.raises(md.NoConvergence, match="FEAS_TOL"):
        geometry.retract_psi(chart, (0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("t, radius", [(0.3, 1.0), (0.32, 1.1)])
def test_psi_returns_the_smaller_of_two_close_roots(t, radius):
    # H = (|x|^2 - 1)(|x|^2 - 1.21): from (1, t) the normal line meets the
    # unit circle at s > 0 and the circle of radius 1.1 at s < 0, both in
    # the same bracket doubling.  At t = 0.3 the unit circle is nearer, at
    # t = 0.32 the outer one (0.0524 against 0.0526 along x1)
    p = md.ProblemSpec(
        name="two-circles", n=2, m=1, F=lambda x: x[:1].copy(),
        DF=lambda x: np.array([[1.0, 0.0]]), m_H=1,
        H=lambda x: np.array([(x @ x - 1.0) * (x @ x - 1.21)]),
        DH=lambda x: np.array([2.0 * x * (2.0 * (x @ x) - 2.21)]))
    out = geometry.retract_psi(md.ManifoldChart(p, ()), (1.0, 0.0), (0.0, t))
    assert out == pytest.approx([math.sqrt(radius * radius - t * t), t], abs=1e-10)


def test_chart_retraction_identity_without_rows(circle2d):
    chart = md.ManifoldChart(circle2d, ())
    out = chart.retract(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert out == pytest.approx([1.5, 1.5], abs=1e-15)


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
    # the two boundary circles cross at the corners (0.9, +-sqrt(0.19)).
    # Circle 2's row is scaled by 20.  Unscaled, the most violated row is
    # always the circle of the farther centre, and feasible_start, pinning
    # that row first, never pins a row it must drop again.
    return md.load_problem(DATA / "lens2d.json")


@pytest.mark.parametrize("start, charts, nearest", [
    # projecting onto circle 1 crosses circle 2: the active set grows
    ((1.8, 0.95), [(1,), (1, 2)], (0.9, np.sqrt(0.19))),
    # both violated at the start, circle 2 the most: projecting onto it
    # crosses circle 1, and circle 2's multiplier is negative at the
    # corner, so the active set shrinks back to circle 1
    ((3.0, 0.2), [(2,), (1, 2), (1,)], np.array([3.0, 0.2]) / np.hypot(3.0, 0.2)),
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


def test_feasible_start_cycle_returns_its_nearest_feasible_pass(monkeypatch):
    # G = sin(x1) from x1 = 1.8: the projection's Newton steps pass the
    # nearest root pi and land on 2 pi, which is feasible, but where the
    # distance multiplier (1.8 - 2 pi) / cos(2 pi) is negative.  The row is
    # dropped, the start violates it again, and the active set (1,) comes
    # back: a cycle, which returns its one feasible projection, 2 pi
    problem = md.ProblemSpec(name="sine", n=1, m=1, F=lambda x: np.array([x[0]]),
                             DF=lambda x: np.array([[1.0]]), m_G=1,
                             G=lambda x: np.array([np.sin(x[0])]),
                             DG=lambda x: np.array([[np.cos(x[0])]]))
    seen = []
    original = geometry._project_with_retries

    def spy(chart, x):
        seen.append(chart.ineq_indices)
        return original(chart, x)

    monkeypatch.setattr(geometry, "_project_with_retries", spy)
    z = md.feasible_start(problem, (1.8,))
    assert seen == [(1,), ()]
    assert abs(z[0] - 2 * np.pi) <= FEAS_TOL
    assert np.sin(z[0]) <= FEAS_TOL


@st.composite
def _pinned_disks_and_targets(draw):
    # a disk's row, feasible inside (side 1) or outside (side -1), as a
    # problem file's inequality or as callables, and a target 0.01 to 10
    # radii from the centre
    n = draw(st.integers(2, 3))
    side = draw(st.sampled_from([1.0, -1.0]))
    centre = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    r = draw(st.floats(0.25, 2.0))
    if draw(st.booleans()):
        row = _isotropic_row(side, (-2.0 * side * centre).tolist(),
                             side * (float(centre @ centre) - r * r))
        chart = _row_chart(n, row, True)
    else:
        problem = md.ProblemSpec(
            name="disk", n=n, m=1, F=lambda x: x[:1].copy(), DF=lambda x: np.eye(1, n),
            m_G=1, G=lambda x: np.array([side * (float((x - centre) @ (x - centre)) - r * r)]),
            DG=lambda x: (2.0 * side) * (x - centre).reshape(1, n))
        chart = md.ManifoldChart(problem, (1,))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(u))
    if norm < 0.1:
        u, norm = np.eye(n)[0], 1.0
    return chart, centre + draw(st.floats(0.01, 10.0)) * r * u / norm


def _lstsq_multiplier(J, y, z):
    mult, *_ = np.linalg.lstsq(J.reshape(1, -1).T, y - z, rcond=None)
    return float(mult[0])


@settings(max_examples=300, deadline=None)
@given(_pinned_disks_and_targets())
def test_one_row_multiplier_matches_lstsq(case):
    # feasible_start's sign check on a one-row chart takes J (x - z) / ||J||^2
    # in Python floats, where a chart of k rows solves J^T mu = x - z by
    # lstsq; every multiplier the one-row formula gives, in the sign check
    # or as a projection's first multiplier, is lstsq's to 1e-12 relative
    chart, x = case
    taken = []
    original = geometry._row_multiplier

    def spy(J, jj, y, z):
        mu = original(J, jj, y, z)
        taken.append((np.array(J), np.array(y), np.array(z), mu))
        return mu

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_row_multiplier", spy)
        try:
            z = md.project(chart, x)
        except md.NoConvergence:
            z = None
        if z is not None:
            J = chart_jacobian(chart, z)[0]
            taken.append((J, x, z, geometry._row_multiplier(
                J.tolist(), geometry._dot(J.tolist(), J.tolist()), x.tolist(), z.tolist())))
        try:
            md.feasible_start(chart.problem, x)
        except md.NoConvergence:
            pass
    for J, y, z, mu in taken:
        # every projection here, and so every multiplier, is toward x
        assert np.array_equal(y, x)
        ref = _lstsq_multiplier(J, y, z)
        assert abs(mu - ref) <= 1e-12 * abs(ref)
        if abs(mu) > 1e-12 * float(np.linalg.norm(y - z)) / float(np.linalg.norm(J)):
            assert (mu > 0.0) == (ref > 0.0)


def test_one_row_multiplier_of_a_zero_gradient_is_zero():
    # lstsq's minimum-norm answer, below no drop threshold: a pinned row
    # whose gradient vanishes at the projection is kept
    y, z = [1.0, 2.0], [0.5, -0.25]
    assert geometry._row_multiplier([0.0, 0.0], 0.0, y, z) == 0.0
    assert _lstsq_multiplier(np.zeros(2), np.array(y), np.array(z)) == 0.0
    assert not geometry._row_multiplier([0.0, 0.0], 0.0, y, z) < -FEAS_TOL
    assert geometry._row_multiplier([math.nan, 0.0], math.nan, y, z) == 0.0


def test_chart_cache_builds_one_chart_per_problem_and_rows(circle2d, monkeypatch):
    monkeypatch.setattr(geometry, "_charts", (None, {}))
    chart = geometry._chart(circle2d, (1,))
    assert chart.problem is circle2d and chart.ineq_indices == (1,)
    # an equal tuple that is another object reads the same chart
    assert geometry._chart(circle2d, tuple([1])) is chart
    assert geometry._chart(circle2d, ()).ineq_indices == ()
    # another problem, even one with the same maps, gets charts of its own
    other = dataclasses.replace(circle2d)
    assert geometry._chart(other, (1,)).problem is other
    assert geometry._chart(circle2d, (1,)).problem is circle2d


def test_chart_cache_gives_each_thread_its_own_problems_charts(circle2d, monkeypatch):
    # threads on different problems share the cache and keep replacing it;
    # each call reads it once, so no thread gets another problem's chart
    monkeypatch.setattr(geometry, "_charts", (None, {}))
    problems = [dataclasses.replace(circle2d) for _ in range(4)]
    wrong = []
    start = threading.Barrier(len(problems), timeout=60)

    def work(problem):
        start.wait()
        for i in range(5000):
            rows = ((), (1,))[i % 2]
            chart = geometry._chart(problem, rows)
            if chart.problem is not problem or chart.ineq_indices != rows:
                wrong.append(rows)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(p,)) for p in problems]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


@pytest.mark.parametrize("rows, error", [
    ((True,), TypeError), ((np.True_,), TypeError), ((1, 1), ValueError), ((2,), ValueError),
    ((0,), ValueError)])
def test_chart_cache_leaves_public_charts_checked(circle2d, monkeypatch, rows, error):
    # (True,) == (1,) as a dict key, so a cache the public chart read would
    # hand back the chart of row 1; ManifoldChart builds and checks its own
    monkeypatch.setattr(geometry, "_charts", (None, {}))
    geometry._chart(circle2d, (1,))
    with pytest.raises(error):
        md.ManifoldChart(circle2d, rows)


def test_chart_validation(circle2d):
    with pytest.raises(ValueError):
        md.ManifoldChart(circle2d, (2,))
    with pytest.raises(ValueError):
        md.ManifoldChart(circle2d, (1, 1))


@pytest.mark.parametrize("index", [1.5, "1", 1.0, True, np.True_])
def test_chart_indices_must_be_integers(circle2d, index):
    # int() would read 1.5 and "1" as row 1, and operator.index True
    with pytest.raises(TypeError):
        md.ManifoldChart(circle2d, (index,))
    assert md.ManifoldChart(circle2d, (np.int64(1),)).ineq_indices == (1,)
