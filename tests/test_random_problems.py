"""Certification on random feasible problems built with ``load_problem``:
two or three quadratics ||x - c_i||^2 in the plane under one disk
inequality (feasible set inside or outside the disk), solved from a few
grid starts under both strategies.

Every run that stops as critical must be feasible and pass an independent
criticality check; every other run must end at the iteration cap or as a
``ModescentError`` that carries its trace.  On the same problems, and on
the equator3d front, every G a step hands to the loop's next evaluation,
which takes it unchecked, must be finite and equal to G at that point.
On these problems and circle2d, the feasible Armijo step must accept the
bytes that a plain F-then-G search accepts, and every boundary step that
lands must land on the crossed boundary.  On the random problems and the
equator3d front, the loop, which calls DG only where an inequality is
active, must solve bitwise as one that calls every map at every iterate.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modescent as md
from modescent.geometry import EPS_ACT, FEAS_TOL
from modescent.linesearch import feasible_armijo_step
from modescent.solver import TOL_ALPHA

from conftest import solve_outcome
from oracles import feasible_armijo_reference, support_min_norm

# coordinates on a quarter grid, so coincident and collinear centers come up
COORD = st.integers(-8, 8).map(lambda k: k / 4.0)
STARTS = md.grid_points(((-3.0, 3.0), (-3.0, 3.0)), (2, 2))


def _squared_distance(c, sign=1.0, shift=0.0):
    """sign * ||x - c||^2 + shift as a polynomial in two variables."""
    c1, c2 = c
    return [[sign, [2, 0]], [sign, [0, 2]], [-2.0 * sign * c1, [1, 0]],
            [-2.0 * sign * c2, [0, 1]], [sign * (c1 * c1 + c2 * c2) + shift, [0, 0]]]


def _disk_problem(centers, disk, radius, inside):
    # inside: ||x - d||^2 - r^2 <= 0; outside: r^2 - ||x - d||^2 <= 0
    sign = 1.0 if inside else -1.0
    return md.load_problem({
        "name": "random-disk", "n": 2, "m": len(centers),
        "objectives": [_squared_distance(c) for c in centers],
        "inequalities": [_squared_distance(disk, sign, -sign * radius * radius)],
    })


@st.composite
def disks(draw):
    """``(problem, disk center, radius)`` of a random disk problem."""
    m = draw(st.integers(2, 3))
    centers = [(draw(COORD), draw(COORD)) for _ in range(m)]
    disk = (draw(COORD), draw(COORD))
    radius = draw(st.integers(2, 8)) / 4.0
    return _disk_problem(centers, disk, radius, draw(st.booleans())), disk, radius


def problems():
    return disks().map(lambda drawn: drawn[0])


def _assert_certified(problem, x, cfg):
    G = np.asarray(problem.G(x), dtype=float)
    assert G.max() <= FEAS_TOL
    rows = [np.asarray(problem.DF(x), dtype=float)]
    rows.append(np.asarray(problem.DG(x), dtype=float)[G >= -cfg.epsilon])
    _, p = support_min_norm(np.vstack(rows))
    assert 0.5 * float(p @ p) <= TOL_ALPHA + 1e-10


# the start (-3, 3) ends where grad F2 is antiparallel to grad G: a thin
# generator hull, on which a pairwise-exchange polish converges slowly
@example(problem=_disk_problem([(-0.25, 0.5), (1.25, -1.5)], (-1.5, 2.0), 0.5, True),
         eta=1.0, beta0=0.1)
# every start stops near (0.75, +-4.9e-4) with 0.5 ||p||^2 = 9.84e-9, just
# under the bound; the grid oracle read 1.198e-8 there
@example(problem=_disk_problem([(0.0, 0.0), (0.25, 0.0)], (-0.25, 0.0), 1.0, False),
         eta=1.0, beta0=1.0)
@settings(max_examples=12, deadline=None)
@given(problem=problems(), eta=st.sampled_from([1.0, math.inf]),
       beta0=st.sampled_from([0.1, 1.0]))
def test_critical_points_of_random_problems_are_certified(problem, eta, beta0):
    cfg = md.SolverConfig(beta0=beta0, eta=eta, max_iters=300)
    for start in STARTS:
        try:
            x, trace = md.solve_constrained(problem, start, cfg)
        except md.ModescentError as err:
            assert err.trace.termination.startswith("FAILED:")
            continue
        if trace.termination == md.TERMINATED_CRITICAL:
            _assert_certified(problem, x, cfg)
        else:
            assert trace.termination == md.ITER_CAP


@contextmanager
def handed_over_g():
    """Spy on the descent loop's evaluation kernel: yields the list of
    ``(problem, x, G)`` for every G a step hands over, which the kernel
    takes without a finiteness check."""
    seen = []
    kernel = md.solver._evaluate

    def spy(problem, x, F_val=None, G_val=None, epsilon=None):
        if G_val is not None:
            seen.append((problem, x.copy(), np.array(G_val, dtype=float)))
        return kernel(problem, x, F_val, G_val, epsilon)

    md.solver._evaluate = spy
    try:
        yield seen
    finally:
        md.solver._evaluate = kernel


def _assert_handed_over_g_is_g(seen):
    for problem, x, g in seen:
        assert all(math.isfinite(v) for v in g.ravel().tolist())
        want = np.asarray(problem.G(x), dtype=float).reshape(problem.m_G)
        assert g.reshape(problem.m_G).tobytes() == want.tobytes()


@settings(max_examples=12, deadline=None)
@given(problem=problems(), eta=st.sampled_from([1.0, math.inf]),
       beta0=st.sampled_from([0.1, 1.0]))
def test_handed_over_g_is_finite_and_equals_g(problem, eta, beta0):
    cfg = md.SolverConfig(beta0=beta0, eta=eta, max_iters=300)
    with handed_over_g() as seen:
        md.multistart(problem, STARTS, cfg)
    _assert_handed_over_g_is_g(seen)


def test_handed_over_g_on_the_equator_front():
    # an equality and an inequality: SP1 steps hand over G through the
    # sphere's projection, SP2 steps that pin nothing as well
    problem = md.load_problem(Path(__file__).parent / "data" / "equator3d.json")
    starts = md.grid_points(problem.box, (2, 2, 2))
    with handed_over_g() as seen:
        md.multistart(problem, starts, md.SolverConfig(beta0=0.1, eta=1.0))
    assert seen
    _assert_handed_over_g_is_g(seen)


@contextmanager
def eager_evaluation():
    """The descent loop's evaluation with every map called and checked at
    every iterate, as ``evaluate`` does.  DG stays in the bundle only where
    a numpy test of its own finds a G row >= -epsilon, the iterates where
    the loop must try the boundary subproblem."""
    kernel = md.solver._evaluate

    def eager(problem, x, F_val=None, G_val=None, epsilon=None):
        bundle = kernel(problem, x, F_val, G_val)
        if not (bundle.G_val >= -epsilon).any():
            bundle.DG_val = None
        return bundle

    md.solver._evaluate = eager
    try:
        yield
    finally:
        md.solver._evaluate = kernel


def _assert_lazy_dg_solves_as_eager(problem, starts, cfg):
    lazy = [solve_outcome(problem, start, cfg) for start in starts]
    with eager_evaluation():
        eager = [solve_outcome(problem, start, cfg) for start in starts]
    assert lazy == eager


@settings(max_examples=12, deadline=None)
@given(problem=problems(), eta=st.sampled_from([1.0, math.inf]),
       beta0=st.sampled_from([0.1, 1.0]))
def test_lazy_dg_solves_random_problems_as_eager_evaluation(problem, eta, beta0):
    _assert_lazy_dg_solves_as_eager(problem, STARTS,
                                    md.SolverConfig(beta0=beta0, eta=eta, max_iters=300))


@pytest.mark.parametrize("eta", [1.0, math.inf])
def test_lazy_dg_solves_the_equator_front_as_eager_evaluation(eta):
    problem = md.load_problem(Path(__file__).parent / "data" / "equator3d.json")
    _assert_lazy_dg_solves_as_eager(problem, md.grid_points(problem.box, (2, 2, 2)),
                                    md.SolverConfig(beta0=0.1, eta=eta))


def _step_or_error(step, *args):
    """The bytes of the step's ``(t, k, feasibility_repaired, new_point,
    F(new_point), G(new_point))``, or the type and message of its NoStep."""
    try:
        t, k, repaired, z, lhs, g = step(*args)
    except md.NoStep as err:
        return type(err), str(err)
    return t, k, repaired, z.tobytes(), lhs.tobytes(), None if g is None else g.tobytes()


def _feasible_step(bundle, v, active, config):
    r = feasible_armijo_step(bundle, v, active, config)
    return r.t, r.k, r.feasibility_repaired, r.new_point, r.armijo_lhs, r.G_val


@st.composite
def feasible_steps(draw):
    """A feasible Armijo step on circle2d or a random disk problem: a grid
    start, or a start just outside the disk, with the SP1 direction or the
    direction straight into the disk, so that trials cross the disk's
    boundary and feasibility repairs happen."""
    if draw(st.booleans()):
        problem, disk, radius = md.registry_get("circle2d"), (0.0, 0.0), 1.0
    else:
        problem, disk, radius = draw(disks())
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    u = np.array([math.cos(angle), math.sin(angle)])
    if draw(st.booleans()):
        gap = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5]))
        x = np.array(disk) + (radius + gap) * u
    else:
        x = np.array([draw(COORD), draw(COORD)])
    bundle = md.evaluate(problem, x)
    epsilon = draw(st.sampled_from([1e-4, 1e-10]))
    if draw(st.booleans()):
        d = md.solve_direction(bundle, md.SubproblemKind.OBJECTIVE_ICS, epsilon)
        v, active = d.v, d.active_set
    else:
        v, active = -draw(st.sampled_from([0.1, 1.0, 3.0])) * u, md.active_set(bundle, epsilon)
    config = md.SolverConfig(beta0=draw(st.sampled_from([0.1, 1.0, 4.0])),
                             beta=draw(st.sampled_from([0.5, 0.8])))
    return bundle, v, active, config


# circle2d from (-2, 0.5) along its SP1 direction: the Armijo point at
# beta0 = 0.2 lies inside the circle and the step is repaired
@example(step=(md.evaluate(md.registry_get("circle2d"), [-2.0, 0.5]),
               np.array([8.0, 0.0]), (), md.SolverConfig(beta0=0.2)))
@settings(max_examples=200, deadline=None)
@given(step=feasible_steps())
def test_feasible_step_accepts_what_f_then_g_accepts(step):
    assert _step_or_error(_feasible_step, *step) == \
        _step_or_error(feasible_armijo_reference, *step)


@contextmanager
def landed_steps():
    """Spy on the descent loop's boundary steps: yields the list of
    ``(bundle, v, chart, config, step)`` of every step that landed on a
    newly crossed boundary."""
    seen = []
    boundary_step = md.solver.boundary_step

    def spy(bundle, v, chart, config):
        step = boundary_step(bundle, v, chart, config)
        if step.feasibility_repaired:
            seen.append((bundle, v, chart, config, step))
        return step

    md.solver.boundary_step = spy
    try:
        yield seen
    finally:
        md.solver.boundary_step = boundary_step


def _assert_landed_on_the_boundary(seen):
    # phi, the largest G outside the chart, is within EPS_ACT below or
    # FEAS_TOL above zero; Armijo holds there, short of the Armijo step
    for bundle, v, chart, config, step in seen:
        problem = bundle.problem
        g = np.asarray(problem.G(step.new_point), dtype=float).ravel().tolist()
        phi = max(gi for i, gi in enumerate(g, 1) if i not in chart.ineq_indices)
        assert -EPS_ACT <= phi <= FEAS_TOL
        F = np.asarray(problem.F(step.new_point), dtype=float)
        assert F.tobytes() == step.armijo_lhs.tobytes()
        assert np.all(F < bundle.F_val + config.sigma * step.t * bundle.DF_val.dot(v))
        assert 0.0 < step.t < config.beta0 * config.beta ** step.k


@settings(max_examples=12, deadline=None)
@given(problem=problems(), beta0=st.sampled_from([0.1, 1.0]))
def test_landed_boundary_steps_of_random_problems(problem, beta0):
    with landed_steps() as seen:
        md.multistart(problem, STARTS, md.SolverConfig(beta0=beta0, eta=1.0, max_iters=300))
    _assert_landed_on_the_boundary(seen)


def test_landed_boundary_steps_of_circle2d(circle2d):
    with landed_steps() as seen:
        md.multistart(circle2d, md.grid_points(circle2d.box, (8, 8)),
                      md.SolverConfig(beta0=0.1, eta=1.0))
    assert seen
    _assert_landed_on_the_boundary(seen)
