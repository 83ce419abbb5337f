import dataclasses
import json
import sys
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import modescent as md
from modescent import solver
from modescent.solver import TOL_ALPHA, write_trace_csv, write_trace_json

from conftest import (CIRCLE_CONFIG, hemisphere_critical_distance,
                      make_hemisphere_problem, make_infeasible_problem, make_vertex_problem,
                      solve_outcome)
from oracles import dist_to_critical_set

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# solve_equality


def test_equality_sphere_descends_to_south_pole(sphere3d):
    x, trace = md.solve_equality(sphere3d, (1.0, 0.0, 0.0))
    assert trace.termination == md.TERMINATED_CRITICAL
    assert x == pytest.approx([0.0, 0.0, -1.0], abs=1e-4)
    for rec in trace.records:
        assert abs(float(sphere3d.H(rec.x)[0])) <= 1e-9


def test_equality_critical_start_stops_immediately(sphere3d):
    x, trace = md.solve_equality(sphere3d, (0.0, 0.0, -1.0))
    assert trace.iterations == 0
    assert trace.termination == md.TERMINATED_CRITICAL
    assert trace.final_alpha >= -TOL_ALPHA


def test_equality_opposite_gradients_every_point_critical(rng):
    a = np.array([0.3, -1.1, 0.7])
    fixture = md.ProblemSpec(
        name="opposed", n=3, m=2,
        F=lambda x: np.array([a @ x, -(a @ x)]),
        DF=lambda x: np.array([a, -a]),
        m_H=1,
        H=lambda x: np.array([x @ x - 1.0]),
        DH=lambda x: 2.0 * x.reshape(1, 3),
    )
    for _ in range(5):
        raw = rng.standard_normal(3)
        x, trace = md.solve_equality(fixture, raw / np.linalg.norm(raw))
        assert trace.iterations == 0
        assert trace.termination == md.TERMINATED_CRITICAL


def test_equality_rejects_inequality_problems(circle2d):
    with pytest.raises(ValueError):
        md.solve_equality(circle2d, (2.0, 0.0))


def test_equality_iteration_cap(sphere3d):
    cfg = md.SolverConfig(max_iters=1)
    x, trace = md.solve_equality(sphere3d, (1.0, 0.0, 0.0), cfg)
    assert trace.termination == md.ITER_CAP
    assert trace.iterations == 1


# ---------------------------------------------------------------------------
# solve_constrained


def test_constrained_circle_strategy1(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=np.inf)
    x, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    assert trace.final_alpha >= -1e-6
    assert dist_to_critical_set(x) <= 1e-3
    # pure boundary-leaving strategy: every step is an SP1 step
    assert trace.branch_counts() == {"SP1-step": trace.iterations}


def test_constrained_circle_strategy2_follows_boundary(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    x, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    assert dist_to_critical_set(x) <= 1e-3
    assert trace.branch_counts().get("SP2-step", 0) >= 1


def test_constrained_critical_start_zero_iterations(circle2d):
    x, trace = md.solve_constrained(circle2d, (2.0, 0.0))
    assert trace.iterations == 0
    assert trace.termination == md.TERMINATED_CRITICAL
    assert x == pytest.approx([2.0, 0.0], abs=1e-12)


def test_constrained_monotone_and_feasible(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    F = np.array([rec.F for rec in trace.records])
    assert np.all(F[1:] < F[:-1])
    for rec in trace.records:
        assert float(circle2d.G(rec.x)[0]) <= 1e-8


def test_constrained_critical_flag_certified_independently(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    x, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    check = md.solve_direction(md.evaluate(circle2d, x),
                               md.SubproblemKind.OBJECTIVE_ICS, cfg.epsilon)
    assert check.alpha >= -TOL_ALPHA
    assert trace.final_alpha == pytest.approx(check.alpha, abs=1e-15)


def test_constrained_eta_branch_counts(circle2d):
    cfg_inf = md.SolverConfig(**CIRCLE_CONFIG, eta=np.inf)
    _, tr_inf = md.solve_constrained(circle2d, (-2.0, 0.5), cfg_inf)
    assert tr_inf.branch_counts() == {"SP1-step": tr_inf.iterations}
    assert all(rec.alpha2 is None for rec in tr_inf.records)

    cfg_zero = md.SolverConfig(**CIRCLE_CONFIG, eta=0.0, max_iters=3000)
    _, tr_zero = md.solve_constrained(circle2d, (-2.0, 0.5), cfg_zero)
    assert tr_zero.termination == md.TERMINATED_CRITICAL
    # with eta = 0 the boundary branch runs whenever the boundary subproblem
    # has any usable descent; SP1 steps see it only at numerical criticality
    for rec in tr_zero.records:
        if rec.branch == "SP1-step" and rec.alpha2 is not None:
            assert abs(rec.alpha2) <= TOL_ALPHA


def test_constrained_equality_only_problem_matches_equality_solver(sphere3d):
    x_c, tr_c = md.solve_constrained(sphere3d, (1.0, 0.0, 0.0))
    x_e, tr_e = md.solve_equality(sphere3d, (1.0, 0.0, 0.0))
    assert x_c == pytest.approx(x_e, abs=1e-10)
    assert tr_c.iterations == tr_e.iterations


def _undefined_past_1_5(nan_in, with_inequality=True):
    """F = (x - 3)^2 on the line, optionally with G = x - 10 <= 0; the map
    named ``nan_in`` ("G" or "DF") is NaN for x > 1.5."""
    def guard(name, fun):
        if name != nan_in:
            return fun
        return lambda x: fun(x) * np.nan if x[0] > 1.5 else fun(x)

    parts = dict(F=lambda x: np.array([(x[0] - 3.0) ** 2]),
                 DF=guard("DF", lambda x: np.array([[2.0 * (x[0] - 3.0)]])))
    if with_inequality:
        parts.update(m_G=1, G=guard("G", lambda x: np.array([x[0] - 10.0])),
                     DG=lambda x: np.array([[1.0]]))
    return md.ProblemSpec(name=f"nan-{nan_in}", n=1, m=1, **parts)


def test_constrained_never_steps_where_inequality_is_nan():
    # the step t = 0.5 lands on x = 3, where G is NaN; it must be rejected
    # and the run must stay where G is defined
    problem = _undefined_past_1_5("G")
    with pytest.raises(md.NoStep) as err:
        md.solve_constrained(problem, (0.0,), md.SolverConfig(beta0=4.0))
    trace = err.value.trace
    assert len(trace.records) >= 1
    for x in [rec.x for rec in trace.records] + [trace.final_x]:
        assert x[0] <= 1.5
        assert float(problem.G(x)[0]) <= 0.0


@pytest.mark.parametrize("solve, with_inequality",
                         [(md.solve_constrained, True), (md.solve_equality, False)])
def test_evaluation_error_inside_the_loop_attaches_trace(solve, with_inequality):
    # F and G stay finite, so the steps are accepted; DF fails at the
    # first iterate past 1.5
    problem = _undefined_past_1_5("DF", with_inequality)
    with pytest.raises(md.EvaluationError) as err:
        solve(problem, (0.0,), md.SolverConfig(beta0=0.1))
    assert err.value.component == "DF"
    trace = err.value.trace
    assert trace.termination == "FAILED:EvaluationError"
    assert trace.iterations >= 1
    assert trace.final_x[0] > 1.5
    assert all(rec.x[0] <= 1.5 for rec in trace.records)


@pytest.mark.parametrize("nan_in, error", [("DF", md.EvaluationError), ("G", md.NoStep)])
def test_failed_trace_counts_the_steps_taken(nan_in, error):
    # beta0 = 4 backtracks to one accepted step (x = 3 for "DF", x = 1.5
    # for "G"); the next iteration fails, so the trace has no terminal record
    problem = _undefined_past_1_5(nan_in)
    config = md.SolverConfig(beta0=4.0)
    with pytest.raises(error) as err:
        md.solve_constrained(problem, (0.0,), config)
    trace = err.value.trace
    assert [rec.t is not None for rec in trace.records] == [True]
    assert trace.iterations == 1
    entry = md.multistart(problem, [np.array([0.0])], config)[0]
    assert entry.error is not None
    assert entry.iterations == 1


@pytest.mark.parametrize("component, size", [("F", 2), ("G", 2), ("DF", 3)])
def test_a_map_of_the_wrong_size_fails_its_start_not_the_front(component, size):
    # past x = 1.5 the named map returns the wrong number of entries: the
    # run fails with its partial trace, and multistart records the failure.
    # "none" names no map, so every map of the base problem is defined
    problem = _undefined_past_1_5("none")
    fun = getattr(problem, component)
    problem = dataclasses.replace(problem, **{component: lambda x: np.resize(
        fun(x), size) if x[0] > 1.5 else fun(x)})
    config = md.SolverConfig(beta0=0.1)
    with pytest.raises(md.MapShapeError) as err:
        md.solve_constrained(problem, (0.0,), config)
    assert err.value.component == component
    trace = err.value.trace
    assert trace.termination == "FAILED:MapShapeError"
    assert trace.iterations >= 1
    assert all(rec.x[0] <= 1.5 for rec in trace.records)
    far, near = md.multistart(problem, [np.array([2.0]), np.array([0.0])], config)
    assert far.iterations == 0 and f"MapShapeError: component '{component}'" in far.error
    assert near.iterations == trace.iterations and near.x is None


@pytest.mark.parametrize("value", [[1.0, [2.0, 3.0]], ["a", "b"], {"a": 1}],
                         ids=["ragged", "strings", "dict"])
def test_a_map_value_that_is_not_floats_fails_its_start_not_the_front(value):
    # past x = 1.5, F returns a value numpy cannot read as floats: each
    # start that reaches it fails by name, and multistart records it
    problem = _undefined_past_1_5("none")
    F = problem.F
    problem = dataclasses.replace(problem, F=lambda x: value if x[0] > 1.5 else F(x))
    far, near = md.multistart(problem, [np.array([2.0]), np.array([0.0])],
                              md.SolverConfig(beta0=0.1))
    assert far.iterations == 0 and far.error == (
        "MapShapeError: component 'F' returned a value that is not an array of floats, "
        "expected (1,)")
    assert near.x is None and near.iterations >= 1 and near.error == far.error


def _raising(problem, name, inside=None, after=0):
    """``problem`` whose map ``name`` raises ZeroDivisionError from its
    call number ``after`` + 1 on, counting only the calls made from inside
    the package function named ``inside`` (every call when None)."""
    fun, calls = getattr(problem, name), [0]

    def wrapped(x):
        frame = sys._getframe(1)
        while inside is not None and frame is not None and frame.f_code.co_name != inside:
            frame = frame.f_back
        if frame is not None:
            calls[0] += 1
            if calls[0] > after:
                return 1 / 0
        return fun(x)

    return dataclasses.replace(problem, **{name: wrapped})


PAPER_CONFIG = md.SolverConfig(eta=1.0, **CIRCLE_CONFIG)
# (problem, map, function the raising call is made from, calls that pass
# there first, start, config, whether the run steps before it fails)
_RAISING_MAPS = {
    "F-at-the-start": ("circle2d", "F", None, 0, (2.0, 2.0), md.SolverConfig(), False),
    "F-mid-run": ("circle2d", "F", None, 5, (-2.0, 0.5), PAPER_CONFIG, True),
    "H-in-a-projection": ("sphere3d", "H", "_project_one_row", 10, (0.6, 0.0, 0.8),
                          md.SolverConfig(), True),
    "G-in-the-feasible-step": ("circle2d", "G", "_outside_g", 3, (-2.0, 0.5),
                               md.SolverConfig(**CIRCLE_CONFIG), True),
    "DG-at-an-active-iterate": ("circle2d", "DG", "_evaluate", 0, (-2.0, 0.5),
                                PAPER_CONFIG, True),
}


@pytest.mark.parametrize("case", sorted(_RAISING_MAPS))
def test_a_map_that_raises_fails_its_start_not_the_front(case):
    # the map's own exception becomes a MapError naming the map and the
    # exception's type, with the original as __cause__ and the partial
    # trace attached; multistart records it as a failed start
    problem_name, name, inside, after, start, config, steps = _RAISING_MAPS[case]

    def make():
        return _raising(md.registry_get(problem_name), name, inside, after)

    with pytest.raises(md.MapError) as err:
        md.solve_constrained(make(), start, config)
    assert err.value.component == name
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    assert str(err.value).startswith(
        f"component '{name}' raised ZeroDivisionError: division by zero at x=")
    if inside is not None:
        frames = [f.name for f in traceback.extract_tb(err.value.__traceback__)]
        assert inside in frames
    trace = err.value.trace
    assert trace.termination == "FAILED:MapError"
    assert (trace.iterations >= 1) == steps
    (entry,) = md.multistart(make(), [start], config)
    assert entry.x is None and not entry.converged
    assert entry.error == f"MapError: {err.value}"
    assert entry.iterations == trace.iterations


def test_a_front_with_a_raising_map_records_every_start():
    # below x = -1.5 F raises: the starts there fail, the other converges
    problem = _undefined_past_1_5("none")
    F = problem.F
    problem = dataclasses.replace(problem, F=lambda x: 1 / 0 if x[0] < -1.5 else F(x))
    archive = md.multistart(problem, [[-2.0], [0.0], [-5.0]], md.SolverConfig(beta0=0.1))
    assert [e.converged for e in archive] == [False, True, False]
    assert [e.error.split(" raised")[0] if e.error else None for e in archive] == \
        ["MapError: component 'F'", None, "MapError: component 'F'"]


def test_a_square_that_overflows_fails_the_start_as_a_map_error(circle2d):
    # the registry maps square Python floats, which raise OverflowError
    # where numpy's scalars would warn and return inf: the start fails with
    # the map named, its trace attached, and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(md.MapError) as err:
            md.solve_constrained(circle2d, (1e200, 0.0))
    assert caught == []
    assert err.value.component == "G"
    assert isinstance(err.value.__cause__, OverflowError)
    assert str(err.value).startswith("component 'G' raised OverflowError: ")
    trace = err.value.trace
    assert trace.termination == "FAILED:MapError"
    assert trace.final_x.tolist() == [1e200, 0.0] and trace.records == []


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_in_a_map_is_not_a_failed_start(circle2d, interrupt):
    def F(x):
        raise interrupt

    with pytest.raises(interrupt):
        md.multistart(dataclasses.replace(circle2d, F=F), [[2.0, 2.0]])


def test_boundary_switch_reads_a_nan_in_the_last_g_row_as_inactive(monkeypatch):
    # the switch to the boundary subproblem tests every G row against
    # -epsilon; a NaN last row, after an inactive first one, must not
    # count as active (a G row at 0 there does).  The rows reach the
    # evaluation as a handed-over G: its one pass over them decides whether
    # the bundle holds DG, and with it the switch
    problem = md.ProblemSpec(
        name="two-rows", n=2, m=1, F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]), m_G=2,
        G=lambda x: np.array([-1.0 - x[1] ** 2, x[1] - 5.0]),
        DG=lambda x: np.array([[0.0, -2.0 * x[1]], [0.0, 1.0]]))
    real_evaluate, real_direction = solver._evaluate, solver.solve_direction
    kinds = []

    def recorded(bundle, kind, epsilon=0.0):
        kinds.append(kind.value)
        return real_direction(bundle, kind, epsilon)

    monkeypatch.setattr(solver, "solve_direction", recorded)
    config = md.SolverConfig(eta=1.0, max_iters=1)
    for last, first_kind in ((np.nan, "SP1"), (0.0, "SP2")):
        def with_last_g(problem, x, F_val=None, G_val=None, epsilon=None):
            return real_evaluate(problem, x, F_val, np.array([-1.0, last]), epsilon)

        monkeypatch.setattr(solver, "_evaluate", with_last_g)
        kinds.clear()
        md.solve_constrained(problem, (0.0, 0.0), config)
        assert kinds[0] == first_kind


def _circle2d_with_nan_dg(where):
    """circle2d with a DG that is NaN at the points where ``where(G)`` holds."""
    circle = md.registry_get("circle2d")

    def DG(x):
        grad = circle.DG(x)
        return grad * np.nan if where(float(circle.G(x)[0])) else grad

    return dataclasses.replace(circle, DG=DG)


def test_dg_is_not_read_where_no_inequality_is_active(circle2d):
    # DG is NaN wherever G < -1e-3, below the tolerance epsilon = 1e-4:
    # the loop calls DG only at iterates with the circle active at epsilon,
    # so every solve, of either strategy, is the one with the true DG
    problem = _circle2d_with_nan_dg(lambda g: g < -1e-3)
    starts = md.grid_points(circle2d.box, (4, 4))
    with pytest.raises(md.EvaluationError, match="'DG'"):
        md.evaluate(problem, starts[0])
    for config in (md.SolverConfig(**CIRCLE_CONFIG, eta=1.0), md.SolverConfig()):
        for start in starts:
            want = solve_outcome(circle2d, start, config)
            assert want[0] is None
            assert solve_outcome(problem, start, config) == want


def test_a_nan_dg_where_an_inequality_is_active_fails_the_run(circle2d):
    # DG is NaN wherever the circle is active at epsilon = 1e-4: the first
    # iterate that reaches it fails the run, with the steps before it traced
    problem = _circle2d_with_nan_dg(lambda g: g >= -1e-4)
    with pytest.raises(md.EvaluationError) as err:
        md.solve_constrained(problem, (-2.0, 0.5), md.SolverConfig(beta0=0.1))
    assert err.value.component == "DG"
    trace = err.value.trace
    assert trace.termination == "FAILED:EvaluationError"
    assert trace.iterations == len(trace.records) >= 1
    assert float(circle2d.G(trace.final_x)[0]) >= -1e-4
    assert all(float(circle2d.G(rec.x)[0]) < -1e-4 for rec in trace.records)


@pytest.mark.parametrize("s, termination", [
    (1e6, md.ITER_CAP), (1e7, md.ITER_CAP), (1e8, None), (1e12, None)])
def test_a_badly_scaled_hull_is_never_a_false_critical_point(s, termination):
    # DF rows (1, 1), (s, 2), (-s, 2) with F = A x: (0, -1) decreases every
    # objective, so no point is critical and the run must reach the cap.
    # The true alpha is about -0.5; from s = 1e8 on, the steep slopes of
    # the computed alpha cancel to 0, which would read as critical, while
    # -||v||^2 / 2 stays at -0.5 or below: the run fails by name instead
    A = np.array([[1.0, 1.0], [s, 2.0], [-s, 2.0]])
    problem = md.ProblemSpec(name="scaled-hull", n=2, m=3, F=lambda x: A @ x,
                             DF=lambda x: A.copy())
    config = md.SolverConfig(max_iters=20)
    if termination is not None:
        _, trace = md.solve_constrained(problem, (0.3, 0.2), config)
        assert trace.termination == termination and trace.iterations == 20
        return
    with pytest.raises(md.IllConditionedDirection, match="SP1 is ill-conditioned") as err:
        md.solve_constrained(problem, (0.3, 0.2), config)
    assert err.value.trace.termination == "FAILED:IllConditionedDirection"
    assert err.value.trace.records == []
    assert err.value.trace.final_x.tolist() == [0.3, 0.2]
    assert not md.multistart(problem, [np.array([0.3, 0.2])], config)[0].converged


def test_backtracking_stops_once_the_step_rounds_to_zero():
    # at x = 1.5 every step that keeps G defined is below the resolution of
    # x; once x + t v rounds to x, the failing step tries x itself at most
    # once
    problem = _undefined_past_1_5("G")
    seen = []

    def F(x):
        seen.append(x.copy())
        return problem.F(x)

    counted = dataclasses.replace(problem, F=F)
    with pytest.raises(md.NoStep) as err:
        md.solve_constrained(counted, (0.0,), md.SolverConfig(beta0=4.0))
    x_last = err.value.trace.final_x
    assert x_last[0] == 1.5
    # F(x_last) is also computed by the Armijo test that accepted x_last;
    # the final iteration's evaluate reuses that value
    trials_at_x = sum(1 for z in seen if np.array_equal(z, x_last)) - 1
    assert trials_at_x <= 1


def test_carried_minus_inf_objective_raises_with_trace():
    # F is -inf past 1.5: the Armijo test accepts the first trial, which
    # lands at x = 3, and the next evaluate must reject the carried value
    problem = md.ProblemSpec(
        name="minus-inf", n=1, m=1,
        F=lambda x: np.array([(x[0] - 3.0) ** 2 if x[0] <= 1.5 else -np.inf]),
        DF=lambda x: np.array([[2.0 * (x[0] - 3.0)]]))
    with pytest.raises(md.EvaluationError) as err:
        md.solve_constrained(problem, (1.0,), md.SolverConfig(beta0=0.5))
    assert err.value.component == "F"
    trace = err.value.trace
    assert trace.termination == "FAILED:EvaluationError"
    assert trace.iterations == 1
    assert trace.final_x[0] > 1.5


def test_ascent_direction_fails_the_run_not_the_front(circle2d, monkeypatch):
    # a direction the line search rejects is solver state gone wrong: the
    # run fails with its partial trace and multistart records the failure
    real = solver.solve_direction

    def ascent(bundle, kind, epsilon=0.0):
        d = real(bundle, kind, epsilon)
        return dataclasses.replace(d, v=-d.v)

    monkeypatch.setattr(solver, "solve_direction", ascent)
    with pytest.raises(md.StepPreconditionError) as err:
        md.solve_constrained(circle2d, (-2.0, 0.5))
    assert isinstance(err.value, md.NoStep) and isinstance(err.value, ValueError)
    assert err.value.trace.termination == "FAILED:StepPreconditionError"
    archive = md.multistart(circle2d, [np.array([-2.0, 0.5]), np.array([2.0, 0.0])])
    failed, critical = archive
    assert failed.x is None and not failed.converged
    assert "StepPreconditionError" in failed.error
    assert critical.converged


@pytest.mark.parametrize("case", ["circle2d_eta1", "sphere3d"])
def test_returned_point_and_trace_hold_distinct_arrays(case, circle2d, sphere3d):
    # records hold the loop's iterates without a copy; the returned point
    # and trace.final_x are copies of their own, so writing to the returned
    # point changes nothing the trace holds
    if case == "circle2d_eta1":
        x, trace = md.solve_constrained(circle2d, (-2.0, 0.5),
                                        md.SolverConfig(beta0=0.1, eta=1.0))
    else:
        x, trace = md.solve_constrained(sphere3d, (1.0, 0.0, 0.0))
    held = [trace.final_x, *(rec.x for rec in trace.records)]
    arrays = [x, *held]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    assert np.array_equal(x, trace.final_x)
    assert np.array_equal(x, trace.records[-1].x)
    before = [a.copy() for a in held]
    x[:] = np.nan
    assert all(np.array_equal(a, b) for a, b in zip(held, before))


def test_concurrent_solves_of_two_problems_match_serial(circle2d, sphere3d):
    # problems may be shared across threads: two threads that solve
    # circle2d (free chart without rows) and sphere3d (free chart on the
    # sphere) at once keep replacing each other's cached free chart, and
    # each must still retract through its own problem's chart.  A short
    # switch interval lets the threads interleave inside the loop.
    cases = [(circle2d, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0)),
             (sphere3d, (1.0, 0.0, 0.0), md.SolverConfig())]

    def run(case):
        problem, x0, cfg = case
        x, trace = md.solve_constrained(problem, x0, cfg)
        return x.tobytes(), [rec.x.tobytes() for rec in trace.records], trace.termination

    serial = [run(case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # the two problems alternate in the queue, so each worker's next
        # solve is often of the problem the other worker is solving
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(run, cases * 10))
    finally:
        sys.setswitchinterval(interval)
    assert results == serial * 10


def test_constrained_infeasible_problem_attaches_trace():
    bad = make_infeasible_problem()
    with pytest.raises(md.NoConvergence) as err:
        md.solve_constrained(bad, (1.0, 1.0))
    assert hasattr(err.value, "trace")
    assert err.value.trace.termination.startswith("FAILED")


def test_failed_start_trace_holds_a_copy_of_the_start():
    # the failed trace's final_x is the start, as a copy: writing to the
    # caller's array afterwards leaves the trace as it was
    start = np.array([1.0, 1.0])
    with pytest.raises(md.NoConvergence) as err:
        md.solve_constrained(make_infeasible_problem(), start)
    final_x = err.value.trace.final_x
    assert np.array_equal(final_x, start)
    start[:] = 0.0
    assert np.array_equal(final_x, [1.0, 1.0])


def test_constrained_no_step_attaches_partial_trace():
    # after three steps broken-jacobian's biased DF entry claims descent
    # along a direction in which the true F1 grows, so no step passes Armijo
    problem = md.registry_get("broken-jacobian")
    cfg = md.SolverConfig(beta0=0.1, eta=np.inf)
    with pytest.raises(md.NoStep) as err:
        md.solve_constrained(problem, (2.5, 2.0), cfg)
    assert err.value.trace.termination == "FAILED:NoStep"
    assert len(err.value.trace.records) == 3


def test_constrained_iteration_cap_flag(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=np.inf, max_iters=3)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert trace.termination == md.ITER_CAP
    assert trace.iterations == 3


def test_cap_pass_at_a_critical_point_terminates_critical(sphere3d):
    # four steps reach the south pole: the pass after the last allowed step
    # finds alpha1 >= -TOL_ALPHA there, so the run is critical, not capped
    _, capped = md.solve_constrained(sphere3d, (1.0, 0.0, 0.0), md.SolverConfig(max_iters=3))
    assert capped.termination == md.ITER_CAP
    x, trace = md.solve_constrained(sphere3d, (1.0, 0.0, 0.0), md.SolverConfig(max_iters=4))
    assert trace.iterations == 4
    assert trace.final_alpha >= -TOL_ALPHA
    assert trace.termination == md.TERMINATED_CRITICAL
    assert x == pytest.approx([0.0, 0.0, -1.0], abs=1e-8)


def test_constrained_infeasible_start_is_projected_first(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    x, trace = md.solve_constrained(circle2d, (0.5, 0.0), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    # the run starts from the projected boundary point (1, 0)
    assert trace.records[0].x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert dist_to_critical_set(x) <= 1e-3


def test_constrained_vertex_is_critical_and_reached():
    problem = make_vertex_problem()
    # at the vertex SP2 has no direction, so SP1 certifies criticality at once
    x, trace = md.solve_constrained(problem, (1.0, 1.0), md.SolverConfig(eta=1.0))
    assert trace.termination == md.TERMINATED_CRITICAL
    assert trace.iterations == 0
    assert np.array_equal(x, [1.0, 1.0])
    x, trace = md.solve_constrained(problem, (0.0, 0.0), md.SolverConfig(beta0=0.5))
    assert trace.termination == md.TERMINATED_CRITICAL
    assert x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_constrained_combined_equality_and_inequality():
    # interior starts descend onto the third-quadrant equator arc
    problem = make_hemisphere_problem()
    cfg = md.SolverConfig(beta0=0.5, beta=0.5, epsilon=1e-4, eta=0.5)
    for start in ((0.5, 0.5, 0.8), (-0.2, 0.7, 0.6), (0.1, -0.3, 0.9)):
        x, trace = md.solve_constrained(problem, np.array(start), cfg)
        assert trace.termination == md.TERMINATED_CRITICAL
        assert hemisphere_critical_distance(x) <= 1e-3
        for rec in trace.records:
            assert abs(float(problem.H(rec.x)[0])) <= 1e-8
            assert float(problem.G(rec.x)[0]) <= 1e-8


def test_constrained_follows_equator_through_two_row_chart():
    # an equator start with small eta walks the sphere-and-boundary chart
    problem = make_hemisphere_problem()
    start = np.array([np.cos(1.9), np.sin(1.9), 0.0])
    cfg = md.SolverConfig(beta0=0.5, beta=0.5, epsilon=1e-4, eta=0.02)
    x, trace = md.solve_constrained(problem, start, cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    assert trace.branch_counts().get("SP2-step", 0) >= 1
    # terminates at the arc end near (-1, 0, 0)
    assert x == pytest.approx([-1.0, 0.0, 0.0], abs=2e-4)
    for rec in trace.records:
        if rec.branch == "SP2-step":
            assert rec.active_set == (1,)


def _quadrant_corner_problem(name, extra_row, extra_grad):
    """Two objectives minimised over the quadrant x >= 0 at its corner (0, 0),
    with a third inequality that is active there as well."""
    def F(x):
        base = x[0] ** 2 + 2.0 * x[0] + x[1] ** 2
        return np.array([base + 2.0 * x[1], base + x[1]])

    return md.ProblemSpec(
        name=name, n=2, m=2, F=F,
        DF=lambda x: np.array([[2.0 * x[0] + 2.0, 2.0 * x[1] + 2.0],
                               [2.0 * x[0] + 2.0, 2.0 * x[1] + 1.0]]),
        m_G=3,
        G=lambda x: np.array([-x[0], -x[1], extra_row(x)]),
        DG=lambda x: np.array([[-1.0, 0.0], [0.0, -1.0], extra_grad(x)]),
        box=((-1.0, 3.0),) * 2,
    )


# a redundant row, and a disk touching x2 = 0 at the corner: at the corner
# the boundary subproblem pins three rows in dimension 2
_DEGENERATE_CORNERS = {
    "redundant": _quadrant_corner_problem(
        "redundant", lambda x: -x[0] - x[1], lambda x: [-1.0, -1.0]),
    "tangent_disk": _quadrant_corner_problem(
        "tangent_disk", lambda x: x[0] ** 2 + x[1] ** 2 - 2.0 * x[1],
        lambda x: [2.0 * x[0], 2.0 * x[1] - 2.0]),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE_CORNERS))
def test_rank_deficient_boundary_subproblem_takes_the_strategy1_step(name):
    problem = _DEGENERATE_CORNERS[name]
    starts = md.grid_points(problem.box, (9, 9))
    # one row pinned at a time: no start asks for the chart of rows 2 and
    # 3 together, which on the tangent disk is the single corner point
    for x0 in starts:
        assert np.max(problem.G(md.feasible_start(problem, x0))) <= md.geometry.FEAS_TOL
    archive = md.multistart(problem, starts, md.SolverConfig(beta0=1.0, eta=1.0))
    assert [e.error for e in archive if not e.converged] == []
    assert sum(e.converged for e in archive) == 81


def test_rank_deficient_boundary_subproblem_records_no_alpha2():
    problem = _DEGENERATE_CORNERS["redundant"]
    x, trace = md.solve_constrained(problem, (0.0, 0.0), md.SolverConfig(eta=1.0))
    # all three rows are active at the corner, which is critical
    assert trace.termination == md.TERMINATED_CRITICAL
    assert trace.iterations == 0
    assert trace.records[-1].alpha2 is None
    assert np.array_equal(x, [0.0, 0.0])


# ---------------------------------------------------------------------------
# configuration and serialization


def test_config_validation():
    with pytest.raises(ValueError):
        md.SolverConfig(beta=1.5)
    with pytest.raises(ValueError):
        md.SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        md.SolverConfig(eta=-1.0)
    # the retraction is the chart's projection, not a solver option
    with pytest.raises(TypeError):
        md.SolverConfig(retraction="psi")
    assert md.SolverConfig(eta=np.inf).eta == np.inf


@pytest.mark.parametrize("field", ["beta0", "beta", "sigma", "epsilon", "eta"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        md.SolverConfig(**{field: np.nan})


def test_config_rejects_an_infinite_beta0():
    # every trial step t = beta0 * beta^k would be infinite
    with pytest.raises(ValueError, match="beta0"):
        md.SolverConfig(beta0=np.inf)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, "3", 0])
def test_config_requires_an_integral_max_iters(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        md.SolverConfig(max_iters=max_iters)
    assert md.SolverConfig(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("name", ["beta0", "beta", "sigma", "epsilon", "eta", "max_iters"])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_config_refuses_bools(name, flag):
    # True would pass as beta0 = 1 or max_iters = 1, and reach manifest.json
    # and trace.json as "true"
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        md.SolverConfig(**{name: flag})


def test_overflowed_direction_fails_the_run_not_reads_critical():
    # DF = 1e160 I: the two-generator min-norm form overflows, so alpha is
    # NaN; it must not read as 0 (critical) at a point where F is
    # unbounded below
    steep = md.load_problem(DATA / "steep2d.json")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(md.ModescentError) as err:
            md.solve_constrained(steep, (0.0, 0.0))
    assert err.value.trace.termination.startswith("FAILED:")
    assert err.value.trace.final_x.tolist() == [0.0, 0.0]


def test_overflowed_direction_names_the_overflow():
    # the NaN alpha stops the run before any line search, as an overflow
    # of the direction, not as a failed descent test in the step
    steep = md.load_problem(DATA / "steep2d.json")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(md.ModescentError, match="direction subproblem SP1 overflowed") as err:
            md.solve_constrained(steep, (0.0, 0.0))
    assert type(err.value) is md.ModescentError
    assert err.value.trace.termination == "FAILED:ModescentError"
    assert err.value.trace.records == []
    assert err.value.trace.final_x.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("max_iters", [1, 2])
def test_overflowed_direction_at_the_cap_fails_the_run(max_iters):
    # F = (x, 2x) with DF scaled by 1e160 at x <= 0.5: the first step lands
    # on x = 0, where the direction overflows; at max_iters = 1 that is the
    # pass that only records alpha1, which must not end at ITER_CAP with a
    # NaN final_alpha
    steep = md.ProblemSpec(
        name="steep-after-one-step", n=1, m=2, F=lambda x: np.array([x[0], 2.0 * x[0]]),
        DF=lambda x: (1.0 if x[0] > 0.5 else 1e160) * np.array([[1.0], [2.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(md.ModescentError, match="direction subproblem SP1 overflowed") as err:
            md.solve_constrained(steep, (1.0,), md.SolverConfig(max_iters=max_iters))
    assert err.value.trace.termination == "FAILED:ModescentError"
    assert err.value.trace.iterations == 1
    assert err.value.trace.final_x.tolist() == [0.0]


def test_overflowed_boundary_direction_names_the_overflow():
    # F = 1e160 (x1 + x2, x1 - x2) on the boundary x1 = 0 of G = x1 <= 0:
    # in the tangent x2 the generators are -1e160 and 1e160, the
    # two-generator form overflows, and the NaN alpha2 would drive a
    # boundary step, since no comparison with -eta rejects it
    steep = md.ProblemSpec(
        name="steep-boundary", n=2, m=2,
        F=lambda x: 1e160 * np.array([x[0] + x[1], x[0] - x[1]]),
        DF=lambda x: 1e160 * np.array([[1.0, 1.0], [1.0, -1.0]]),
        m_G=1, G=lambda x: np.array([x[0]]), DG=lambda x: np.array([[1.0, 0.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(md.ModescentError, match="direction subproblem SP2 overflowed") as err:
            md.solve_constrained(steep, (0.0, 0.0), md.SolverConfig(eta=1.0))
    assert err.value.trace.termination == "FAILED:ModescentError"
    assert err.value.trace.final_x.tolist() == [0.0, 0.0]


def test_trace_csv_columns_and_determinism(circle2d, tmp_path):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    write_trace_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "iter,x1,x2,F1,F2,alpha,branch,t,active_set"
    assert len(p1.read_text().splitlines()) == len(trace.records) + 1


def test_trace_csv_roundtrips_doubles(circle2d, tmp_path):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()[1:]
    for rec, line in zip(trace.records, lines):
        cells = line.split(",")
        assert float(cells[1]) == rec.x[0]
        assert float(cells[2]) == rec.x[1]
        assert float(cells[5]) == rec.alpha


def test_trace_json_full_records(circle2d, tmp_path):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    x, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    path = tmp_path / "trace.json"
    write_trace_json(trace, path)
    doc = json.loads(path.read_text())
    assert doc["termination"] == md.TERMINATED_CRITICAL
    assert doc["final_x"] == pytest.approx(list(x))
    assert len(doc["records"]) == len(trace.records)
    assert {"iter", "x", "F", "alpha", "branch", "t", "k", "active_set"} <= set(doc["records"][0])
