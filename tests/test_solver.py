import dataclasses
import json

import numpy as np
import pytest

import modescent as md
from modescent.solver import write_trace_csv, write_trace_json

from conftest import (CIRCLE_CONFIG, hemisphere_critical_distance,
                      make_hemisphere_problem, make_infeasible_problem)
from oracles import dist_to_critical_set


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
    assert trace.final_alpha >= -md.SolverConfig().tol_alpha


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


def test_equality_psi_retraction_matches_projection_result(sphere3d):
    cfg = md.SolverConfig(retraction="psi")
    x, trace = md.solve_equality(sphere3d, (1.0, 0.0, 0.0), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    assert x == pytest.approx([0.0, 0.0, -1.0], abs=1e-4)


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
    assert check.alpha >= -cfg.tol_alpha
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
            assert abs(rec.alpha2) <= cfg_zero.tol_alpha


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
    entry = md.multistart(problem, [np.array([0.0])], config).entries[0]
    assert entry.error is not None
    assert entry.iterations == 1


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
    # F(x_last) is also computed by the Armijo test that accepted x_last and
    # by the evaluate call of the final iteration
    trials_at_x = sum(1 for z in seen if np.array_equal(z, x_last)) - 2
    assert trials_at_x <= 1


def test_constrained_infeasible_problem_attaches_trace():
    bad = make_infeasible_problem()
    with pytest.raises(md.NoConvergence) as err:
        md.solve_constrained(bad, (1.0, 1.0))
    assert hasattr(err.value, "trace")
    assert err.value.trace.termination.startswith("FAILED")


def test_constrained_no_step_attaches_partial_trace(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=np.inf, k_max=2)
    with pytest.raises(md.NoStep) as err:
        md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert len(err.value.trace.records) >= 1


def test_constrained_iteration_cap_flag(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=np.inf, max_iters=3)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), cfg)
    assert trace.termination == md.ITER_CAP
    assert trace.iterations == 3


def test_constrained_infeasible_start_is_projected_first(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    x, trace = md.solve_constrained(circle2d, (0.5, 0.0), cfg)
    assert trace.termination == md.TERMINATED_CRITICAL
    # the run starts from the projected boundary point (1, 0)
    assert trace.records[0].x == pytest.approx([1.0, 0.0], abs=1e-9)
    assert dist_to_critical_set(x) <= 1e-3


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


# ---------------------------------------------------------------------------
# configuration and serialization


def test_config_validation():
    with pytest.raises(ValueError):
        md.SolverConfig(beta=1.5)
    with pytest.raises(ValueError):
        md.SolverConfig(sigma=0.0)
    with pytest.raises(ValueError):
        md.SolverConfig(eta=-1.0)
    with pytest.raises(ValueError):
        md.SolverConfig(retraction="geodesic")
    assert md.SolverConfig(eta=np.inf).eta == np.inf


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
