"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on the terminal.
"""

import time
from functools import partial

import numpy as np
import pytest

import modescent as md
from modescent.geometry import chart_jacobian

from conftest import CIRCLE_CONFIG
from oracles import (ARC_HALF_ANGLE, arc_point, critical_samples, dist_to_arc,
                     dist_to_critical_set, dist_to_segment, grid_min_norm)


def _report(num, description, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    if not ok:
        pytest.fail(line)


def _alpha1(problem, x, epsilon=1e-4):
    d = md.solve_direction(md.evaluate(problem, x),
                           md.SubproblemKind.OBJECTIVE_ICS, epsilon)
    return d.alpha


def _run_circle(circle2d, eta):
    config = md.SolverConfig(**CIRCLE_CONFIG, eta=eta)
    start = time.perf_counter()
    x, trace = md.solve_constrained(circle2d, (-2.0, 0.5), config)
    elapsed = time.perf_counter() - start
    return x, trace, elapsed


def _circle_run_ok(circle2d, x, trace):
    checks = {
        "terminated": trace.termination == md.TERMINATED_CRITICAL,
        "alpha": trace.final_alpha >= -1e-6,
        "distance": dist_to_critical_set(x) <= 1e-3,
        "feasible": all(float(circle2d.G(r.x)[0]) <= 1e-8 for r in trace.records),
        "monotone": all(
            np.all(b.F < a.F) for a, b in zip(trace.records, trace.records[1:])
        ),
    }
    return checks


def test_criterion_1_strategy1_reproduction(circle2d):
    x, trace, elapsed = _run_circle(circle2d, np.inf)
    checks = _circle_run_ok(circle2d, x, trace)
    checks["runtime"] = elapsed < 5.0
    _report(1, "boundary-leaving run reproduces the circle example",
            all(checks.values()),
            f"iters={trace.iterations}, alpha={trace.final_alpha:.2e}, "
            f"dist={dist_to_critical_set(x):.2e}, {elapsed:.2f}s, "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_2_strategy2_boundary_following(circle2d):
    x1, tr1, _ = _run_circle(circle2d, 1.0)
    _, tr_inf, _ = _run_circle(circle2d, np.inf)
    checks = _circle_run_ok(circle2d, x1, tr1)
    sp2 = tr1.branch_counts().get("SP2-step", 0)
    checks["has_boundary_steps"] = sp2 >= 1
    checks["fewer_iterations"] = tr1.iterations < tr_inf.iterations
    _report(2, "boundary-following run is shorter and uses boundary steps",
            all(checks.values()),
            f"iters {tr1.iterations} < {tr_inf.iterations}, SP2 steps={sp2}, "
            f"failed={[k for k, v in checks.items() if not v]}")


def test_criterion_3_global_front(circle2d):
    config = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    start = time.perf_counter()
    archive = md.multistart(circle2d, md.grid_points(circle2d.box, (20, 20)), config)
    front = md.nondominated_filter(archive)
    elapsed = time.perf_counter() - start
    seg = max(dist_to_segment(e.x) for e in front)
    off_arc = all(dist_to_arc(e.x) > 1e-2 for e in front)
    ok = seg <= 1e-2 and off_arc and elapsed < 60.0 and len(front) >= 1
    _report(3, "multistart front collapses onto the globally optimal segment",
            ok, f"runs={len(archive)}, front={len(front)}, "
                f"max dist to segment={seg:.2e}, {elapsed:.1f}s")


def test_criterion_4_dual_oracle_equivalence():
    rng = np.random.default_rng(422281)
    worst_dist = 0.0
    worst_resid = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        G = rng.uniform(-10.0, 10.0, size=(k, d))
        lam, p = md.min_norm_in_hull(G)
        _, p_oracle = grid_min_norm(G, step=1e-2)
        worst_dist = max(worst_dist, float(np.linalg.norm(p - p_oracle)))
        dots = G @ p
        resid = max(
            float(p @ p - dots.min()),
            abs(float(lam.sum()) - 1.0),
            float(np.max(np.abs(lam @ G - p))),
            -float(lam.min()),
            float(np.max(np.abs(dots[lam > 1e-8] - p @ p), initial=0.0)),
        )
        worst_resid = max(worst_resid, resid)
    ok = worst_dist <= 1e-2 and worst_resid <= 1e-8
    _report(4, "min-norm solver matches the simplex-grid oracle",
            ok, f"max point distance={worst_dist:.2e}, max KKT residual={worst_resid:.2e}")


def test_criterion_5_criticality_classification(circle2d):
    critical = critical_samples(10, 10)
    worst_critical = min(_alpha1(circle2d, x) for x in critical)
    angles = np.linspace(-(np.pi - ARC_HALF_ANGLE) + 0.05,
                         (np.pi - ARC_HALF_ANGLE) - 0.05, 20)
    noncritical = [1.5 * arc_point(t) for t in angles]
    best_noncritical = max(_alpha1(circle2d, x) for x in noncritical)
    ok = worst_critical >= -1e-8 and best_noncritical <= -1e-3
    _report(5, "criticality value separates critical from non-critical points",
            ok, f"min alpha on critical set={worst_critical:.2e}, "
                f"max alpha off it={best_noncritical:.2e}")


def test_criterion_6_retraction_slope(circle2d, sphere3d):
    rng = np.random.default_rng(905117)
    t = 1e-3
    worst = 0.0
    for chart in (md.ManifoldChart(circle2d, (1,)), md.ManifoldChart(sphere3d, ())):
        pairs = []
        while len(pairs) < 50:
            raw = rng.standard_normal(chart.problem.n)
            nrm = np.linalg.norm(raw)
            if nrm < 1e-6:
                continue
            x = md.project(chart, raw / nrm)
            basis = md.tangent_basis(chart_jacobian(chart, x))
            v = basis @ rng.standard_normal(basis.shape[1])
            if np.linalg.norm(v) < 1e-8:
                continue
            pairs.append((x, v / np.linalg.norm(v)))
        for retract in (chart.retract, partial(md.geometry.retract_psi, chart)):
            for x, v in pairs:
                z = retract(x, t * v)
                worst = max(worst, float(np.linalg.norm((z - x) / t - v)))
    ok = worst <= 1e-2
    _report(6, "projection and normal-line retractions have unit slope",
            ok, f"worst residual={worst:.2e} (bound 1e-2)")


def test_criterion_7_equality_only_solve(sphere3d):
    x, trace = md.solve_equality(sphere3d, (1.0, 0.0, 0.0))
    h_max = max(abs(float(sphere3d.H(r.x)[0])) for r in trace.records)
    ok = (trace.termination == md.TERMINATED_CRITICAL
          and trace.iterations <= 500
          and float(np.linalg.norm(x - np.array([0.0, 0.0, -1.0]))) <= 1e-4
          and h_max <= 1e-9)
    _report(7, "sphere solve reaches the south pole on the manifold",
            ok, f"iters={trace.iterations}, dist={np.linalg.norm(x - [0, 0, -1]):.2e}, "
                f"max |H|={h_max:.2e}")


def test_criterion_8_derivative_audit():
    rng = np.random.default_rng(260318)
    worst = 0.0
    for name in md.registry_names():
        problem = md.registry_get(name)
        lo = np.array([b[0] for b in problem.box])
        hi = np.array([b[1] for b in problem.box])
        for _ in range(100):
            x = lo + rng.random(problem.n) * (hi - lo)
            worst = max(worst, md.fd_audit(problem, x, 1e-6))
    ok = worst <= 1e-6
    _report(8, "closed-form Jacobians agree with central differences",
            ok, f"worst rel err={worst:.2e} over {md.registry_names()}")
