"""Golden outputs: the CSVs of fixed CLI invocations, stored under
tests/data/golden, must be reproduced cell for cell.

Text and integer cells compare exactly; float cells compare within
1e-12 * max(1, |v|), so a different BLAS does not make the check flaky
while any change of iterates, step lengths or branch labels still fails.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

import modescent as md
from modescent.cli import main

from conftest import with_counted_maps, with_plain_map

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
OCTANT_FILE = DATA / "octant3d.json"

CASES = {
    "circle2d_eta1": (["solve", "--problem", "circle2d", "--x0=-2,0.5",
                       "--beta0", "0.1", "--eta", "1"], ["trace.csv"]),
    "sphere3d": (["solve", "--problem", "sphere3d", "--x0", "1,0,0"], ["trace.csv"]),
    "front5": (["front", "--problem", "circle2d", "--grid", "5x5",
                "--beta0", "0.1", "--eta", "1"], ["archive.csv", "front.csv"]),
    # a polynomial problem file: every map is a compiled monomial table
    "octant3d": (["front", "--problem-file", str(OCTANT_FILE), "--grid", "3x3x3",
                  "--beta0", "0.1", "--eta", "1"], ["archive.csv", "front.csv"]),
}


def _cell_matches(got, want):
    if got == want:
        return True
    for parse in (int, float):
        try:
            g, w = parse(got), parse(want)
        except ValueError:
            continue
        if parse is int:
            return False
        if math.isnan(w):
            return math.isnan(g)
        return abs(g - w) <= 1e-12 * max(1.0, abs(w))
    return False


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    argv, files = CASES[name]
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    for fname in files:
        got, want = _rows(out / fname), _rows(GOLDEN / name / fname)
        assert len(got) == len(want), fname
        assert got[0] == want[0], fname
        for i, (grow, wrow) in enumerate(zip(got, want)):
            assert len(grow) == len(wrow), (fname, i)
            bad = [(g, w) for g, w in zip(grow, wrow) if not _cell_matches(g, w)]
            assert not bad, (fname, i, bad)


def test_circle2d_eta1_map_calls_are_pinned(circle2d):
    # the circle2d_eta1 solve with counted maps; accepted SP1 steps hand F
    # and G to the next evaluate, SP2 steps hand over F, and G when their
    # chart leaves the inequality outside (17 of the 24 pin none), the
    # feasible step computes F past its first Armijo pass only where G
    # holds, a boundary step reads the pinned rows of its on-chart test
    # and the landing's base point G from the bundle, the landing computes
    # G once per Anderson-Bjorck false-position or midpoint trial, and a
    # projection computes its chart value and Jacobian once per point it
    # accepts, so a duplicate map call or an extra landing trial on the
    # solver's path changes these counts (F 611 and G 1,113 with an
    # F-then-G test of every trial and a bisecting landing; G 675 with the
    # Illinois landing; G 672 with the on-chart test calling G again at
    # the base point of each of the 7 SP2 steps that pin the circle).  The
    # registry declares the circle's record, so the charts that pin it
    # project in closed form, with no map call (G 665 and DG 74 with their
    # 33 Newton projections reading G and DG).  DG is called at the 41 of
    # the 131 evaluations with the circle active at epsilon (164 with DG at
    # every evaluation)
    spec, calls = with_counted_maps(circle2d, ("F", "DF", "G", "DG"))
    _, trace = md.solve_constrained(spec, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.iterations == 130
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    assert dict(calls) == {"F": 193, "DF": 131, "G": 632, "DG": 41}


def test_circle2d_eta1_scans_the_active_set_for_sp2_only(circle2d, monkeypatch):
    # the same solve: each evaluation scans G at epsilon once, to decide on
    # DG, and the bundle keeps the rows it found, so the 107 SP1 solves
    # read their active set from it; active_set runs only for the 41 SP2
    # solves, at the pinning tolerance EPS_ACT (148 calls with SP1
    # scanning G again)
    kinds, scans = [], []
    solve_direction, active_set = md.direction.solve_direction, md.direction.active_set

    def counted_solve(bundle, kind, epsilon=0.0):
        kinds.append(kind)
        return solve_direction(bundle, kind, epsilon)

    def counted_scan(bundle, epsilon):
        scans.append((kinds[-1], epsilon))
        return active_set(bundle, epsilon)

    monkeypatch.setattr(md.solver, "solve_direction", counted_solve)
    monkeypatch.setattr(md.direction, "active_set", counted_scan)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    sp1, sp2 = md.SubproblemKind.OBJECTIVE_ICS, md.SubproblemKind.EQUALITY_ICS
    assert (kinds.count(sp1), kinds.count(sp2)) == (107, 41)
    assert scans == [(sp2, md.geometry.EPS_ACT)] * 41


def test_psi_map_calls_are_pinned(sphere3d):
    # one psi retraction on the sphere with counted maps: it calls H at x
    # and at x + w, twice per bracket doubling and once per Anderson-Bjorck
    # trial, so an extra trial of the root search changes the H count (20
    # with Illinois halving in place of Anderson-Bjorck scaling)
    spec, calls = with_counted_maps(sphere3d, ("H", "DH"))
    z = md.geometry.retract_psi(md.ManifoldChart(spec, ()), np.array([1.0, 0.0, 0.0]),
                                np.array([0.0, 0.6, 0.4]))
    assert abs(float(z @ z) - 1.0) <= 1e-12
    assert dict(calls) == {"H": 17, "DH": 1}


def test_circle2d_eta1_finiteness_checks_are_pinned(circle2d, monkeypatch):
    # the same solve: feasible_start checks G at the start (1), each of the
    # 131 evaluations checks F and DF (262), DG at the 41 with the circle
    # active at epsilon (41; 426 checks in all with DG checked at every
    # evaluation), and G where it calls the map (8); min_norm_in_hull checks
    # the projected generators of each SP2 solve (24).  Not checked again:
    # the G a step hands over (123: every
    # SP1 step and the 17 SP2 steps that pin none), which its feasibility
    # test found finite, and the pinned rows of each SP2 solve, which are
    # checked DG rows and reach the tangent-basis kernel directly (24); the
    # SP1 generators are the checked DF and DG rows and reach the min-norm
    # kernel without a second check
    checks = []
    all_finite = md.problems.all_finite

    def counted(a):
        checks.append(a.shape)
        return all_finite(a)

    monkeypatch.setattr(md.problems, "all_finite", counted)
    monkeypatch.setattr(md.direction, "all_finite", counted)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    assert len(checks) == 336


def test_circle2d_eta1_builds_each_chart_once(circle2d, monkeypatch):
    # a chart is built once per problem and row set, not once per step: the
    # SP1 steps and the 17 of the 24 SP2 steps that pin nothing share the
    # free chart, and the other 7 SP2 steps, which pin circle 1, share the
    # chart of (1,).  The cache starts empty here, so each is built once.
    built = []
    post_init = md.ManifoldChart.__post_init__

    def counted(chart):
        built.append(chart.ineq_indices)
        post_init(chart)
    monkeypatch.setattr(md.ManifoldChart, "__post_init__", counted)
    monkeypatch.setattr(md.geometry, "_charts", (None, {}))
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    assert sum(r.active_set == (1,) for r in trace.records if r.branch == "SP2-step") == 7
    assert sorted(built) == [(), (1,)]


def test_sphere3d_map_calls_are_pinned(sphere3d):
    # the sphere3d golden solve with counted maps, H behind a plain wrapper
    # that drops the registry's record, so every trial point takes the
    # Newton projection onto the sphere: evaluate calls H no more and the
    # step does not re-test H at a projected point, so H counts the
    # projections plus the feasibility check of the start, and DH the
    # projections plus one call per evaluate
    spec, calls = with_counted_maps(with_plain_map(sphere3d, "H"), ("F", "DF", "H", "DH"))
    _, trace = md.solve_constrained(spec, (1.0, 0.0, 0.0), md.SolverConfig())
    assert trace.iterations == 4
    assert trace.branch_counts() == {"SP1-step": 4}
    assert dict(calls) == {"F": 5, "DF": 5, "H": 20, "DH": 24}


def test_sphere3d_closed_form_map_calls_are_pinned(sphere3d):
    # the same solve on the registry's maps: H declares its sphere, so
    # every trial point is projected in closed form, with no map call.  H
    # is called once, by the feasibility check of the start, and DH once
    # per evaluate (H 20 and DH 24 with the Newton projection)
    spec, calls = with_counted_maps(sphere3d, ("F", "DF", "H", "DH"))
    _, trace = md.solve_constrained(spec, (1.0, 0.0, 0.0), md.SolverConfig())
    assert trace.iterations == 4
    assert trace.branch_counts() == {"SP1-step": 4}
    assert dict(calls) == {"F": 5, "DF": 5, "H": 1, "DH": 5}


def test_octant3d_map_calls_are_pinned():
    # one solve of the octant3d golden front with counted polynomial maps;
    # every trial point is projected onto the sphere in closed form, with no
    # map call, so H is called once, by the feasibility check of the start,
    # DH once per evaluate, and the cap inequality is tested once per trial
    # point (H 133 and DH 179 with the Newton projection at every trial).
    # The cap is never active at epsilon at an iterate, so no evaluation
    # calls DG (47 with DG at every evaluation)
    spec, calls = with_counted_maps(md.load_problem(OCTANT_FILE),
                                    ("F", "DF", "G", "DG", "H", "DH"))
    _, trace = md.solve_constrained(spec, (0.5, -0.5, -0.7),
                                    md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.iterations == 46
    assert trace.branch_counts() == {"SP1-step": 46}
    assert dict(calls) == {"F": 47, "DF": 47, "G": 49, "H": 1, "DH": 47}


def test_octant3d_monomial_powers_are_pinned(monkeypatch):
    # the same solve: the six maps share one memo of their monomials, so
    # the 191 map calls raise x to the problem's exponent table only at
    # the 48 points where the previous call was elsewhere (455 calls and
    # 132 powers with the Newton projection at every trial point)
    powers = []
    monomials = md.problems._monomials

    def counted(x, B):
        powers.append(x)
        return monomials(x, B)

    monkeypatch.setattr(md.problems, "_monomials", counted)
    spec, calls = with_counted_maps(md.load_problem(OCTANT_FILE),
                                    ("F", "DF", "G", "DG", "H", "DH"))
    md.solve_constrained(spec, (0.5, -0.5, -0.7), md.SolverConfig(beta0=0.1, eta=1.0))
    assert sum(calls.values()) == 191
    assert len(powers) == 48
