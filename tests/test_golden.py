"""Golden outputs: the CSVs of fixed CLI invocations, stored under
tests/data/golden, must be reproduced cell for cell.

Text and integer cells compare exactly; float cells compare within
1e-12 * max(1, |v|), so a different BLAS does not make the check flaky
while any change of iterates, step lengths or branch labels still fails.
"""

import csv
import math
from pathlib import Path

import pytest

import modescent as md
from modescent.cli import main

from conftest import with_counted_maps

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
OCTANT_FILE = DATA / "octant3d.json"

CASES = {
    "circle2d_eta1": (["solve", "--problem", "circle2d", "--x0=-2,0.5",
                       "--beta0", "0.1", "--eta", "1"], ["trace.csv"]),
    "sphere3d": (["solve", "--problem", "sphere3d", "--x0", "1,0,0"], ["trace.csv"]),
    "sphere3d_psi": (["solve", "--problem", "sphere3d", "--x0", "1,0,0",
                      "--retraction", "psi"], ["trace.csv"]),
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
    # boundary bisection computes G once per point and takes the base
    # point's G from the bundle, and a projection
    # computes its chart value and Jacobian once per point it accepts, so a
    # duplicate map call on the solver's path changes these counts
    spec, calls = with_counted_maps(circle2d, ("F", "DF", "G", "DG"))
    _, trace = md.solve_constrained(spec, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.iterations == 130
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    assert dict(calls) == {"F": 611, "DF": 131, "G": 1113, "DG": 164}


def test_circle2d_eta1_builds_a_chart_per_boundary_step_only(circle2d, monkeypatch):
    # the chart without pinned inequalities, and its retraction, are built
    # once per problem, not once per SP1 step; each SP2 step builds the
    # chart of its own active set (17 of the 24 pin none)
    built = []
    post_init = md.ManifoldChart.__post_init__

    def counted(chart):
        built.append(chart.ineq_indices)
        post_init(chart)
    monkeypatch.setattr(md.ManifoldChart, "__post_init__", counted)
    _, trace = md.solve_constrained(circle2d, (-2.0, 0.5), md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.branch_counts() == {"SP1-step": 106, "SP2-step": 24}
    assert len(built) <= 24 + 1


def test_sphere3d_map_calls_are_pinned(sphere3d):
    # the sphere3d golden solve with counted maps: every trial point is
    # projected onto the sphere, evaluate calls H no more and the step does
    # not re-test H at a projected point, so H counts the projections plus
    # the feasibility check of the start, and DH the projections plus one
    # call per evaluate
    spec, calls = with_counted_maps(sphere3d, ("F", "DF", "H", "DH"))
    _, trace = md.solve_constrained(spec, (1.0, 0.0, 0.0), md.SolverConfig())
    assert trace.iterations == 4
    assert trace.branch_counts() == {"SP1-step": 4}
    assert dict(calls) == {"F": 5, "DF": 5, "H": 20, "DH": 24}


def test_octant3d_map_calls_are_pinned():
    # one solve of the octant3d golden front with counted polynomial maps;
    # every trial point is projected onto the sphere, so H counts the
    # projections plus the feasibility check of the start, DH the
    # projections plus one call per evaluate, and the cap inequality is
    # tested once per trial point
    spec, calls = with_counted_maps(md.load_problem(OCTANT_FILE),
                                    ("F", "DF", "G", "DG", "H", "DH"))
    _, trace = md.solve_constrained(spec, (0.5, -0.5, -0.7),
                                    md.SolverConfig(beta0=0.1, eta=1.0))
    assert trace.iterations == 46
    assert trace.branch_counts() == {"SP1-step": 46}
    assert dict(calls) == {"F": 47, "DF": 47, "G": 49, "DG": 47, "H": 133, "DH": 179}


def test_octant3d_monomial_powers_are_pinned(monkeypatch):
    # the same solve: the six maps share one memo of their monomials, so
    # the 502 map calls raise x to the problem's exponent table only at
    # the 132 points where the previous call was elsewhere
    powers = []
    monomials = md.problems._monomials

    def counted(x, B):
        powers.append(x)
        return monomials(x, B)

    monkeypatch.setattr(md.problems, "_monomials", counted)
    spec, calls = with_counted_maps(md.load_problem(OCTANT_FILE),
                                    ("F", "DF", "G", "DG", "H", "DH"))
    md.solve_constrained(spec, (0.5, -0.5, -0.7), md.SolverConfig(beta0=0.1, eta=1.0))
    assert sum(calls.values()) == 502
    assert len(powers) == 132
