import collections
import csv
import dataclasses
import json
import math
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import modescent as md
from modescent import cli, direction, geometry, globalize, linesearch
from modescent.cli import _worst, front, main, solve

from oracles import dist_to_critical_set, pairwise_dominance_flags

OCTANT_FILE = Path(__file__).parent / "data" / "octant3d.json"
CUBIC_FILE = Path(__file__).parent / "data" / "cubic_chart.json"
EQUATOR_FILE = Path(__file__).parent / "data" / "equator3d.json"
# F = 1e160 (x1, x2): the two-generator min-norm form overflows to NaN
STEEP_FILE = Path(__file__).parent / "data" / "steep2d.json"
# F1 = 1.5e308 (x1 + x2) on the unit sphere: projected onto the tangent
# plane the gradient overflows where the plane holds (1, 1, 0) / sqrt(2)
STEEP_SPHERE_FILE = Path(__file__).parent / "data" / "steep_sphere3d.json"
# four objectives with gradients near 1.5e308: the edge differences of the
# four-generator hull overflow
STEEP4_FILE = Path(__file__).parent / "data" / "steep4.json"
# octant3d with 1e308 x1^2 in its first objective: the Jacobian coefficient
# 2e308 overflows
HUGE_COEFFICIENT_FILE = Path(__file__).parent / "data" / "huge_coefficient3d.json"
# equator3d with every objective x1^1000000: F and DF overflow at most box points
HUGE_POWER_FILE = Path(__file__).parent / "data" / "huge_power3d.json"
FAR_DISK_FILE = Path(__file__).parent / "data" / "far_disk2d.json"
LENS_FILE = Path(__file__).parent / "data" / "lens2d.json"
CIRCLE_ARGS = ["--beta", "0.5", "--beta0", "0.1", "--eps", "1e-4"]


def test_solve_reproduces_boundary_following_trajectory(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "circle2d", "--x0", "-2,0.5",
               "--eta", "inf", *CIRCLE_ARGS, "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "trace.json").read_text())
    assert doc["termination"] == md.TERMINATED_CRITICAL
    # trajectory shape: the sequence reaches the boundary region and ends
    # on the critical set
    radii = [np.linalg.norm(rec["x"]) for rec in doc["records"]]
    assert min(abs(r - 1.0) for r in radii) <= 1e-2
    assert dist_to_critical_set(doc["final_x"]) <= 1e-3

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"] == "circle2d"
    assert manifest["versions"] == {"modescent": md.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__}
    for path in manifest["outputs"]:
        assert (tmp_path / "run" / path.split("/")[-1]).exists()


def test_solve_of_a_map_of_the_wrong_size_is_an_error(tmp_path, monkeypatch, capsys):
    # F returns three entries for m = 2: the run fails by name and exits 1
    circle = md.registry_get("circle2d")
    wrong = dataclasses.replace(circle, name="wrong-size", F=lambda x: np.resize(circle.F(x), 3))
    monkeypatch.setitem(md.problems._REGISTRY, "wrong-size", lambda: wrong)
    rc = main(["solve", "--problem", "wrong-size", "--x0", "-2,0.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "error: component 'F' returned shape (3,), expected (2,)" in capsys.readouterr().err


def test_solve_of_a_map_value_that_is_not_floats_is_an_error(tmp_path, monkeypatch, capsys):
    # F returns a ragged list, which numpy cannot read as floats
    circle = md.registry_get("circle2d")
    ragged = dataclasses.replace(circle, name="ragged", F=lambda x: [1.0, [2.0, 3.0]])
    monkeypatch.setitem(md.problems._REGISTRY, "ragged", lambda: ragged)
    rc = main(["solve", "--problem", "ragged", "--x0", "-2,0.5", "--out", str(tmp_path)])
    assert rc == 1
    assert ("error: component 'F' returned a value that is not an array of floats, "
            "expected (2,)") in capsys.readouterr().err


def test_solve_critical_start_zero_iterations(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "circle2d", "--x0", "2,0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "trace.json").read_text())
    assert doc["iterations"] == 0


def test_solve_unknown_problem_is_usage_error(tmp_path):
    rc = main(["solve", "--problem", "nosuch", "--x0", "0,0",
               "--out", str(tmp_path)])
    assert rc == 64


def test_solve_bad_flags(tmp_path):
    assert main(["solve", "--problem", "circle2d", "--x0", "0,0",
                 "--beta", "2.0", "--out", str(tmp_path)]) == 64
    assert main(["solve", "--problem", "circle2d", "--x0", "1,2,3",
                 "--out", str(tmp_path)]) == 64
    assert main(["solve", "--x0", "0,0", "--out", str(tmp_path)]) == 64
    assert main(["solve", "--problem", "circle2d", "--x0", "0,0",
                 "--eta", "huge", "--out", str(tmp_path)]) == 64


def test_solve_non_numeric_x0_is_usage_error(tmp_path):
    assert main(["solve", "--problem", "circle2d", "--x0", "1,a",
                 "--out", str(tmp_path)]) == 64


@pytest.mark.parametrize("command", [solve, front], ids=["solve", "front"])
def test_solver_options_are_the_config_fields(command):
    # every solver option is a SolverConfig field with the same default,
    # and every field is an option
    own = {"problem_name", "problem_file", "x0", "grid", "outdir"}
    options = {p.name: p.default for p in command.params if p.name not in own}
    fields = {f.name: f.default for f in dataclasses.fields(md.SolverConfig)}
    assert options == fields


@pytest.mark.parametrize("flag", ["--eta", "--beta0", "--eps"])
def test_solve_nan_parameter_is_usage_error(tmp_path, flag):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "circle2d", "--x0=-2,0.5", flag, "nan",
                 "--out", str(out)]) == 64
    assert not out.exists()


def test_eta_accepts_infinity_spellings(tmp_path, capsys):
    for text in ("inf", "Infinity", "1e400"):
        out = tmp_path / text
        assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--eta", text,
                     "--out", str(out)]) == 0
        assert json.loads((out / "trace.json").read_text())["config"]["eta"] == "inf"
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    assert "[default: inf]" in " ".join(capsys.readouterr().out.split())


def test_gamma_option_is_gone(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--gamma", "0.5",
                 "--out", str(out)]) == 64
    assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--out", str(out)]) == 0
    for name in ("trace.json", "manifest.json"):
        config = json.loads((out / name).read_text())["config"]
        assert "gamma" not in config
        assert config["eta"] == "inf"


@pytest.mark.parametrize("kind", ["psi", "project"])
def test_retraction_option_is_gone(tmp_path, kind):
    # every step retracts by the chart's projection, which no option selects
    out = tmp_path / "run"
    assert main(["front", "--problem-file", str(EQUATOR_FILE), "--grid", "2x2x2",
                 "--beta0", "0.1", "--eta", "1", "--retraction", kind,
                 "--out", str(out)]) == 64
    assert not out.exists()
    assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--out", str(out)]) == 0
    for name in ("trace.json", "manifest.json"):
        assert "retraction" not in json.loads((out / name).read_text())["config"]


def test_solve_iteration_cap_exit_code(tmp_path):
    rc = main(["solve", "--problem", "circle2d", "--x0", "-2,0.5",
               *CIRCLE_ARGS, "--max-iters", "3", "--out", str(tmp_path / "run")])
    assert rc == 2


def test_solve_deterministic_csv(tmp_path):
    args = ["solve", "--problem", "circle2d", "--x0", "-2,0.5", "--eta", "1",
            *CIRCLE_ARGS]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()


def test_front_writes_filtered_and_unfiltered(tmp_path):
    out = tmp_path / "front"
    rc = main(["front", "--problem", "circle2d", "--grid", "5x5", "--eta", "1",
               *CIRCLE_ARGS, "--out", str(out)])
    assert rc == 0
    for name in ("archive.csv", "archive.json", "front.csv", "front.json",
                 "manifest.json"):
        assert (out / name).exists()
    front = json.loads((out / "front.json").read_text())
    for entry in front["entries"]:
        assert abs(entry["x"][0] - 2.0) <= 1e-2


def test_front_makes_one_dominance_pass(tmp_path, monkeypatch):
    calls = []
    original = globalize.dominance_flags

    def counted(archive):
        calls.append(len(archive))
        return original(archive)

    monkeypatch.setattr(globalize, "dominance_flags", counted)
    out = tmp_path / "front"
    rc = main(["front", "--problem", "circle2d", "--grid", "5x5", "--eta", "1",
               *CIRCLE_ARGS, "--out", str(out)])
    assert rc == 0
    assert calls == [25]

    archive = json.loads((out / "archive.json").read_text())["entries"]
    with open(out / "archive.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = pairwise_dominance_flags([e["F"] for e in archive])
    assert [r["dominated"] for r in rows] == [
        "" if f is None else str(f).lower() for f in expected]
    assert "true" in {r["dominated"] for r in rows}
    with open(out / "front.csv", newline="") as fh:
        front_rows = list(csv.DictReader(fh))
    assert front_rows and {r["dominated"] for r in front_rows} == {"false"}


def _points(path, n):
    """The points x1..xn of the rows of a written archive or front CSV."""
    with open(path, newline="") as fh:
        return [tuple(float(r[f"x{i}"]) for i in range(1, n + 1)) for r in csv.DictReader(fh)]


def _converged_points(path, n, count):
    """``_points`` of an archive CSV of ``count`` rows, every one of them a
    converged run."""
    with open(path, newline="") as fh:
        assert [r["converged"] for r in csv.DictReader(fh)] == ["true"] * count
    return _points(path, n)


def _is_own_json_dump(path):
    """Whether the file holds what json.dump(indent=2, sort_keys=True)
    writes for the document it holds."""
    text = path.read_text()
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_equator_front_runs_four_generator_hulls(tmp_path, monkeypatch, capsys):
    # three objectives and the equator's cap x3 <= 0: every SP1 solve with
    # the cap active takes the min-norm point of four projected gradients,
    # which must meet its certificate at KKT_TOL as the docstring states
    counts = collections.Counter()
    original = direction.min_norm_in_hull

    def checked(generators):
        lam, p = original(generators)
        G = np.asarray(generators)
        counts[len(G)] += 1
        scale = max(1.0, float(np.max(np.einsum("ij,ij->i", G, G))))
        assert float((G @ p).min()) >= float(p @ p) - direction.KKT_TOL * scale
        return lam, p

    monkeypatch.setattr(direction, "min_norm_in_hull", checked)
    out = tmp_path / "equator"
    assert main(["front", "--problem-file", str(EQUATOR_FILE), "--grid", "2x2x2",
                 "--beta0", "0.1", "--eta", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert counts[4] > 0
    # the boundary steps land on the cap by false position: every point is
    # on the sphere and under the cap x3 <= 0
    assert all(abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0) <= 1e-9 and x3 <= 1e-9
               for x1, x2, x3 in _converged_points(out / "archive.csv", 3, 8))
    front_points = _points(out / "front.csv", 3)
    assert front_points
    # the Pareto set is the quarter of the equator with x1, x2 >= 0
    for x in front_points:
        theta = np.clip(np.arctan2(x[1], x[0]), 0.0, np.pi / 2)
        assert np.linalg.norm(np.subtract(x, (np.cos(theta), np.sin(theta), 0.0))) <= 1e-3


def _spy_everywhere(monkeypatch, module, name, make):
    """Replace ``module.name`` by ``make(original)`` in every modescent
    module that holds it, as the benchmark's probe wraps its layers."""
    original = getattr(module, name)
    spy = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "modescent" or mod_name.startswith("modescent.")) \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


def test_octant_front_reaches_the_traced_entries(tmp_path, monkeypatch, capsys):
    # the benchmark times its layers by wrapping module-level entries: each
    # feasible Armijo step must project through geometry.project, and each
    # SP1 direction must take its hull through direction.min_norm_in_hull,
    # not through the kernels behind them, or those spans read nothing
    calls = collections.Counter()
    steps, solves = [], []

    def counted(key, record=None, kind=None):
        # counts the calls of ``key``; with ``record``, also the calls each
        # one made inside it, by key
        def make(original):
            def spy(*args, **kwargs):
                calls[key] += 1
                before = calls.copy()
                out = original(*args, **kwargs)
                if record is not None and (kind is None or args[1] is kind):
                    record.append(calls - before)
                return out
            return spy
        return make

    _spy_everywhere(monkeypatch, geometry, "project", counted("project"))
    _spy_everywhere(monkeypatch, direction, "min_norm_in_hull", counted("hull"))
    _spy_everywhere(monkeypatch, linesearch, "feasible_armijo_step", counted("step", steps))
    _spy_everywhere(monkeypatch, direction, "solve_direction",
                    counted("solve", solves, direction.SubproblemKind.OBJECTIVE_ICS))
    out = tmp_path / "octant"
    assert main(["front", "--problem-file", str(OCTANT_FILE), "--grid", "2x2x2",
                 "--beta0", "0.1", "--eta", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    # every point is on the sphere and under the cap x3 <= 0.5, as the
    # one-row projection promises
    assert all(abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0) <= 1e-9 and x3 <= 0.5 + 1e-9
               for x1, x2, x3 in _converged_points(out / "archive.csv", 3, 8))
    assert steps and solves
    assert all(step["project"] >= 1 for step in steps)
    # one sphere row on every chart: one projected hull per direction
    assert all(solve["hull"] == 1 for solve in solves)


def test_front_json_is_its_own_json_dump(tmp_path):
    # the golden front5 invocation; its JSON files are byte for byte what
    # json.dump(indent=2, sort_keys=True) writes for the document they hold
    out = tmp_path / "front5"
    assert main(["front", "--problem", "circle2d", "--grid", "5x5", "--beta0", "0.1",
                 "--eta", "1", "--out", str(out)]) == 0
    assert _is_own_json_dump(out / "archive.json") and _is_own_json_dump(out / "front.json")


def test_front_single_cell_grid_uses_anchor(tmp_path):
    out = tmp_path / "front"
    rc = main(["front", "--problem", "circle2d", "--grid", "1x1",
               "--x0", "2,0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "archive.json").read_text())
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["iterations"] == 0


def test_front_anchor_with_larger_grid_is_usage_error(tmp_path):
    out = tmp_path / "front"
    assert main(["front", "--problem", "circle2d", "--grid", "5x5",
                 "--x0", "1,1", "--out", str(out)]) == 64
    assert not out.exists()


def test_front_missing_grid_is_usage_error():
    assert main(["front", "--problem", "circle2d"]) == 64


def test_front_bad_grid_spec():
    assert main(["front", "--problem", "circle2d", "--grid", "5"]) == 64
    assert main(["front", "--problem", "circle2d", "--grid", "ax b"]) == 64


def test_front_every_start_failed_is_runtime_error(tmp_path):
    # the inequality x1^2 + 1 <= 0 has no solutions; every start fails
    doc = {
        "n": 2, "m": 1,
        "objectives": [[[1, [1, 0]]]],
        "inequalities": [[[1, [2, 0]], [1, [0, 0]]]],
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "front"
    rc = main(["front", "--problem-file", str(path), "--grid", "2x2", "--out", str(out)])
    assert rc == 1
    archive = json.loads((out / "archive.json").read_text())
    assert len(archive["entries"]) == 4
    assert all(entry["error"] for entry in archive["entries"])


def test_audit_passes_on_analytic_problem():
    assert main(["audit", "--problem", "circle2d"]) == 0


def test_audit_fails_on_broken_jacobian():
    assert main(["audit", "--problem", "broken-jacobian"]) == 1


def test_audit_fails_a_chart_with_no_samples(capsys):
    # H = x1^3: the projection stalls from every box point, so the retraction
    # slope check has no sample to check and must not pass
    assert main(["audit", "--problem-file", str(CUBIC_FILE)]) == 1
    out = capsys.readouterr().out
    assert "retraction slope (project, chart H): 0 samples, residual 0.000e+00: FAIL" in out


def test_audit_fails_on_a_nan_residual(capsys):
    # max(0.0, nan) is 0.0: an audit accumulating through max passed here
    assert main(["audit", "--problem-file", str(STEEP_FILE)]) == 1
    assert "min-norm dual certificate: worst residual nan: FAIL" in capsys.readouterr().out


def test_audit_worst_keeps_nan_wherever_it_comes():
    assert _worst([]) == 0.0
    assert _worst([1e-3, -1.0]) == 1e-3
    for values in ([np.nan, 1.0], [1.0, np.nan], [1.0, np.nan, 2.0]):
        assert np.isnan(_worst(values))


def test_front_of_the_steep_problem_records_every_start_failed(tmp_path):
    out = tmp_path / "front"
    rc = main(["front", "--problem-file", str(STEEP_FILE), "--grid", "2x2", "--out", str(out)])
    assert rc == 1
    entries = json.loads((out / "archive.json").read_text())["entries"]
    assert len(entries) == 4
    assert not any(entry["converged"] for entry in entries)
    assert all(entry["error"] for entry in entries)


def test_front_of_the_steep_problem_names_the_overflow(tmp_path, capsys):
    out = tmp_path / "front"
    rc = main(["front", "--problem-file", str(STEEP_FILE), "--grid", "2x2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    entries = json.loads((out / "archive.json").read_text())["entries"]
    assert [entry["error"] for entry in entries] == [
        "ModescentError: direction subproblem SP1 overflowed: its value alpha is nan, "
        "not finite"] * 4


def test_front_of_the_steep_sphere_names_the_overflow(tmp_path, capsys):
    # half the starts overflow in the projected generators, the others in
    # the two-generator form; neither escapes the multistart as a traceback
    out = tmp_path / "front"
    rc = main(["front", "--problem-file", str(STEEP_SPHERE_FILE), "--grid", "2x2x2",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == ""
    errors = [entry["error"] for entry in
              json.loads((out / "archive.json").read_text())["entries"]]
    assert sorted(errors) == [
        "ModescentError: direction subproblem SP1 overflowed: its projected "
        "generators are not finite"] * 4 + [
        "ModescentError: direction subproblem SP1 overflowed: its value alpha is nan, "
        "not finite"] * 4


def test_front_and_audit_of_four_steep_objectives_name_the_overflow(tmp_path, capsys):
    # the hull's edges overflow: its face gets NaN weights, where lstsq
    # raised LinAlgError out of the multistart and the audit
    out = tmp_path / "front"
    rc = main(["front", "--problem-file", str(STEEP4_FILE), "--grid", "2x2", "--out", str(out)])
    assert main(["audit", "--problem-file", str(STEEP4_FILE)]) == 1
    assert rc == 1
    errors = [entry["error"] for entry in
              json.loads((out / "archive.json").read_text())["entries"]]
    assert errors == ["ModescentError: direction subproblem SP1 overflowed: its value alpha "
                      "is nan, not finite"] * 4
    captured = capsys.readouterr()
    assert "min-norm dual certificate: worst residual nan: FAIL" in captured.out
    assert captured.err == ""


def test_front_and_audit_of_four_steep_objectives_warn_nothing(tmp_path, capsys):
    # the face solve's overflow is named once, from the value alpha, without
    # a numpy RuntimeWarning on stderr as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["front", "--problem-file", str(STEEP4_FILE), "--grid", "3x3",
                     "--out", str(tmp_path / "front")]) == 1
        assert main(["audit", "--problem-file", str(STEEP4_FILE)]) == 1
    assert capsys.readouterr().err == ""


def test_audit_of_a_check_that_raises_fails_without_a_traceback(capsys):
    # fd_audit and evaluate raise EvaluationError at box samples: each such
    # check reports FAIL with the error, and the retraction check still runs
    assert main(["audit", "--problem-file", str(HUGE_POWER_FILE)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = captured.out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "[huge-power3d] derivative audit", "[huge-power3d] retraction slope (project, chart H)",
        "[huge-power3d] retraction slope (project, chart (1,))",
        "[huge-power3d] min-norm dual certificate"]
    assert lines[0].startswith("[huge-power3d] derivative audit: error: non-finite value in "
                               "component 'DF'") and lines[0].endswith(": FAIL")
    assert lines[1].endswith(": PASS") and lines[2].endswith(": PASS")
    assert lines[3].startswith("[huge-power3d] min-norm dual certificate: error: non-finite "
                               "value in component 'F'") and lines[3].endswith(": FAIL")


def test_front_with_a_raising_map_fails_only_when_every_start_failed(tmp_path, monkeypatch,
                                                                      capsys):
    # F raises where x2 > 2.9: the starts there fail by name, the others
    # converge, and the front exits 1 only where no start is left
    circle = md.registry_get("circle2d")
    top = dataclasses.replace(circle, name="top", F=lambda x: 1 / 0 if x[1] > 2.9 else circle.F(x))
    monkeypatch.setitem(md.problems._REGISTRY, "top", lambda: top)
    assert main(["front", "--problem", "top", "--grid", "2x2", "--out", str(tmp_path)]) == 0
    entries = json.loads((tmp_path / "archive.json").read_text())["entries"]
    assert [e["converged"] for e in entries] == [True, False, True, False]
    assert all(e["error"].startswith("MapError: component 'F' raised ZeroDivisionError")
               for e in entries[1::2])
    assert main(["front", "--problem", "top", "--grid", "1x1", "--x0", "2,3",
                 "--out", str(tmp_path / "one")]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_manifest_outputs_do_not_depend_on_the_out_path(tmp_path):
    shallow, deep = tmp_path / "a", tmp_path / "b" / "c" / "d"
    for out in (shallow, deep):
        assert main(["front", "--problem", "circle2d", "--grid", "2x2",
                     "--out", str(out)]) == 0
    outputs = [json.loads((out / "manifest.json").read_text())["outputs"]
               for out in (shallow, deep)]
    assert outputs[0] == outputs[1] == ["archive.csv", "archive.json",
                                        "front.csv", "front.json"]


def test_infinite_beta0_is_usage_error(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "circle2d", "--x0=-2,0.5", "--beta0", "inf",
                 "--out", str(out)]) == 64
    assert not out.exists()


def test_audit_passes_on_four_generator_hulls(capsys):
    # equator3d has three objectives and one inequality, so the dual
    # certificate is checked, at KKT_TOL, on hulls of four generators
    assert main(["audit", "--problem-file", str(EQUATOR_FILE)]) == 0
    assert capsys.readouterr().err == ""


def test_audit_problem_and_problem_file_is_usage_error():
    assert main(["audit", "--problem", "circle2d",
                 "--problem-file", str(OCTANT_FILE)]) == 64


def test_audit_all_registered_by_default(capsys):
    assert main(["audit"]) == 0
    assert capsys.readouterr().err == ""


def test_problem_file_flow(tmp_path):
    doc = {
        "name": "parabola",
        "n": 2,
        "m": 2,
        "objectives": [
            [[1, [2, 0]], [1, [0, 2]]],
            [[1, [2, 0]], [-2, [1, 0]], [1, [0, 0]], [1, [0, 2]]],
        ],
    }
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    rc = main(["solve", "--problem-file", str(path), "--x0", "3,2",
               "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "trace.json").read_text())
    # Pareto set of the two parabolas is the segment [0,1] x {0}
    assert -1e-4 <= result["final_x"][0] <= 1.0 + 1e-4
    assert abs(result["final_x"][1]) <= 1e-3


def test_problem_file_missing(tmp_path):
    assert main(["solve", "--problem-file", str(tmp_path / "none.json"),
                 "--x0", "0,0"]) == 64


MALFORMED_FILES = {
    "infinite-exponent": ('{"n": 2, "m": 1, "objectives": [[[1, [Infinity, 0]]]]}',
                          "objectives[0][0]: exponent"),
    "number-as-exponents": ('{"n": 2, "m": 1, "objectives": [[[1, 2]]]}',
                            "objectives[0][0]: exponent"),
    "objectives-not-a-list": ('{"n": 2, "m": 1, "objectives": 5}', "objectives:"),
    "top-level-array": ('[{"n": 2, "m": 1, "objectives": [[[1, [1, 0]]]]}]', "JSON object"),
    "fractional-n": ('{"n": 2.5, "m": 1, "objectives": [[[1, [2, 0]], [1, [0, 2]]]]}', "n:"),
    "nan-coefficient": ('{"n": 2, "m": 1, "objectives": [[[NaN, [2, 0]], [1, [0, 2]]]]}',
                        "objectives[0][0]: coefficient"),
    "name-not-a-string": ('{"n": 2, "m": 1, "name": ["a"], "objectives": [[[1, [1, 0]]]]}',
                          "name: must be a string"),
}


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_problem_file_is_usage_error(tmp_path, capsys, command, case):
    text, location = MALFORMED_FILES[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    extra = ["--x0", "1,1", "--out", str(tmp_path / "run")] if command == "solve" else []
    assert main([command, "--problem-file", str(path), *extra]) == 64
    assert location in capsys.readouterr().err


def test_front_of_a_coefficient_that_overflows_is_a_usage_error(tmp_path, capsys):
    # refused at load, by the monomial, with no overflow warning: under
    # pytest's filterwarnings = error the warning would escape main
    rc = main(["front", "--problem-file", str(HUGE_COEFFICIENT_FILE), "--grid", "2x2x2",
               "--out", str(tmp_path / "front")])
    assert rc == 64
    assert "objectives[0][0]: coefficient 1e+308 times exponent 2 of x1" in capsys.readouterr().err
    assert not (tmp_path / "front").exists()


def test_solve_of_a_square_that_overflows_names_the_map(tmp_path, capsys):
    # one line on stderr, the MapError's, and no numpy warning
    rc = main(["solve", "--problem", "circle2d", "--x0=1e200,0", "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: component 'G' raised OverflowError")
    assert err.count("\n") == 1


def test_solve_runtime_error_exit_code(tmp_path):
    # the equality x1^2 + 1 = 0 has no solutions; the feasibility solve fails
    doc = {
        "n": 2, "m": 1,
        "objectives": [[[1, [1, 0]]]],
        "equalities": [[[1, [2, 0]], [1, [0, 0]]]],
    }
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", "--problem-file", str(path), "--x0", "1,1",
               "--out", str(tmp_path / "run")])
    assert rc == 1


def _sphere3d_front(out):
    # sphere3d's registry H declares its sphere, so projections take the
    # closed form; the grid holds the sphere's centre, where it has no
    # point and the nudged Newton retries rescue the start
    assert all(abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0) <= 1e-9
               for x1, x2, x3 in _converged_points(out / "archive.csv", 3, 27))


def _paper_circle_front(out):
    # SP2 steps that pin no inequality land on the circle through the
    # cached free chart: every point is outside the unit disk, and every
    # front point within 1e-3 of the critical segment x1 = 2, |x2| <= 1
    assert all(1.0 - x1 * x1 - x2 * x2 <= 1e-9
               for x1, x2 in _converged_points(out / "archive.csv", 2, 36))
    front_points = _points(out / "front.csv", 2)
    assert front_points
    assert all(math.hypot(x1 - 2.0, max(abs(x2) - 1.0, 0.0)) <= 1e-3 for x1, x2 in front_points)


def _default_circle_front(out):
    # the front's entries are written as not dominated, and the archive
    # JSON files are written without json.dump, in its bytes
    with open(out / "front.csv", newline="") as fh:
        flags = [r["dominated"] for r in csv.DictReader(fh)]
    assert flags and set(flags) == {"false"}
    assert _is_own_json_dump(out / "archive.json") and _is_own_json_dump(out / "front.json")


def _huge_power_front(out):
    # x1^1000000 overflows in the monomial table the sphere equality
    # shares, and still every start converges
    entries = json.loads((out / "archive.json").read_text())["entries"]
    assert [e["converged"] for e in entries] == [True] * 8


def _far_disk_front(out):
    # starts up to 10 radii from the disk of centre (0.75, 1.25) and radius
    # 0.5 are projected onto it in closed form, so all of them converge
    assert all(x1 * x1 + x2 * x2 - 1.5 * x1 - 2.5 * x2 + 1.875 <= 1e-9
               for x1, x2 in _converged_points(out / "archive.csv", 2, 64))


def _lens_front(out):
    # feasible starts pin one row, pin both, and drop one again by its
    # distance multiplier's sign; all of them converge inside both disks
    assert all(x1 * x1 + x2 * x2 - 1.0 <= 1e-9
               and 20.0 * x1 * x1 + 20.0 * x2 * x2 - 72.0 * x1 + 44.8 <= 1e-9
               for x1, x2 in _converged_points(out / "archive.csv", 2, 36))


OUT, OUT_BELOW_A_FILE = "{tmp}/out", "{tmp}/file/sub"


def _case(name, argv, code, stderr="", stdout=None, check=None):
    """One command line: its exit code, a regex that its whole stderr
    matches, one that its whole stdout matches (None: any), and a check of
    the files it writes to OUT."""
    return pytest.param(argv, code, stderr, stdout, check, id=name)


COMMAND_LINES = [
    _case("audit-octant3d", ["audit", "--problem-file", OCTANT_FILE], 0),
    _case("solve-circle2d", ["solve", "--problem", "circle2d", "--x0=-2,0.5", "--out", OUT], 0),
    _case("solve-steep2d", ["solve", "--problem-file", STEEP_FILE, "--x0=0.5,0.5", "--out", OUT],
          1, r"error: direction subproblem SP1 overflowed[^\n]*\n", ""),
    _case("front-circle2d-paper", ["front", "--problem", "circle2d", "--grid", "6x6",
                                   "--beta0", "0.1", "--eta", "1", "--out", OUT],
          0, check=_paper_circle_front),
    _case("front-circle2d-default", ["front", "--problem", "circle2d", "--grid", "4x4",
                                     "--out", OUT], 0, check=_default_circle_front),
    _case("front-huge-power3d", ["front", "--problem-file", HUGE_POWER_FILE, "--grid", "2x2x2",
                                 "--out", OUT], 0, check=_huge_power_front),
    _case("front-far-disk2d", ["front", "--problem-file", FAR_DISK_FILE, "--grid", "8x8",
                               "--out", OUT], 0, check=_far_disk_front),
    _case("front-lens2d", ["front", "--problem-file", LENS_FILE, "--grid", "6x6", "--out", OUT],
          0, check=_lens_front),
    _case("front-sphere3d", ["front", "--problem", "sphere3d", "--grid", "3x3x3",
                             "--beta0", "0.1", "--out", OUT], 0, check=_sphere3d_front),
    # an --out that cannot be made is one error line naming it, before any solve
    _case("solve-out-below-a-file", ["solve", "--problem", "circle2d", "--x0=-2,0.5",
                                     "--out", OUT_BELOW_A_FILE], 1, r"error: [^\n]*/file/sub'\n", ""),
    _case("front-out-below-a-file", ["front", "--problem", "circle2d", "--grid", "2x2",
                                     "--out", OUT_BELOW_A_FILE], 1, r"error: [^\n]*/file/sub'\n", ""),
]


@pytest.mark.parametrize("argv, code, stderr, stdout, check", COMMAND_LINES)
def test_command_line(tmp_path, capsys, argv, code, stderr, stdout, check):
    # pyproject's filterwarnings = error makes any warning a command issues
    # an exception out of main, as python -W error makes it a traceback
    (tmp_path / "file").write_text("")
    assert main([str(a).format(tmp=tmp_path) for a in argv]) == code
    captured = capsys.readouterr()
    assert re.fullmatch(stderr, captured.err), captured.err
    assert stdout is None or re.fullmatch(stdout, captured.out), captured.out
    if check is not None:
        check(tmp_path / "out")


def test_front_makes_its_out_before_any_start(tmp_path, monkeypatch, capsys):
    # an --out that cannot be made costs no solve
    monkeypatch.setattr(cli, "multistart", lambda *args: pytest.fail("a start ran"))
    (tmp_path / "file").write_text("")
    assert main(["front", "--problem", "circle2d", "--grid", "2x2",
                 "--out", str(tmp_path / "file" / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_makes_its_out_before_the_solve(tmp_path, monkeypatch, capsys):
    # an --out that cannot be made costs no solve
    monkeypatch.setattr(cli, "solve_constrained", lambda *args: pytest.fail("the solve ran"))
    (tmp_path / "file").write_text("")
    assert main(["solve", "--problem", "circle2d", "--x0=-2,0.5",
                 "--out", str(tmp_path / "file" / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_console_entry_point():
    # the one check of the process itself: the module runs as a script,
    # under -W error, and its exit code is main's
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "modescent.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "solve" in proc.stdout and "front" in proc.stdout and "audit" in proc.stdout
