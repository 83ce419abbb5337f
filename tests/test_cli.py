import json
import subprocess
import sys

import numpy as np

import modescent as md
from modescent.cli import main

from oracles import dist_to_critical_set

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
    for path in manifest["outputs"]:
        assert (tmp_path / "run" / path.split("/")[-1]).exists()


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


def test_gamma_option_is_gone(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--gamma", "0.5",
                 "--out", str(out)]) == 64
    assert main(["solve", "--problem", "circle2d", "--x0", "2,0", "--out", str(out)]) == 0
    for name in ("trace.json", "manifest.json"):
        config = json.loads((out / name).read_text())["config"]
        assert "gamma" not in config
        assert config["eta"] == "inf"


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


def test_front_single_cell_grid_uses_anchor(tmp_path):
    out = tmp_path / "front"
    rc = main(["front", "--problem", "circle2d", "--grid", "1x1",
               "--x0", "2,0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "archive.json").read_text())
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["iterations"] == 0


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


def test_audit_all_registered_by_default():
    assert main(["audit"]) == 0


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "modescent.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "front" in proc.stdout and "audit" in proc.stdout
