import json
from pathlib import Path

import numpy as np
import pytest

import modescent as md
from conftest import with_counted_maps
from oracles import central_diff_jacobian


def test_evaluate_circle_values(circle2d):
    b = md.evaluate(circle2d, (1.0, 0.0))
    assert b.G_val == pytest.approx([0.0], abs=1e-15)

    b = md.evaluate(circle2d, (2.0, 1.0))
    assert b.F_val == pytest.approx([0.0, 4.0], abs=1e-15)


def test_evaluate_circle_jacobian_matches_hand_and_fd(circle2d):
    x = np.array([-2.0, 0.5])
    b = md.evaluate(circle2d, x)
    assert b.DF_val == pytest.approx(np.array([[-8.0, -1.0], [-8.0, 3.0]]), abs=1e-12)
    fd = central_diff_jacobian(circle2d.F, x, rows=2)
    assert b.DF_val == pytest.approx(fd, abs=1e-7)


def test_evaluate_is_deterministic(circle2d, rng):
    for _ in range(5):
        x = rng.uniform(-3, 3, size=2)
        b1 = md.evaluate(circle2d, x)
        b2 = md.evaluate(circle2d, x)
        assert np.array_equal(b1.F_val, b2.F_val)
        assert np.array_equal(b1.DF_val, b2.DF_val)
        assert np.array_equal(b1.G_val, b2.G_val)
        assert np.array_equal(b1.DG_val, b2.DG_val)


def test_evaluate_flags_nonfinite_component():
    bad = md.ProblemSpec(
        name="bad", n=1, m=1,
        F=lambda x: np.array([np.inf]),
        DF=lambda x: np.array([[1.0]]),
    )
    with pytest.raises(md.EvaluationError) as err:
        md.evaluate(bad, [0.0])
    assert err.value.component == "F"


def test_evaluate_uses_given_values_without_calling_the_maps(circle2d):
    spec, calls = with_counted_maps(circle2d, ("F", "G"))
    x = np.array([-2.0, 0.5])
    given = md.evaluate(spec, x, F_val=circle2d.F(x), G_val=circle2d.G(x))
    assert not calls
    computed = md.evaluate(circle2d, x)
    assert np.array_equal(given.F_val, computed.F_val)
    assert np.array_equal(given.G_val, computed.G_val)


@pytest.mark.parametrize("component, bad", [("F", np.nan), ("F", -np.inf), ("G", np.inf)])
def test_evaluate_rejects_nonfinite_given_values(circle2d, component, bad):
    x = np.array([-2.0, 0.5])
    given = {"F_val": circle2d.F(x), "G_val": circle2d.G(x)}
    given[f"{component}_val"][0] = bad
    with pytest.raises(md.EvaluationError) as err:
        md.evaluate(circle2d, x, **given)
    assert err.value.component == component


def test_evaluate_names_the_first_nonfinite_component():
    # DH and DG are both non-finite; the error names DH, which comes first
    # in the order F, G, DF, DH, DG
    p = md.ProblemSpec(name="bad-jacobians", n=2, m=1, F=lambda x: np.array([x[0]]),
                       DF=lambda x: np.array([[1.0, 0.0]]),
                       m_H=1, H=lambda x: np.array([x[1]]), DH=lambda x: np.array([[0.0, np.nan]]),
                       m_G=1, G=lambda x: np.array([-1.0]), DG=lambda x: np.array([[np.inf, 0.0]]))
    with pytest.raises(md.EvaluationError) as err:
        md.evaluate(p, [0.0, 0.0])
    assert err.value.component == "DH"


def test_evaluate_calls_no_map_after_a_nonfinite_component():
    # F is NaN; DF would raise an ordinary exception, so evaluate must stop
    # at F and raise EvaluationError before it calls DF
    def broken(x):
        raise ZeroDivisionError

    p = md.ProblemSpec(name="nan-objective", n=2, m=1, F=lambda x: np.array([np.nan]), DF=broken)
    with pytest.raises(md.EvaluationError) as err:
        md.evaluate(p, [0.0, 0.0])
    assert err.value.component == "F"


def test_evaluate_rejects_wrong_dimension(circle2d):
    with pytest.raises(ValueError):
        md.evaluate(circle2d, [1.0, 2.0, 3.0])


def test_fd_audit_quadratics(circle2d):
    assert md.fd_audit(circle2d, (-2.0, 0.5), 1e-6) <= 1e-6


def test_fd_audit_affine_exact_for_dyadic_data():
    c = np.array([0.5, 0.25])
    lin = md.ProblemSpec(
        name="lin", n=2, m=1,
        F=lambda x: np.array([c @ x]),
        DF=lambda x: c.reshape(1, 2).copy(),
    )
    # dyadic point and power-of-two step keep the differences exact in binary
    assert md.fd_audit(lin, (0.5, -0.25), 2.0 ** -20) <= 1e-10


def test_fd_audit_flags_wrong_jacobian():
    broken = md.registry_get("broken-jacobian")
    assert md.fd_audit(broken, (-2.0, 0.5), 1e-6) >= 1e-1


def test_fd_audit_rejects_bad_step(circle2d):
    with pytest.raises(ValueError):
        md.fd_audit(circle2d, (0.0, 0.0), 0.0)


def test_registry_contents():
    assert md.registry_names() == ["circle2d", "sphere3d"]
    c = md.registry_get("circle2d")
    assert (c.n, c.m, c.m_H, c.m_G) == (2, 2, 0, 1)
    s = md.registry_get("sphere3d")
    assert (s.n, s.m, s.m_H, s.m_G) == (3, 1, 1, 0)


def test_registry_unknown_name_lists_available():
    with pytest.raises(md.UnknownProblemError) as err:
        md.registry_get("nosuch")
    assert "circle2d" in str(err.value) and "sphere3d" in str(err.value)


def test_evaluate_thread_safe(circle2d):
    from concurrent.futures import ThreadPoolExecutor

    x = np.array([-1.7, 0.9])
    expected = md.evaluate(circle2d, x)
    with ThreadPoolExecutor(max_workers=8) as pool:
        bundles = list(pool.map(lambda _: md.evaluate(circle2d, x), range(64)))
    for b in bundles:
        assert np.array_equal(b.F_val, expected.F_val)
        assert np.array_equal(b.DF_val, expected.DF_val)


def test_evaluate_thread_safe_on_a_problem_file(rng):
    # the maps of a file share a one-entry memo of their monomials; threads
    # that evaluate different points must each get their own point's bytes
    from concurrent.futures import ThreadPoolExecutor

    spec = md.load_problem(Path(__file__).parent / "data" / "octant3d.json")
    points = rng.uniform(-1.5, 1.5, size=(64, 3))
    fields = ("F_val", "G_val", "DF_val", "DH_val", "DG_val")

    def digest(x):
        bundle = md.evaluate(spec, x)
        return [getattr(bundle, f).tobytes() for f in fields]

    expected = [digest(x) for x in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(digest, points))
    assert got == expected


def test_fd_audit_all_registered_at_random_box_points(rng):
    for name in md.registry_names():
        problem = md.registry_get(name)
        lo = np.array([b[0] for b in problem.box])
        hi = np.array([b[1] for b in problem.box])
        for _ in range(100):
            x = lo + rng.random(problem.n) * (hi - lo)
            assert md.fd_audit(problem, x, 1e-6) <= 1e-6


CIRCLE_JSON = {
    "name": "circle2d-json",
    "n": 2,
    "m": 2,
    "objectives": [
        [[1, [2, 0]], [-4, [1, 0]], [1, [0, 2]], [-2, [0, 1]], [5, [0, 0]]],
        [[1, [2, 0]], [-4, [1, 0]], [1, [0, 2]], [2, [0, 1]], [5, [0, 0]]],
    ],
    "inequalities": [
        [[-1, [2, 0]], [-1, [0, 2]], [1, [0, 0]]],
    ],
}


def test_load_problem_matches_registered_circle(circle2d, rng, tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(CIRCLE_JSON))
    loaded = md.load_problem(path)
    assert loaded.name == "circle2d-json"
    assert (loaded.n, loaded.m, loaded.m_H, loaded.m_G) == (2, 2, 0, 1)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        ref = md.evaluate(circle2d, x)
        got = md.evaluate(loaded, x)
        assert got.F_val == pytest.approx(ref.F_val, abs=1e-12)
        assert got.DF_val == pytest.approx(ref.DF_val, abs=1e-12)
        assert got.G_val == pytest.approx(ref.G_val, abs=1e-12)
        assert got.DG_val == pytest.approx(ref.DG_val, abs=1e-12)
    assert md.fd_audit(loaded, (0.7, -1.3), 1e-6) <= 1e-6


def test_load_problem_validates_exponents():
    doc = {"n": 2, "m": 1, "objectives": [[[1.0, [1]]]]}
    with pytest.raises(ValueError):
        md.load_problem(doc)


@pytest.mark.parametrize("change, location", [
    ({"n": None}, "n: missing"),
    ({"m": True}, "m: must be a positive integer"),
    ({"n": 0}, "n: must be a positive integer"),
    ({"objectives": [[[1.0, [10 ** 400, 0]]]]}, "objectives[0][0]: exponent"),
    ({"objectives": [[[1.0, [-1, 0]]]]}, "objectives[0][0]: exponent"),
    ({"objectives": [[[10 ** 400, [1, 0]]]]}, "objectives[0][0]: coefficient"),
    ({"objectives": [5]}, "objectives[0]: a polynomial"),
    ({"equalities": [[[1.0, [1, 0]]], [[1.0]]]}, "equalities[1][0]: each monomial"),
    ({"inequalities": {"a": 1}}, "inequalities: must be a list"),
    ({"box": [[-1, 1], [0, float("nan")]]}, "box:"),
])
def test_load_problem_names_the_malformed_field(change, location):
    doc = {"n": 2, "m": 1, "objectives": [[[1.0, [1, 0]]]], **change}
    doc = {key: value for key, value in doc.items() if value is not None}
    with pytest.raises(ValueError) as err:
        md.load_problem(doc)
    assert str(err.value).startswith(location)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        md.ProblemSpec(name="x", n=0, m=1, F=lambda x: x, DF=lambda x: x)
    with pytest.raises(ValueError):
        md.ProblemSpec(name="x", n=1, m=1, F=lambda x: x, DF=lambda x: x, m_G=1)
    for box in (((0.0, float("nan")),), ((-float("inf"), 1.0),), ((1.0, 1.0),)):
        with pytest.raises(ValueError):
            md.ProblemSpec(name="x", n=1, m=1, F=lambda x: x, DF=lambda x: x, box=box)
