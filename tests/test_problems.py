import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modescent as md
from modescent.problems import _as_floats, _evaluate
from conftest import with_counted_maps
from oracles import central_diff_jacobian, registry_maps

DATA = Path(__file__).parent / "data"


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
    # the kernel behind evaluate takes F and G where the descent loop's
    # step computed them
    spec, calls = with_counted_maps(circle2d, ("F", "G"))
    x = np.array([-2.0, 0.5])
    given = _evaluate(spec, x, F_val=circle2d.F(x), G_val=circle2d.G(x))
    assert not calls
    computed = md.evaluate(circle2d, x)
    assert np.array_equal(given.F_val, computed.F_val)
    assert np.array_equal(given.G_val, computed.G_val)


@pytest.mark.parametrize("g, calls_dg", [
    (-1e-4, True), (0.5, True), (-1.0001e-4, False), (-2.0, False), (np.nan, False)])
def test_evaluate_with_a_tolerance_calls_dg_only_at_an_active_row(circle2d, g, calls_dg):
    # with the loop's tolerance epsilon the kernel calls DG only where a G
    # row is >= -epsilon (a NaN row is not); elsewhere DG_val is None
    spec, calls = with_counted_maps(circle2d, ("DG",))
    x = np.array([-2.0, 0.5])
    bundle = _evaluate(spec, x, None, np.array([g]), 1e-4)
    assert calls["DG"] == int(calls_dg)
    if calls_dg:
        assert np.array_equal(bundle.DG_val, md.evaluate(circle2d, x).DG_val)
    else:
        assert bundle.DG_val is None


def test_evaluate_with_a_tolerance_leaves_dg_out_without_inequalities(sphere3d):
    x = np.array([1.0, 0.0, 0.0])
    assert _evaluate(sphere3d, x, None, None, 1e-4).DG_val is None
    assert md.evaluate(sphere3d, x).DG_val.shape == (0, 3)


@pytest.mark.parametrize("component, bad", [("F", np.nan), ("F", -np.inf)])
def test_evaluate_rejects_nonfinite_given_values(circle2d, component, bad):
    # a handed-over F is checked like a computed one, since the Armijo test
    # lets -inf through; a handed-over G is taken unchecked by design
    x = np.array([-2.0, 0.5])
    given = {"F_val": circle2d.F(x), "G_val": circle2d.G(x)}
    given[f"{component}_val"][0] = bad
    with pytest.raises(md.EvaluationError) as err:
        _evaluate(circle2d, x, **given)
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


def test_fd_audit_keeps_a_nan_error():
    # F jumps from -1.7e308 to 1.7e308 across x1 = 0: the central difference
    # overflows to inf and its relative error is inf / inf = NaN, which
    # max(0.0, nan) would read as 0.0
    jump = md.ProblemSpec(
        name="jump", n=2, m=1,
        F=lambda x: np.array([1.7e308 if x[0] > 0 else -1.7e308]),
        DF=lambda x: np.zeros((1, 2)),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(md.fd_audit(jump, (0.0, 0.0), 1e-6))


def test_fd_audit_rejects_bad_step(circle2d):
    with pytest.raises(ValueError):
        md.fd_audit(circle2d, (0.0, 0.0), 0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(m_H=-1), "non-negative"),
    (dict(m_H=1, H=lambda x: np.array([x @ x - 1.0])), "H and DH must be supplied"),
], ids=["negative-count", "H-without-DH"])
def test_problem_spec_rejects_bad_constraint_maps(kwargs, message):
    with pytest.raises(ValueError, match=message):
        md.ProblemSpec(name="bad", n=2, m=1, F=lambda x: x[:1], DF=lambda x: np.eye(2)[:1],
                       **kwargs)


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


# ---------------------------------------------------------------------------
# the one coercion of map values: _as_floats and as_point


def _coerced(out, shape):
    return np.asarray(out, dtype=float).reshape(shape)


def test_conforming_arrays_pass_through_unchanged():
    out = np.array([1.0, -2.0])
    assert _as_floats("F", out, (2,)) is out
    J = np.arange(6.0).reshape(2, 3)
    assert _as_floats("DF", J, (2, 3)) is J
    assert md.problems.as_point(out, 2) is out


@pytest.mark.parametrize("out, shape", [
    (np.array([1.5, -2.25], dtype=np.float32), (2,)),
    (np.array([3, -4]), (2,)),
    ([0.1, 0.2], (2,)),
    (np.float64(0.7), (1,)),
    (np.array(0.7), (1,)),
    (np.array([[0.1, -0.3]]), (2,)),
    (np.array([0.1, -0.3], dtype=">f8"), (2,)),
    (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).T, (2, 3)),
    (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).T, (6,)),
    # a view, since np.matrix() itself warns that it is deprecated
    (np.array([[0.1, -0.3]]).view(np.matrix), (2,)),
], ids=["float32", "int", "list", "scalar", "0-d", "row", "big-endian", "transposed",
        "transposed-flat", "matrix"])
def test_other_map_values_are_coerced_as_before(out, shape):
    # every value that is not a base-class float array of the shape is
    # np.asarray(out, dtype=float).reshape(shape), bit for bit
    got = _as_floats("F", out, shape)
    want = _coerced(out, shape)
    assert type(got) is np.ndarray and got.dtype == np.dtype(float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if len(shape) == 1:
        point = md.problems.as_point(out, shape[0])
        assert type(point) is np.ndarray and point.tobytes() == want.tobytes()


def test_a_map_value_of_the_wrong_size_names_the_map():
    with pytest.raises(md.MapShapeError) as err:
        _as_floats("DG", np.zeros((2, 2)), (1, 2))
    assert (err.value.component, err.value.shape, err.value.expected) == ("DG", (2, 2), (1, 2))
    assert str(err.value) == "component 'DG' returned shape (2, 2), expected (1, 2)"
    assert isinstance(err.value, md.ModescentError)
    # a start of the wrong dimension is the caller's input, not a map's
    with pytest.raises(ValueError, match="expected a point of dimension 2"):
        md.problems.as_point([1.0, 2.0, 3.0], 2)


@pytest.mark.parametrize("out", [[1.0, [2.0, 3.0]], ["a", "b"], {"a": 1}],
                         ids=["ragged", "strings", "dict"])
def test_a_map_value_that_is_not_floats_names_the_map(out):
    # numpy raises ValueError (ragged, strings) or TypeError (dict) here,
    # which no start's failure record would catch
    with pytest.raises(md.MapShapeError) as err:
        _as_floats("F", out, (2,))
    assert (err.value.component, err.value.shape, err.value.expected) == ("F", None, (2,))
    assert str(err.value) == ("component 'F' returned a value that is not an array of "
                              "floats, expected (2,)")


@pytest.mark.parametrize("component", ["F", "G", "DF", "DG"])
def test_evaluate_names_a_map_of_the_wrong_size(circle2d, component):
    wrong = {"F": lambda x: np.zeros(3), "G": lambda x: np.zeros(2),
             "DF": lambda x: np.zeros((2, 3)), "DG": lambda x: np.zeros(3)}[component]
    p = dataclasses.replace(circle2d, **{component: wrong})
    with pytest.raises(md.MapShapeError) as err:
        md.evaluate(p, [2.0, 0.0])
    assert err.value.component == component


# ---------------------------------------------------------------------------
# the registry maps, in Python floats


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["circle2d", "sphere3d"]),
       st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3))
@example("circle2d", [0.0, -0.0, 0.0])
@example("circle2d", [-0.0, 0.0, 0.0])
@example("sphere3d", [-0.0, -0.0, -0.0])
@example("sphere3d", [1e150, -1e150, 1e150])
# one square at a time where d * d and pow(d, 2) differ in the last bit,
# at points where no other term rounds the difference away: x1^2 and x2^2
# in G, (x1 - 2)^2, (x2 - 1)^2 and (x2 + 1)^2 in F, each x_i^2 in H
@example("circle2d", [1.2912141186208117, 0.0, 0.0])
@example("circle2d", [0.0, 1.2912141186208117, 0.0])
@example("circle2d", [2.60540469980098, 1.0, 0.0])
@example("circle2d", [2.0, 1.6457183044504486, 0.0])
@example("circle2d", [2.0, -0.13004595381925427, 0.0])
@example("sphere3d", [1.2912141186208117, 0.0, 0.0])
@example("sphere3d", [0.0, 1.2912141186208117, 0.0])
@example("sphere3d", [0.0, 0.0, 1.2912141186208117])
def test_registry_maps_match_their_numpy_scalar_spelling(name, coordinates):
    # Python's float ** and numpy's scalar ** both call libm's pow, so the
    # maps that read their point as Python floats return the same bytes as
    # the numpy-scalar spelling, signed zeros included, up to |x_i| = 1e150
    # (squares up to 1e300, no overflow)
    problem = md.registry_get(name)
    x = np.array(coordinates[:problem.n])
    for component, reference in registry_maps(name).items():
        got, want = getattr(problem, component)(x), reference(x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), component
        assert got.tobytes() == want.tobytes(), component


def test_a_malformed_file_is_refused_before_a_coefficient_overflows():
    # 1e308 x1^2: its Jacobian entry 2e308 x1 has no finite coefficient, so
    # the file is refused by the monomial, with no overflow warning (which
    # pytest's filterwarnings = error would raise instead of ValueError)
    with pytest.raises(ValueError) as err:
        md.load_problem(DATA / "huge_coefficient3d.json")
    assert str(err.value) == ("objectives[0][0]: coefficient 1e+308 times exponent 2 of x1 "
                              "overflows in the Jacobian")


# ---------------------------------------------------------------------------
# the loop bundle's active set


def _g_rows_problem(k):
    """F = (x1) in the plane with k inequality rows, whose G the tests hand
    over to ``_evaluate`` and whose DG is finite."""
    return md.ProblemSpec(name="rows", n=2, m=1, F=lambda x: np.array([x[0]]),
                          DF=lambda x: np.array([[1.0, 0.0]]), m_G=k,
                          G=lambda x: np.zeros(k), DG=lambda x: np.ones((k, 2)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1e-9, 1e-4]), st.floats(0.0, 10.0)), st.data())
def test_the_loop_bundle_keeps_the_active_set_of_its_scan(epsilon, data):
    # the scan that decides on DG finds the rows >= -epsilon, rows at
    # exactly -epsilon and both zeros included and NaN rows left out, and
    # the bundle keeps them with the tolerance: the same tuple as
    # active_set, and as numpy's comparison of the rows
    row = st.one_of(st.just(-epsilon), st.sampled_from([0.0, -0.0, math.nan]),
                    st.floats(-2.0 * epsilon - 1.0, 1.0))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    G = np.array(rows)
    bundle = _evaluate(_g_rows_problem(len(rows)), np.zeros(2), None, G, epsilon)
    assert bundle.active == md.active_set(bundle, epsilon)
    assert bundle.active == tuple((np.flatnonzero(G >= -epsilon) + 1).tolist())
    assert bundle.active_epsilon == epsilon
    assert (bundle.DG_val is None) == (not bundle.active)


def test_evaluate_keeps_no_active_set():
    # the checked entry scans nothing: every bundle it builds holds DG
    bundle = md.evaluate(_g_rows_problem(2), (0.0, 0.0))
    assert (bundle.active, bundle.active_epsilon) == (None, None)
    assert bundle.DG_val.shape == (2, 2)
