import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import modescent as md
from modescent import direction
from modescent.direction import KKT_TOL, SubproblemKind, _min_norm_faces
from modescent.problems import _evaluate

from conftest import make_box_problem, make_vertex_problem
from oracles import grid_min_norm, origin_in_hull, support_min_norm

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# active_set


def test_active_set_on_circle_boundary(circle2d):
    b = md.evaluate(circle2d, (1.0, 0.0))
    assert md.active_set(b, 1e-4) == (1,)


def test_active_set_far_from_boundary(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    assert md.active_set(b, 1e-4) == ()


def test_active_set_threshold():
    p = md.ProblemSpec(
        name="lin", n=1, m=1,
        F=lambda x: np.array([x[0]]), DF=lambda x: np.array([[1.0]]),
        m_G=1, G=lambda x: np.array([x[0]]), DG=lambda x: np.array([[1.0]]),
    )
    b = md.evaluate(p, [-5e-5])
    assert md.active_set(b, 1e-4) == (1,)
    assert md.active_set(b, 1e-6) == ()
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            md.active_set(b, bad)


@pytest.mark.parametrize("epsilon, active, scans", [
    (1e-2, (1, 2), 0), (1e-4, (2,), 1), (0.0, (), 1)])
@pytest.mark.parametrize("kind", list(SubproblemKind))
def test_solve_direction_scans_again_only_at_another_tolerance(monkeypatch, epsilon, active,
                                                              scans, kind):
    # a loop bundle scanned at 1e-2 holds both rows of the box (G = -1e-3
    # and -1e-6); asked for that tolerance solve_direction takes them from
    # the bundle, asked for another it calls active_set, and either way it
    # solves the subproblem of the bundle that evaluate builds
    calls = []
    monkeypatch.setattr(direction, "active_set",
                        lambda b, eps: calls.append(eps) or md.active_set(b, eps))
    problem, x = make_box_problem(), np.array([1.0 - 1e-6, 1e-3])
    bundle = _evaluate(problem, x, None, None, 1e-2)
    assert bundle.active == (1, 2)
    d = md.solve_direction(bundle, kind, epsilon)
    assert d.active_set == active
    assert calls == [epsilon] * scans
    want = md.solve_direction(md.evaluate(problem, x), kind, epsilon)
    assert d.v.tobytes() == want.v.tobytes() and d.alpha == want.alpha


# ---------------------------------------------------------------------------
# tangent_basis


def test_tangent_basis_single_row():
    B = md.tangent_basis(np.array([[2.0, 0.0]]))
    assert B.shape == (2, 1)
    assert abs(B[:, 0] @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_tangent_basis_no_rows_is_identity():
    assert np.array_equal(md.tangent_basis(np.zeros((0, 2))), np.eye(2))


def test_tangent_basis_two_rows():
    B = md.tangent_basis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert B.shape == (3, 1)
    assert abs(B[:, 0] @ np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_tangent_basis_properties(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n))
        A = rng.standard_normal((k, n))
        B = md.tangent_basis(A)
        assert B.shape == (n, n - k)
        assert B.T @ B == pytest.approx(np.eye(n - k), abs=1e-10)
        if k:
            assert np.max(np.abs(A @ B)) <= 1e-10


@pytest.mark.parametrize("row", [
    [-2.0, 1.0, 3.0],          # negative leading entry
    [0.0, 1.0, -2.0],          # zero leading entry
    [-0.0, 0.5, 0.5],
    [1e-200, -3e-200, 2e-200],
    [1e300, -1.5e300, 5e299],
    [1e300, 1e-200, -2.0],
    [3.0, -4.0],
    [-7.0],
])
def test_tangent_basis_one_row_householder(row):
    A = np.array([row])
    B = md.tangent_basis(A)
    n = A.shape[1]
    assert B.shape == (n, n - 1)
    assert np.max(np.abs(B.T @ B - np.eye(n - 1)), initial=0.0) <= 1e-15
    a = A[0] / np.max(np.abs(A))
    assert np.max(np.abs(a @ B), initial=0.0) <= 1e-15
    assert np.max(np.abs(B @ B.T - (np.eye(n) - np.outer(a, a) / (a @ a)))) <= 1e-15


@pytest.mark.parametrize("rows", [[[1.0, 2.0, np.nan]], [[1.0, 0.0, 0.0], [0.0, 1.0, np.nan]]],
                         ids=["one-row", "two-rows"])
def test_tangent_basis_rejects_nan_in_the_last_entry(rows):
    with pytest.raises(ValueError, match="non-finite"):
        md.tangent_basis(np.array(rows))


def test_tangent_basis_zero_row_is_rank_deficient():
    with pytest.raises(md.RankError):
        md.tangent_basis(np.zeros((1, 3)))


def test_tangent_basis_rank_deficiency():
    with pytest.raises(md.RankError):
        md.tangent_basis(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(md.RankError):
        md.tangent_basis(np.array([[1.0], [1.0]]))


# ---------------------------------------------------------------------------
# min_norm_in_hull


def _kkt_residual(G, lam, p):
    G = np.atleast_2d(np.asarray(G, float))
    scale = max(1.0, float(np.max(np.einsum("ij,ij->i", G, G))))
    dots = G @ p
    support = lam > 1e-8
    resid = max(
        float(p @ p - dots.min()),
        abs(float(lam.sum()) - 1.0),
        float(np.max(np.abs(lam @ G - p))),
        -float(lam.min()),
        float(np.max(np.abs(dots[support] - p @ p), initial=0.0)),
    )
    return resid / scale


def test_min_norm_symmetric_pair():
    lam, p = md.min_norm_in_hull([(0.0, -2.0), (0.0, 2.0)])
    assert lam == pytest.approx([0.5, 0.5], abs=1e-12)
    assert p == pytest.approx([0.0, 0.0], abs=1e-12)


def test_min_norm_derived_pair_matches_grid_oracle():
    G = np.array([[-8.0, -1.0], [-8.0, 3.0]])
    lam, p = md.min_norm_in_hull(G)
    assert lam == pytest.approx([0.75, 0.25], abs=1e-10)
    assert p == pytest.approx([-8.0, 0.0], abs=1e-10)
    _, p_oracle = grid_min_norm(G, step=1e-4, polish=False)
    assert np.linalg.norm(p - p_oracle) <= 1e-3


def test_min_norm_singleton():
    lam, p = md.min_norm_in_hull([(3.0, -4.0)])
    assert lam == pytest.approx([1.0])
    assert p == pytest.approx([3.0, -4.0])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_min_norm_rejects_nan_in_the_last_generator(k):
    G = np.arange(2.0 * k).reshape(k, 2)
    G[-1, -1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        md.min_norm_in_hull(G)


def test_min_norm_oracle_equivalence(rng):
    for _ in range(120):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        G = rng.uniform(-10.0, 10.0, size=(k, d))
        lam, p = md.min_norm_in_hull(G)
        assert _kkt_residual(G, lam, p) <= 1e-8
        _, p_oracle = grid_min_norm(G, step=1e-2)
        assert np.linalg.norm(p - p_oracle) <= 1e-2


def test_min_norm_handles_duplicates_and_zero():
    G = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    lam, p = md.min_norm_in_hull(G)
    assert p == pytest.approx([0.0, 0.0], abs=1e-10)
    assert _kkt_residual(G, lam, p) <= 1e-8


@st.composite
def _hull_generators(draw):
    # d = 1..4, k = 1..8; small-integer entries make degenerate hulls
    # (collinear, coplanar, containing the origin) and repeated rows common
    d = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.floats(-10, 10), st.integers(-3, 3).map(float)]))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(rows), max_size=8 - len(rows)))
    return rows + repeats


@settings(max_examples=200, deadline=None)
@given(_hull_generators())
def test_min_norm_kkt_certificate_property(gens):
    G = np.asarray(gens, dtype=float)
    lam, p = md.min_norm_in_hull(G)
    assert _kkt_residual(G, lam, p) <= 1e-8


@st.composite
def _close_generators(draw, k):
    # the hulls on which a closed form or an affine solve can lose digits,
    # at dim 1..4 and scales 1e-3..1e3: a repeated row, collinear rows, two
    # rows 1e-9 apart, and a small simplex far from the origin
    d = draw(st.integers(1, 4))

    def row():
        return np.array(draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))

    family = draw(st.sampled_from(["duplicate", "collinear", "close", "far"]))
    a, b = row(), row()
    if family == "duplicate":
        G = [a, a, b] + [row() for _ in range(k - 3)]
    elif family == "collinear":
        G = [a + t * b for t in draw(st.lists(st.floats(-2, 2), min_size=k, max_size=k))]
    elif family == "close":
        G = [a, a + 1e-9 * row(), b] + [row() for _ in range(k - 3)]
    else:
        G = [a + 1e-3 * row() for _ in range(k)]
    order = draw(st.permutations(range(k)))
    return 10.0 ** draw(st.floats(-3, 3)) * np.array(G)[order]


@settings(max_examples=500, deadline=None)
@given(st.integers(3, 5).flatmap(_close_generators))
# two rows 1e-9 apart: Wolfe's iteration stopped at working precision
# 1.8e-10 short of the certificate, whose bound here is 1.06e-11
@example(np.array([[2.041, -2.556], [2.041 + 1e-9, -2.556 - 2e-9], [-0.453, -0.216]]))
# two edges whose best points agree to 1e-18 in ||p||^2, below its rounding
# error, while one of them misses the certificate by 1e-9
@example(np.array([[1.0, 1.0], [1.0, 1.0 - 1e-9], [0.0, 1.0]]))
# a flat hull around the origin: solving both affine weights by Cramer's
# rule misses the certificate by 4e-5 of its scale
@example(np.array([[2.25, 2.25], [2.2500000022500064, 2.25000000225],
                   [-0.562500000006, -0.562500000004]]))
# four rows, two of them 3e-9 apart: Wolfe's iteration, with its affine
# step from lstsq on the bordered Gram matrix, stopped 1.2e-9 short of the
# certificate, whose bound here is 2.9e-12
@example(np.array([[0.851, 0.817], [0.851 - 3e-9, 0.817 + 3e-9],
                   [-1.649, 0.479], [-1.625, 0.488]]))
def test_min_norm_matches_support_oracle(G):
    lam, p = md.min_norm_in_hull(G)
    scale = max(1.0, float(np.max(np.einsum("ij,ij->i", G, G))))
    assert lam.min() >= 0.0 and abs(float(lam.sum()) - 1.0) <= 1e-15
    assert np.array_equal(p, lam @ G)
    # the docstring's certificate, at its own tolerance
    assert float((G @ p).min()) >= float(p @ p) - KKT_TOL * scale
    _, p_oracle = support_min_norm(G)
    assert abs(float(p @ p) - float(p_oracle @ p_oracle)) <= KKT_TOL * scale


@st.composite
def _three_rows(draw):
    # three rows at d = 1..4; small-integer entries make collinear and
    # repeated rows common
    d = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.floats(-10, 10), st.integers(-3, 3).map(float)]))
    return np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                  min_size=3, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_three_rows(), _close_generators(3)))
def test_three_generators_match_the_facet_recursion_bit_for_bit(G):
    # min_norm_in_hull hands three rows to _min_norm_three itself, past the
    # face memo of _min_norm_faces; the two paths must not drift apart
    lam, _ = md.min_norm_in_hull(G)
    assert lam.tobytes() == np.array(_min_norm_faces(G)).tobytes()


def test_min_norm_affine_solve_only_from_four_generators(monkeypatch, rng):
    def lstsq(*args, **kwargs):
        raise AssertionError("solved for affine weights")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    hulls = [rng.standard_normal((k, d)) for k in (1, 2, 3) for d in (1, 2, 3)]
    hulls += [np.ones((3, 2)), np.zeros((3, 0)), np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])]
    for G in hulls:
        md.min_norm_in_hull(G)
    # four generators take the affine-hull minimiser of _min_norm_faces
    with pytest.raises(AssertionError, match="affine"):
        md.min_norm_in_hull(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))


# ---------------------------------------------------------------------------
# solve_direction


def test_direction_single_objective_unconstrained():
    p = md.ProblemSpec(
        name="q", n=2, m=1,
        F=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        DF=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
    )
    b = md.evaluate(p, [1.0, 0.0])
    # without inequalities SP1 is the Fliege-Svaiter problem SP
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)
    assert d.v == pytest.approx([-2.0, 0.0], abs=1e-12)
    assert d.alpha == pytest.approx(-2.0, abs=1e-12)


def test_direction_circle_inactive_ic(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert d.v == pytest.approx([8.0, 0.0], abs=1e-10)
    assert d.alpha == pytest.approx(-32.0, abs=1e-10)
    assert d.lam == pytest.approx([0.75, 0.25], abs=1e-10)
    assert len(d.lam) == 2
    assert d.active_set == ()


def test_direction_circle_active_ic_critical(circle2d):
    b = md.evaluate(circle2d, (-1.0, 0.0))
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert len(d.lam) == 3
    assert d.active_set == (1,)
    assert d.alpha >= -1e-12
    assert np.linalg.norm(d.v) <= 1e-6
    # independent check that the origin lies in the generator hull
    assert origin_in_hull(np.array([[-6.0, -2.0], [-6.0, 2.0], [2.0, 0.0]]))


def test_direction_circle_segment_point_critical(circle2d):
    b = md.evaluate(circle2d, (2.0, 0.0))
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert d.alpha >= -1e-12
    assert origin_in_hull(b.DF_val)


def test_direction_gamma_contract(circle2d, rng):
    # the exact solution meets the approximate-solution inequality of
    # Fliege & Svaiter for every tolerance gamma in (0, 1]
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        if float(circle2d.G(x)[0]) > 0:
            continue
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
        value = float(np.max(b.DF_val @ d.v) + 0.5 * d.v @ d.v)
        for gamma in (0.3, 0.7, 1.0):
            assert value <= gamma * d.alpha + 1e-12


def test_direction_equality_kind_stays_in_kernel(sphere3d, rng):
    for _ in range(10):
        raw = rng.standard_normal(3)
        x = raw / np.linalg.norm(raw)
        b = md.evaluate(sphere3d, x)
        # without inequalities SP1 is the equality-constrained problem SPe
        d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)
        assert np.max(np.abs(b.DH_val @ d.v)) <= 1e-9


def test_direction_sp2_kernel_feasibility(circle2d, rng):
    for _ in range(10):
        t = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(t), np.sin(t)])
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, SubproblemKind.EQUALITY_ICS, 1e-9)
        assert d.active_set == (1,)
        assert abs(b.DG_val[0] @ d.v) <= 1e-9


def test_direction_sp2_rank_error_propagates():
    # two coincident boundaries violate the independence assumption
    p = md.ProblemSpec(
        name="dup", n=2, m=1,
        F=lambda x: np.array([x[0]]), DF=lambda x: np.array([[1.0, 0.0]]),
        m_G=2,
        G=lambda x: np.array([x[1], 2.0 * x[1]]),
        DG=lambda x: np.array([[0.0, 1.0], [0.0, 2.0]]),
    )
    b = md.evaluate(p, [0.0, 0.0])
    with pytest.raises(md.RankError):
        md.solve_direction(b, SubproblemKind.EQUALITY_ICS, 1e-9)


def test_direction_sp2_at_a_vertex_is_zero():
    # both walls pinned leave no tangent direction: the hull of the
    # zero-length projected gradients gives v = 0 with a simplex certificate
    b = md.evaluate(make_vertex_problem(), [1.0, 1.0])
    d = md.solve_direction(b, SubproblemKind.EQUALITY_ICS, 1e-9)
    assert d.active_set == (1, 2)
    assert np.array_equal(d.v, np.zeros(2))
    assert d.alpha == 0.0
    assert d.lam.min() >= 0.0 and d.lam.sum() == pytest.approx(1.0)


def test_direction_names_the_overflow_of_the_hull():
    # DF = 1e160 I: diff . diff overflows in the two-generator form, the
    # weights and v come out NaN, and min(0.0, nan) would read 0.0, a
    # critical point: the subproblem fails instead, naming its value
    b = md.evaluate(md.load_problem(DATA / "steep2d.json"), [0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            md.ModescentError, match="SP1 overflowed: its value alpha is nan, not finite"):
        md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)


@pytest.mark.parametrize("DF", [
    # the hull holds (0, 2) and (1, 1), so its min-norm point is near
    # (0, 1) and alpha near -0.5; with the edge g3 - g2 (or its square)
    # overflowed, the Gram form kept the vertex (1, 1), whose slope 1e308
    # (1e160) the clamp at 0 read as a critical point.  The three-row form,
    # alone or as a facet, gives NaN weights instead
    [[1.0, 1.0], [1e308, 2.0], [-1e308, 2.0]],
    [[1.0, 1.0], [3.0, 1.5], [1e160, 2.0], [-1e160, 2.0]],
    # tests/data/steep4.json at the origin: the edges of the four-row face
    # overflow, and it gets NaN weights where lstsq raised LinAlgError
    [[1.5e308, 0.3e308], [-1.5e308, 0.2e308], [0.1e308, -1.5e308], [0.5e308, 1.5e308]]])
def test_direction_names_the_overflow_of_a_hull_edge(DF):
    DF = np.array(DF)
    p = md.ProblemSpec(name="steep-edge", n=2, m=len(DF), F=lambda x: np.zeros(len(DF)),
                       DF=lambda x: DF)
    b = md.evaluate(p, [0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            md.ModescentError, match="SP1 overflowed: its value alpha is nan"):
        md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)


def test_direction_names_the_overflow_of_projected_generators():
    # on the sphere at (1, -1, 0) / sqrt(2) the tangent plane holds
    # (1, 1, 0) / sqrt(2), along which DF1 = 1.5e308 (1, 1, 0) projects to
    # 2.1e308: the subproblem fails with the solver's error, not the
    # ValueError that min_norm_in_hull keeps for its direct callers
    s = math.sqrt(0.5)
    b = md.evaluate(md.load_problem(DATA / "steep_sphere3d.json"), [s, -s, 0.0])
    with np.errstate(over="ignore"), pytest.raises(
            md.ModescentError, match="direction subproblem SP1 overflowed"):
        md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)
    with np.errstate(over="ignore"), pytest.raises(
            md.ModescentError, match="direction subproblem SP2 overflowed"):
        md.solve_direction(b, SubproblemKind.EQUALITY_ICS)


def test_direction_names_a_nan_in_the_last_slope(monkeypatch):
    # a bundle with a NaN in its last DF row, and the min-norm point
    # replaced by (-2, 0), so that v = (2, 0) and the slopes are 2 and NaN,
    # last.  max() drops the NaN and would read alpha = 2 + 2, clamped to
    # 0, a critical point
    p = md.ProblemSpec(name="nan-last-slope", n=2, m=2, F=lambda x: np.zeros(2),
                       DF=lambda x: np.eye(2))
    b = md.EvalBundle(p, np.zeros(2), np.zeros(2), np.zeros(0),
                      np.array([[1.0, 0.0], [np.nan, 0.0]]), np.zeros((0, 2)), np.zeros((0, 2)))
    monkeypatch.setattr(direction, "_min_norm",
                        lambda G: (np.array([1.0, 0.0]), np.array([-2.0, 0.0])))
    with pytest.raises(md.ModescentError, match="SP1 overflowed: its value alpha is nan"):
        md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS)


@st.composite
def _steep_subproblems(draw):
    # n = 2..4, 1..6 objective rows, 0..2 active inequality rows and 0..1
    # equality rows, with finite entries of any magnitude up to 1.7e308
    n = draw(st.integers(2, 4))
    entry = st.one_of(st.floats(-1.7e308, 1.7e308), st.floats(-1.7, 1.7).map(lambda t: t * 1e308),
                      st.integers(-3, 3).map(float))

    def rows(low, high):
        return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                      min_size=low, max_size=high)), dtype=float).reshape(-1, n)

    DF, DG, DH = rows(1, 6), rows(0, 2), rows(0, 1)
    return md.ProblemSpec(
        name="steep-subproblem", n=n, m=len(DF), F=lambda x: np.zeros(len(DF)), DF=lambda x: DF,
        m_H=len(DH), H=(lambda x: np.zeros(len(DH))) if len(DH) else None,
        DH=(lambda x: DH) if len(DH) else None,
        m_G=len(DG), G=(lambda x: np.zeros(len(DG))) if len(DG) else None,
        DG=(lambda x: DG) if len(DG) else None)


@settings(max_examples=150, deadline=None)
@given(_steep_subproblems())
def test_direction_value_is_finite_or_the_subproblem_fails(problem):
    # every returned alpha is finite and <= 0 with a finite v; arithmetic
    # that overflows fails the subproblem as a ModescentError (a RankError
    # counts), never as NaN, a LinAlgError or an OverflowError
    b = md.evaluate(problem, np.zeros(problem.n))
    for kind in SubproblemKind:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                d = md.solve_direction(b, kind)
            except md.ModescentError:
                continue
        assert math.isfinite(d.alpha) and d.alpha <= 0.0
        assert np.isfinite(d.v).all()


def _sample_feasible_circle_points(rng, count):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-3, 3, size=2)
        if x[0] ** 2 + x[1] ** 2 >= 1.0:
            pts.append(x)
    return pts


def test_direction_invariants_on_samples(circle2d, rng):
    for x in _sample_feasible_circle_points(rng, 60):
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
        # sign structure
        assert d.alpha <= 0.0
        if d.alpha < -1e-8:
            assert np.all(b.DF_val @ d.v < 0.0)
        else:
            assert np.linalg.norm(d.v) <= 1e-3
        # dual certificate
        assert np.all(d.lam >= 0.0)
        assert float(d.lam.sum()) == pytest.approx(1.0, abs=1e-10)
        gens = [b.DF_val[i] for i in range(2)]
        gens += [b.DG_val[i - 1] for i in d.active_set]
        gens = np.array(gens)
        assert np.max(np.abs(d.lam @ gens + d.v)) <= 1e-8
        dots = gens @ d.v
        support = d.lam > 1e-8
        if support.any():
            assert np.max(dots.max() - dots[support]) <= 1e-8
        # active inequality rows obey the shared bound
        for i in d.active_set:
            assert b.DG_val[i - 1] @ d.v <= dots.max() + 1e-12


def test_direction_alpha_zero_iff_v_zero(circle2d, rng):
    for x in _sample_feasible_circle_points(rng, 40):
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
        assert (d.alpha >= -1e-8) == (np.linalg.norm(d.v) <= 1e-3)
        if np.linalg.norm(d.v) <= 1e-8:
            assert d.alpha >= -1e-8


def test_direction_alpha_continuity_at_fixed_active_set(circle2d):
    # shrinking perturbations with an unchanged active set shrink the gap
    base = np.array([-1.5, 0.4])
    b0 = md.evaluate(circle2d, base)
    a0 = md.solve_direction(b0, SubproblemKind.OBJECTIVE_ICS, 1e-4).alpha
    gaps = []
    for h in (1e-2, 1e-3, 1e-4):
        bh = md.evaluate(circle2d, base + np.array([h, -h]))
        ah = md.solve_direction(bh, SubproblemKind.OBJECTIVE_ICS, 1e-4).alpha
        gaps.append(abs(ah - a0))
    # locally Lipschitz: the gap shrinks at least linearly with h
    assert gaps[1] <= 0.2 * gaps[0]
    assert gaps[2] <= 0.2 * gaps[1]
    assert gaps[2] <= 1e-2
