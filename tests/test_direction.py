import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modescent as md
from modescent.direction import SubproblemKind
from oracles import grid_min_norm, origin_in_hull


# ---------------------------------------------------------------------------
# active_set


def test_active_set_on_circle_boundary(circle2d):
    b = md.evaluate(circle2d, (1.0, 0.0))
    assert md.active_set(b, 1e-4).indices == (1,)


def test_active_set_far_from_boundary(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    assert md.active_set(b, 1e-4).indices == ()


def test_active_set_threshold():
    p = md.ProblemSpec(
        name="lin", n=1, m=1,
        F=lambda x: np.array([x[0]]), DF=lambda x: np.array([[1.0]]),
        m_G=1, G=lambda x: np.array([x[0]]), DG=lambda x: np.array([[1.0]]),
    )
    b = md.evaluate(p, [-5e-5])
    assert md.active_set(b, 1e-4).indices == (1,)
    assert md.active_set(b, 1e-6).indices == ()
    with pytest.raises(ValueError):
        md.active_set(b, -1.0)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                min_size=1, max_size=5))
def test_min_norm_kkt_certificate_property(gens):
    G = np.asarray(gens, dtype=float)
    lam, p = md.min_norm_in_hull(G)
    assert _kkt_residual(G, lam, p) <= 1e-8


# ---------------------------------------------------------------------------
# solve_direction


def test_direction_single_objective_unconstrained():
    p = md.ProblemSpec(
        name="q", n=2, m=1,
        F=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        DF=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
    )
    b = md.evaluate(p, [1.0, 0.0])
    d = md.solve_direction(b, SubproblemKind.UNCONSTRAINED)
    assert d.v == pytest.approx([-2.0, 0.0], abs=1e-12)
    assert d.alpha == pytest.approx(-2.0, abs=1e-12)


def test_direction_circle_inactive_ic(circle2d):
    b = md.evaluate(circle2d, (-2.0, 0.5))
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert d.v == pytest.approx([8.0, 0.0], abs=1e-10)
    assert d.alpha == pytest.approx(-32.0, abs=1e-10)
    assert d.lam == pytest.approx([0.75, 0.25], abs=1e-10)
    assert d.generators == ("F1", "F2")


def test_direction_circle_active_ic_critical(circle2d):
    b = md.evaluate(circle2d, (-1.0, 0.0))
    d = md.solve_direction(b, SubproblemKind.OBJECTIVE_ICS, 1e-4)
    assert d.generators == ("F1", "F2", "G1")
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
        d = md.solve_direction(b, SubproblemKind.EQUALITY)
        assert np.max(np.abs(b.DH_val @ d.v)) <= 1e-9


def test_direction_sp2_kernel_feasibility(circle2d, rng):
    for _ in range(10):
        t = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(t), np.sin(t)])
        b = md.evaluate(circle2d, x)
        d = md.solve_direction(b, SubproblemKind.EQUALITY_ICS, 1e-9)
        assert d.active_set.indices == (1,)
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
        gens += [b.DG_val[i - 1] for i in d.active_set.indices]
        gens = np.array(gens)
        assert np.max(np.abs(d.lam @ gens + d.v)) <= 1e-8
        dots = gens @ d.v
        support = d.lam > 1e-8
        if support.any():
            assert np.max(dots.max() - dots[support]) <= 1e-8
        # active inequality rows obey the shared bound
        for i in d.active_set.indices:
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
