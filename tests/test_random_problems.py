"""Certification on random feasible problems built with ``load_problem``:
two or three quadratics ||x - c_i||^2 in the plane under one disk
inequality (feasible set inside or outside the disk), solved from a few
grid starts under both strategies.

Every run that stops as critical must be feasible and pass an independent
criticality check; every other run must end at the iteration cap or as a
``ModescentError`` that carries its trace.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

import modescent as md
from modescent.geometry import FEAS_TOL
from modescent.solver import TOL_ALPHA

from oracles import support_min_norm

# coordinates on a quarter grid, so coincident and collinear centers come up
COORD = st.integers(-8, 8).map(lambda k: k / 4.0)
STARTS = md.grid_points(((-3.0, 3.0), (-3.0, 3.0)), (2, 2))


def _squared_distance(c, sign=1.0, shift=0.0):
    """sign * ||x - c||^2 + shift as a polynomial in two variables."""
    c1, c2 = c
    return [[sign, [2, 0]], [sign, [0, 2]], [-2.0 * sign * c1, [1, 0]],
            [-2.0 * sign * c2, [0, 1]], [sign * (c1 * c1 + c2 * c2) + shift, [0, 0]]]


def _disk_problem(centers, disk, radius, inside):
    # inside: ||x - d||^2 - r^2 <= 0; outside: r^2 - ||x - d||^2 <= 0
    sign = 1.0 if inside else -1.0
    return md.load_problem({
        "name": "random-disk", "n": 2, "m": len(centers),
        "objectives": [_squared_distance(c) for c in centers],
        "inequalities": [_squared_distance(disk, sign, -sign * radius * radius)],
    })


@st.composite
def problems(draw):
    m = draw(st.integers(2, 3))
    centers = [(draw(COORD), draw(COORD)) for _ in range(m)]
    disk = (draw(COORD), draw(COORD))
    radius = draw(st.integers(2, 8)) / 4.0
    return _disk_problem(centers, disk, radius, draw(st.booleans()))


def _assert_certified(problem, x, cfg):
    G = np.asarray(problem.G(x), dtype=float)
    assert G.max() <= FEAS_TOL
    rows = [np.asarray(problem.DF(x), dtype=float)]
    rows.append(np.asarray(problem.DG(x), dtype=float)[G >= -cfg.epsilon])
    _, p = support_min_norm(np.vstack(rows))
    assert 0.5 * float(p @ p) <= TOL_ALPHA + 1e-10


# the start (-3, 3) ends where grad F2 is antiparallel to grad G: a thin
# generator hull, on which a pairwise-exchange polish converges slowly
@example(problem=_disk_problem([(-0.25, 0.5), (1.25, -1.5)], (-1.5, 2.0), 0.5, True),
         eta=1.0, beta0=0.1)
# every start stops near (0.75, +-4.9e-4) with 0.5 ||p||^2 = 9.84e-9, just
# under the bound; the grid oracle read 1.198e-8 there
@example(problem=_disk_problem([(0.0, 0.0), (0.25, 0.0)], (-0.25, 0.0), 1.0, False),
         eta=1.0, beta0=1.0)
@settings(max_examples=12, deadline=None)
@given(problem=problems(), eta=st.sampled_from([1.0, math.inf]),
       beta0=st.sampled_from([0.1, 1.0]))
def test_critical_points_of_random_problems_are_certified(problem, eta, beta0):
    cfg = md.SolverConfig(beta0=beta0, eta=eta, max_iters=300)
    for start in STARTS:
        try:
            x, trace = md.solve_constrained(problem, start, cfg)
        except md.ModescentError as err:
            assert err.trace.termination.startswith("FAILED:")
            continue
        if trace.termination == md.TERMINATED_CRITICAL:
            _assert_certified(problem, x, cfg)
        else:
            assert trace.termination == md.ITER_CAP
