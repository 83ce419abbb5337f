import collections
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import modescent as md

# CI runs the property tests on a fixed example sequence (no example
# database), so a red CI run repeats locally with CI=true
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def circle2d():
    return md.registry_get("circle2d")


@pytest.fixture(scope="session")
def sphere3d():
    return md.registry_get("sphere3d")


@pytest.fixture
def rng():
    return np.random.default_rng(170305)


def with_counted_maps(problem, names):
    """``problem`` with the named maps wrapped to count their calls, and the
    counter they add to.  Each wrapper is a ``functools.wraps`` of its map,
    so it keeps the map's attributes, and a compiled value map its
    ``isotropic_rows``: the counted problem projects as the problem does."""
    calls = collections.Counter()

    def counted(name):
        fun = getattr(problem, name)

        @functools.wraps(fun)
        def wrapped(x):
            calls[name] += 1
            return fun(x)
        return wrapped

    return dataclasses.replace(problem, **{name: counted(name) for name in names}), calls


def solve_outcome(problem, start, config):
    """One ``solve_constrained`` run as comparable values: the type and
    message of its error (None when it returns), its termination, the bytes
    of its final point, and per record the iteration, the bytes of x and F,
    the reprs of alpha, alpha2 and t, the branch, k and the active set."""
    try:
        _, trace = md.solve_constrained(problem, start, config)
        error = None
    except md.ModescentError as err:
        trace, error = err.trace, (type(err), str(err))
    records = [(rec.iteration, rec.x.tobytes(), rec.F.tobytes(), repr(rec.alpha),
                repr(rec.alpha2), rec.branch, repr(rec.t), rec.k, rec.active_set)
               for rec in trace.records]
    return error, trace.termination, trace.final_x.tobytes(), records


def make_box_problem():
    """Floor x2 >= 0 and wall x1 <= 1, objective pushes along the floor."""
    return md.ProblemSpec(
        name="box", n=2, m=1,
        F=lambda x: np.array([-x[0]]),
        DF=lambda x: np.array([[-1.0, 0.0]]),
        m_G=2,
        G=lambda x: np.array([-x[1], x[0] - 1.0]),
        DG=lambda x: np.array([[0.0, -1.0], [1.0, 0.0]]),
        box=((-2.0, 2.0), (-2.0, 2.0)),
    )


def make_hemisphere_problem():
    """Two linear objectives on the unit sphere, restricted to x3 >= 0.

    The critical set is the pair of closed equator arcs with angles in
    [0, pi/2] and [pi, 3pi/2].
    """
    return md.ProblemSpec(
        name="hemisphere", n=3, m=2,
        F=lambda x: np.array([x[0], x[1]]),
        DF=lambda x: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        m_H=1,
        H=lambda x: np.array([x @ x - 1.0]),
        DH=lambda x: 2.0 * x.reshape(1, 3),
        m_G=1,
        G=lambda x: np.array([-x[2]]),
        DG=lambda x: np.array([[0.0, 0.0, -1.0]]),
        box=((-1.5, 1.5),) * 3,
    )


def hemisphere_critical_distance(x):
    t = np.arctan2(x[1], x[0]) % (2 * np.pi)
    best = np.inf
    for lo, hi in ((0.0, np.pi / 2), (np.pi, 1.5 * np.pi)):
        for tc in (np.clip(t, lo, hi), lo, hi):
            p = np.array([np.cos(tc), np.sin(tc), 0.0])
            best = min(best, float(np.linalg.norm(x - p)))
    return best


def make_vertex_problem():
    """Three objectives pushing up and right into the corner x <= (1, 1).

    With both walls pinned, SP2 at (1, 1) has a zero-dimensional tangent
    space.
    """
    return md.ProblemSpec(
        name="vertex", n=2, m=3,
        F=lambda x: np.array([-x[0], -x[1], -x[0] - x[1]]),
        DF=lambda x: np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]]),
        m_G=2,
        G=lambda x: np.array([x[0] - 1.0, x[1] - 1.0]),
        DG=lambda x: np.eye(2),
    )


def make_infeasible_problem():
    """Equality x1^2 + 1 = 0 has no solution; feasibility solves must fail."""
    return md.ProblemSpec(
        name="impossible", n=2, m=1,
        F=lambda x: np.array([x[0]]),
        DF=lambda x: np.array([[1.0, 0.0]]),
        m_H=1,
        H=lambda x: np.array([x[0] ** 2 + 1.0]),
        DH=lambda x: np.array([[2.0 * x[0], 0.0]]),
    )



def make_nan_equality_problem():
    """F = (x1, x1) on an equality whose H is NaN everywhere (DH = 2x), so
    no point is on its chart."""
    return md.ProblemSpec(
        name="nan-H", n=2, m=2,
        F=lambda x: np.array([x[0], x[0]]),
        DF=lambda x: np.array([[1.0, 0.0], [1.0, 0.0]]),
        m_H=1,
        H=lambda x: np.array([np.nan]),
        DH=lambda x: 2.0 * x.reshape(1, 2),
    )

CIRCLE_CONFIG = dict(beta0=0.1, beta=0.5, sigma=1e-4, epsilon=1e-4)
