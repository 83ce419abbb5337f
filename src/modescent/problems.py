"""Evaluable constrained multiobjective problems and the problem registry.

A problem bundles an objective map F with optional equality constraints H,
inequality constraints G, and their closed-form Jacobians.  Derivatives are
user supplied; ``fd_audit`` cross-checks them against central differences.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import EvaluationError, UnknownProblemError

Array = np.ndarray
VecFun = Callable[[Array], Array]


def as_point(x, n: int) -> Array:
    """Coerce ``x`` to a float vector of length ``n``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ProblemSpec:
    """A constrained multiobjective problem min F(x) s.t. H(x)=0, G(x)<=0.

    Parameters
    ----------
    n, m : int
        Decision-space dimension and number of objectives.
    F, DF : callable
        Objective map (n-vector -> m-vector) and its Jacobian (m x n).
    m_H, m_G : int
        Number of equality / inequality constraints (0 allowed).
    H, DH, G, DG : callable, optional
        Constraint maps and Jacobians; required iff the matching count is > 0.
    box : tuple of (lo, hi) pairs, optional
        Sampling box per coordinate, used by audits and multistart grids.
        Defaults to [-3, 3]^n.

    Instances are immutable; concurrent evaluation is safe as long as the
    supplied callables are.
    """

    name: str
    n: int
    m: int
    F: VecFun
    DF: VecFun
    m_H: int = 0
    m_G: int = 0
    H: VecFun | None = None
    DH: VecFun | None = None
    G: VecFun | None = None
    DG: VecFun | None = None
    box: tuple = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.m_H < 0 or self.m_G < 0:
            raise ValueError("constraint counts must be non-negative")
        if (self.m_H > 0) != (self.H is not None and self.DH is not None):
            raise ValueError("H and DH must be supplied iff m_H > 0")
        if (self.m_G > 0) != (self.G is not None and self.DG is not None):
            raise ValueError("G and DG must be supplied iff m_G > 0")
        box = self.box
        if box is None:
            box = ((-3.0, 3.0),) * self.n
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != self.n or any(hi <= lo for lo, hi in box):
            raise ValueError("box must give one (lo, hi) pair with lo < hi per coordinate")
        object.__setattr__(self, "box", box)


@dataclass(frozen=True)
class EvalBundle:
    """F and G values and all Jacobians of a problem at one point.

    H is not kept, since nothing reads it: the solver's iterates lie on
    H = 0 by construction (feasible start, retraction, and the feasibility
    test of the step).
    """

    problem: ProblemSpec
    x: Array
    F_val: Array
    G_val: Array
    DF_val: Array
    DH_val: Array
    DG_val: Array


def _call(problem, component, fun, x, shape, value=None):
    """``fun(x)`` (or the given ``value`` of it) as a float array of
    ``shape``, checked to be finite."""
    if fun is None:
        return np.zeros(shape)
    out = np.asarray(fun(x) if value is None else value, dtype=float).reshape(shape)
    if not np.isfinite(out).all():
        raise EvaluationError(component, x)
    return out


def evaluate(problem: ProblemSpec, x, F_val=None, G_val=None) -> EvalBundle:
    """Evaluate F, G and all Jacobians of ``problem`` at ``x`` in one bundle.

    ``F_val`` and ``G_val``, when given, are taken as F(x) and G(x) in place
    of calling the maps; the descent loop passes the values the line search
    already computed at its accepted point.  Given values go through the
    same reshape and finiteness check as computed ones.  Raises
    ``EvaluationError`` naming the first component that is non-finite.
    """
    x = as_point(x, problem.n)
    n, m, mh, mg = problem.n, problem.m, problem.m_H, problem.m_G
    return EvalBundle(
        problem=problem,
        x=x,
        F_val=_call(problem, "F", problem.F, x, (m,), F_val),
        G_val=_call(problem, "G", problem.G, x, (mg,), G_val),
        DF_val=_call(problem, "DF", problem.DF, x, (m, n)),
        DH_val=_call(problem, "DH", problem.DH, x, (mh, n)),
        DG_val=_call(problem, "DG", problem.DG, x, (mg, n)),
    )


def fd_audit(problem: ProblemSpec, x, h: float = 1e-6) -> float:
    """Worst relative mismatch between supplied Jacobians and central differences.

    Each Jacobian entry J_ij is compared against the central difference
    (f_i(x + h e_j) - f_i(x - h e_j)) / 2h; the relative error uses
    max(1, |J_ij|, |fd_ij|) as denominator so near-zero entries are judged
    on absolute error.
    """
    if h <= 0:
        raise ValueError("fd_audit requires h > 0")
    x = as_point(x, problem.n)
    worst = 0.0
    triples = [("F", problem.F, problem.DF, problem.m)]
    if problem.m_H > 0:
        triples.append(("H", problem.H, problem.DH, problem.m_H))
    if problem.m_G > 0:
        triples.append(("G", problem.G, problem.DG, problem.m_G))
    for component, fun, jac, rows in triples:
        J = _call(problem, "D" + component, jac, x, (rows, problem.n))
        for j in range(problem.n):
            step = np.zeros(problem.n)
            step[j] = h
            hi = _call(problem, component, fun, x + step, (rows,))
            lo = _call(problem, component, fun, x - step, (rows,))
            fd = (hi - lo) / (2.0 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(J[:, j]), np.abs(fd)))
            worst = max(worst, float(np.max(np.abs(fd - J[:, j]) / denom)))
    return worst


# ---------------------------------------------------------------------------
# registry


def _circle2d() -> ProblemSpec:
    # Two shifted quadratics, feasible set = exterior of the unit circle.
    def F(x):
        q = (x[0] - 2.0) ** 2
        return np.array([q + (x[1] - 1.0) ** 2, q + (x[1] + 1.0) ** 2])

    def DF(x):
        d = 2.0 * (x[0] - 2.0)
        return np.array([[d, 2.0 * (x[1] - 1.0)], [d, 2.0 * (x[1] + 1.0)]])

    def G(x):
        return np.array([-x[0] ** 2 - x[1] ** 2 + 1.0])

    def DG(x):
        return np.array([[-2.0 * x[0], -2.0 * x[1]]])

    return ProblemSpec(name="circle2d", n=2, m=2, F=F, DF=DF, m_G=1, G=G, DG=DG,
                       box=((-3.0, 3.0), (-3.0, 3.0)))


def _sphere3d() -> ProblemSpec:
    # Minimize the height coordinate on the unit sphere.
    def F(x):
        return np.array([x[2]])

    def DF(x):
        return np.array([[0.0, 0.0, 1.0]])

    def H(x):
        return np.array([x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1.0])

    def DH(x):
        return np.array([[2.0 * x[0], 2.0 * x[1], 2.0 * x[2]]])

    return ProblemSpec(name="sphere3d", n=3, m=1, F=F, DF=DF, m_H=1, H=H, DH=DH,
                       box=((-2.0, 2.0),) * 3)


def _broken_jacobian() -> ProblemSpec:
    # circle2d with a deliberately biased DF entry; used to exercise audit failure.
    good = _circle2d()

    def DF(x):
        J = good.DF(x)
        J[0, 0] += 3.0
        return J

    return ProblemSpec(name="broken-jacobian", n=2, m=2, F=good.F, DF=DF,
                       m_G=1, G=good.G, DG=good.DG, box=good.box)


_REGISTRY: dict[str, Callable[[], ProblemSpec]] = {
    "circle2d": _circle2d,
    "sphere3d": _sphere3d,
    "broken-jacobian": _broken_jacobian,
}

# Diagnostic fixtures resolvable by name but excluded from listings and
# audit-all sweeps.
_HIDDEN = {"broken-jacobian"}


def registry_names() -> list[str]:
    """Names of the registered (non-diagnostic) problems."""
    return sorted(name for name in _REGISTRY if name not in _HIDDEN)


def registry_get(name: str) -> ProblemSpec:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(registry_names())}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# declarative polynomial problems


def _compile_poly(monomials, n, where):
    """Precompute coefficient/exponent arrays and per-variable derivatives."""
    coefs = []
    expos = []
    for pair in monomials:
        if len(pair) != 2:
            raise ValueError(f"{where}: each monomial must be a (coefficient, exponents) pair")
        c, e = pair
        e = list(e)
        if len(e) != n or any(int(k) != k or k < 0 for k in e):
            raise ValueError(f"{where}: exponent vector must hold {n} non-negative integers")
        coefs.append(float(c))
        expos.append([int(k) for k in e])
    coefs = np.asarray(coefs, dtype=float)
    expos = np.asarray(expos, dtype=float).reshape(len(coefs), n)

    deriv = []
    for j in range(n):
        dc = coefs * expos[:, j]
        de = expos.copy()
        de[:, j] = np.maximum(de[:, j] - 1.0, 0.0)
        deriv.append((dc, de))
    return coefs, expos, deriv


def _make_poly_maps(poly_list, n, where):
    compiled = [_compile_poly(p, n, f"{where}[{i}]") for i, p in enumerate(poly_list)]

    def fun(x):
        return np.array([c @ np.prod(x ** e, axis=1) for c, e, _ in compiled])

    def jac(x):
        J = np.empty((len(compiled), n))
        for i, (_, _, deriv) in enumerate(compiled):
            for j, (dc, de) in enumerate(deriv):
                J[i, j] = dc @ np.prod(x ** de, axis=1)
        return J

    return fun, jac


def load_problem(source) -> ProblemSpec:
    """Build a ProblemSpec from a declarative polynomial description.

    ``source`` is a JSON file path or an already-parsed dict with fields
    ``n``, ``m``, ``objectives`` (list of m polynomials), and optional
    ``equalities``, ``inequalities``, ``name``, ``box``.  A polynomial is a
    list of ``[coefficient, exponent-vector]`` monomial pairs.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        doc = json.loads(path.read_text())
        default_name = path.stem
    else:
        doc = dict(source)
        default_name = "problem"

    n = int(doc["n"])
    m = int(doc["m"])
    objectives = doc["objectives"]
    if len(objectives) != m:
        raise ValueError(f"expected {m} objectives, got {len(objectives)}")
    equalities = doc.get("equalities", [])
    inequalities = doc.get("inequalities", [])

    F, DF = _make_poly_maps(objectives, n, "objectives")
    kwargs = {}
    if equalities:
        kwargs["H"], kwargs["DH"] = _make_poly_maps(equalities, n, "equalities")
    if inequalities:
        kwargs["G"], kwargs["DG"] = _make_poly_maps(inequalities, n, "inequalities")

    box = doc.get("box")
    if box is not None:
        box = tuple((float(lo), float(hi)) for lo, hi in box)

    return ProblemSpec(
        name=str(doc.get("name", default_name)),
        n=n, m=m, F=F, DF=DF,
        m_H=len(equalities), m_G=len(inequalities),
        box=box, **kwargs,
    )
