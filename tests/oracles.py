"""Independent oracles used by the test suite.

Everything here is deliberately brute force (grids, dense sampling, pairwise
exchanges, support enumeration, finite differences, LP feasibility) and shares no code with the
production solvers it checks.
"""

import numpy as np

_LAMBDA_CACHE: dict = {}


def _simplex_lambdas(n_parts: int, k: int) -> np.ndarray:
    """All compositions of n_parts into k non-negative integers, as rows."""
    key = (n_parts, k)
    if key in _LAMBDA_CACHE:
        return _LAMBDA_CACHE[key]
    if k == 1:
        out = np.array([[n_parts]], dtype=np.int64)
    else:
        grids = np.indices((n_parts + 1,) * (k - 1)).reshape(k - 1, -1).T
        grids = grids[grids.sum(axis=1) <= n_parts]
        out = np.column_stack([grids, n_parts - grids.sum(axis=1)])
    _LAMBDA_CACHE[key] = out
    return out


def _pairwise_polish(G, lam, sweeps=20000):
    """Exact pairwise mass exchanges until no pair improves ||lam @ G||^2.

    At a fixed point no feasible direction e_i - e_j decreases the norm,
    which is exactly the optimality condition on the simplex.  On a thin
    hull (two nearly antiparallel rows plus a third) the exchanges converge
    slowly: one such instance needed about 1,000 sweeps.
    """
    lam = lam.astype(float).copy()
    p = lam @ G
    k = G.shape[0]
    scale = max(1.0, float(np.max(np.einsum("ij,ij->i", G, G))))
    for _ in range(sweeps):
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or lam[j] <= 0.0:
                    continue
                d = G[i] - G[j]
                den = float(d @ d)
                if den == 0.0:
                    continue
                theta = float(np.clip(-(p @ d) / den, -lam[i], lam[j]))
                gain = theta * theta * den + 2.0 * theta * float(p @ d)
                if gain < -1e-18 * scale:
                    lam[i] += theta
                    lam[j] -= theta
                    p = p + theta * d
                    improved = True
        if not improved:
            break
    return lam, p


def grid_min_norm(G, step=1e-2, polish=True):
    """Min-norm point in the hull of the rows of G by exhaustive simplex grid
    search (optionally polished to machine precision by pairwise exchanges)."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    k = G.shape[0]
    n_parts = int(round(1.0 / step))
    lams = _simplex_lambdas(n_parts, k).astype(float) / n_parts
    pts = lams @ G
    best = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    lam = lams[best]
    if polish:
        lam, _ = _pairwise_polish(G, lam)
    return lam, lam @ G


def support_min_norm(G, tol=1e-12):
    """Exact min-norm point in the hull of the rows of G by enumerating
    supports.

    For every non-empty subset S of rows, the bordered system

        [G_S G_S^T  1] [lam]   [0]
        [1^T        0] [mu ] = [1]

    gives the min-norm point of the affine hull of S.  Where its weights
    are non-negative (down to -tol) it is a hull point; the minimum lies on
    its own support face, so the shortest of these candidates is the
    minimum.  Singular systems (affinely dependent S) are skipped: a
    smaller subset covers their face.
    """
    from itertools import combinations

    G = np.atleast_2d(np.asarray(G, dtype=float))
    k = G.shape[0]
    best_lam, best_p, best = None, None, np.inf
    for size in range(1, k + 1):
        for S in combinations(range(k), size):
            rows = G[list(S)]
            A = np.ones((size + 1, size + 1))
            A[:size, :size] = rows @ rows.T
            A[size, size] = 0.0
            b = np.zeros(size + 1)
            b[size] = 1.0
            try:
                sol = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                continue
            w = sol[:size]
            if not (w.min() >= -tol and abs(w.sum() - 1.0) <= 1e-9):
                continue
            p = w @ rows
            if float(p @ p) < best:
                best_lam = np.zeros(k)
                best_lam[list(S)] = w
                best_p, best = p, float(p @ p)
    return best_lam, best_p


def origin_in_hull(G, tol=1e-9) -> bool:
    """LP feasibility check: does the convex hull of the rows contain 0?"""
    from scipy.optimize import linprog

    G = np.atleast_2d(np.asarray(G, dtype=float))
    k, d = G.shape
    A_eq = np.vstack([G.T, np.ones((1, k))])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    res = linprog(np.zeros(k), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                  method="highs")
    return res.status == 0


def central_diff_jacobian(fun, x, rows, h=1e-6):
    """Plain central-difference Jacobian, independent of the package code."""
    x = np.asarray(x, dtype=float)
    n = x.size
    J = np.empty((rows, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * h)
    return J


def poly_maps(polys, n):
    """Value and Jacobian of a list of polynomials, one polynomial and one
    Jacobian entry at a time.

    A polynomial is a list of ``(coefficient, exponents)`` pairs.  Row i is
    ``c_i @ prod(x ** E_i, axis=1)`` and entry (i, j) is the same with the
    coefficients times column j of ``E_i`` and that column lowered by one
    (floored at 0), so every row and entry is one dot over all of the
    polynomial's monomials.
    """
    compiled = []
    for poly in polys:
        coefs = np.asarray([float(c) for c, _ in poly], dtype=float)
        expos = np.asarray([list(e) for _, e in poly], dtype=float).reshape(len(coefs), n)
        deriv = []
        for j in range(n):
            de = expos.copy()
            de[:, j] = np.maximum(de[:, j] - 1.0, 0.0)
            deriv.append((coefs * expos[:, j], de))
        compiled.append((coefs, expos, deriv))

    def fun(x):
        return np.array([c @ np.prod(x ** e, axis=1) for c, e, _ in compiled])

    def jac(x):
        J = np.empty((len(compiled), n))
        for i, (_, _, deriv) in enumerate(compiled):
            for j, (dc, de) in enumerate(deriv):
                J[i, j] = dc @ np.prod(x ** de, axis=1)
        return J

    return fun, jac


def pairwise_dominance_flags(values):
    """Dominated flag per F-vector (None stays None) by comparing every
    ordered pair: v dominates w iff v <= w componentwise with some strict
    component."""
    valued = [(i, np.asarray(v, dtype=float)) for i, v in enumerate(values) if v is not None]
    flags = []
    for i, w in enumerate(values):
        if w is None:
            flags.append(None)
            continue
        w = np.asarray(w, dtype=float)
        flags.append(any(bool(np.all(v <= w) and np.any(v < w))
                         for j, v in valued if j != i))
    return flags


# ---------------------------------------------------------------------------
# closed-form geometry of the circle test problem

ARC_HALF_ANGLE = np.arctan(0.5)


def dist_to_segment(x) -> float:
    """Distance to the vertical segment {2} x [-1, 1]."""
    x = np.asarray(x, dtype=float)
    target = np.array([2.0, np.clip(x[1], -1.0, 1.0)])
    return float(np.linalg.norm(x - target))


def dist_to_arc(x) -> float:
    """Distance to the unit-circle arc at angles within ARC_HALF_ANGLE of pi."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 1.0
    ang = float(np.arctan2(x[1], x[0]))
    if ang >= np.pi - ARC_HALF_ANGLE or ang <= -np.pi + ARC_HALF_ANGLE:
        return abs(r - 1.0)
    ends = [np.pi - ARC_HALF_ANGLE, -(np.pi - ARC_HALF_ANGLE)]
    return min(float(np.linalg.norm(x - np.array([np.cos(t), np.sin(t)])))
               for t in ends)


def dist_to_critical_set(x) -> float:
    """Distance to arc union segment (the circle problem's critical set)."""
    return min(dist_to_segment(x), dist_to_arc(x))


def arc_point(t) -> np.ndarray:
    return np.array([np.cos(t), np.sin(t)])


def critical_samples(count_arc: int, count_seg: int):
    """Closed-form samples of the critical set: arc points then segment points."""
    ts = np.linspace(np.pi - ARC_HALF_ANGLE, np.pi + ARC_HALF_ANGLE, count_arc)
    pts = [arc_point(t) for t in ts]
    for s in np.linspace(0.0, 2.0, count_seg):
        pts.append(np.array([2.0, -1.0 + s]))
    return pts
