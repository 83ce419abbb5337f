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


def registry_maps(name):
    """The maps of the registered problem ``name`` ("circle2d" or
    "sphere3d") in numpy-scalar arithmetic: each reads ``x[i]`` as a numpy
    float and squares it with numpy's ``**``, as the registry spelled them
    before its maps read their point as Python floats."""
    if name == "circle2d":
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

        return {"F": F, "DF": DF, "G": G, "DG": DG}

    def F(x):
        return np.array([x[2]])

    def DF(x):
        return np.array([[0.0, 0.0, 1.0]])

    def H(x):
        return np.array([x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 1.0])

    def DH(x):
        return np.array([[2.0 * x[0], 2.0 * x[1], 2.0 * x[2]]])

    return {"F": F, "DF": DF, "H": H, "DH": DH}


def _row_value(chart, z):
    p = chart.problem
    if p.m_H:
        return np.asarray(p.H(z), dtype=float).reshape(1)
    i = chart.ineq_indices[0] - 1
    return np.asarray(p.G(z), dtype=float).reshape(p.m_G)[i:i + 1]


def _row_jacobian(chart, z):
    p = chart.problem
    if p.m_H:
        return np.asarray(p.DH(z), dtype=float).reshape(1, p.n)
    i = chart.ineq_indices[0] - 1
    return np.asarray(p.DG(z), dtype=float).reshape(p.m_G, p.n)[i:i + 1]


def project_one_row(chart, y, init=None):
    """Nearest-point projection onto a chart with one row (one equality, or
    one pinned inequality), as numpy arrays of shape (1,) and (1, n).

    The damped Gauss-Newton presolve and the Lagrange-Newton iteration of
    ``modescent.geometry.project``, with each Newton step a division by
    ||J||^2 and the multiplier started at J (y - z) / ||J||^2 (0 where that
    is not positive); the same tolerances, caps, damping and map calls.
    Raises ``NoConvergence`` where the production kernel must.
    """
    from modescent.errors import NoConvergence

    y = np.asarray(y, dtype=float)
    z = (y if init is None else np.asarray(init, dtype=float)).copy()
    c, J = _row_value(chart, z), _row_jacobian(chart, z)
    for _ in range(60):
        if abs(c).max() <= 1e-6:
            break
        jj = float(J[0] @ J[0])
        if jj == 0.0:
            raise NoConvergence("projection: singular constraint Jacobian")
        dz = -J.T @ (c / jj)
        merit0 = float(c @ c)
        step = 1.0
        for _ in range(40):
            z_try = z + step * dz
            c_try = _row_value(chart, z_try)
            if float(c_try @ c_try) < merit0:
                z, c, J = z_try, c_try, _row_jacobian(chart, z_try)
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: feasibility presolve stalled")
    else:
        raise NoConvergence("projection: feasibility presolve hit its cap")

    jj = float(J[0] @ J[0])
    mu = J @ (y - z) / jj if jj > 0.0 else np.zeros(1)
    r1 = z - y + J.T @ mu
    for _ in range(100):
        if (abs(c).max() <= 1e-12 and abs(r1).max() <= 1e-10
                and float(c @ c) <= 1e-24 * float(J[0] @ J[0])):
            return z
        jj = float(J[0] @ J[0])
        if jj == 0.0:
            raise NoConvergence("projection: singular KKT system (degenerate point)")
        dmu = (c - J @ r1) / jj
        dz = -r1 - J.T @ dmu
        merit0 = float(c @ c + r1 @ r1)
        step = 1.0
        for _ in range(30):
            z_try = z + step * dz
            mu_try = mu + step * dmu
            c_try = _row_value(chart, z_try)
            J_try = _row_jacobian(chart, z_try)
            r1_try = z_try - y + J_try.T @ mu_try
            if float(c_try @ c_try + r1_try @ r1_try) < merit0:
                z, mu, c, J, r1 = z_try, mu_try, c_try, J_try, r1_try
                break
            step *= 0.5
        else:
            raise NoConvergence("projection: damped Newton made no progress")
    raise NoConvergence("projection did not converge within 100 iterations")


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


def deduplicate_by_norm(archive, tol):
    """Entries with an x that lies at least ``tol`` from every kept x, in
    archive order, by one ``np.linalg.norm`` per pair."""
    kept = []
    for entry in archive:
        if entry.x is None:
            continue
        if all(np.linalg.norm(entry.x - other.x) >= tol for other in kept):
            kept.append(entry)
    return kept


def deduplicate_by_dist(archive, tol):
    """``globalize.deduplicate`` as it was before kept points went into a
    set: every candidate with an x scans the kept points with
    ``math.dist`` and is kept if none lies within ``tol``."""
    import math

    kept, points = [], []
    for entry in archive:
        if entry.x is None:
            continue
        p = entry.x.tolist()
        if all(math.dist(p, q) >= tol for q in points):
            kept.append(entry)
            points.append(p)
    return kept


def archive_to_dict(archive, flags):
    """The JSON document of an archive, for ``json.dump``: one mapping per
    entry, ``flags`` giving its dominated flag."""
    return {
        "entries": [
            {
                "start": e.start.tolist(),
                "x": None if e.x is None else e.x.tolist(),
                "F": None if e.F is None else e.F.tolist(),
                "alpha": e.alpha,
                "converged": e.converged,
                "iterations": e.iterations,
                "dominated": flag,
                "error": e.error,
            }
            for e, flag in zip(archive, flags, strict=True)
        ]
    }

# ---------------------------------------------------------------------------
# archive writers as they were before rows and entries were filled from
# per-shape formats: one Python call per float, the csv module for CSV


def _fmt(value):
    return format(float(value), ".17g")


def write_archive_csv_reference(archive, flags, path, n, m):
    """The archive CSV through ``csv.writer``, every float as ``.17g``."""
    import csv

    rows = [[f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
            + ["alpha", "converged", "dominated"]]
    for entry, flag in zip(archive, flags, strict=True):
        row = [_fmt(v) for v in entry.x.tolist()] if entry.x is not None else [""] * n
        row += [_fmt(v) for v in entry.F.tolist()] if entry.F is not None else [""] * m
        row.append(_fmt(entry.alpha) if entry.alpha is not None else "")
        row.append("true" if entry.converged else "false")
        row.append("" if flag is None else ("true" if flag else "false"))
        rows.append(row)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value):
    if value is None:
        return "null"
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _json_floats(values, depth):
    if values is None:
        return "null"
    values = values.tolist()
    if not values:
        return "[]"
    sep = ",\n" + "  " * (depth + 1)
    return "[" + sep[1:] + sep.join(map(_json_float, values)) + "\n" + "  " * depth + "]"


def write_archive_json_reference(archive, flags, path):
    """The archive JSON filled member by member into a ``%(key)s``
    template, every float through its own ``_json_float`` call."""
    from json.encoder import encode_basestring_ascii as json_string

    keys = ("start", "x", "F", "alpha", "converged", "iterations", "dominated", "error")
    template = "{\n" + ",\n".join(f"      {json_string(k)}: %({k})s"
                                    for k in sorted(keys)) + "\n    }"
    flag_text = {None: "null", False: "false", True: "true"}
    items = [template % {
        "start": _json_floats(e.start, 3),
        "x": _json_floats(e.x, 3),
        "F": _json_floats(e.F, 3),
        "alpha": _json_float(e.alpha),
        "converged": flag_text[e.converged],
        "iterations": int.__repr__(e.iterations),
        "dominated": flag_text[flag],
        "error": "null" if e.error is None else json_string(e.error),
    } for e, flag in zip(archive, flags, strict=True)]
    with open(path, "w") as fh:
        fh.write('{\n  "entries": [')
        fh.write("]" if not items else "\n    " + ",\n    ".join(items) + "\n  ]")
        fh.write("\n}\n")


def feasible_armijo_reference(bundle, v, active, config):
    """The feasible Armijo step as a plain F-then-G search: for t = beta0
    beta^k, k = 0..60, retract x + t v through the chart that pins nothing,
    test Armijo (strict, componentwise) and, at a point that passes it,
    every G row against FEAS_TOL; return the first point passing both.

    Returns ``(t, k, feasibility_repaired, new_point, F(new_point),
    G(new_point))`` with G None when the problem has no inequalities, and
    ``feasibility_repaired`` true when an earlier point passed Armijo.
    Raises the ``NoStep`` of ``linesearch.feasible_armijo_step`` with its
    message where that must.  The Armijo right-hand sides are rounded as
    F(x) + (sigma t) DF(x) v in Python floats, and the search stops after a
    trial whose x + t v rounds to x and whose retraction failed or
    returned x, as the production search does, so the accepted point is
    the same bytes.
    """
    import math

    from modescent.errors import NoConvergence, NoStep, StepPreconditionError
    from modescent.geometry import FEAS_TOL, _chart

    problem, x = bundle.problem, bundle.x
    slope = bundle.DF_val.dot(v).tolist()
    if not all(s < 0.0 for s in slope):
        raise StepPreconditionError(
            "line search requires strict componentwise descent: DF(x) v < 0")
    for i in active:
        if bundle.DG_val[i - 1].dot(v) >= 0.0:
            raise StepPreconditionError(
                f"feasible Armijo step requires grad(G_{i}) v < 0 for active inequalities")
    retract = _chart(problem, ()).retract
    f0 = bundle.F_val.tolist()
    k_armijo = None
    for k in range(61):
        t = config.beta0 * config.beta ** k
        w = t * v
        try:
            z = retract(x, w)
        except NoConvergence:
            z = None
        if z is not None:
            lhs = np.asarray(problem.F(z), dtype=float).reshape(problem.m)
            st = config.sigma * t
            if all(f < fi + st * s for f, fi, s in zip(lhs.tolist(), f0, slope)):
                if k_armijo is None:
                    k_armijo = k
                g = np.asarray(problem.G(z), dtype=float) if problem.m_G else None
                values = [] if g is None else g.ravel().tolist()
                if all(-math.inf < gi <= FEAS_TOL for gi in values):
                    return t, k, k != k_armijo, z, lhs, g
        if (z is None or z.tolist() == x.tolist()) \
                and all(xi + wi == xi for xi, wi in zip(x.tolist(), w.tolist())):
            break
    raise NoStep("feasible Armijo: no acceptable step within k_max=60")


# ---------------------------------------------------------------------------
# reference spellings of kernels rewritten for speed
#
# Each is the earlier, plainer spelling of a production kernel, kept so that
# tests can require the rewrite to return the same bytes.  Unlike the oracles
# above they are not independent: they share the kernels' constants and
# floating-point steps, and differ only in how the work is laid out.


def householder_kernel_reference(row):
    """``direction._householder_kernel`` built column by column as nested
    lists: row 0 is -v0 u, row i >= 1 is -a_i u with 1 added at column
    i - 1."""
    import math

    from modescent.errors import RankError

    a = row.tolist()
    scale = max(map(abs, a))
    if scale == 0.0:
        raise RankError("equality constraint rows are numerically rank deficient")
    a = [ai / scale for ai in a]
    s = math.hypot(*a)
    beta = s * (s + abs(a[0]))
    u = [aj / beta for aj in a[1:]]
    v0 = a[0] + math.copysign(s, a[0])
    cols = [[-v0 * uj for uj in u]]
    for i, ai in enumerate(a[1:]):
        col = [-ai * uj for uj in u]
        col[i] += 1.0
        cols.append(col)
    return np.array(cols)


def min_norm_three_reference(G):
    """``direction._min_norm_three`` with its vertex picked by ``max`` over
    a key function."""
    import math

    from modescent.direction import _AFFINE_RTOL, _EDGES, _VERTICES

    X = _EDGES.dot(G)
    K = X.dot(X.T).tolist()
    i, j, k, ru, su, rw, sw = _VERTICES[max(range(3), key=lambda v: K[5 - v][5 - v])]
    if not K[5 - i][5 - i] < math.inf:
        return [math.nan] * 3
    uu, ww, uw = K[ru][ru], K[rw][rw], su * sw * K[ru][rw]
    bu, bw = su * K[i][ru], sw * K[i][rw]
    det = uu * ww - uw * uw
    if det > _AFFINE_RTOL * uu * ww:
        b = (uw * bu - uu * bw) / det
        a = -(bu + uw * b) / uu
        c = 1.0 - a - b
        if a >= 0.0 and b >= 0.0 and c >= 0.0:
            lam = [0.0, 0.0, 0.0]
            lam[i], lam[j], lam[k] = c, a, b
            return lam
    best = None
    for i, j, k, ru, su, rw, sw in _VERTICES:
        den, t = K[ru][ru], su * K[i][ru]
        theta = 0.0 if den == 0.0 else min(max(-t / den, 0.0), 1.0)
        gap = sw * K[i][rw] + theta * (su * sw * K[ru][rw] - t - theta * den)
        if best is None or gap > best[0]:
            best = (gap, i, j, theta)
    _, i, j, theta = best
    lam = [0.0, 0.0, 0.0]
    lam[i], lam[j] = 1.0 - theta, theta
    return lam


def closed_form_reference(row):
    """``geometry._closed_form`` with every sum taken by a ``_dot`` helper:
    left to right from 0.0, products only."""
    import math

    def dot(a, b):
        s = 0.0
        for ai, bi in zip(a, b):
            s += ai * bi
        return s

    lam, b, d = row
    c0 = [bi / (-2.0 * lam) for bi in b]
    r2 = dot(c0, c0) - d / lam
    if not r2 > 0.0:
        return None
    r = math.sqrt(r2)

    def nearest_on_sphere(y):
        u = [yi - ci for yi, ci in zip(y.tolist(), c0)]
        nu = math.sqrt(dot(u, u))
        if not nu > 0.0:
            return None
        s = r / nu
        zs = [ci + s * ui for ci, ui in zip(c0, u)]
        if abs(lam * dot(zs, zs) + dot(b, zs) + d) <= 1e-12:
            return np.array(zs)
        return None
    return nearest_on_sphere


def min_norm_in_hull_reference(generators):
    """``direction.min_norm_in_hull`` with every input coerced by
    ``np.asarray`` to a C-ordered array and a vector read as one row, an
    empty vector too."""
    from modescent.direction import _min_norm
    from modescent.problems import all_finite

    G = np.asarray(generators, dtype=float, order="C")
    if G.ndim == 1:
        G = G.reshape(1, -1)
    if G.shape[0] < 1:
        raise ValueError("need at least one generator")
    if not all_finite(G):
        raise ValueError("generators contain non-finite entries")
    return _min_norm(G)


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
