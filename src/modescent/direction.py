"""Steepest common descent directions for the two subproblems of the merged
active-set method.

SP1 treats the inequalities active at tolerance epsilon as extra
objectives; SP2 pins them as equalities.  Both move in the kernel of the
equality rows.  The Fliege-Svaiter problem (SP) and its equality-constrained
form (SPe) are SP1 with no active inequality.

Each subproblem is solved through its dual: the direction is the negative of
the minimum-norm point in the convex hull of the (projected) generator
gradients, with simplex weights as the dual certificate.  Hulls of up to three
generators have exact closed forms; four or more recurse over the faces of
the simplex down to the three-generator form.

Finiteness is checked once per array: ``tangent_basis`` and
``min_norm_in_hull`` check what their caller hands them, and
``solve_direction`` passes the gradient and constraint rows, which
``evaluate`` has checked, straight to the unchecked kernels
``_tangent_basis`` and ``_min_norm``; only the projection of the
generators onto the tangent space, a new array that can overflow, goes
through ``min_norm_in_hull``.  The min-norm kernels never raise on finite
generators: where their arithmetic overflows the weights come out NaN, and
``solve_direction`` names the overflow once, from the value alpha.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ModescentError, RankError
from .problems import EvalBundle, active_indices, all_finite

# rank cutoff relative to the largest singular value
RANK_RTOL = 1e-10
# KKT certificate tolerance of the min-norm point (scaled by gradient size)
KKT_TOL = 1e-12
# three generators count as affinely dependent when the Gram determinant of
# the two edges at the widest angle is at most this times the product of
# their squared lengths (sin^2 of the angle).  Below it the altitude onto
# the longest edge is at most sqrt(_AFFINE_RTOL) times that edge, so the best
# edge point misses the certificate by at most 4 * _AFFINE_RTOL * max ||g||^2,
# under KKT_TOL * max ||g||^2; above it the determinant stays two orders of
# magnitude clear of its rounding error
_AFFINE_RTOL = 1e-13

# rows: the three generators, then the edges g1 - g0, g2 - g0, g2 - g1
_EDGES = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                   [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
# per vertex i, in cyclic order i, j, k: the row of _EDGES and the sign that
# give g_j - g_i, then the same for g_k - g_i; row 5 - i is the opposite edge
_VERTICES = ((0, 1, 2, 3, 1.0, 4, 1.0),
             (1, 2, 0, 5, 1.0, 3, -1.0),
             (2, 0, 1, 4, -1.0, 5, -1.0))


class SubproblemKind(Enum):
    OBJECTIVE_ICS = "SP1"
    EQUALITY_ICS = "SP2"


# read once: each read of an Enum member is an attribute lookup through
# the class, about 0.1 us
_EQUALITY_ICS = SubproblemKind.EQUALITY_ICS


@dataclass(slots=True)
class DirectionResult:
    """Solution of one direction subproblem.

    ``v`` is the descent direction, ``alpha`` the optimal value
    max_i g_i.v + 0.5*||v||^2, finite and <= 0 (0 exactly at critical
    points): ``solve_direction`` raises where the arithmetic overflowed
    instead of returning a value no criticality test may read.  ``lam`` are
    simplex weights over the generators (the objective gradients, then for
    SP1 the active inequality gradients) with
    v = -sum lam_i (projected gradient)_i.  ``active_set`` is the tuple of
    1-based inequality indices the subproblem was built with.
    """

    v: np.ndarray
    alpha: float
    lam: np.ndarray
    active_set: tuple


def active_set(bundle: EvalBundle, epsilon: float) -> tuple:
    """Indices i (1-based) with G_i(x) >= -epsilon at the bundle's point."""
    # written so that a NaN tolerance fails it
    if not (epsilon >= 0):
        raise ValueError("active-set tolerance must be >= 0")
    return active_indices(bundle.G_val, epsilon)


def _householder_kernel(row) -> np.ndarray:
    """Columns 1..n-1 of the Householder reflector I - v v^T / beta that maps
    ``row`` to a multiple of e_0, an orthonormal basis of its kernel.

    Python floats on the row divided by max |a_i|, so that no square or
    product under- or overflows: with s = ||a||, v = a + sign(a_0) s e_0 and
    beta = v.v / 2 = s (s + |a_0|).
    """
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


def _tangent_basis(A) -> np.ndarray:
    """``tangent_basis`` of a finite (k, n) array ``A``, k >= 1, without
    checking it."""
    k, n = A.shape
    if k > n:
        raise RankError(f"{k} constraint rows cannot be independent in dimension {n}")
    if k == 1:
        return _householder_kernel(A[0])
    _, s, vt = np.linalg.svd(A)
    if s[0] == 0.0 or (s <= RANK_RTOL * s[0]).any():
        raise RankError("equality constraint rows are numerically rank deficient")
    return vt[k:].T


def tangent_basis(eq_rows) -> np.ndarray:
    """Orthonormal basis of the kernel of ``eq_rows`` as an (n, n-k) matrix.

    ``eq_rows`` must be a (k, n) array (pass a (0, n) array for "no
    constraints").  One row takes columns 1..n-1 of the Householder
    reflector that maps it to a multiple of e_0, in Python floats; only a
    zero row is rank deficient there.  Two or more rows take the trailing
    right singular vectors of an SVD, and raise ``RankError`` if the rows
    are rank deficient at the cutoff RANK_RTOL * largest singular value.
    Raises ``ValueError`` on a non-finite entry; the kernel behind it,
    ``_tangent_basis``, checks nothing, and ``solve_direction`` calls it
    directly on the DH and DG rows ``evaluate`` has checked.
    """
    A = np.asarray(eq_rows, dtype=float)
    if A.ndim != 2:
        raise ValueError("eq_rows must be a 2-d array of constraint gradients")
    k, n = A.shape
    if k == 0:
        return np.eye(n)
    if not all_finite(A):
        raise ValueError("eq_rows contains non-finite entries")
    return _tangent_basis(A)


def _min_norm_three(G):
    """Simplex weights of the minimum-norm point in the hull of three rows.

    One 6x6 Gram matrix of the rows and their edge differences, then Python
    floats.  The edges are differenced before any dot product: edge lengths
    taken from Gram entries of the rows (k11 - 2 k01 + k00) cancel on
    collinear or far-offset hulls.  Where the longest edge or its squared
    length overflows the weights are NaN.
    """
    X = _EDGES.dot(G)
    K = X.dot(X.T).tolist()
    # the affine-hull minimiser, from the 2x2 normal equations at the vertex
    # opposite the longest edge (the widest angle, best conditioned)
    i, j, k, ru, su, rw, sw = _VERTICES[max(range(3), key=lambda v: K[5 - v][5 - v])]
    if not K[5 - i][5 - i] < math.inf:
        # the longest edge overflowed, or its square: NaN weights
        return [math.nan] * 3
    uu, ww, uw = K[ru][ru], K[rw][rw], su * sw * K[ru][rw]
    bu, bw = su * K[i][ru], sw * K[i][rw]
    det = uu * ww - uw * uw
    if det > _AFFINE_RTOL * uu * ww:
        # a from the first equation (p.u = 0) given b, not by Cramer's rule:
        # on flat triangles b is off by up to eps / sin^2 of the angle, and
        # Cramer's a by a matching amount that slides p = lam @ G along the
        # hull (certificate misses up to 1.6e-3 of its scale on random flat
        # hulls); this way p.u = 0 holds whatever the error in b
        b = (uw * bu - uu * bw) / det
        a = -(bu + uw * b) / uu
        c = 1.0 - a - b
        if a >= 0.0 and b >= 0.0 and c >= 0.0:
            lam = [0.0, 0.0, 0.0]
            lam[i], lam[j], lam[k] = c, a, b
            return lam
    # otherwise the minimum lies on an edge (for affinely dependent rows the
    # hull is the union of its edges).  Each edge's clamped minimiser q meets
    # the certificate at its own two ends; the edge to keep is the one whose
    # third generator meets it too, so pick the largest (g_k - q).q.
    # Comparing ||q||^2 instead picks wrong edges: two edges can agree to
    # 1e-18 in ||q||^2 and differ by 1e-9 in the certificate.
    best = None
    for i, j, k, ru, su, rw, sw in _VERTICES:
        den, t = K[ru][ru], su * K[i][ru]
        theta = 0.0 if den == 0.0 else min(max(-t / den, 0.0), 1.0)
        # q = g_i + theta u and g_k - q = w - theta u, with u = g_j - g_i
        # and w = g_k - g_i
        gap = sw * K[i][rw] + theta * (su * sw * K[ru][rw] - t - theta * den)
        if best is None or gap > best[0]:
            best = (gap, i, j, theta)
    _, i, j, theta = best
    lam = [0.0, 0.0, 0.0]
    lam[i], lam[j] = 1.0 - theta, theta
    return lam


def _min_norm_faces(G):
    """Simplex weights of the minimum-norm point in the hull of k >= 3 rows.

    ``min_norm_in_hull`` sends it only k >= 4 and three rows straight to
    ``_min_norm_three``, which is also what a three-row face here takes.
    More rows take the affine-hull minimiser from the edges g_j - g_0, kept
    when its weights are >= 0; otherwise the minimum lies on a facet, and
    of the k facet minimisers the one with the largest certificate gap
    min_j g_j.p - ||p||^2 is kept, the rule of the edge fallback of
    ``_min_norm_three``: only the true minimiser meets the certificate at
    every row, and for affinely dependent rows the hull is the union of
    its facets.  A face whose edges overflow gets NaN weights instead of
    reaching lstsq, which would raise ``LinAlgError``.  Facets share faces,
    so each face, keyed on its tuple of row indices into ``G``, is solved
    once per call: at most 2^k faces instead of k!/6 paths.
    """
    memo = {}

    def face(rows):
        if rows in memo:
            return memo[rows]
        F = G[list(rows)]
        if len(rows) == 3:
            lam = _min_norm_three(F)
        elif not all_finite(D := F[1:] - F[0]):
            # the edges overflowed: NaN weights, which the caller's value
            # alpha names, where lstsq would raise LinAlgError
            lam = [math.nan] * len(rows)
        else:
            b = np.linalg.lstsq(D.T, -F[0], rcond=None)[0].tolist()
            lam = [1.0 - math.fsum(b), *b]
            if not min(lam) >= 0.0:
                def gap(lam):
                    p = np.array(lam).dot(F)
                    return float(F.dot(p).min() - p.dot(p))

                facets = (face(rows[:i] + rows[i + 1:]) for i in range(len(rows)))
                lam = max(([*f[:i], 0.0, *f[i:]] for i, f in enumerate(facets)), key=gap)
        memo[rows] = lam
        return lam

    return face(tuple(range(G.shape[0])))


def _min_norm(G):
    """``min_norm_in_hull`` of a finite (k, d) array ``G``, k >= 1, without
    checking it."""
    k = G.shape[0]
    # one generator is its own minimum-norm point; the forms below need
    # two rows or more
    if k == 1:
        return np.ones(1), G[0].copy()
    if k == 2:
        diff = G[1] - G[0]
        den = float(diff.dot(diff))
        theta = 0.0 if den == 0.0 else min(max(-float(G[0].dot(diff)) / den, 0.0), 1.0)
        lam = np.array([1.0 - theta, theta])
        return lam, lam.dot(G)

    if k == 3:
        lam = _min_norm_three(G)
    else:
        # an overflow in the face solves comes out as NaN weights, which
        # solve_direction names; numpy's warning would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            lam = _min_norm_faces(G)
    lam = np.array(lam)
    return lam, lam.dot(G)


def min_norm_in_hull(generators):
    """Minimum-norm point of the convex hull of the given vectors.

    Returns ``(lam, point)`` with simplex weights ``lam`` and
    ``point = lam @ generators``, exact up to rounding: it meets the KKT
    certificate g_j.point >= ||point||^2 - KKT_TOL * max(1, max_j ||g_j||^2)
    for every generator.  One and two generators have closed forms, three
    go to ``_min_norm_three`` and four or more through ``_min_norm_faces``.
    Where the differences of the generators (or, for three, the squared
    length of an edge) overflow, the weights and the point are NaN: no form
    raises on finite generators.  Raises ``ValueError`` on no generator or
    a non-finite entry; the kernel behind it, ``_min_norm``, checks nothing,
    and ``solve_direction`` calls it directly on the rows ``evaluate`` has
    checked.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G.reshape(1, -1)
    if G.shape[0] < 1:
        raise ValueError("need at least one generator")
    if not all_finite(G):
        raise ValueError("generators contain non-finite entries")
    return _min_norm(G)


def solve_direction(bundle: EvalBundle, kind: SubproblemKind,
                    epsilon: float = 0.0) -> DirectionResult:
    """Solve SP1 or SP2 at the bundle's point, with the inequalities active
    at tolerance ``epsilon``.

    SP1 adds the active DG rows to the generators (the objective gradients),
    SP2 adds them to the equality rows (DH).  With no active inequality the
    two coincide: SP1 is then the Fliege-Svaiter problem SP, or SPe when
    there are equality rows.  Construction: compute an orthonormal kernel
    basis of the equality rows, project the generators into kernel
    coordinates, take the min-norm point of their hull, and map back:
    v = -(basis @ point).  Without equality rows the kernel is the whole
    space and the generators are used as they are.

    The active set is the bundle's own ``active`` when the bundle was
    scanned at ``epsilon`` (the descent loop's bundles, for SP1), and
    ``active_set(bundle, epsilon)`` otherwise.

    This is the one place that decides a direction overflowed: it raises
    ``ModescentError`` naming the subproblem when the projected generators
    are not finite, or when the value alpha is not (a NaN slope that
    ``max`` would drop counts), so every returned alpha is finite.
    """
    act = bundle.active if bundle.active_epsilon == epsilon else active_set(bundle, epsilon)
    gens, eq_rows = bundle.DF_val, bundle.DH_val
    if act:
        act_rows = bundle.DG_val.take([i - 1 for i in act], axis=0)
        if kind is _EQUALITY_ICS:
            eq_rows = np.concatenate((eq_rows, act_rows))
        else:
            gens = np.concatenate((gens, act_rows))

    # the projection can overflow, and the checked entry's only ValueError
    # here is a non-finite entry: there are m >= 1 generators
    if len(eq_rows):
        basis = _tangent_basis(eq_rows)
        try:
            lam, point = min_norm_in_hull(gens.dot(basis))
        except ValueError:
            raise ModescentError(f"direction subproblem {kind.value} overflowed: its "
                                 "projected generators are not finite") from None
        v = -basis.dot(point)
    else:
        lam, point = _min_norm(gens)
        v = -point
    # max_i g_i.v in Python floats; a NaN anywhere fails the test and makes
    # it NaN, as numpy's max does
    slopes = gens.dot(v).tolist()
    top = max(slopes)
    for s in slopes:
        if not s <= top:
            top = math.nan
            break
    # a value that is not finite (NaN, or +-inf before the clamp at 0)
    # comes from arithmetic that overflowed; no criticality test may read it
    # and no line search can step along it
    alpha = top + 0.5 * float(v.dot(v))
    if not math.isfinite(alpha):
        raise ModescentError(f"direction subproblem {kind.value} overflowed: its value "
                             f"alpha is {alpha}, not finite")
    if alpha > 0.0:
        alpha = 0.0
    return DirectionResult(v, alpha, lam, act)
