"""Steepest common descent directions for the four subproblem variants.

Each variant is solved through its dual: the direction is the negative of the
minimum-norm point in the convex hull of the (projected) generator gradients,
with simplex weights as the dual certificate.
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
    UNCONSTRAINED = "SP"
    EQUALITY = "SPe"
    OBJECTIVE_ICS = "SP1"
    EQUALITY_ICS = "SP2"


@dataclass(frozen=True)
class ActiveSet:
    """Inequality indices (1-based) within ``epsilon`` of their boundary."""

    indices: tuple
    epsilon: float

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class DirectionResult:
    """Solution of one direction subproblem.

    ``v`` is the descent direction, ``alpha`` the optimal value
    max_i g_i.v + 0.5*||v||^2 (always <= 0, and 0 exactly at critical
    points).  ``lam`` are simplex weights over ``generators`` with
    v = -sum lam_i (projected gradient)_i, and ``maxset`` lists the
    generators attaining max g.v.
    """

    v: np.ndarray
    alpha: float
    lam: np.ndarray
    generators: tuple
    kind: SubproblemKind
    maxset: tuple
    active_set: ActiveSet


def active_set(bundle: EvalBundle, epsilon: float) -> ActiveSet:
    """Indices i with G_i(x) >= -epsilon at the bundle's point."""
    if epsilon < 0:
        raise ValueError("active-set tolerance must be >= 0")
    idx = tuple(int(i) + 1 for i in np.flatnonzero(bundle.G_val >= -epsilon))
    return ActiveSet(indices=idx, epsilon=float(epsilon))


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
    if not np.all(np.isfinite(A)):
        raise ValueError("eq_rows contains non-finite entries")
    if k > n:
        raise RankError(f"{k} constraint rows cannot be independent in dimension {n}")
    _, s, vt = np.linalg.svd(A)
    if s[0] == 0.0 or np.any(s <= RANK_RTOL * s[0]):
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


def _enumerate_min_norm(G, tol):
    """Exhaustive fallback over support sets; exact for small generator counts."""
    k = G.shape[0]
    best = None
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        w = _affine_weights(G[idx])
        if np.min(w) < -1e-10:
            continue
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        p = w @ G[idx]
        nrm = p @ p
        if best is None or nrm < best[0]:
            lam = np.zeros(k)
            lam[idx] = w
            best = (nrm, lam, p)
    return best[1], best[2]


def min_norm_in_hull(generators, tol: float = KKT_TOL):
    """Minimum-norm point of the convex hull of the given vectors.

    Returns ``(lam, point)`` with ``point = lam @ generators`` and the KKT
    certificate g_j.point >= ||point||^2 - tol for every generator.  Uses
    Wolfe's min-norm-point iteration with closed forms for one or two
    generators and an exhaustive small-instance fallback if the iteration
    stalls.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G.reshape(1, -1)
    k, d = G.shape
    if k < 1:
        raise ValueError("need at least one generator")
    if not np.all(np.isfinite(G)):
        raise ValueError("generators contain non-finite entries")

    if d == 0:
        return np.full(k, 1.0 / k), np.zeros(0)
    if k == 1:
        return np.ones(1), G[0].copy()
    if k == 2:
        diff = G[1] - G[0]
        den = diff @ diff
        theta = 0.0 if den == 0.0 else float(np.clip(-(G[0] @ diff) / den, 0.0, 1.0))
        lam = np.array([1.0 - theta, theta])
        return lam, lam @ G

    sq = np.einsum("ij,ij->i", G, G)
    tol_eff = tol * max(1.0, float(sq.max()))

    support = [int(np.argmin(sq))]
    w = np.ones(1)
    converged = False
    for _ in range(50 * (k + 2)):
        p = w @ G[support]
        dots = G @ p
        j = int(np.argmin(dots))
        if dots[j] >= p @ p - tol_eff:
            converged = True
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
    p = lam @ G
    if not converged and k <= 14:
        dots = G @ p
        if dots.min() < p @ p - 10.0 * tol_eff:
            lam, p = _enumerate_min_norm(G, tol_eff)
    return lam, p


def solve_direction(bundle: EvalBundle, kind: SubproblemKind,
                    epsilon: float = 0.0) -> DirectionResult:
    """Solve one of the four direction subproblems at the bundle's point.

    Construction: stack the equality rows of the variant (DH, plus the
    active DG rows for EQUALITY_ICS), compute an orthonormal kernel basis,
    project the generator gradients (objectives, plus active DG rows for
    OBJECTIVE_ICS) into kernel coordinates, take the min-norm point of
    their hull, and map back: v = -(basis @ point).
    """
    problem = bundle.problem
    n = problem.n

    if kind in (SubproblemKind.OBJECTIVE_ICS, SubproblemKind.EQUALITY_ICS):
        act = active_set(bundle, epsilon)
    else:
        act = ActiveSet(indices=(), epsilon=float(epsilon))
    act_rows = [i - 1 for i in act.indices]

    if kind is SubproblemKind.UNCONSTRAINED:
        eq_rows = np.zeros((0, n))
    elif kind is SubproblemKind.EQUALITY_ICS:
        eq_rows = np.vstack([bundle.DH_val, bundle.DG_val[act_rows]])
    else:
        eq_rows = bundle.DH_val
    basis = tangent_basis(eq_rows)

    gens = bundle.DF_val
    labels = [f"F{i + 1}" for i in range(problem.m)]
    if kind is SubproblemKind.OBJECTIVE_ICS and act_rows:
        gens = np.vstack([gens, bundle.DG_val[act_rows]])
        labels += [f"G{i}" for i in act.indices]

    lam, point = min_norm_in_hull(gens @ basis)
    v = -(basis @ point)
    dots = gens @ v
    max_dot = float(dots.max())
    alpha = min(0.0, max_dot + 0.5 * float(v @ v))
    maxset = tuple(lab for lab, dv in zip(labels, dots) if dv >= max_dot - 1e-8)

    return DirectionResult(
        v=v, alpha=alpha, lam=lam, generators=tuple(labels),
        kind=kind, maxset=maxset, active_set=act,
    )
