"""The descent loop: the merged active-set method with the eta switch
between boundary-following and boundary-leaving steps, and
``solve_equality``, its entry point for problems without inequalities."""

import math
from dataclasses import dataclass, field

import numpy as np

from .direction import SubproblemKind, active_set, solve_direction
from .errors import ModescentError
from .geometry import ManifoldChart, feasible_start
from .linesearch import boundary_step, feasible_armijo_step
from .output import config_to_dict, fmt, write_csv, write_json
from .problems import ProblemSpec, as_point, evaluate

TERMINATED_CRITICAL = "TERMINATED_CRITICAL"
ITER_CAP = "ITER_CAP"


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the descent loops.

    ``eta`` is the strategy switch: boundary-following steps are taken while
    the boundary subproblem value stays below -eta; ``eta = inf`` selects the
    pure boundary-leaving strategy.  ``epsilon`` is the active-set tolerance
    of the boundary-leaving subproblem, ``eps_act`` the (much tighter)
    activation tolerance for treating an inequality as an equality.
    """

    beta0: float = 1.0
    beta: float = 0.5
    sigma: float = 1e-4
    epsilon: float = 1e-4
    eta: float = math.inf
    tol_alpha: float = 1e-8
    max_iters: int = 10000
    eps_act: float = 1e-9
    retraction: str = "project"
    k_max: int = 60

    def __post_init__(self):
        if self.beta0 <= 0:
            raise ValueError("beta0 must be > 0")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.eta < 0:
            raise ValueError("eta must be >= 0 (inf selects the pure boundary-leaving strategy)")
        if self.tol_alpha <= 0:
            raise ValueError("tol_alpha must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.eps_act < 0:
            raise ValueError("eps_act must be >= 0")
        if self.retraction not in ("project", "psi"):
            raise ValueError("retraction must be 'project' or 'psi'")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass
class IterateRecord:
    """One visited iterate; step fields are None on the terminal record."""

    iteration: int
    x: np.ndarray
    F: np.ndarray
    alpha: float
    active_set: tuple
    branch: str | None = None
    t: float | None = None
    k: int | None = None
    alpha2: float | None = None


@dataclass
class IterateTrace:
    """Full record of one solve."""

    problem_name: str
    config: SolverConfig
    records: list = field(default_factory=list)
    termination: str = ""
    final_x: np.ndarray | None = None
    final_alpha: float | None = None

    @property
    def iterations(self) -> int:
        """Steps taken: records with a step length (a failed trace has no
        terminal record)."""
        return sum(1 for rec in self.records if rec.t is not None)

    def branch_counts(self) -> dict:
        counts: dict = {}
        for rec in self.records:
            if rec.branch is not None:
                counts[rec.branch] = counts.get(rec.branch, 0) + 1
        return counts


def _attach_trace(err, trace, x):
    trace.termination = f"FAILED:{type(err).__name__}"
    trace.final_x = np.asarray(x, dtype=float)
    err.trace = trace
    return err


def solve_equality(problem: ProblemSpec, x_init, config: SolverConfig = SolverConfig()):
    """Entry point for problems without inequalities (m_G = 0).

    Runs the same loop as ``solve_constrained``: with no inequality the
    boundary-leaving subproblem is the tangent-space (or unconstrained)
    direction and the feasible step is plain Armijo through the manifold
    retraction, so every step is recorded as an ``SP1-step``.
    """
    if problem.m_G != 0:
        raise ValueError("solve_equality requires a problem without inequality constraints")
    return solve_constrained(problem, x_init, config)


def solve_constrained(problem: ProblemSpec, x_init, config: SolverConfig = SolverConfig()):
    """Merged active-set descent loop.

    Per iteration: with any inequality active at tolerance ``epsilon`` and a
    finite eta, solve the boundary subproblem (active inequalities pinned as
    equalities at tolerance ``eps_act``); follow the boundary while its
    value alpha2 <= -eta and a step is possible, otherwise fall back to the
    boundary-leaving subproblem (active inequalities as extra objectives)
    and stop once its value alpha1 >= -tol_alpha, or after ``max_iters``
    steps.  Returns ``(final_point, IterateTrace)``; a ``ModescentError``
    raised by the feasibility solve or inside the loop carries the partial
    trace as ``err.trace``.
    """
    trace = IterateTrace(problem_name=problem.name, config=config)
    try:
        x = feasible_start(problem, x_init)
    except ModescentError as err:
        raise _attach_trace(err, trace, as_point(x_init, problem.n))

    try:
        for it in range(config.max_iters + 1):
            # the pass after the last allowed step only records alpha1
            at_cap = it == config.max_iters
            bundle = evaluate(problem, x)
            d2 = None
            if not at_cap and problem.m_G > 0 and math.isfinite(config.eta) \
                    and len(active_set(bundle, config.epsilon)) > 0:
                d2 = solve_direction(bundle, SubproblemKind.EQUALITY_ICS, config.eps_act)
                # a numerically null boundary direction cannot drive a step, so
                # it falls through to the boundary-leaving branch as well
                if not (d2.alpha > -config.eta or d2.alpha >= -config.tol_alpha):
                    chart = ManifoldChart(problem, d2.active_set.indices)
                    step = boundary_step(bundle, d2.v, chart, config)
                    trace.records.append(IterateRecord(
                        iteration=it, x=x.copy(), F=bundle.F_val.copy(),
                        alpha=d2.alpha, active_set=d2.active_set.indices,
                        branch="SP2-step", t=step.t, k=step.k, alpha2=d2.alpha))
                    x = step.new_point
                    continue

            d1 = solve_direction(bundle, SubproblemKind.OBJECTIVE_ICS, config.epsilon)
            alpha2 = d2.alpha if d2 is not None else None
            if at_cap or d1.alpha >= -config.tol_alpha:
                trace.records.append(IterateRecord(
                    iteration=it, x=x.copy(), F=bundle.F_val.copy(),
                    alpha=d1.alpha, active_set=d1.active_set.indices, alpha2=alpha2))
                trace.termination = ITER_CAP if at_cap else TERMINATED_CRITICAL
                break
            step = feasible_armijo_step(bundle, d1.v, d1.active_set, config)
            trace.records.append(IterateRecord(
                iteration=it, x=x.copy(), F=bundle.F_val.copy(), alpha=d1.alpha,
                active_set=d1.active_set.indices, branch="SP1-step",
                t=step.t, k=step.k, alpha2=alpha2))
            x = step.new_point
    except ModescentError as err:
        raise _attach_trace(err, trace, x)

    trace.final_x = x.copy()
    # the terminal record holds the stopping value alpha1 at the final point
    trace.final_alpha = trace.records[-1].alpha
    return x, trace


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: IterateTrace, path) -> None:
    """Columns: iter, x..., F..., alpha, branch, t, active_set."""
    n = len(trace.records[0].x)
    m = len(trace.records[0].F)
    header = (["iter"] + [f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "branch", "t", "active_set"])
    rows = []
    for rec in trace.records:
        row = [str(rec.iteration)]
        row += [fmt(v) for v in rec.x]
        row += [fmt(v) for v in rec.F]
        row.append(fmt(rec.alpha))
        row.append(rec.branch or "")
        row.append(fmt(rec.t) if rec.t is not None else "")
        row.append(";".join(str(i) for i in rec.active_set))
        rows.append(row)
    write_csv(path, header, rows)


def trace_to_dict(trace: IterateTrace) -> dict:
    return {
        "problem": trace.problem_name,
        "config": config_to_dict(trace.config),
        "termination": trace.termination,
        "final_x": [float(v) for v in trace.final_x],
        "final_alpha": trace.final_alpha,
        "iterations": trace.iterations,
        "records": [
            {
                "iter": rec.iteration,
                "x": [float(v) for v in rec.x],
                "F": [float(v) for v in rec.F],
                "alpha": rec.alpha,
                "alpha2": rec.alpha2,
                "branch": rec.branch,
                "t": rec.t,
                "k": rec.k,
                "active_set": list(rec.active_set),
            }
            for rec in trace.records
        ],
    }


def write_trace_json(trace: IterateTrace, path) -> None:
    write_json(path, trace_to_dict(trace))
