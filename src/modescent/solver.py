"""Descent iteration loops: the equality-constrained method and the merged
active-set method with the eta switch between boundary-following and
boundary-leaving steps."""

import csv
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .direction import SubproblemKind, active_set, solve_direction
from .errors import ModescentError
from .geometry import ManifoldChart, feasible_start, project
from .linesearch import armijo_step, boundary_step, feasible_armijo_step, _pick_retraction
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
    gamma: float = 1.0
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
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
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
        return max(0, len(self.records) - 1)

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
    """Descent loop for equality-constrained problems (no inequalities).

    Projects the start onto the manifold, then repeats: tangent-space
    direction, Armijo step through the retraction, projection.  Stops when
    the subproblem value rises above -tol_alpha or at the iteration cap.
    Returns ``(final_point, IterateTrace)``; a ``ModescentError`` raised
    inside the loop carries the partial trace as ``err.trace``.
    """
    if problem.m_G != 0:
        raise ValueError("solve_equality requires a problem without inequality constraints")
    chart = ManifoldChart(problem, ())
    retract = _pick_retraction(chart, config)
    kind = SubproblemKind.EQUALITY if problem.m_H > 0 else SubproblemKind.UNCONSTRAINED
    branch = f"{kind.value}-step"

    trace = IterateTrace(problem_name=problem.name, config=config)
    x = project(chart, as_point(x_init, problem.n)) if problem.m_H > 0 \
        else as_point(x_init, problem.n)
    try:
        for it in range(config.max_iters):
            bundle = evaluate(problem, x)
            d = solve_direction(bundle, kind, 0.0, config.gamma)
            if d.alpha >= -config.tol_alpha:
                trace.records.append(IterateRecord(
                    iteration=it, x=x.copy(), F=bundle.F_val.copy(),
                    alpha=d.alpha, active_set=()))
                trace.termination = TERMINATED_CRITICAL
                break
            step = armijo_step(bundle, d.v, retract, config.beta0, config.beta,
                               config.sigma, config.k_max)
            trace.records.append(IterateRecord(
                iteration=it, x=x.copy(), F=bundle.F_val.copy(), alpha=d.alpha,
                active_set=(), branch=branch, t=step.t, k=step.k))
            x = step.new_point
        else:
            bundle = evaluate(problem, x)
            d = solve_direction(bundle, kind, 0.0, config.gamma)
            trace.records.append(IterateRecord(
                iteration=config.max_iters, x=x.copy(), F=bundle.F_val.copy(),
                alpha=d.alpha, active_set=()))
            trace.termination = ITER_CAP
    except ModescentError as err:
        raise _attach_trace(err, trace, x)

    trace.final_x = x.copy()
    trace.final_alpha = trace.records[-1].alpha
    return x, trace


def solve_constrained(problem: ProblemSpec, x_init, config: SolverConfig = SolverConfig()):
    """Merged active-set descent loop for problems with inequalities.

    Per iteration: with any inequality active at tolerance ``epsilon`` and a
    finite eta, solve the boundary subproblem (active inequalities pinned as
    equalities at tolerance ``eps_act``); follow the boundary while its
    value alpha2 <= -eta and a step is possible, otherwise fall back to the
    boundary-leaving subproblem (active inequalities as extra objectives)
    and stop once its value alpha1 >= -tol_alpha.  Returns
    ``(final_point, IterateTrace)``; a ``ModescentError`` raised by the
    feasibility solve or inside the loop carries the partial trace as
    ``err.trace``.
    """
    trace = IterateTrace(problem_name=problem.name, config=config)
    try:
        x = feasible_start(problem, x_init)
    except ModescentError as err:
        raise _attach_trace(err, trace, as_point(x_init, problem.n))

    try:
        for it in range(config.max_iters):
            bundle = evaluate(problem, x)
            d2 = None
            if problem.m_G > 0 and math.isfinite(config.eta) \
                    and len(active_set(bundle, config.epsilon)) > 0:
                d2 = solve_direction(bundle, SubproblemKind.EQUALITY_ICS,
                                     config.eps_act, config.gamma)
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

            d1 = solve_direction(bundle, SubproblemKind.OBJECTIVE_ICS,
                                 config.epsilon, config.gamma)
            alpha2 = d2.alpha if d2 is not None else None
            if d1.alpha >= -config.tol_alpha:
                trace.records.append(IterateRecord(
                    iteration=it, x=x.copy(), F=bundle.F_val.copy(),
                    alpha=d1.alpha, active_set=d1.active_set.indices, alpha2=alpha2))
                trace.termination = TERMINATED_CRITICAL
                break
            step = feasible_armijo_step(bundle, d1.v, config)
            trace.records.append(IterateRecord(
                iteration=it, x=x.copy(), F=bundle.F_val.copy(), alpha=d1.alpha,
                active_set=d1.active_set.indices, branch="SP1-step",
                t=step.t, k=step.k, alpha2=alpha2))
            x = step.new_point
        else:
            bundle = evaluate(problem, x)
            d1 = solve_direction(bundle, SubproblemKind.OBJECTIVE_ICS,
                                 config.epsilon, config.gamma)
            trace.records.append(IterateRecord(
                iteration=config.max_iters, x=x.copy(), F=bundle.F_val.copy(),
                alpha=d1.alpha, active_set=d1.active_set.indices))
            trace.termination = ITER_CAP
    except ModescentError as err:
        raise _attach_trace(err, trace, x)

    trace.final_x = x.copy()
    # both exits record the stopping value alpha1 at the final point
    trace.final_alpha = trace.records[-1].alpha
    return x, trace


# ---------------------------------------------------------------------------
# trace serialization


def _fmt(value) -> str:
    return format(float(value), ".17g")


def write_trace_csv(trace: IterateTrace, path) -> None:
    """Columns: iter, x..., F..., alpha, branch, t, active_set."""
    n = len(trace.records[0].x)
    m = len(trace.records[0].F)
    header = (["iter"] + [f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "branch", "t", "active_set"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in trace.records:
            row = [str(rec.iteration)]
            row += [_fmt(v) for v in rec.x]
            row += [_fmt(v) for v in rec.F]
            row.append(_fmt(rec.alpha))
            row.append(rec.branch or "")
            row.append(_fmt(rec.t) if rec.t is not None else "")
            row.append(";".join(str(i) for i in rec.active_set))
            writer.writerow(row)


def trace_to_dict(trace: IterateTrace) -> dict:
    config = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
              for k, v in asdict(trace.config).items()}
    return {
        "problem": trace.problem_name,
        "config": config,
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
    with open(path, "w") as fh:
        json.dump(trace_to_dict(trace), fh, indent=2, sort_keys=True)
        fh.write("\n")
