"""The descent loop: the merged active-set method with the eta switch
between boundary-following and boundary-leaving steps, and
``solve_equality``, its entry point for problems without inequalities."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .direction import SubproblemKind, solve_direction
from .errors import IllConditionedDirection, ModescentError, RankError
from .geometry import EPS_ACT, ManifoldChart, feasible_start, free_chart
from .linesearch import boundary_step, feasible_armijo_step
from .output import config_to_dict, fmt, write_csv, write_json
from .problems import ProblemSpec, _evaluate, as_point

TERMINATED_CRITICAL = "TERMINATED_CRITICAL"
ITER_CAP = "ITER_CAP"
# a point is critical once the boundary-leaving value alpha1 >= -TOL_ALPHA,
# and -||v||^2 / 2 of its direction >= -2 TOL_ALPHA agrees
TOL_ALPHA = 1e-8
# read once, as in direction: an Enum member read costs about 0.1 us
_SP1, _SP2 = SubproblemKind.OBJECTIVE_ICS, SubproblemKind.EQUALITY_ICS


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the descent loops.

    ``eta`` is the strategy switch: boundary-following steps are taken while
    the boundary subproblem value stays below -eta; ``eta = inf`` selects the
    pure boundary-leaving strategy.  ``epsilon`` is the active-set tolerance
    of the boundary-leaving subproblem.  These six fields are the CLI's
    solver options.  The retraction is not one: every step retracts onto
    its chart by ``ManifoldChart.retract``, the nearest-point projection.
    """

    beta0: float = 1.0
    beta: float = 0.5
    sigma: float = 1e-4
    epsilon: float = 1e-4
    eta: float = math.inf
    max_iters: int = 10000

    def __post_init__(self):
        # a bool would pass the tests below as 1 or 0, and reach the
        # manifest as true or false
        for name in ("beta0", "beta", "sigma", "epsilon", "eta", "max_iters"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        # each float test is written so that NaN fails it
        if not (0.0 < self.beta0 < math.inf):
            raise ValueError("beta0 must be finite and > 0")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (0.0 < self.sigma < 1.0):
            raise ValueError("sigma must lie in (0, 1)")
        if not (self.epsilon >= 0):
            raise ValueError("epsilon must be >= 0")
        if not (self.eta >= 0):
            raise ValueError("eta must be >= 0 (inf selects the pure boundary-leaving strategy)")
        # ints and numpy integers; not 2.5, 3.0 or "3"
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")


@dataclass(slots=True)
class IterateRecord:
    """One visited iterate; step fields are None on the terminal record.

    ``x`` is the descent loop's own iterate, held without a copy: the loop
    builds a new array for each iterate and never writes to one.  ``F`` is
    a copy, since the value can be the objective map's own buffer.
    """

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
    # a copy: x can be the caller's start, or a view of it
    trace.final_x = np.array(x, dtype=float)
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
    equalities at tolerance ``EPS_ACT``); follow the boundary while its
    value alpha2 <= -eta and a step is possible, otherwise fall back to the
    boundary-leaving subproblem (active inequalities as extra objectives).
    A boundary subproblem whose pinned rows are rank deficient (``RankError``)
    has no direction: that iteration takes the boundary-leaving step and
    records alpha2 as None.  The loop stops once alpha1 >= -TOL_ALPHA, or
    after ``max_iters`` steps (``ITER_CAP`` unless alpha1 at the final point
    passes the same test).
    A direction whose arithmetic overflowed fails the run: ``solve_direction``
    raises ``ModescentError`` naming the subproblem, so every alpha the loop
    reads, the one at the cap included, is finite.  An alpha1 that reads
    critical counts only where -||v||^2 / 2 >= -2 TOL_ALPHA agrees: on a
    badly scaled hull the slopes of alpha1 cancel to O(1) errors, and the
    run fails with ``IllConditionedDirection`` instead of claiming a
    critical point.
    Returns ``(final_point, IterateTrace)``; a ``ModescentError`` raised by
    the feasibility solve or inside the loop carries the partial trace as
    ``err.trace``.

    Each iterate is evaluated once, through the unchecked kernel
    ``problems._evaluate``: the iterate is the array the feasible start or
    the step's retraction built, so it is not coerced again.  The next
    iteration takes F at the accepted point, and G where the step computed
    it, from the step instead of calling the maps again; F is checked
    again there (the Armijo test lets -inf through), and G is not, since
    the step's feasibility test has found it finite.  DG is called, and
    checked, only at iterates with an inequality active at tolerance
    ``epsilon``, the only ones where SP1, SP2 or the feasible step read
    it: a DG that is not finite elsewhere does not fail the run, and one
    that is not finite where it is read raises ``EvaluationError``
    naming ``DG``.  The bundle keeps the rows that scan found active, and
    SP1, solved at ``epsilon``, takes its active set from there.  Records
    hold the iterate arrays themselves; the returned point and
    ``trace.final_x`` are copies of their own.
    """
    trace = IterateTrace(problem_name=problem.name, config=config)
    try:
        x = feasible_start(problem, x_init)
    except ModescentError as err:
        raise _attach_trace(err, trace, as_point(x_init, problem.n))

    records = trace.records
    max_iters, eta, epsilon = config.max_iters, config.eta, config.epsilon
    follow = math.isfinite(eta)
    # F and G at x when the accepted step already computed them
    F_val = G_val = None
    try:
        for it in range(max_iters + 1):
            # the pass after the last allowed step only records alpha1
            at_cap = it == max_iters
            bundle = _evaluate(problem, x, F_val, G_val, epsilon)
            d2 = step = None
            # the bundle holds DG exactly where some inequality is active at
            # tolerance epsilon
            if follow and not at_cap and bundle.DG_val is not None:
                try:
                    d2 = solve_direction(bundle, _SP2, EPS_ACT)
                except RankError:
                    # more pinned rows than the tangent space holds, or
                    # dependent ones: no boundary direction exists here
                    d2 = None
                # a missing or numerically null boundary direction cannot drive
                # a step, so it falls through to the boundary-leaving branch
                if d2 is not None and d2.alpha <= -eta and d2.alpha < -TOL_ALPHA:
                    d, branch = d2, "SP2-step"
                    # a chart that pins nothing is the problem's cached one
                    chart = ManifoldChart(problem, d.active_set) if d.active_set \
                        else free_chart(problem)
                    step = boundary_step(bundle, d.v, chart, config)
            alpha2 = d2.alpha if d2 is not None else None
            if step is None:
                d = solve_direction(bundle, _SP1, epsilon)
                critical = d.alpha >= -TOL_ALPHA
                if critical:
                    half_sq = -0.5 * float(d.v.dot(d.v))
                    if not half_sq >= -2.0 * TOL_ALPHA:
                        raise IllConditionedDirection(
                            f"direction subproblem SP1 is ill-conditioned: its value alpha "
                            f"{d.alpha!r} reads critical, but -||v||^2/2 is {half_sq!r}")
                if at_cap or critical:
                    # positional, in field order; the terminal record has no step
                    records.append(IterateRecord(it, x, bundle.F_val.copy(), d.alpha,
                                                 d.active_set, None, None, None, alpha2))
                    trace.termination = TERMINATED_CRITICAL if critical else ITER_CAP
                    break
                branch = "SP1-step"
                step = feasible_armijo_step(bundle, d.v, d.active_set, config)
            records.append(IterateRecord(it, x, bundle.F_val.copy(), d.alpha, d.active_set,
                                         branch, step.t, step.k, alpha2))
            x, F_val, G_val = step.new_point, step.armijo_lhs, step.G_val
    except ModescentError as err:
        raise _attach_trace(err, trace, x)

    # the terminal record holds x; the trace and the caller get copies of
    # their own
    trace.final_x = x.copy()
    # the terminal record holds the stopping value alpha1 at the final point
    trace.final_alpha = trace.records[-1].alpha
    return x.copy(), trace


# ---------------------------------------------------------------------------
# trace serialization


def write_trace_csv(trace: IterateTrace, path) -> None:
    """Columns: iter, x..., F..., alpha, branch, t, active_set."""
    n = len(trace.records[0].x)
    m = len(trace.records[0].F)
    header = (["iter"] + [f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "branch", "t", "active_set"])
    lines = []
    for rec in trace.records:
        row = [str(rec.iteration)]
        row += [fmt(v) for v in rec.x]
        row += [fmt(v) for v in rec.F]
        row.append(fmt(rec.alpha))
        row.append(rec.branch or "")
        row.append(fmt(rec.t) if rec.t is not None else "")
        row.append(";".join(str(i) for i in rec.active_set))
        lines.append(",".join(row) + "\n")
    write_csv(path, header, lines)


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
