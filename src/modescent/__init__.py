"""Steepest descent for equality- and inequality-constrained multiobjective
optimization, with two active-set strategies and a multistart front driver."""

from .direction import (DirectionResult, SubproblemKind, active_set, min_norm_in_hull,
                        solve_direction, tangent_basis)
from .errors import (EvaluationError, IllConditionedDirection, MapError, MapShapeError,
                     ModescentError, NoConvergence, NoStep, RankError,
                     StepPreconditionError, UnknownProblemError)
from .geometry import ManifoldChart, feasible_start, project
from .globalize import (ArchiveEntry, deduplicate, grid_points, multistart,
                        nondominated_filter)
from .linesearch import StepResult, armijo_step, boundary_step, feasible_armijo_step
from .problems import (EvalBundle, ProblemSpec, evaluate, fd_audit, load_problem,
                       registry_get, registry_names)
from .solver import (ITER_CAP, IterateRecord, IterateTrace, SolverConfig,
                     TERMINATED_CRITICAL, solve_constrained, solve_equality,
                     write_trace_csv, write_trace_json)

__all__ = [
    "ArchiveEntry", "DirectionResult", "EvalBundle", "EvaluationError",
    "ITER_CAP", "IllConditionedDirection", "IterateRecord", "IterateTrace",
    "ManifoldChart", "MapError", "MapShapeError", "ModescentError", "NoConvergence",
    "NoStep", "ProblemSpec", "RankError", "SolverConfig",
    "StepPreconditionError", "StepResult", "SubproblemKind", "TERMINATED_CRITICAL", "UnknownProblemError",
    "active_set", "armijo_step", "boundary_step", "deduplicate", "evaluate",
    "fd_audit", "feasible_armijo_step", "feasible_start", "grid_points",
    "load_problem", "min_norm_in_hull", "multistart", "nondominated_filter",
    "project", "registry_get", "registry_names", "solve_constrained",
    "solve_direction", "solve_equality", "tangent_basis", "write_trace_csv",
    "write_trace_json",
]

__version__ = "0.1.0"
