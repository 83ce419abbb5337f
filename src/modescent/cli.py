"""Command-line front end: solve, front (multistart + filter), audit.

Exit codes: 0 success (critical point reached / checks passed), 1 runtime
error, failed audit, or a front in which every start failed, 2 iteration
cap, 64 usage error.
"""

import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from .direction import KKT_TOL, min_norm_in_hull, tangent_basis
from .errors import ModescentError, NoConvergence, UnknownProblemError
from .geometry import ManifoldChart, chart_jacobian, project
from .globalize import (deduplicate, grid_points, multistart, nondominated_filter,
                        write_archive_csv, write_archive_json)
from .output import config_to_dict, write_json
from .problems import evaluate, fd_audit, load_problem, registry_get, registry_names
from .solver import (SolverConfig, TERMINATED_CRITICAL, solve_constrained,
                     write_trace_csv, write_trace_json)

_AUDIT_SEED = 20170907


def _parse_x0(value, n):
    try:
        vec = np.array([float(part) for part in value.split(",")], dtype=float)
    except ValueError:
        raise click.UsageError(f"--x0 expects comma-separated numbers, got {value!r}")
    if vec.size != n:
        raise click.UsageError(f"--x0 has {vec.size} components, problem dimension is {n}")
    return vec


def _parse_grid(value, n):
    try:
        counts = tuple(int(part) for part in value.lower().split("x"))
    except ValueError:
        raise click.UsageError(f"--grid expects counts like 20x20, got {value!r}")
    if len(counts) != n or any(c < 1 for c in counts):
        raise click.UsageError(f"--grid must give {n} positive counts, got {value!r}")
    return counts


def _resolve_problem(name, problem_file):
    if (name is None) == (problem_file is None):
        raise click.UsageError("give exactly one of --problem or --problem-file")
    if name is not None:
        try:
            return registry_get(name)
        except UnknownProblemError as err:
            raise click.UsageError(str(err))
    try:
        return load_problem(problem_file)
    except (OSError, ValueError) as err:
        raise click.UsageError(f"cannot load problem file {problem_file}: {err}")


def _build_config(**kwargs):
    try:
        return SolverConfig(**kwargs)
    except ValueError as err:
        raise click.UsageError(str(err))


def _solver_options(fn):
    opts = [
        click.option("--beta0", type=float, default=SolverConfig.beta0,
                     show_default=True, help="initial step length"),
        click.option("--beta", type=float, default=SolverConfig.beta,
                     show_default=True, help="backtracking factor in (0,1)"),
        click.option("--sigma", type=float, default=SolverConfig.sigma,
                     show_default=True, help="sufficient-decrease factor in (0,1)"),
        click.option("--eps", "epsilon", type=float, default=SolverConfig.epsilon,
                     show_default=True, help="active-set tolerance"),
        click.option("--eta", type=float, default=SolverConfig.eta, show_default=True,
                     help="strategy switch threshold; 'inf' never follows the boundary"),
        click.option("--max-iters", type=int, default=SolverConfig.max_iters, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _write_manifest(outdir: Path, command, problem, config, outputs, summary, started):
    manifest = {
        "command": command,
        "problem": problem.name,
        "config": config_to_dict(config),
        # relative to the manifest's own directory, so that the manifest's
        # bytes do not depend on where the run was started or written
        "outputs": [p.relative_to(outdir).as_posix() for p in outputs],
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "summary": summary,
        "versions": {"modescent": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
    }
    path = outdir / "manifest.json"
    write_json(path, manifest)
    return path


@click.group()
def cli():
    """Descent solver for equality- and inequality-constrained
    multiobjective problems."""


@cli.command()
@click.option("--problem", "problem_name", help="registered problem name")
@click.option("--problem-file", type=click.Path(exists=True, dir_okay=False),
              help="polynomial problem description (JSON)")
@click.option("--x0", required=True, help="start point, comma separated")
@click.option("--out", "outdir", type=click.Path(file_okay=False), default="run",
              show_default=True, help="output directory")
@_solver_options
def solve(problem_name, problem_file, x0, outdir, **config_kwargs):
    """Run the constrained descent solver from one start point."""
    started = datetime.now(timezone.utc).isoformat()
    problem = _resolve_problem(problem_name, problem_file)
    config = _build_config(**config_kwargs)
    start = _parse_x0(x0, problem.n)

    try:
        x, trace = solve_constrained(problem, start, config)
    except ModescentError as err:
        click.echo(f"error: {err}", err=True)
        return 1

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "trace.csv"
    json_path = outdir / "trace.json"
    write_trace_csv(trace, csv_path)
    write_trace_json(trace, json_path)
    summary = {
        "termination": trace.termination,
        "iterations": trace.iterations,
        "final_x": [float(v) for v in x],
        "final_alpha": trace.final_alpha,
    }
    _write_manifest(outdir, "solve", problem, config, [csv_path, json_path],
                    summary, started)
    click.echo(f"{trace.termination} after {trace.iterations} iterations; "
               f"final alpha {trace.final_alpha:.3e}")
    return 0 if trace.termination == TERMINATED_CRITICAL else 2


@cli.command()
@click.option("--problem", "problem_name", help="registered problem name")
@click.option("--problem-file", type=click.Path(exists=True, dir_okay=False),
              help="polynomial problem description (JSON)")
@click.option("--grid", required=True, help="grid counts per coordinate, e.g. 20x20")
@click.option("--x0", default=None, help="anchor point; only with a grid of all 1s")
@click.option("--out", "outdir", type=click.Path(file_okay=False), default="run",
              show_default=True, help="output directory")
@_solver_options
def front(problem_name, problem_file, grid, x0, outdir, **config_kwargs):
    """Multistart over a sampling grid, then filter to the nondominated front."""
    started = datetime.now(timezone.utc).isoformat()
    problem = _resolve_problem(problem_name, problem_file)
    config = _build_config(**config_kwargs)
    counts = _parse_grid(grid, problem.n)
    if x0 is None:
        starts = grid_points(problem.box, counts)
    elif all(c == 1 for c in counts):
        starts = _parse_x0(x0, problem.n).reshape(1, -1)
    else:
        raise click.UsageError(f"--x0 needs a grid of all 1s, got {grid!r}")

    archive = multistart(problem, starts, config)
    nondominated = nondominated_filter(archive)
    front_archive = deduplicate(nondominated)
    # the filter's one dominance pass gives every flag: an entry without F
    # has none, a kept entry is not dominated, every other one is.  A front
    # entry is nondominated in the whole archive, so in the front as well.
    kept = {id(e) for e in nondominated}
    archive_flags = [None if e.F is None else id(e) not in kept for e in archive]
    front_flags = [False] * len(front_archive)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, arch, flags in (("archive", archive, archive_flags),
                              ("front", front_archive, front_flags)):
        csv_path = outdir / f"{name}.csv"
        json_path = outdir / f"{name}.json"
        write_archive_csv(arch, flags, csv_path, problem.n, problem.m)
        write_archive_json(arch, flags, json_path)
        outputs += [csv_path, json_path]

    failures = sum(1 for e in archive if e.error is not None)
    summary = {
        "runs": len(archive),
        "converged": sum(1 for e in archive if e.converged),
        "failures": failures,
        "front_size": len(front_archive),
    }
    _write_manifest(outdir, "front", problem, config, outputs, summary, started)
    click.echo(f"{len(archive)} runs ({summary['converged']} converged, "
               f"{failures} failed); front size {len(front_archive)}")
    return 1 if failures == len(archive) else 0


def _box_point(problem, rng):
    """One uniform draw from the problem's sampling box."""
    lo = np.array([b[0] for b in problem.box])
    hi = np.array([b[1] for b in problem.box])
    return lo + rng.random(problem.n) * (hi - lo)


def _worst(values):
    """The largest of ``values`` and 0.0, or NaN if any value is NaN, so
    that the check reading it fails; ``max(0.0, nan)`` is 0.0."""
    return float(np.max(values, initial=0.0))


def _audit_fd(problem, rng, report):
    worst = _worst([fd_audit(problem, _box_point(problem, rng), 1e-6) for _ in range(100)])
    ok = worst <= 1e-6
    report(f"derivative audit: worst rel err {worst:.3e}", ok)
    return ok


def _audit_charts(problem):
    charts = []
    if problem.m_H > 0:
        charts.append(ManifoldChart(problem, ()))
    for i in range(1, problem.m_G + 1):
        charts.append(ManifoldChart(problem, (i,)))
    return charts


def _chart_samples(chart, rng, count):
    problem = chart.problem
    samples = []
    for _ in range(20 * count):
        if len(samples) == count:
            break
        y = _box_point(problem, rng)
        try:
            x = project(chart, y)
        except NoConvergence:
            continue
        basis = tangent_basis(chart_jacobian(chart, x))
        if basis.shape[1] == 0:
            continue
        coeff = rng.standard_normal(basis.shape[1])
        norm = np.linalg.norm(coeff)
        if norm < 1e-12:
            continue
        samples.append((x, basis @ (coeff / norm)))
    return samples


def _audit_retraction(problem, rng, report):
    ok = True
    t = 1e-3
    for chart in _audit_charts(problem):
        samples = _chart_samples(chart, rng, 20)
        worst = _worst([float(np.linalg.norm((chart.retract(x, t * v) - x) / t - v))
                        for x, v in samples])
        # a chart where no box point projects has checked nothing
        good = bool(samples) and worst <= 1e-2
        ok = ok and good
        report(f"retraction slope (project, chart {chart.ineq_indices or 'H'}): "
               f"{len(samples)} samples, residual {worst:.3e}", good)
    return ok


def _audit_min_norm(problem, rng, report):
    resids = []
    for _ in range(50):
        x = _box_point(problem, rng)
        bundle = evaluate(problem, x)
        gens = np.vstack([bundle.DF_val, bundle.DG_val]) if problem.m_G > 0 else bundle.DF_val
        lam, p = min_norm_in_hull(gens)
        scale = max(1.0, float(np.max(np.einsum("ij,ij->i", gens, gens))))
        dots = gens @ p
        resid = _worst([
            float(p @ p - dots.min()),
            abs(float(lam.sum()) - 1.0),
            float(np.max(np.abs(lam @ gens - p))),
            -float(lam.min()),
            float(np.max(np.abs(dots[lam > 1e-8] - p @ p), initial=0.0)),
        ])
        resids.append(resid / scale)
    worst = _worst(resids)
    ok = worst <= KKT_TOL
    report(f"min-norm dual certificate: worst residual {worst:.3e}", ok)
    return ok


_AUDIT_CHECKS = (("derivative audit", _audit_fd), ("retraction slope", _audit_retraction),
                 ("min-norm dual certificate", _audit_min_norm))


@cli.command()
@click.option("--problem", "problem_name", default=None,
              help="registered problem name (default: audit all registered problems)")
@click.option("--problem-file", type=click.Path(exists=True, dir_okay=False),
              help="polynomial problem description (JSON)")
def audit(problem_name, problem_file):
    """Derivative, retraction, and dual-certificate checks."""
    if problem_name is not None and problem_file is not None:
        raise click.UsageError("give at most one of --problem or --problem-file")
    if problem_file is not None:
        problems = [_resolve_problem(None, problem_file)]
    elif problem_name is not None:
        problems = [_resolve_problem(problem_name, None)]
    else:
        problems = [registry_get(name) for name in registry_names()]

    all_ok = True
    for problem in problems:
        rng = np.random.default_rng(_AUDIT_SEED)

        def report(message, good, _name=problem.name):
            click.echo(f"[{_name}] {message}: {'PASS' if good else 'FAIL'}")

        for label, check in _AUDIT_CHECKS:
            # a check that fails with a solver error (a map that raises or
            # is not finite at a sample) fails alone; the others still run
            try:
                ok = check(problem, rng, report)
            except ModescentError as err:
                report(f"{label}: error: {err}", False)
                ok = False
            all_ok = ok and all_ok
    return 0 if all_ok else 1


def main(argv=None):
    """Entry point returning the process exit code.

    Every command runs under ``np.errstate(all="ignore")``, as
    ``multistart`` runs its starts: the run's own checks, and the audit's,
    which fail on NaN, name every overflow, so numpy's warning would only
    repeat it on stderr, or under ``python -W error`` end in a traceback.
    """
    try:
        with np.errstate(all="ignore"):
            result = cli.main(args=argv, standalone_mode=False, prog_name="modescent")
    except click.UsageError as err:
        click.echo(f"usage error: {err.format_message()}", err=True)
        if err.ctx is not None:
            click.echo(err.ctx.get_usage(), err=True)
        return 64
    except click.exceptions.Exit as err:
        return err.exit_code
    except click.Abort:
        return 1
    return int(result) if result is not None else 0


if __name__ == "__main__":
    sys.exit(main())
