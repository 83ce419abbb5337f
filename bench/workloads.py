"""Workloads and metric names shared by run.py and probe.py.

Every workload is one ``modescent front`` invocation.  The three stress
different layers (see README.md): ``circle2d-paper`` the iteration layers,
``circle2d-default`` the filter and writers, ``octant3d`` the projection and
the Wolfe min-norm path on the most costly maps.
"""

import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OCTANT_FILE = BENCH_DIR / "octant3d.json"

# Grid placements per round.  A run measures whole rounds, each on fresh
# rigid box offsets, so that it averages over where the grid falls instead
# of reporting a single placement: the circle2d-paper iteration count moves
# by up to 10 % between single placements.
PLACEMENTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    source: tuple
    grid: tuple
    smoke_grid: tuple
    options: tuple
    front_gate: str


PAPER_OPTIONS = ("--beta0", "0.1", "--beta", "0.5", "--eps", "1e-4", "--eta", "1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("circle2d-paper", ("--problem", "circle2d"), (20, 20), (3, 3),
                 PAPER_OPTIONS, "segment"),
        Workload("circle2d-default", ("--problem", "circle2d"), (20, 20), (3, 3),
                 (), "segment"),
        Workload("octant3d", ("--problem-file", str(OCTANT_FILE)), (5, 5, 5), (2, 2, 2),
                 ("--beta0", "0.1", "--eta", "1"), "octant"),
    )
}


def grid_offsets(seed: int, n: int, round_index: int) -> list:
    """The PLACEMENTS rigid box offsets of one round, in grid-cell units,
    each coordinate in [-0.5, 0.5).

    Per coordinate, the offsets are evenly spaced 1/PLACEMENTS apart, moved
    by one seeded shift and taken in a seeded order, so a few placements
    cover the cell evenly.  Even spacing matters: on circle2d-paper, a
    y offset within about 0.08 of 0 costs 8 % more iterations, and evenly
    spaced offsets put at most one placement of a round in that band.
    Seed 0 is the unshifted grid in every round.
    """
    if seed == 0:
        return [(0.0,) * n] * PLACEMENTS
    rng = random.Random(f"{seed}:{round_index}")
    columns = []
    for _ in range(n):
        order = list(range(PLACEMENTS))
        rng.shuffle(order)
        shift = rng.random()
        columns.append([(slot + shift) / PLACEMENTS - 0.5 for slot in order])
    return [tuple(col[j] for col in columns) for j in range(PLACEMENTS)]


def shift_box(box, counts, offset) -> tuple:
    """``box`` moved rigidly by ``offset`` grid cells per coordinate."""
    shifted = []
    for (lo, hi), c, o in zip(box, counts, offset, strict=True):
        d = o * (hi - lo) / max(c - 1, 1)
        shifted.append((lo + d, hi + d))
    return tuple(shifted)


# (name, unit) of every metric the benchmark prints.  BENCHMARK.json at the
# repository root repeats these names with their bounds; the smoke mode
# checks that the two agree.
END_TO_END = (
    ("front_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p95", "ms"),
    ("setup_s", "s"),
    ("converged_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("problems.evaluate.us", "us"),
    ("problems.evaluate.per_iter", "1/iter"),
    ("problems.F.per_iter", "1/iter"),
    ("problems.G.per_iter", "1/iter"),
    ("problems.H.per_iter", "1/iter"),
    ("problems.jac.per_iter", "1/iter"),
    ("problems.maps.us", "us"),
    ("direction.solve_direction.SP1.us", "us"),
    ("direction.solve_direction.SP2.us", "us"),
    ("direction.solve_direction.per_iter", "1/iter"),
    ("direction.min_norm_in_hull.k2.us", "us"),
    ("direction.min_norm_in_hull.k3plus.us", "us"),
    ("direction.min_norm_in_hull.k3plus_frac", "frac"),
    ("direction.tangent_basis.us", "us"),
    ("direction.active_set.per_iter", "1/iter"),
    ("geometry.project.us", "us"),
    ("geometry.project.per_iter", "1/iter"),
    ("geometry.project.fail_frac", "frac"),
    ("geometry.feasible_start.us", "us"),
    ("linesearch.feasible_armijo_step.us", "us"),
    ("linesearch.feasible_armijo_step.k_mean", "count"),
    ("linesearch.feasible_armijo_step.repaired_frac", "frac"),
    ("linesearch.boundary_step.us", "us"),
    ("linesearch.boundary_step.k_mean", "count"),
    ("linesearch.boundary_step.repaired_frac", "frac"),
    ("linesearch.trials_per_step", "1/step"),
    ("solver.iterations", "count"),
    ("solver.us_per_iter", "us"),
    ("solver.self_us_per_iter", "us"),
    ("solver.sp2_frac", "frac"),
    ("globalize.multistart.s", "s"),
    ("globalize.dominance_flags.calls", "count"),
    ("globalize.dominance_flags.s", "s"),
    ("globalize.nondominated_frac", "frac"),
    ("globalize.deduplicate.s", "s"),
    ("globalize.writers.self_s", "s"),
    ("cli.front.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("share.solver_loop", "frac"),
    ("share.globalize", "frac"),
    ("share.project_of_solve", "frac"),
    ("trace.front_s", "s"),
    ("trace.overhead_s", "s"),
)
