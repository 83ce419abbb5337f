"""Multistart driver over a sampling grid plus a nondominance filter."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ModescentError
from .output import fmt, write_csv, write_json
from .problems import ProblemSpec
from .solver import SolverConfig, TERMINATED_CRITICAL, solve_constrained


@dataclass
class ArchiveEntry:
    """Terminal point of one run (or its failure record)."""

    start: np.ndarray
    x: np.ndarray | None
    F: np.ndarray | None
    alpha: float | None
    converged: bool
    iterations: int
    error: str | None = None


@dataclass
class ParetoArchive:
    entries: list = field(default_factory=list)

    def __len__(self):
        return len(self.entries)


def dominates(v, w) -> bool:
    """v dominates w iff v <= w componentwise with some strict component."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return bool(np.all(v <= w) and np.any(v < w))


# candidate dominators compared at once in dominance_flags; bounds its
# working memory to a few (_BLOCK x N) boolean arrays
_BLOCK = 128


def dominance_flags(archive: ParetoArchive) -> list:
    """Dominated flag per entry; None for entries without objective values.

    Exact and vectorised: v dominates w under the same elementwise
    comparisons as ``dominates``, so equal F-vectors do not dominate each
    other and a NaN component never takes part in a domination.  For N
    valued entries with m objectives the pass makes O(N^2 m) comparisons in
    numpy, _BLOCK candidate dominators at a time, and holds O(_BLOCK N)
    extra memory.
    """
    flags: list = [None] * len(archive.entries)
    valued = [i for i, e in enumerate(archive.entries) if e.F is not None]
    if not valued:
        return flags
    F = np.array([archive.entries[i].F for i in valued], dtype=float).reshape(len(valued), -1)
    dominated = np.zeros(len(valued), dtype=bool)
    for lo in range(0, len(valued), _BLOCK):
        block = F[lo:lo + _BLOCK]
        # row r, column c: does block[r] dominate F[c]?
        all_le = block[:, :1] <= F[:, 0]
        any_lt = block[:, :1] < F[:, 0]
        for j in range(1, F.shape[1]):
            all_le &= block[:, j:j + 1] <= F[:, j]
            any_lt |= block[:, j:j + 1] < F[:, j]
        all_le &= any_lt
        dominated |= all_le.any(axis=0)
    for i, flag in zip(valued, dominated.tolist()):
        flags[i] = flag
    return flags


def nondominated_filter(archive: ParetoArchive) -> ParetoArchive:
    """Retain exactly the entries whose F-value no other entry dominates.

    Identical F-vectors do not dominate each other (a strict component is
    required), so exact duplicates are all retained.
    """
    flags = dominance_flags(archive)
    return ParetoArchive([e for e, f in zip(archive.entries, flags) if f is False])


def deduplicate(archive: ParetoArchive, tol: float = 1e-6) -> ParetoArchive:
    """Reporting helper: drop entries whose x is within ``tol`` of a kept one."""
    kept: list = []
    for entry in archive.entries:
        if entry.x is None:
            continue
        if all(np.linalg.norm(entry.x - other.x) >= tol for other in kept):
            kept.append(entry)
    return ParetoArchive(kept)


def grid_points(box, counts) -> np.ndarray:
    """Cartesian grid over ``box`` with ``counts`` points per coordinate.

    A count of 1 places the point at the interval midpoint.  Points are
    ordered lexicographically (first coordinate slowest).
    """
    axes = []
    for (lo, hi), c in zip(box, counts, strict=True):
        c = int(c)
        if c < 1:
            raise ValueError("grid counts must be >= 1")
        axes.append(np.array([(lo + hi) / 2.0]) if c == 1 else np.linspace(lo, hi, c))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def multistart(problem: ProblemSpec, starts, config: SolverConfig = SolverConfig()) -> ParetoArchive:
    """Run the constrained solver from every start point and archive the
    terminal points.  Individual run failures are recorded as failed
    entries, not raised."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    archive = ParetoArchive()
    for x0 in starts:
        try:
            x, trace = solve_constrained(problem, x0, config)
        except ModescentError as err:
            part = getattr(err, "trace", None)
            archive.entries.append(ArchiveEntry(
                start=x0.copy(), x=None, F=None, alpha=None, converged=False,
                iterations=part.iterations if part is not None else 0,
                error=f"{type(err).__name__}: {err}"))
            continue
        archive.entries.append(ArchiveEntry(
            start=x0.copy(), x=x, F=trace.records[-1].F.copy(),
            alpha=trace.final_alpha,
            converged=trace.termination == TERMINATED_CRITICAL,
            iterations=trace.iterations))
    return archive


# ---------------------------------------------------------------------------
# archive serialization


def write_archive_csv(archive: ParetoArchive, path, n: int, m: int) -> None:
    """Columns: x..., F..., alpha, converged, dominated."""
    flags = dominance_flags(archive)
    header = ([f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "converged", "dominated"])
    rows = []
    for entry, flag in zip(archive.entries, flags):
        row = [fmt(v) for v in entry.x] if entry.x is not None else [""] * n
        row += [fmt(v) for v in entry.F] if entry.F is not None else [""] * m
        row.append(fmt(entry.alpha) if entry.alpha is not None else "")
        row.append("true" if entry.converged else "false")
        row.append("" if flag is None else ("true" if flag else "false"))
        rows.append(row)
    write_csv(path, header, rows)


def archive_to_dict(archive: ParetoArchive) -> dict:
    flags = dominance_flags(archive)
    return {
        "entries": [
            {
                "start": [float(v) for v in e.start],
                "x": None if e.x is None else [float(v) for v in e.x],
                "F": None if e.F is None else [float(v) for v in e.F],
                "alpha": e.alpha,
                "converged": e.converged,
                "iterations": e.iterations,
                "dominated": flag,
                "error": e.error,
            }
            for e, flag in zip(archive.entries, flags)
        ]
    }


def write_archive_json(archive: ParetoArchive, path) -> None:
    write_json(path, archive_to_dict(archive))
