"""Multistart driver over a sampling grid plus a nondominance filter."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModescentError
from .output import (fmt, json_float, json_floats, json_string, json_template, write_csv,
                     write_json_list)
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


# entries whose x lie closer than this are duplicates in deduplicate
DEDUP_TOL = 1e-6
# candidate dominators compared at once in dominance_flags; bounds its
# working memory to a few (_BLOCK x N) boolean arrays
_BLOCK = 128


def dominance_flags(archive: list) -> list:
    """Dominated flag per entry; None for entries without objective values.

    Exact and vectorised: v dominates w iff v <= w componentwise with some
    strict component, so equal F-vectors do not dominate each other and a
    NaN component never takes part in a domination.  For N valued entries
    with m objectives the pass makes O(N^2 m) comparisons in numpy, _BLOCK
    candidate dominators at a time, and holds O(_BLOCK N) extra memory.
    """
    flags: list = [None] * len(archive)
    valued = [i for i, e in enumerate(archive) if e.F is not None]
    if not valued:
        return flags
    F = np.array([archive[i].F for i in valued], dtype=float).reshape(len(valued), -1)
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


def nondominated_filter(archive: list) -> list:
    """Retain exactly the entries whose F-value no other entry dominates.

    Identical F-vectors do not dominate each other (a strict component is
    required), so exact duplicates are all retained.
    """
    flags = dominance_flags(archive)
    return [e for e, f in zip(archive, flags) if f is False]


def deduplicate(archive: list) -> list:
    """Reporting helper: drop entries without x, and entries whose x is
    within ``DEDUP_TOL`` (Euclidean) of an entry kept before them.

    The kept entries are returned in archive order.  Distances are taken in
    Python floats with ``math.dist``, and each candidate stops at the first
    kept point it is too close to.
    """
    kept: list = []
    points: list = []
    for entry in archive:
        if entry.x is None:
            continue
        p = entry.x.tolist()
        if all(math.dist(p, q) >= DEDUP_TOL for q in points):
            kept.append(entry)
            points.append(p)
    return kept


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


def multistart(problem: ProblemSpec, starts, config: SolverConfig = SolverConfig()) -> list:
    """Run the constrained solver from every start point and return one
    ``ArchiveEntry`` per start, in start order.  Individual run failures are
    recorded as failed entries, not raised."""
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    archive: list = []
    for x0 in starts:
        try:
            x, trace = solve_constrained(problem, x0, config)
        except ModescentError as err:
            # solve_constrained attaches its partial trace to every error
            archive.append(ArchiveEntry(
                start=x0.copy(), x=None, F=None, alpha=None, converged=False,
                iterations=err.trace.iterations, error=f"{type(err).__name__}: {err}"))
            continue
        archive.append(ArchiveEntry(
            start=x0.copy(), x=x, F=trace.records[-1].F.copy(),
            alpha=trace.final_alpha,
            converged=trace.termination == TERMINATED_CRITICAL,
            iterations=trace.iterations))
    return archive


# ---------------------------------------------------------------------------
# archive serialization


def write_archive_csv(archive: list, flags: list, path, n: int, m: int) -> None:
    """Columns: x..., F..., alpha, converged, dominated.

    ``flags`` holds one dominated flag per entry, as ``dominance_flags``
    returns them (None for an entry without F); the writer computes none.
    """
    header = ([f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "converged", "dominated"])
    rows = []
    for entry, flag in zip(archive, flags, strict=True):
        row = [fmt(v) for v in entry.x.tolist()] if entry.x is not None else [""] * n
        row += [fmt(v) for v in entry.F.tolist()] if entry.F is not None else [""] * m
        row.append(fmt(entry.alpha) if entry.alpha is not None else "")
        row.append("true" if entry.converged else "false")
        row.append("" if flag is None else ("true" if flag else "false"))
        rows.append(row)
    write_csv(path, header, rows)


# an archive entry at nesting depth 2 of {"entries": [...]}; its arrays at 3
_ENTRY_JSON = json_template(
    ("start", "x", "F", "alpha", "converged", "iterations", "dominated", "error"), 2)
_JSON_FLAG = {None: "null", False: "false", True: "true"}


def write_archive_json(archive: list, flags: list, path) -> None:
    """Write ``{"entries": [...]}``, one object per entry with its start,
    x, F, alpha, converged, iterations, dominated flag and error, in the
    bytes ``write_json`` would give; ``flags`` as in ``write_archive_csv``.
    Missing x, F, alpha or error are null."""
    write_json_list(path, "entries", (_ENTRY_JSON % {
        "start": json_floats(e.start, 3),
        "x": json_floats(e.x, 3),
        "F": json_floats(e.F, 3),
        "alpha": json_float(e.alpha),
        "converged": _JSON_FLAG[e.converged],
        "iterations": int.__repr__(e.iterations),
        "dominated": _JSON_FLAG[flag],
        "error": "null" if e.error is None else json_string(e.error),
    } for e, flag in zip(archive, flags, strict=True)))
