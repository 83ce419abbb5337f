"""Multistart driver over a sampling grid plus a nondominance filter."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModescentError
from .output import (json_array_template, json_float, json_string, json_template, write_csv,
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
    Python floats with ``math.dist``.  The kept points are held in a set: a
    candidate equal to one of them (``==``, so 0.0 and -0.0 match and NaN
    matches nothing) is dropped by a lookup, where a scan would find it at
    distance 0, or NaN where a coordinate is infinite.  Any other candidate
    is kept only if every kept point lies ``DEDUP_TOL`` or more from it,
    which no order of the scan can change.
    """
    kept: list = []
    points: set = set()
    for entry in archive:
        if entry.x is None:
            continue
        p = tuple(entry.x.tolist())
        if p not in points and all(math.dist(p, q) >= DEDUP_TOL for q in points):
            kept.append(entry)
            points.add(p)
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
    An entry's x and F hold n and m values.  Each row is one ``%`` of a
    format chosen by the entry's shape, which of x, F and alpha are
    missing: ``%.17g`` for each value, an empty cell for each missing one.
    """
    header = ([f"x{i + 1}" for i in range(n)] + [f"F{i + 1}" for i in range(m)]
              + ["alpha", "converged", "dominated"])
    cell = ("%.17g", "")  # indexed by "is missing"
    formats = {(no_x, no_f, no_alpha): ",".join(
        [cell[no_x]] * n + [cell[no_f]] * m + [cell[no_alpha], "%s", "%s"]) + "\n"
        for no_x in (False, True) for no_f in (False, True) for no_alpha in (False, True)}
    lines = []
    for entry, flag in zip(archive, flags, strict=True):
        x, F, alpha = entry.x, entry.F, entry.alpha
        values = [] if x is None else x.tolist()
        if F is not None:
            values += F.tolist()
        if alpha is not None:
            values.append(alpha)
        values.append("true" if entry.converged else "false")
        values.append("" if flag is None else ("true" if flag else "false"))
        lines.append(formats[x is None, F is None, alpha is None] % tuple(values))
    write_csv(path, header, lines)


# an archive entry at nesting depth 2 of {"entries": [...]}; its arrays at 3.
# Sorted, its members are F, alpha, converged, dominated, error, iterations,
# start and x: the order of the values _entry_json_template's templates take.
_ENTRY_JSON = json_template(
    ("start", "x", "F", "alpha", "converged", "iterations", "dominated", "error"), 2)
_JSON_FLAG = {None: "null", False: "false", True: "true"}


def _entry_json_template(n_start, n_x, n_f, no_alpha) -> str:
    """``%``-template of an entry whose start, x and F hold the given
    numbers of values (None where missing): one ``%s`` per value."""
    return _ENTRY_JSON % {
        "F": json_array_template(n_f, 3), "alpha": "null" if no_alpha else "%s",
        "converged": "%s", "dominated": "%s", "error": "%s", "iterations": "%s",
        "start": json_array_template(n_start, 3), "x": json_array_template(n_x, 3)}


def write_archive_json(archive: list, flags: list, path) -> None:
    """Write ``{"entries": [...]}``, one object per entry with its start,
    x, F, alpha, converged, iterations, dominated flag and error, in the
    bytes ``write_json`` would give; ``flags`` as in ``write_archive_csv``.
    Missing x, F, alpha or error are null.

    Each entry is one ``%`` of a template built once per entry shape.  Its
    floats go in as Python floats, whose ``str`` is their repr, the JSON
    number ``json.dump`` writes.  An entry with a non-finite value spells
    its floats with ``json_float`` instead (``NaN``, ``Infinity``).
    """
    templates: dict = {}

    def spelled():
        for e, flag in zip(archive, flags, strict=True):
            start = [] if e.start is None else e.start.tolist()
            x = [] if e.x is None else e.x.tolist()
            F = [] if e.F is None else e.F.tolist()
            # a Python float, the only type the non-finite spelling below takes
            alpha = [] if e.alpha is None else [float(e.alpha)]
            shape = (None if e.start is None else len(start), None if e.x is None else len(x),
                     None if e.F is None else len(F), e.alpha is None)
            template = templates.get(shape)
            if template is None:
                template = templates[shape] = _entry_json_template(*shape)
            values = (*F, *alpha, _JSON_FLAG[e.converged], _JSON_FLAG[flag],
                      "null" if e.error is None else json_string(e.error),
                      int.__repr__(e.iterations), *start, *x)
            # a sum of floats is finite only if every term is
            if not math.isfinite(sum(F + alpha + start + x)):
                values = tuple(json_float(v) if type(v) is float else v for v in values)
            yield template % values

    write_json_list(path, "entries", spelled())
