import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import modescent as md
from modescent import globalize
from modescent.globalize import ArchiveEntry, dominance_flags

from conftest import CIRCLE_CONFIG, make_infeasible_problem
from oracles import (archive_to_dict, deduplicate_by_dist, deduplicate_by_norm, dist_to_arc,
                     dist_to_critical_set, dist_to_segment, pairwise_dominance_flags,
                     write_archive_csv_reference, write_archive_json_reference)

DATA = Path(__file__).parent / "data"


def _archive_from_F(values):
    return [
        ArchiveEntry(start=np.zeros(2), x=np.array([float(i), 0.0]),
                     F=np.asarray(v, dtype=float), alpha=0.0,
                     converged=True, iterations=0)
        for i, v in enumerate(values)
    ]


# ---------------------------------------------------------------------------
# dominance and filtering


def test_dominates_definition():
    # v dominates w iff v <= w componentwise with some strict component
    assert dominance_flags(_archive_from_F([(1.0, 1.0), (2.0, 2.0)])) == [False, True]
    assert dominance_flags(_archive_from_F([(1.0, 2.0), (1.0, 3.0)])) == [False, True]
    assert dominance_flags(_archive_from_F([(1.0, 2.0), (2.0, 1.0)])) == [False, False]
    # needs a strict component
    assert dominance_flags(_archive_from_F([(1.0, 1.0), (1.0, 1.0)])) == [False, False]


def test_filter_strict_dominance():
    out = md.nondominated_filter(_archive_from_F([(1.0, 1.0), (2.0, 2.0)]))
    assert len(out) == 1
    assert out[0].F == pytest.approx([1.0, 1.0])


def test_filter_keeps_incomparable():
    out = md.nondominated_filter(_archive_from_F([(1.0, 2.0), (2.0, 1.0)]))
    assert len(out) == 2


def test_filter_keeps_exact_ties():
    out = md.nondominated_filter(_archive_from_F([(1.0, 1.0), (1.0, 1.0), (3.0, 0.5)]))
    assert len(out) == 3


def test_filter_skips_failed_entries():
    archive = _archive_from_F([(1.0, 2.0)])
    archive.append(ArchiveEntry(start=np.zeros(2), x=None, F=None,
                                alpha=None, converged=False,
                                iterations=0, error="boom"))
    flags = dominance_flags(archive)
    assert flags == [False, None]
    assert len(md.nondominated_filter(archive)) == 1


# few distinct values, so ties and exact duplicates are common
_COMPONENTS = [0.0, 1.0, 2.0, 3.0] * 3 + [np.inf, -np.inf, np.nan]


@st.composite
def _f_values_with_failures(draw):
    m = draw(st.integers(1, 3))
    vector = st.lists(st.sampled_from(_COMPONENTS), min_size=m, max_size=m).map(np.array)
    return draw(st.lists(st.one_of(vector, vector, st.none()), max_size=40))


@pytest.mark.parametrize("block", [1, 3, globalize._BLOCK])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_f_values_with_failures())
def test_dominance_flags_match_pairwise_oracle(monkeypatch, block, values):
    monkeypatch.setattr(globalize, "_BLOCK", block)
    entries = [
        ArchiveEntry(start=np.zeros(2), x=None, F=v, alpha=None, converged=False,
                     iterations=0)
        for v in values
    ]
    assert dominance_flags(entries) == pairwise_dominance_flags(values)


def test_dominance_flags_memory_is_blocked():
    rng = np.random.default_rng(5)
    archive = _archive_from_F(rng.random((5000, 2)))
    tracemalloc.start()
    try:
        flags = dominance_flags(archive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(flags) == 5000 and 0 < flags.count(False) < 5000
    # one unblocked 5000 x 5000 boolean array alone takes 25 MB
    assert peak < 5e6


f_vectors = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)).map(np.array),
    min_size=1, max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(f_vectors)
def test_filter_output_is_antichain(values):
    out = md.nondominated_filter(_archive_from_F(values))
    assert len(out) >= 1
    assert pairwise_dominance_flags([e.F for e in out]) == [False] * len(out)


@settings(max_examples=50, deadline=None)
@given(f_vectors)
def test_filter_idempotent(values):
    once = md.nondominated_filter(_archive_from_F(values))
    twice = md.nondominated_filter(once)
    assert [tuple(e.F) for e in twice] == [tuple(e.F) for e in once]


@settings(max_examples=50, deadline=None)
@given(f_vectors, st.randoms(use_true_random=False))
def test_filter_invariant_under_permutation(values, rand):
    base = sorted(tuple(e.F) for e in md.nondominated_filter(_archive_from_F(values)))
    shuffled = list(values)
    rand.shuffle(shuffled)
    perm = sorted(tuple(e.F) for e in md.nondominated_filter(_archive_from_F(shuffled)))
    assert perm == base


def test_deduplicate_by_x_distance():
    entries = [
        ArchiveEntry(start=np.zeros(2), x=np.array([2.0, 0.0]), F=np.array([1.0, 1.0]),
                     alpha=0.0, converged=True, iterations=0),
        ArchiveEntry(start=np.zeros(2), x=np.array([2.0, 1e-8]), F=np.array([1.0, 1.0]),
                     alpha=0.0, converged=True, iterations=0),
        ArchiveEntry(start=np.zeros(2), x=np.array([2.0, 0.5]), F=np.array([0.25, 2.25]),
                     alpha=0.0, converged=True, iterations=0),
    ]
    out = md.deduplicate(entries)
    assert len(out) == 2


_TOL = globalize.DEDUP_TOL


@st.composite
def _dedup_archives(draw):
    """Entries on a coarse lattice, some without x, some exact repeats and
    some offset along one axis by 0, tol/2, tol or 2 tol."""
    n = draw(st.integers(2, 4))
    base = st.lists(st.sampled_from([-1.0, 0.0, 0.25, 2.0]), min_size=n, max_size=n)
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["none", "repeat", "offset", "offset"]))
        if kind == "none":
            x = None
        elif kind == "repeat" and any(e.x is not None for e in entries):
            x = draw(st.sampled_from([e.x for e in entries if e.x is not None])).copy()
        else:
            x = np.array(draw(base))
            offset = draw(st.sampled_from([0.0, _TOL / 2, _TOL, 2 * _TOL]))
            x[draw(st.integers(0, n - 1))] += offset
        entries.append(ArchiveEntry(start=np.zeros(n), x=x, F=None, alpha=None,
                                    converged=False, iterations=0))
    return entries


@settings(max_examples=200, deadline=None)
@given(_dedup_archives())
def test_deduplicate_matches_norm_loop(entries):
    out = md.deduplicate(entries)
    ref = deduplicate_by_norm(entries, _TOL)
    assert [id(e) for e in out] == [id(e) for e in ref]


# coordinates that repeat exactly, as 0.0 against -0.0, as NaN and as inf,
# and offsets of DEDUP_TOL and one ulp either side of it
_DEDUP_COORDS = [0.0, -0.0, 1.0, -2.5, np.nan, np.inf]
_DEDUP_OFFSETS = [0.0, math.nextafter(_TOL, 0.0), _TOL, math.nextafter(_TOL, 1.0), 2 * _TOL]


@st.composite
def _repeating_archives(draw):
    """Entries drawn from a few coordinates, some without x, some exact
    copies of an earlier x, some an earlier x moved along one axis by a
    distance at or next to DEDUP_TOL."""
    n = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        earlier = [e.x for e in entries if e.x is not None]
        kind = draw(st.sampled_from(["none", "new", "repeat", "offset"]))
        if kind == "none":
            x = None
        elif kind == "new" or not earlier:
            x = np.array(draw(st.lists(st.sampled_from(_DEDUP_COORDS), min_size=n, max_size=n)))
        else:
            x = draw(st.sampled_from(earlier)).copy()
            if kind == "offset":
                x[draw(st.integers(0, n - 1))] += draw(st.sampled_from(_DEDUP_OFFSETS))
        entries.append(ArchiveEntry(start=np.zeros(n), x=x, F=None, alpha=None,
                                    converged=False, iterations=0))
    return entries


@settings(max_examples=300, deadline=None)
@given(_repeating_archives())
def test_deduplicate_matches_the_scan_of_every_kept_point(entries):
    # the set lookup of exact repeats keeps what the distance scan alone keeps
    out = md.deduplicate(entries)
    ref = deduplicate_by_dist(entries, _TOL)
    assert [id(e) for e in out] == [id(e) for e in ref]


# ---------------------------------------------------------------------------
# grids and multistart


def test_grid_points_layout(circle2d):
    pts = md.grid_points(circle2d.box, (3, 2))
    assert pts.shape == (6, 2)
    assert pts[0] == pytest.approx([-3.0, -3.0])
    assert pts[-1] == pytest.approx([3.0, 3.0])
    mid = md.grid_points(circle2d.box, (1, 1))
    assert mid.shape == (1, 2)
    assert mid[0] == pytest.approx([0.0, 0.0])


def test_grid_points_rejects_a_count_of_zero(circle2d):
    with pytest.raises(ValueError, match="grid counts must be >= 1"):
        md.grid_points(circle2d.box, (3, 0))


def test_multistart_small_grid_lands_on_critical_set(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    starts = md.grid_points(circle2d.box, (5, 5))
    archive = md.multistart(circle2d, starts, cfg)
    assert len(archive) == 25
    assert all(e.converged for e in archive)
    for entry in archive:
        assert dist_to_critical_set(entry.x) <= 1e-2


def test_multistart_single_start_at_critical_point(circle2d):
    archive = md.multistart(circle2d, [np.array([2.0, 0.0])])
    assert len(archive) == 1
    assert archive[0].iterations == 0
    assert archive[0].converged


def test_multistart_records_failures():
    bad = make_infeasible_problem()
    archive = md.multistart(bad, [np.array([1.0, 1.0])])
    assert len(archive) == 1
    entry = archive[0]
    assert not entry.converged
    assert entry.x is None
    assert "NoConvergence" in entry.error


@pytest.mark.parametrize("name, counts", [("steep2d", (2, 2)), ("steep_sphere3d", (2, 2, 2))])
def test_multistart_records_an_overflow_under_an_error_filter(name, counts):
    # the run's checks name the overflow; numpy's warning, raised by the
    # filter, would escape the multistart instead
    problem = md.load_problem(DATA / f"{name}.json")
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        archive = md.multistart(problem, md.grid_points(problem.box, counts))
    assert np.geterr() == state
    assert len(archive) == math.prod(counts)
    assert all(e.x is None and "direction subproblem SP1 overflowed" in e.error
               for e in archive)


def test_multistart_of_an_overflow_in_another_map_converges_under_an_error_filter():
    # H reads the monomial table the objectives share, where x1^1000000
    # overflows; numpy's warning, raised by the filter, would fail every
    # start as a MapError of H
    problem = md.load_problem(DATA / "huge_power3d.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        archive = md.multistart(problem, md.grid_points(problem.box, (2, 2, 2)))
    assert len(archive) == 8
    assert all(e.converged for e in archive)


def test_multistart_filter_keeps_only_segment(circle2d):
    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    starts = md.grid_points(circle2d.box, (7, 7))
    archive = md.multistart(circle2d, starts, cfg)
    front = md.nondominated_filter(archive)
    assert len(front) >= 1
    for entry in front:
        assert dist_to_segment(entry.x) <= 1e-2
        assert dist_to_arc(entry.x) > 0.5


def test_archive_serialization(circle2d, tmp_path):
    from modescent.globalize import write_archive_csv, write_archive_json

    cfg = md.SolverConfig(**CIRCLE_CONFIG, eta=1.0)
    archive = md.multistart(circle2d, md.grid_points(circle2d.box, (2, 2)), cfg)
    csv_path = tmp_path / "archive.csv"
    write_archive_csv(archive, dominance_flags(archive), csv_path, circle2d.n, circle2d.m)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x1,x2,F1,F2,alpha,converged,dominated"
    assert len(lines) == len(archive) + 1

    json_path = tmp_path / "archive.json"
    write_archive_json(archive, dominance_flags(archive), json_path)
    doc = json.loads(json_path.read_text())
    assert len(doc["entries"]) == len(archive)
    assert {"start", "x", "F", "alpha", "converged", "dominated"} <= set(doc["entries"][0])


# floats json spells apart from their repr, and reprs at the ends of the range
_EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e16, 1e-7, -1.2345678901234567e-300]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_errors = st.one_of(st.none(), st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2016\u00e9\U0001f600'), st.characters())))


def _vectors(size):
    return st.lists(_floats, min_size=size, max_size=size).map(np.array)


@st.composite
def _archives_and_flags(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    archive, flags = [], []
    for _ in range(draw(st.integers(0, 6))):
        archive.append(ArchiveEntry(
            start=draw(_vectors(n)), x=draw(st.none() | _vectors(n)),
            F=draw(st.none() | _vectors(m)), alpha=draw(st.none() | _floats),
            converged=draw(st.booleans()), iterations=draw(st.integers(0, 10 ** 30)),
            error=draw(_errors)))
        flags.append(draw(st.sampled_from([None, True, False])))
    return archive, flags


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_archives_and_flags())
def test_write_archive_json_matches_json_dump(tmp_path, archive_and_flags):
    archive, flags = archive_and_flags
    path = tmp_path / "archive.json"
    globalize.write_archive_json(archive, flags, path)
    want = json.dumps(archive_to_dict(archive, flags), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


def test_write_archive_json_needs_one_flag_per_entry(tmp_path):
    archive = _archive_from_F([(1.0, 2.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        globalize.write_archive_json(archive, [False], tmp_path / "archive.json")
    with pytest.raises(ValueError):
        globalize.write_archive_json([], [False], tmp_path / "archive.json")


# the edge floats above and a large finite one; error text that names nan
_WRITER_FLOATS = st.one_of(st.just(1e300), _floats)
_WRITER_ERRORS = st.one_of(_errors, st.sampled_from(
    ['NoStep: "nan" step, \u00e9t\u00e9', "ValueError: nan, inf", 'a "quoted", comma']))


@st.composite
def _writer_archives(draw):
    """Archives with n and m from 1 to 4: failed entries (x, F and alpha
    all None), entries with any of them missing, alpha as a Python float or
    an np.float64, and every dominated flag."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def vector(size):
        return draw(st.lists(_WRITER_FLOATS, min_size=size, max_size=size).map(np.array))

    archive, flags = [], []
    for _ in range(draw(st.integers(0, 6))):
        start = vector(n)
        if draw(st.booleans()):
            x = F = alpha = None
        else:
            x = None if draw(st.booleans()) else vector(n)
            F = None if draw(st.booleans()) else vector(m)
            alpha = draw(st.none() | _WRITER_FLOATS | _WRITER_FLOATS.map(np.float64))
        archive.append(ArchiveEntry(
            start=start, x=x, F=F, alpha=alpha, converged=draw(st.booleans()),
            iterations=draw(st.integers(0, 10 ** 6)), error=draw(_WRITER_ERRORS)))
        flags.append(draw(st.sampled_from([None, True, False])))
    return archive, flags, n, m


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_writer_archives())
def test_archive_writers_match_the_per_float_writers(tmp_path, case):
    archive, flags, n, m = case
    got, want = tmp_path / "got", tmp_path / "want"
    globalize.write_archive_csv(archive, flags, got, n, m)
    write_archive_csv_reference(archive, flags, want, n, m)
    assert got.read_bytes() == want.read_bytes()
    globalize.write_archive_json(archive, flags, got)
    write_archive_json_reference(archive, flags, want)
    assert got.read_bytes() == want.read_bytes()
