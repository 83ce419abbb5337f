"""The maps of a polynomial problem file against the one-polynomial-at-a-time
evaluator in ``oracles.poly_maps``.

For n >= 2 the values and Jacobians must be the same bytes: the six maps
of a problem take the same powers and products from one shared table of
its distinct monomials, group their rows (polynomials or Jacobian
entries) by monomial count, and take one batched dot per group, which
numpy computes row by row with the same vector dot as one polynomial at a
time.  The shared monomials are memoised for the last point, keyed on its
bytes; the memo tests walk through repeated, neighbouring, signed-zero and
NaN points in a drawn map order and pin when the monomials are computed.
For n = 1 numpy raises a one-monomial polynomial to its 1x1 exponent table
through a scalar fast path, which can move the last bit, so there the
check is 4 ulp of the sum of |terms|.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modescent as md
from modescent import problems
from oracles import poly_maps

COEF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                 st.floats(-5.0, 5.0, allow_nan=False))
COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def poly_cases(draw):
    n = draw(st.integers(1, 5))
    monomial = st.tuples(COEF, st.lists(st.integers(0, 4), min_size=n, max_size=n))
    polys = draw(st.lists(st.lists(monomial, max_size=12), min_size=1, max_size=4))
    x = np.array(draw(st.lists(COORD, min_size=n, max_size=n)), dtype=float)
    return n, [[list(pair) for pair in poly] for poly in polys], x


def _loaded_maps(polys, n):
    spec = md.load_problem({"n": n, "m": len(polys), "objectives": polys})
    return spec.F, spec.DF


@settings(max_examples=150, deadline=None)
@given(poly_cases())
def test_compiled_maps_match_reference(case):
    n, polys, x = case
    F, DF = _loaded_maps(polys, n)
    ref_F, ref_DF = poly_maps(polys, n)
    got, want = (F(x), DF(x)), (ref_F(x), ref_DF(x))
    assert got[0].shape == (len(polys),) and got[1].shape == (len(polys), n)
    if n >= 2:
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        return
    # the reference on |c| at |x| sums the absolute values of the terms
    abs_polys = [[[abs(c), e] for c, e in poly] for poly in polys]
    abs_F, abs_DF = poly_maps(abs_polys, n)
    for g, w, size in zip(got, want, (abs_F(np.abs(x)), abs_DF(np.abs(x)))):
        assert np.all(np.abs(g - w) <= 4.0 * np.spacing(size))


def test_empty_polynomial_is_zero_with_zero_gradient():
    F, DF = _loaded_maps([[], [[2.0, [1, 0, 3]]]], 3)
    x = np.array([1.5, -2.0, 0.5])
    assert F(x).tolist() == [0.0, 3.0 * 0.125]
    assert DF(x).tolist() == [[0.0, 0.0, 0.0], [0.25, 0.0, 2.0 * 1.5 * 3 * 0.25]]


# the BLAS vector dot changes its blocking at 16 terms
BLOCK = 16


@st.composite
def grouped_problems(draw):
    """A problem with objectives, equalities and inequalities of 0 to 40
    monomials.  The first two objectives have counts on either side of
    BLOCK and the third the count of the first, so the objective maps have
    at least two groups and a group whose rows are not adjacent."""
    n = draw(st.integers(2, 4))
    # an exponent vector of n digits 0..3, drawn as one integer
    monomial = st.tuples(COEF, st.integers(0, 4 ** n - 1).map(
        lambda code: [code // 4 ** j % 4 for j in range(n)]))

    def poly(low, high):
        count = draw(st.integers(low, high))
        return [list(pair) for pair in draw(st.lists(monomial, min_size=count, max_size=count))]

    def polys(min_size):
        return [poly(0, 40) for _ in range(draw(st.integers(min_size, 2)))]

    first = poly(BLOCK, 40)
    doc = {"n": n,
           "objectives": [first, poly(0, BLOCK - 1), poly(len(first), len(first))] + polys(0),
           "equalities": polys(1),
           "inequalities": polys(1)}
    doc["m"] = len(doc["objectives"])
    x = np.array(draw(st.lists(COORD, min_size=n, max_size=n)), dtype=float)
    return doc, x


def _map_pairs(doc):
    """(compiled map, reference map) for the value and Jacobian of every
    polynomial list ``doc`` has, loaded through ``load_problem``."""
    spec = md.load_problem(doc)
    pairs = []
    for key, fun, jac in (("objectives", spec.F, spec.DF),
                          ("equalities", spec.H, spec.DH),
                          ("inequalities", spec.G, spec.DG)):
        if key in doc:
            ref_fun, ref_jac = poly_maps(doc[key], doc["n"])
            pairs += [(fun, ref_fun), (jac, ref_jac)]
    return pairs


@settings(max_examples=60, deadline=None)
@given(grouped_problems())
def test_grouped_maps_match_reference_bytes(case):
    doc, x = case
    for compiled, reference in _map_pairs(doc):
        got, want = compiled(x), reference(x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_empty_polynomial_among_groups_is_positive_zero():
    doc = {"n": 2, "m": 4,
           "objectives": [[[-1.5, [1, 1]]] * 3, [], [[2.0, [2, 0]]] * BLOCK, []]}
    x = np.array([-1.5, 0.5])
    for compiled, reference in _map_pairs(doc):
        got = compiled(x)
        assert got.tobytes() == reference(x).tobytes()
        assert got[1].tobytes() == got[3].tobytes() == np.zeros_like(got[1]).tobytes()


def test_overflowing_row_leaves_the_other_rows_finite():
    # at x = 1e100, x0^4 - x1^4 is inf - inf, and the zero-coefficient
    # term of its derivative is 0 * inf; the other rows stay finite
    doc = {"n": 2, "m": 3, "objectives": [
        [[1.0, [4, 0]], [-1.0, [0, 4]]],
        [[1.0, [1, 0]]],
        [[1.0, [0, 0]], [2.0, [0, 1]], [1.0, [1, 1]]],
    ]}
    x = np.array([1e100, 1e100])
    with np.errstate(over="ignore", invalid="ignore"):
        for compiled, reference in _map_pairs(doc):
            got = compiled(x)
            assert got.tobytes() == reference(x).tobytes()
            assert not np.isfinite(got[0]).any()
            assert np.isfinite(got[1:]).all()


MAPS = ("F", "DF", "H", "DH", "G", "DG")
KEYS = {"F": "objectives", "H": "equalities", "G": "inequalities"}


def _reference(doc, name):
    fun, jac = poly_maps(doc[KEYS[name[-1]]], doc["n"])
    return jac if name.startswith("D") else fun


@st.composite
def point_walks(draw, n):
    """Points in visiting order, each a copy: a start, then steps that
    repeat the last point, revisit an earlier one, move one coordinate to
    its float neighbour, swap the sign of a zero, set NaN, or jump."""
    point = np.array(draw(st.lists(COORD, min_size=n, max_size=n)), dtype=float)
    walk = [point]
    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.sampled_from(["same", "back", "next", "zero", "nan", "jump"]))
        j = draw(st.integers(0, n - 1))
        point = walk[-1].copy()
        if step == "back":
            point = walk[draw(st.integers(0, len(walk) - 1))].copy()
        elif step == "next":
            point[j] = np.nextafter(point[j], draw(st.sampled_from([-np.inf, np.inf])))
        elif step == "zero":
            point[j] = -0.0 if point[j] == 0.0 and not np.signbit(point[j]) else 0.0
        elif step == "nan":
            point[j] = np.nan
        elif step == "jump":
            point = np.array(draw(st.lists(COORD, min_size=n, max_size=n)), dtype=float)
        walk.append(point)
    return walk


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memoised_monomials_match_reference_bytes(data):
    # two problems loaded from one document, whose maps are called in a
    # drawn interleaving: each must read only its own memo, and compute its
    # monomials exactly when the point differs in its bytes from the last
    # one that problem was asked about (-0.0 is not 0.0, NaN is NaN).  The
    # points are written into one buffer, so the array object never changes.
    doc, _ = data.draw(grouped_problems())
    specs = (md.load_problem(doc), md.load_problem(doc))
    walk = data.draw(point_walks(doc["n"]))
    point = np.empty(doc["n"])
    calls = st.tuples(st.sampled_from([0, 1]), st.sampled_from(MAPS))
    computed, expected, last = [], [], [None, None]

    def counted(x, B):
        computed.append(B)
        return monomials(x, B)

    monomials = problems._monomials
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "_monomials", counted)
        for x in walk:
            point[:] = x
            for which, name in data.draw(st.lists(calls, min_size=1, max_size=8)):
                got = getattr(specs[which], name)(point)
                assert got.tobytes() == _reference(doc, name)(x).tobytes()
                if last[which] != x.tobytes():
                    last[which] = x.tobytes()
                    expected.append(which)
    # the basis each computation used, named by its problem's first call
    first = {}
    assert [first.setdefault(id(B), len(first)) for B in computed] == \
        [{expected[0]: 0, 1 - expected[0]: 1}[which] for which in expected]


OVERFLOW_DOC = {"n": 2, "m": 1,
                "objectives": [[[1.0, [1, 0]], [-2.0, [0, 1]]]],
                "inequalities": [[[1.0, [4, 0]], [-1.0, [0, 0]]]]}


def test_overflow_raises_again_when_repeated():
    # under filterwarnings = error an overflowing power raises before the
    # memo is written, so the same call raises again, and the next finite
    # point is computed afresh
    spec = md.load_problem(OVERFLOW_DOC)
    big, finite = np.array([1e100, 2.0]), np.array([-0.5, 1.5])
    for _ in range(2):
        with pytest.raises(RuntimeWarning, match="overflow"):
            spec.G(big)
    for name in MAPS:
        if getattr(spec, name) is not None:
            assert getattr(spec, name)(finite).tobytes() == \
                _reference(OVERFLOW_DOC, name)(finite).tobytes()


def test_overflow_in_another_maps_monomial_warns():
    # F's monomials are finite at x, but the basis the maps share holds
    # G's x0^4, which overflows: F warns, with its own values unchanged
    spec = md.load_problem(OVERFLOW_DOC)
    x = np.array([1e100, 2.0])
    with pytest.raises(RuntimeWarning, match="overflow"):
        spec.F(x)
    with np.errstate(over="ignore"):
        assert spec.F(x).tobytes() == _reference(OVERFLOW_DOC, "F")(x).tobytes()


def test_a_computation_overtaken_by_another_thread_stores_its_own_pair(monkeypatch):
    # a worker computes the monomials at a and is held inside the power
    # while the main thread computes and stores b; the worker's later store
    # must pair a with a's monomials, so the main thread's next call at b
    # computes again instead of reading a's monomials under b's key
    spec = md.load_problem(OVERFLOW_DOC)
    a, b = np.array([0.5, -1.5]), np.array([2.0, 0.25])
    inside, release = threading.Event(), threading.Event()
    monomials = problems._monomials

    def held_at_a(x, B):
        if x.tobytes() == a.tobytes():
            inside.set()
            assert release.wait(10)
        return monomials(x, B)

    monkeypatch.setattr(problems, "_monomials", held_at_a)
    worker_result = []
    worker = threading.Thread(target=lambda: worker_result.append(spec.G(a)))
    worker.start()
    assert inside.wait(10)
    spec.F(b)
    release.set()
    worker.join(10)
    assert worker_result[0].tobytes() == _reference(OVERFLOW_DOC, "G")(a).tobytes()
    for name in ("G", "DG", "F"):
        assert getattr(spec, name)(b).tobytes() == _reference(OVERFLOW_DOC, name)(b).tobytes()
