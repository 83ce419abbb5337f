"""The maps of a polynomial problem file against the one-polynomial-at-a-time
evaluator in ``oracles.poly_maps``.

For n >= 2 the values and Jacobians must be the same bytes: the compiled
maps take the same powers, products and one dot per row or entry, only
from one stacked monomial table.  For n = 1 numpy raises a one-monomial
polynomial to its 1x1 exponent table through a scalar fast path, which can
move the last bit, so there the check is 4 ulp of the sum of |terms|.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import modescent as md
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
