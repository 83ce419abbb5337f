"""The descent iteration (``direction``, ``linesearch``) spells its products
``ndarray.dot`` instead of ``@``, which dispatches faster on arrays of a few
entries.  On 1-D and 2-D float64 operands both make the same BLAS call, so
they agree bit for bit and no output moves; a numpy or BLAS build where the
two differ fails here by name instead of as a drifting golden.

One difference is known and allowed: a contraction over a single index
(two 1-vectors, or a (1, 1) matrix and a 1-vector) whose one product is a
negative zero.  ``dot`` returns that product, -0.0, and ``@`` adds it to
+0.0.  The iteration reads such results only through comparisons with zero
and through the sign of a zero weight in ``DirectionResult.lam``, which no
output holds.

The compiled maps of a problem file take one ``np.vecdot`` per group of
polynomials with the same monomial count.  Each of its rows must be the
1-D dot of that row's coefficients and monomials, so that every value is
the sum one polynomial at a time takes; a single product of -0.0 comes out
+0.0, as from ``@``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st


def _agree(dot, matmul, length):
    """Bit for bit, except the sign of a zero where the contraction runs
    over one index."""
    dot, matmul = np.asarray(dot), np.asarray(matmul)
    if length == 1:
        dot, matmul = dot + 0.0, matmul + 0.0
    return dot.shape == matmul.shape and dot.tobytes() == matmul.tobytes()


def _entries(rng, size):
    """Magnitudes log-uniform over 1e-4..1e4 of either sign, with about one
    entry in four a zero of either sign."""
    sign = rng.choice((-1.0, 1.0), size)
    return np.where(rng.random(size) < 0.25, sign * 0.0, sign * 10.0 ** rng.uniform(-4, 4, size))


@st.composite
def _operands(draw):
    """k rows of n entries, with every other operand the iteration pairs
    with them: the edge matrix of the three-row kernel is (6, k).  The
    entries come from a drawn seed, which keeps 300 examples under a
    second."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (_entries(rng, (k, n)), _entries(rng, n), _entries(rng, n), _entries(rng, k),
            _entries(rng, (6, k)))


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_dot_and_matmul_agree_bitwise(operands):
    A, u, w, y, E = operands
    k, n = A.shape
    X = E.dot(A)
    # name: (dot, @, length of the contraction)
    cases = {
        "vector.vector": (u.dot(w), u @ w, n),
        "(k, n).(n,)": (A.dot(u), A @ u, n),
        "(1, n).(n,)": (A[:1].dot(u), A[:1] @ u, n),
        "row.(n,)": (A[-1].dot(u), A[-1] @ u, n),
        "(k,).(k, n)": (y.dot(A), y @ A, k),
        "(6, k).(k, n)": (X, E @ A, k),
        "X.X^T": (A.dot(A.T), A @ A.T, n),
        "(6, n).(6, n)^T": (X.dot(X.T), X @ X.T, n),
    }
    differ = [name for name, case in cases.items() if not _agree(*case)]
    assert not differ, f"ndarray.dot and @ round differently on {differ}"


@st.composite
def _groups(draw):
    """A group's coefficients and its monomials, both in a drawn layout of
    one or two leading axes (the map's shape) and L entries per row, L up
    to 300, from a drawn seed."""
    layout = (*draw(st.sampled_from([(1,), (2,), (5,), (2, 3), (3, 4)])), draw(st.integers(0, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _entries(rng, layout), _entries(rng, layout)


@settings(max_examples=300, deadline=None)
@given(_groups())
def test_vecdot_rows_are_one_dimensional_dots(group):
    C, M = group
    got = np.vecdot(C, M)
    length = C.shape[-1]
    rows = list(zip(C.reshape(got.size, length), M.reshape(got.size, length)))
    assert got.shape == C.shape[:-1]
    assert got.reshape(-1).tobytes() == np.array([c @ m for c, m in rows]).tobytes()
    assert _agree(got.reshape(-1), [c.dot(m) for c, m in rows], length)
