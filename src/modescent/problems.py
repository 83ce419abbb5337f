"""Evaluable constrained multiobjective problems and the problem registry.

A problem bundles an objective map F with optional equality constraints H,
inequality constraints G, and their closed-form Jacobians.  Derivatives are
user supplied; ``fd_audit`` cross-checks them against central differences.
"""

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import EvaluationError, MapError, MapShapeError, UnknownProblemError

Array = np.ndarray
VecFun = Callable[[Array], Array]

_FLOAT = np.dtype(float)


def as_point(x, n: int) -> Array:
    """Coerce ``x`` to a float vector of length ``n``; a base-class float
    array of shape (n,) is returned as it is."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == (n,):
        return x
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ProblemSpec:
    """A constrained multiobjective problem min F(x) s.t. H(x)=0, G(x)<=0.

    Parameters
    ----------
    n, m : int
        Decision-space dimension and number of objectives.
    F, DF : callable
        Objective map (n-vector -> m-vector) and its Jacobian (m x n).
    m_H, m_G : int
        Number of equality / inequality constraints (0 allowed).
    H, DH, G, DG : callable, optional
        Constraint maps and Jacobians; required iff the matching count is > 0.
    box : tuple of (lo, hi) pairs, optional
        Sampling box per coordinate, used by audits and multistart grids.
        Defaults to [-3, 3]^n.

    Only this module calls the maps, through ``_value`` and ``_call``; each
    map's declared shape is worked out once, here, so a copy made with
    ``dataclasses.replace`` (which runs ``__post_init__`` again) keeps its
    shapes right.

    Instances are immutable; concurrent evaluation is safe as long as the
    supplied callables are.  The maps ``load_problem`` compiles are: they
    share a one-entry memo of the problem's monomials, replaced as one
    tuple, so threads evaluating different points each read their own.
    """

    name: str
    n: int
    m: int
    F: VecFun
    DF: VecFun
    m_H: int = 0
    m_G: int = 0
    H: VecFun | None = None
    DH: VecFun | None = None
    G: VecFun | None = None
    DG: VecFun | None = None
    box: tuple = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.m_H < 0 or self.m_G < 0:
            raise ValueError("constraint counts must be non-negative")
        if (self.m_H > 0) != (self.H is not None and self.DH is not None):
            raise ValueError("H and DH must be supplied iff m_H > 0")
        if (self.m_G > 0) != (self.G is not None and self.DG is not None):
            raise ValueError("G and DG must be supplied iff m_G > 0")
        box = self.box
        if box is None:
            box = ((-3.0, 3.0),) * self.n
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != self.n or not all(-math.inf < lo < hi < math.inf for lo, hi in box):
            raise ValueError("box must give one finite (lo, hi) pair with lo < hi per coordinate")
        object.__setattr__(self, "box", box)
        # name -> (the map or None, the declared shape of its value)
        object.__setattr__(self, "_maps", {
            d + name: (getattr(self, d + name), (k, self.n) if d else (k,))
            for name, k in (("F", self.m), ("H", self.m_H), ("G", self.m_G)) for d in ("", "D")})


@dataclass(slots=True)
class EvalBundle:
    """F and G values and all Jacobians of a problem at one point.

    ``evaluate`` and its kernel ``_evaluate`` build it.  The value of a map
    the problem does not have (DH when m_H = 0, G and DG when m_G = 0) is
    one shared read-only array with no rows.  H is not kept, since nothing
    reads it: the solver's iterates lie on H = 0 by construction (feasible
    start, and a retraction that returns only points within FEAS_TOL of its
    chart).  Not frozen: the descent loop builds one per iteration, and a
    frozen dataclass pays one ``object.__setattr__`` per field.

    In the descent loop's bundles (``_evaluate`` with an ``epsilon``),
    ``active`` is the tuple of 1-based indices of the G rows active at the
    loop's tolerance, ``active_indices(G_val, active_epsilon)``, found in
    the scan that decides on DG; ``solve_direction`` reads it when asked
    for that tolerance.  ``DG_val`` is None there at points where the tuple
    is empty, since nothing reads it.  ``evaluate`` always fills ``DG_val``
    and leaves ``active`` and ``active_epsilon`` None.
    """

    problem: ProblemSpec
    x: Array
    F_val: Array
    G_val: Array
    DF_val: Array
    DH_val: Array
    DG_val: Array | None
    active: tuple | None = None
    active_epsilon: float | None = None


def active_indices(G_val, epsilon) -> tuple:
    """Indices i (1-based) of the rows with G_val[i - 1] >= -epsilon: the
    one spelling of the epsilon-active rule.  ``epsilon`` is not checked."""
    low = -epsilon
    # Python floats; a NaN entry fails the test and is not active
    return tuple([i for i, g in enumerate(G_val.tolist(), 1) if g >= low])


def all_finite(a) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    Tested in Python floats: on arrays of a few entries the numpy call
    overhead of ``np.isfinite(a).all()`` (about 2.4 us) dominates, and a
    ``tolist`` pass costs a fraction of it.
    """
    isfinite = math.isfinite
    for v in a.ravel().tolist():
        if not isfinite(v):
            return False
    return True


# the value of a map the problem does not have, one shared read-only array
# per shape: (0,) or (0, n)
_NO_ROWS: dict = {}


def _no_rows(shape):
    rows = _NO_ROWS.get(shape)
    if rows is None:
        rows = _NO_ROWS[shape] = np.zeros(shape)
        rows.flags.writeable = False
    return rows


def _as_floats(component, out, shape):
    """The output ``out`` of the map ``component`` as a float array of
    ``shape``: the one coercion of every map value the solver reads.

    A base-class ndarray of dtype float and of ``shape`` already is
    returned as it is; anything else is ``np.asarray(out, dtype=float)``
    reshaped.  Raises ``MapShapeError`` when numpy cannot read ``out`` as
    floats (a ragged list, strings, a dict), or when it does not hold as
    many entries as ``shape``.
    """
    if type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape:
        return out
    try:
        out = np.asarray(out, dtype=float)
    except (TypeError, ValueError) as err:
        raise MapShapeError(component, None, shape) from err
    if out.size != math.prod(shape):
        raise MapShapeError(component, out.shape, shape)
    return out.reshape(shape)


def _value(problem, name, x):
    """The map ``name`` ("F", "DF", "H", "DH", "G" or "DG") of ``problem``
    at ``x``, coerced by ``_as_floats``'s rules to its declared shape: the
    one call site of every problem map.  The map must exist.

    An ``Exception`` the map raises is re-raised as ``MapError``, naming
    the map and the exception's type, with the original as ``__cause__``,
    so a run fails with its trace and a front records the failure;
    ``KeyboardInterrupt`` and ``SystemExit`` pass through.  A value numpy
    cannot read raises ``MapShapeError``.  No finiteness check: ``_call``
    adds it.
    """
    fun, shape = problem._maps[name]
    try:
        out = fun(x)
    except Exception as err:
        raise MapError(name, x, err) from err
    # _as_floats's fast path, inlined: the descent loop takes it at every call
    if type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape:
        return out
    return _as_floats(name, out, shape)


def _call(problem, name, x, value=None):
    """``_value(problem, name, x)``, or the given ``value`` of that map at
    ``x``, checked to be finite (``EvaluationError`` naming the map
    otherwise).  A given value is a ``_value`` output already, so it is
    not coerced again.  A map the problem does not have gives a shared
    read-only array with no rows, and is not called."""
    fun, shape = problem._maps[name]
    if fun is None:
        return _no_rows(shape)
    out = _value(problem, name, x) if value is None else value
    if not all_finite(out):
        raise EvaluationError(name, x)
    return out


def _evaluate(problem: ProblemSpec, x, F_val=None, G_val=None, epsilon=None) -> EvalBundle:
    """``evaluate`` at a float vector ``x`` of length n, which it does not
    check: the kernel behind ``evaluate``, and what the descent loop calls
    at each iterate.

    The values handed over are ``_value`` outputs of the step that
    accepted ``x``, so neither is coerced again.  A handed-over ``F_val`` is
    checked finite like a computed one, since the Armijo test lets a -inf
    through.  A handed-over ``G_val`` is taken as it is: the loop hands over
    only a G that its step found finite in every row, those outside the
    step's chart by test and the chart rows because the retraction holds
    them within FEAS_TOL, read through the same map at the same point.

    With ``epsilon`` None every map is called, in the order F, G, DF, DH,
    DG.  The descent loop passes its active-set tolerance instead, >= 0:
    one scan of G finds the rows >= -epsilon (a NaN row is not one), and
    the bundle keeps them, with the tolerance, as ``active``.  DG is then
    called, and checked, only where that tuple is not empty, since the
    subproblems and steps read DG only at rows active at that tolerance;
    elsewhere, and always without inequalities, the bundle's ``DG_val`` is
    None.  Without equalities DH is the shared no-rows array, with no
    call.
    """
    F = _call(problem, "F", x, F_val)
    G = _call(problem, "G", x) if G_val is None else G_val
    DF = _call(problem, "DF", x)
    DH = _call(problem, "DH", x) if problem.m_H else _no_rows((0, problem.n))
    if epsilon is None:
        # positional, in field order: problem, x, F, G, DF, DH, DG
        return EvalBundle(problem, x, F, G, DF, DH, _call(problem, "DG", x))
    active = active_indices(G, epsilon)
    DG = _call(problem, "DG", x) if active else None
    return EvalBundle(problem, x, F, G, DF, DH, DG, active, epsilon)


def evaluate(problem: ProblemSpec, x) -> EvalBundle:
    """Evaluate F, G and all Jacobians of ``problem`` at ``x`` in one bundle.

    Raises ``EvaluationError`` naming the first component that is
    non-finite, in the order F, G, DF, DH, DG.  The value of a map the
    problem does not have is a shared read-only array with no rows.

    This is the checked entry in front of the kernel ``_evaluate``: it
    coerces ``x`` to a float vector of length n, and the kernel checks every
    value once.  It always calls DG; only the descent loop's own
    evaluations skip it where no inequality is active.
    """
    return _evaluate(problem, as_point(x, problem.n))


def fd_audit(problem: ProblemSpec, x, h: float = 1e-6) -> float:
    """Worst relative mismatch between supplied Jacobians and central differences.

    Each Jacobian entry J_ij is compared against the central difference
    (f_i(x + h e_j) - f_i(x - h e_j)) / 2h; the relative error uses
    max(1, |J_ij|, |fd_ij|) as denominator so near-zero entries are judged
    on absolute error.
    """
    if h <= 0:
        raise ValueError("fd_audit requires h > 0")
    x = as_point(x, problem.n)
    errs = []
    for name in (c for c in ("F", "H", "G") if getattr(problem, c) is not None):
        J = _call(problem, "D" + name, x)
        for j in range(problem.n):
            step = np.zeros(problem.n)
            step[j] = h
            hi = _call(problem, name, x + step)
            lo = _call(problem, name, x - step)
            fd = (hi - lo) / (2.0 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(J[:, j]), np.abs(fd)))
            errs.append(np.max(np.abs(fd - J[:, j]) / denom))
    # np.max keeps a NaN (an overflowed difference) where max would drop it
    return float(np.max(errs, initial=0.0))


# ---------------------------------------------------------------------------
# registry


def _circle2d() -> ProblemSpec:
    # Two shifted quadratics, feasible set = exterior of the unit circle.
    # Each map reads its point once, as Python floats: ``**`` on a float
    # calls the same libm pow as on a numpy scalar, so the values are the
    # same bytes, but a square that overflows raises OverflowError (a
    # MapError through _value) where numpy would warn and return inf.
    def F(x):
        x0, x1 = x.tolist()
        q = (x0 - 2.0) ** 2
        return np.array([q + (x1 - 1.0) ** 2, q + (x1 + 1.0) ** 2])

    def DF(x):
        x0, x1 = x.tolist()
        d = 2.0 * (x0 - 2.0)
        return np.array([[d, 2.0 * (x1 - 1.0)], [d, 2.0 * (x1 + 1.0)]])

    def G(x):
        x0, x1 = x.tolist()
        return np.array([-x0 ** 2 - x1 ** 2 + 1.0])

    def DG(x):
        x0, x1 = x.tolist()
        return np.array([[-2.0 * x0, -2.0 * x1]])

    return ProblemSpec(name="circle2d", n=2, m=2, F=F, DF=DF, m_G=1, G=G, DG=DG,
                       box=((-3.0, 3.0), (-3.0, 3.0)))


def _sphere3d() -> ProblemSpec:
    # Minimize the height coordinate on the unit sphere.  Python floats, as
    # in _circle2d.
    def F(x):
        _, _, x2 = x.tolist()
        return np.array([x2])

    def DF(x):
        return np.array([[0.0, 0.0, 1.0]])

    def H(x):
        x0, x1, x2 = x.tolist()
        return np.array([x0 ** 2 + x1 ** 2 + x2 ** 2 - 1.0])

    def DH(x):
        x0, x1, x2 = x.tolist()
        return np.array([[2.0 * x0, 2.0 * x1, 2.0 * x2]])

    return ProblemSpec(name="sphere3d", n=3, m=1, F=F, DF=DF, m_H=1, H=H, DH=DH,
                       box=((-2.0, 2.0),) * 3)


def _broken_jacobian() -> ProblemSpec:
    # circle2d with a deliberately biased DF entry; used to exercise audit failure.
    good = _circle2d()

    def DF(x):
        J = good.DF(x)
        J[0, 0] += 3.0
        return J

    return ProblemSpec(name="broken-jacobian", n=2, m=2, F=good.F, DF=DF,
                       m_G=1, G=good.G, DG=good.DG, box=good.box)


_REGISTRY: dict[str, Callable[[], ProblemSpec]] = {
    "circle2d": _circle2d,
    "sphere3d": _sphere3d,
    "broken-jacobian": _broken_jacobian,
}

# Diagnostic fixtures resolvable by name but excluded from listings and
# audit-all sweeps.
_HIDDEN = {"broken-jacobian"}


def registry_names() -> list[str]:
    """Names of the registered (non-diagnostic) problems."""
    return sorted(name for name in _REGISTRY if name not in _HIDDEN)


def registry_get(name: str) -> ProblemSpec:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {name!r}; available: {', '.join(registry_names())}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# declarative polynomial problems


_SEQUENCE = (list, tuple, np.ndarray)


def _finite(value):
    """``value`` as a float if it is a finite real number (not a bool), else None."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _is_count(value, low) -> bool:
    """``value`` is an integral number >= ``low`` (2.0 counts, 2.5 does not)."""
    value = _finite(value)
    return value is not None and value.is_integer() and value >= low


def _read_poly(poly, n, where):
    """Coefficient vector and exponent table of one polynomial, validated."""
    if not isinstance(poly, _SEQUENCE):
        raise ValueError(f"{where}: a polynomial must be a list of [coefficient, exponents] pairs")
    coefs, expos = [], []
    for k, pair in enumerate(poly):
        at = f"{where}[{k}]"
        if not isinstance(pair, _SEQUENCE) or len(pair) != 2:
            raise ValueError(f"{at}: each monomial must be a (coefficient, exponents) pair")
        c, e = pair
        if _finite(c) is None:
            raise ValueError(f"{at}: coefficient must be a finite number, got {c!r}")
        if not (isinstance(e, _SEQUENCE) and len(e) == n and all(_is_count(p, 0) for p in e)):
            raise ValueError(f"{at}: exponent vector must hold {n} non-negative integers")
        coefs.append(float(c))
        expos.append([float(p) for p in e])
    return np.asarray(coefs, dtype=float), np.asarray(expos, dtype=float).reshape(len(coefs), n)


def _poly_list(doc, key):
    """The list of polynomials under ``key`` (empty when absent)."""
    polys = doc.get(key, [])
    if not isinstance(polys, _SEQUENCE):
        raise ValueError(f"{key}: must be a list of polynomials, got {polys!r}")
    return polys


def _monomials(x, B):
    """Every monomial of the exponent table ``B`` at ``x``: prod(x ** B, axis=1)."""
    return np.multiply.reduce(x ** B, axis=1)


class _MonomialBasis:
    """The distinct exponent rows of every map of one problem file, and a
    one-entry memo of their monomials at the last point asked for.

    The descent loop evaluates F, G, H and their Jacobians at the same few
    points (H then DH at each projection trial, F and G at the point it
    returns, the Jacobians at the accepted iterate), and the six maps of a
    file draw from the same monomials, so each map takes its table rows
    from the memo instead of raising x to its own table.  The memo is keyed
    on the bytes of x, so 0.0 and -0.0 are different points, and holds the
    key and the monomials as one tuple, replaced whole after the power has
    succeeded: a thread never reads one point's key with another point's
    monomials, and an overflow that raises (``np.seterr`` or a warnings
    filter) stores nothing, so a repeated call raises again.  One caveat:
    a map can warn about overflow in a monomial that only another map of
    the problem uses.  Under the default warnings filter its own values
    are not affected; under a filter that turns ``RuntimeWarning`` into an
    error the warning raises in that map, ``_value`` turns it into a
    ``MapError``, and the start fails.
    """

    __slots__ = ("n", "B", "_index", "_last")

    def __init__(self, n):
        self.n = n
        self._index = {}
        self.B = np.empty((0, n))
        self._last = (None, None)

    def indices(self, E):
        """Positions in B of the rows of exponent table ``E``, adding the
        rows B does not hold yet.  Load time only: B is rebuilt."""
        index = self._index
        idx = [index.setdefault(tuple(row), len(index)) for row in E.tolist()]
        self.B = np.array(list(index), dtype=float).reshape(len(index), self.n)
        self._last = (None, None)
        return np.array(idx, dtype=np.intp)

    def at(self, x):
        """The monomials of B at the float array ``x`` (read as one point)."""
        key = x.tobytes()
        last = self._last
        if last[0] == key:
            return last[1]
        # any array of n floats is the point its bytes name, whatever its shape
        mono = _monomials(x.reshape(-1), self.B)
        self._last = (key, mono)
        return mono


def _batched_map(rows, shape, basis):
    """The map x -> array of ``shape`` whose entries, in row-major order,
    are ``c @ prod(x ** e, axis=1)`` for the (c, e) pairs of ``rows``.

    Rows are grouped by their monomial count L.  Each group keeps its
    coefficients C and the positions idx of its monomials in the problem's
    ``_MonomialBasis`` as two arrays of one layout: the map's own shape
    plus an axis of L when every row has L monomials (one group), else
    (R, L) for the group's R rows.  A call reads the monomials at x from
    the basis (its memo, or one ``x ** B`` and one product per basis row)
    and takes one ``np.vecdot(C, mono.take(idx))`` per group: numpy
    computes each row of it with the same vector dot as ``c @ mono`` of
    one polynomial, and each monomial is the same power and product as
    its own, so each value is the same sum, in the same order, as one
    polynomial at a time.  Padding rows to a common L would not be: at 16
    and more terms the BLAS dot changes its blocking.
    """
    by_count = {}
    for r, (coefs, _) in enumerate(rows):
        by_count.setdefault(len(coefs), []).append(r)
    groups, order = [], []
    for count, members in by_count.items():
        layout = (*shape, count) if len(by_count) == 1 else (len(members), count)
        C = np.array([rows[r][0] for r in members], dtype=float).reshape(layout)
        idx = basis.indices(np.concatenate([rows[r][1] for r in members])).reshape(layout)
        groups.append((C, idx))
        order.extend(members)
    at = basis.at
    if len(groups) == 1:
        ((C, idx),) = groups
        return lambda x: np.vecdot(C, at(np.asarray(x, dtype=float)).take(idx))

    # position in the group-ordered results of each row, in row order
    where = np.argsort(order)

    def scattered(x):
        mono = at(np.asarray(x, dtype=float))
        values = np.concatenate([np.vecdot(C, mono.take(idx)) for C, idx in groups])
        return values.take(where).reshape(shape)

    return scattered


def _make_poly_maps(poly_list, n, where, basis):
    """Value and Jacobian maps of a list of polynomials in ``n`` variables.

    Each polynomial is one row of the value map; each (row, variable)
    entry of the Jacobian is one row of the Jacobian map, with the
    coefficients times the exponent and that exponent lowered by one
    (floored at 0).  Zero coefficients are kept, so signed zeros and
    0 * inf come out as in the full sum.  Both maps group their rows by
    monomial count and take one ``np.vecdot`` per group (``_batched_map``),
    reading their monomials from ``basis``, which every map of the
    problem shares.  A coefficient times exponent that overflows raises
    ``ValueError`` naming its monomial, with no warning: no Jacobian entry
    could hold it, so the file is malformed.
    """
    rows, entries = [], []
    for i, poly in enumerate(poly_list):
        coefs, expos = _read_poly(poly, n, f"{where}[{i}]")
        rows.append((coefs, expos))
        for j in range(n):
            de = expos.copy()
            de[:, j] = np.maximum(de[:, j] - 1.0, 0.0)
            # an overflow is refused below, by the monomial it comes from
            with np.errstate(over="ignore"):
                dc = coefs * expos[:, j]
            for k, c in enumerate(dc.tolist()):
                if not math.isfinite(c):
                    raise ValueError(f"{where}[{i}][{k}]: coefficient {coefs[k]:g} times "
                                     f"exponent {expos[k, j]:g} of x{j + 1} overflows in the "
                                     "Jacobian")
            entries.append((dc, de))
    return (_batched_map(rows, (len(rows),), basis),
            _batched_map(entries, (len(rows), n), basis))


def load_problem(source) -> ProblemSpec:
    """Build a ProblemSpec from a declarative polynomial description.

    ``source`` is a JSON file path or an already-parsed dict with fields
    ``n``, ``m``, ``objectives`` (list of m polynomials), and optional
    ``equalities``, ``inequalities``, ``name``, ``box``.  A polynomial is a
    list of ``[coefficient, exponent-vector]`` monomial pairs: coefficients
    are finite numbers, exponents non-negative integers, ``n`` and ``m``
    positive integers, and ``name`` a string.  A malformed description raises ``ValueError``
    naming where it is wrong (``objectives[0][2]`` is the third monomial of
    the first objective).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        doc = json.loads(path.read_text())
        default_name = path.stem
    else:
        doc = source
        default_name = "problem"
    if not isinstance(doc, Mapping):
        raise ValueError("a problem description must be a JSON object")

    for key in ("n", "m"):
        if key not in doc:
            raise ValueError(f"{key}: missing")
        if not _is_count(doc[key], 1):
            raise ValueError(f"{key}: must be a positive integer, got {doc[key]!r}")
    n, m = int(doc["n"]), int(doc["m"])
    objectives, equalities, inequalities = (
        _poly_list(doc, key) for key in ("objectives", "equalities", "inequalities"))
    if len(objectives) != m:
        raise ValueError(f"objectives: expected {m} objectives, got {len(objectives)}")

    basis = _MonomialBasis(n)
    F, DF = _make_poly_maps(objectives, n, "objectives", basis)
    kwargs = {}
    if len(equalities):
        kwargs["H"], kwargs["DH"] = _make_poly_maps(equalities, n, "equalities", basis)
    if len(inequalities):
        kwargs["G"], kwargs["DG"] = _make_poly_maps(inequalities, n, "inequalities", basis)

    name = doc.get("name", default_name)
    if not isinstance(name, str):
        raise ValueError(f"name: must be a string, got {name!r}")
    box = doc.get("box")
    if box is not None:
        if not (isinstance(box, _SEQUENCE)
                and all(isinstance(pair, _SEQUENCE) and len(pair) == 2
                        and all(_finite(v) is not None for v in pair)
                        for pair in box)):
            raise ValueError("box: must be a list of [lo, hi] pairs of finite numbers")
        box = tuple((float(lo), float(hi)) for lo, hi in box)

    return ProblemSpec(
        name=name,
        n=n, m=m, F=F, DF=DF,
        m_H=len(equalities), m_G=len(inequalities),
        box=box, **kwargs,
    )
