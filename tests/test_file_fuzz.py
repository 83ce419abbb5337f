"""The command line on mutated problem files: every call ends with an exit
code, never with an exception.

Each example takes one committed problem file and applies one to three
mutations: a dropped key, a value of another type, a number replaced by
NaN, an infinity, a huge, negative or fractional one, an exponent vector
made ragged, a wrong variable or objective count, an empty polynomial, or
one of 40 terms.  It then runs ``cli.main`` in process with ``solve``,
``front`` on a grid of one or two points per coordinate, and ``audit``.
Each must return 0, 1, 2 or 64, and write no traceback to stderr.  The
calls run under a warnings filter that raises every warning, as
``python -W error`` does, so a warning that would end such a command in a
traceback fails the example.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modescent.cli import main

PROBLEM_FILES = sorted((Path(__file__).parent / "data").glob("*.json"))
POLY_KEYS = ("objectives", "equalities", "inequalities")
EXIT_CODES = {0, 1, 2, 64}

NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400, 1e-320,
           -1, -2.5, 0.5, 2.5, 0, 1000000]
OTHER_TYPES = [None, True, "x", [], {}, [[]], [1, 2], {"n": 2}, 3, 1.5]


def _paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _numbers(doc):
    return [p for p in _paths(doc)
            if isinstance(_get(doc, p), (int, float)) and not isinstance(_get(doc, p), bool)]


def _polynomials(doc):
    return [(key, i) for key in POLY_KEYS
            if isinstance(doc.get(key), list) for i in range(len(doc[key]))]


def _exponent_vectors(doc):
    return [(key, i, k, 1) for key, i in _polynomials(doc)
            if isinstance(doc[key][i], list)
            for k, pair in enumerate(doc[key][i])
            if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], list)]


def _long_polynomial(draw, n):
    """40 monomials with exponents 0..3 and coefficients in [-5, 5], from
    a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [[c, e] for c, e in zip(rng.uniform(-5.0, 5.0, 40).tolist(),
                                   rng.integers(0, 4, (40, n)).tolist())]


def _mutate(draw, doc, n):
    """Apply one drawn mutation to ``doc`` in place; a mutation with
    nothing to act on leaves it as it is."""
    kind = draw(st.sampled_from(["drop", "type", "number", "ragged", "count",
                                 "empty", "long"]))
    if kind == "count":
        key = draw(st.sampled_from(["n", "m"]))
        if isinstance(doc.get(key), int):
            doc[key] += draw(st.sampled_from([-1, 1]))
        return
    targets = {"drop": list(_paths(doc)), "type": list(_paths(doc)), "number": _numbers(doc),
               "ragged": _exponent_vectors(doc),
               "empty": _polynomials(doc), "long": _polynomials(doc)}[kind]
    if not targets:
        return
    path = draw(st.sampled_from(targets))
    parent, key = _get(doc, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "type":
        parent[key] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
    elif kind == "number":
        parent[key] = draw(st.sampled_from(NUMBERS))
    elif kind == "ragged":
        vector = parent[key]
        if vector and draw(st.booleans()):
            vector.pop()
        else:
            vector.append(draw(st.sampled_from([0, 1])))
    elif kind == "empty":
        parent[key] = []
    else:
        parent[key] = _long_polynomial(draw, n)


@st.composite
def mutated_files(draw):
    """(variable count of the original file, mutated document)."""
    doc = json.loads(draw(st.sampled_from(PROBLEM_FILES)).read_text())
    n = doc["n"]
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc, n)
    return n, doc


def _run(argv):
    """Exit code and stderr of one in-process call; an exception that
    escapes ``main`` is written to stderr as its traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except BaseException:
            traceback.print_exc()
            rc = None
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files(), st.integers(1, 2))
def test_mutated_problem_files_end_with_an_exit_code(case, count):
    n, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        steps = ["--max-iters", "20"]
        for argv in (["solve", "--problem-file", str(path), "--x0", ",".join(["0.25"] * n),
                      "--out", f"{tmp}/solve", *steps],
                     ["front", "--problem-file", str(path), "--grid", "x".join([str(count)] * n),
                      "--out", f"{tmp}/front", *steps],
                     ["audit", "--problem-file", str(path)]):
            rc, err = _run(argv)
            assert rc in EXIT_CODES and "Traceback" not in err, (argv[0], rc, err)
