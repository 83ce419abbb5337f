"""Static hygiene of the package, checked with the standard library's ``ast``:
no module imports a name it never uses, no private module-level function
or class outlives its last caller, no private module-level function takes
a parameter it never reads, the public name list holds only names the
package defines, the descent iteration spells no product ``@``, only
``problems`` calls a problem map, only the two drivers and two guarded
load and projection steps set numpy's floating-point state, and the CI
workflow runs no command line of its own."""

import ast
import re
from pathlib import Path

import pytest

import modescent as md

PACKAGE = Path(md.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Names bound by the module's import statements, with their line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name}: imported but unused {unused}"


def test_every_public_name_resolves():
    missing = [name for name in md.__all__ if not hasattr(md, name)]
    assert not missing


def _referenced_names(tree, skip=None):
    """Names read as a bare name or an attribute anywhere in ``tree``,
    except inside the node ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_definition_is_referenced():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    unreferenced = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            # a reference inside the definition itself (recursion) does not count
            if not any(node.name in set(_referenced_names(other, skip=node))
                       for other in trees.values()):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, f"private definitions without a caller: {unreferenced}"


def test_every_private_function_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({name})"
                       for name in params if name not in read]
    assert not unread, f"parameters never read: {unread}"


@pytest.mark.parametrize("name", ["direction.py", "linesearch.py", "problems.py"])
def test_iteration_products_are_spelled_dot(name):
    # ndarray.dot makes the same BLAS call as @ on 1-D and 2-D operands
    # (tests/test_products.py) at about half the dispatch cost; the compiled
    # maps of problems.py take np.vecdot, whose rows are the same 1-D dots,
    # where a stacked @ would cost reshapes and a slower dispatch
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    assert not lines, f"{name}: products spelled @ on lines {lines}"


MAP_NAMES = {"F", "DF", "H", "DH", "G", "DG"}
NOT_PROBLEMS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "problems.py"]


@pytest.mark.parametrize("path", NOT_PROBLEMS, ids=[p.stem for p in NOT_PROBLEMS])
def test_only_problems_calls_a_problem_map(path):
    # problems._value is the one call site of every map, where its value is
    # coerced and its own exception becomes a MapError; a call anywhere else
    # would bypass both
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in MAP_NAMES]
    assert not calls, f"{path.name}: problem maps called on lines {calls}"
    names = {*_referenced_names(tree), *(name for name, _ in _imported_names(tree))}
    assert "_as_floats" not in names, f"{path.name}: references _as_floats"


# the functions that may use np.errstate: the two drivers, under which every
# solve runs, and two steps whose behaviour when called directly tests pin
ERRSTATE_OWNERS = {("cli.py", "main"), ("globalize.py", "multistart"),
                   ("geometry.py", "_project_newton"), ("problems.py", "_make_poly_maps")}


def _errstate_uses(node, owner=None):
    """(innermost enclosing function name or None, line) of every use of
    the name ``errstate`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if (isinstance(node, ast.Attribute) and node.attr == "errstate"
            or isinstance(node, ast.Name) and node.id == "errstate"):
        yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _errstate_uses(child, owner)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_drivers_set_numpy_error_state(path):
    # the run's own checks name every overflow, so a kernel needs no guard of
    # its own, and a single library solve keeps its caller's error state
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [(owner, line) for owner, line in _errstate_uses(tree)
             if (path.name, owner) not in ERRSTATE_OWNERS]
    assert not stray, f"{path.name}: np.errstate outside its owners at {stray}"


WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def test_the_workflow_runs_no_command_line():
    # tests/test_cli.py runs every command-line case in process, under the
    # tier-1 command; a CI step of its own would be a second harness that
    # the tier-1 command never runs
    command = re.compile(r"modescent\.cli|\bmodescent\s+(?:solve|front|audit)\b")
    lines = [number for number, line in enumerate(WORKFLOW.read_text().splitlines(), 1)
             if command.search(line)]
    assert not lines, f"{WORKFLOW.name} runs the command line on lines {lines}"
