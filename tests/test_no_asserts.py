"""Lint guard: invariant checks in every module raise ArtifactErrors.

An assert is stripped by python -O, so a check of a mathematical
invariant written as one silently disappears; a raised AssertionError
survives -O but is no ArtifactError, so the CLI shows it as a traceback.
A parameter named check lets a caller switch a verification off, which
is python -O for one call.  Every module of the package is held to all
three, so a new module is checked from its first line.  The helper
modules of the tests (every tests/*.py that is no test_* file) hold
oracles and certificates the tests rely on; the CI step that runs the
suite under python -O would strip their asserts, so they may hold none.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "artifact"
MODULES = [path.name for path in sorted(SRC.glob("*.py"))]
HELPERS = [path.name for path in sorted(TESTS.glob("*.py"))
           if not path.name.startswith("test_")]


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_asserts(name):
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, ("assert statements or raised AssertionErrors: "
                       + ", ".join(found))


def test_helpers_are_found():
    assert {"coset_enum.py", "genhelpers.py",
            "modforms_oracle.py"} <= set(HELPERS)


@pytest.mark.parametrize("name", HELPERS)
def test_test_helper_has_no_asserts(name):
    path = TESTS / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements: " + ", ".join(found)


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_check_parameters(name):
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = ["%s:%d %s" % (name, node.lineno, node.name)
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and "check" in _parameter_names(node.args)]
    assert not found, ("functions with a check parameter: "
                       + ", ".join(found))


def _parameter_names(args):
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
