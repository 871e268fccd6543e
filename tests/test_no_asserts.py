"""Lint guard: invariant checks in these modules raise ArtifactErrors.

An assert is stripped by python -O, so a check of a mathematical
invariant written as one silently disappears.  The modules listed here
have been cleared of asserts; a module joins the list once it is cleared.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"
CLEARED = ("hecke.py", "cuspidal.py", "exactlin.py", "chaincx.py", "resolutions.py",
           "congruence.py", "sl2z.py", "cwdvf.py")


@pytest.mark.parametrize("name", CLEARED)
def test_module_has_no_asserts(name):
    path = SRC / name
    tree = ast.parse(path.read_text(), filename=str(path))
    found = ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in cleared modules: " + ", ".join(found)
