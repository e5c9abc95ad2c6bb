"""Every name that a ``subtrack`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import subtrack

SOURCES = sorted(Path(subtrack.__file__).parent.glob("*.py"))


def _imported(tree):
    """The names that the module's import statements bind, ``__future__`` features aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _used(tree):
    """The names the module reads, in code or in annotations, and those it lists in
    ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _imported(tree) - _used(tree) == set()


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
                     "from .model import SubTracklet, Tracklet\n__all__ = ['Tracklet']\n"
                     "def f(x: Optional[int]) -> Sequence[int]:\n    return np.asarray(x)\n")
    assert _imported(tree) - _used(tree) == {"os", "SubTracklet"}
