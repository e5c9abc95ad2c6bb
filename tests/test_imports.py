"""Every name that a ``subtrack`` module imports is used in that module, and every
function and class that it defines at top level is named somewhere else."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subtrack

SOURCES = sorted(Path(subtrack.__file__).parent.glob("*.py"))
# the splice oracle that scores the noise filter: kept for that score, not yet computed
UNUSED = {("synth", "oracle_noise_indices")}
# the (module, name) pairs that perfbench/spans.py wraps but that no longer exist
ABSENT_SPANS = {("nftp", "nftp_all"), ("clustering", "k_reciprocal_jaccard"),
                ("clustering", "dbscan"), ("kernels", "jaccard_from_weights"),
                ("kernels", "dbscan_labels"), ("trainer", "progressive_positive_sets"),
                ("trainer", "update_memory"), ("trainer", "update_hard_memory")}


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


def _defined(tree):
    """The module's top-level functions and classes, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _named(*nodes):
    """Every name that the nodes read, import, look up as an attribute or spell out as a
    string (perfbench wraps functions by name)."""
    names = set()
    for node in (child for node in nodes for child in ast.walk(node)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unused(tree, elsewhere=frozenset()):
    """The top-level functions and classes that neither ``elsewhere`` nor the rest of their
    module names; a definition does not name itself."""
    return {name for name, node in _defined(tree).items() if name not in elsewhere
            and name not in _named(*(other for other in tree.body if other is not node))}


def test_every_top_level_name_is_used():
    root = Path(subtrack.__file__).parents[2]
    files = [*SOURCES, *(root / "perfbench").glob("*.py"), *(root / "tools").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    unused = set()
    for path in SOURCES:
        elsewhere = _named(*(tree for other, tree in trees.items() if other != path))
        unused |= {(path.stem, name) for name in _unused(trees[path], elsewhere)}
    assert unused == UNUSED


def test_an_unused_top_level_name_is_found():
    tree = ast.parse("import numpy as np\nclass Box:\n    pass\ndef helper():\n    return 1\n"
                     "def dead():\n    return np.zeros(1), dead()\ndef spelled():\n    pass\n"
                     "def main():\n    return Box(), helper(), 'spelled'\n")
    assert _unused(tree) == {"dead", "main"}
    assert _unused(tree, elsewhere={"main"}) == {"dead"}


def test_the_benchmark_finds_every_wrapped_name_but_the_known_absent():
    # read from the source, not imported: the benchmark may only shrink the absent set
    path = Path(subtrack.__file__).parents[2] / "perfbench" / "spans.py"
    spans = next(node.value for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS")
    wrapped = {(row.elts[0].value, row.elts[1].value) for row in spans.elts}
    missing = {(module, attr) for module, attr in wrapped
               if not hasattr(importlib.import_module(f"subtrack.{module}"), attr)}
    assert missing <= ABSENT_SPANS


def test_reading_a_dataset_does_not_import_the_generator():
    # only `subtrack generate` loads synth; every other command reads a dataset from disk
    env = {**os.environ, "PYTHONPATH": str(Path(subtrack.__file__).parents[1])}
    for module in ("storage", "cli"):
        out = subprocess.run([sys.executable, "-c", f"import sys, subtrack.{module}; "
                              "print(sorted(m for m in sys.modules if m.startswith('subtrack')))"],
                             capture_output=True, text=True, check=True, env=env).stdout
        assert f"subtrack.{module}" in out and "subtrack.synth" not in out
