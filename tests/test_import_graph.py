"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import trfkit

PACKAGE = Path(trfkit.__file__).parent


def _sibling_imports(path: Path, modules: set) -> set:
    """Package modules that path imports relatively, at any depth, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a submodule, or a name the package defines
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_package_import_graph_has_no_cycle():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {m: _sibling_imports(PACKAGE / f"{m}.py", modules) for m in modules}
    assert "ridge_trf" in graph["stats_eval"]  # the walk sees imports at all
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        pytest.fail("import cycle: " + " -> ".join(e.args[1]))
