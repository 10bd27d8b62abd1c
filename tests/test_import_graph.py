"""The package's modules import one another without a cycle, and scipy only on first use."""

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
    return sorted(found)


def test_package_import_graph_has_no_cycle():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {m: _sibling_imports(PACKAGE / f"{m}.py", modules) for m in modules}
    assert "ridge_trf" in graph["stats_eval"]  # the walk sees imports at all
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as e:
        pytest.fail("import cycle: " + " -> ".join(e.args[1]))


def _scipy_imports(path: Path) -> list:
    """(line, inside a function body) for each import of scipy in path."""
    found = []
    todo = [(node, False) for node in ast.parse(path.read_text(encoding="utf-8")).body]
    while todo:
        node, inside = todo.pop()
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, inside))
        inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        todo.extend((child, inside) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_scipy_is_imported_only_inside_functions():
    # a module-level import would make every command, scipy user or not, pay for it
    found = {p.name: _scipy_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert any(inside for _, inside in found["lda_reduce.py"])  # the walk sees function bodies
    top = [f"{name}:{line}" for name, imports in found.items() for line, inside in imports if not inside]
    assert not top, "scipy imported outside a function body: " + ", ".join(top)
