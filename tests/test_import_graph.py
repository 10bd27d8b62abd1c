"""The package's modules import one another without a cycle, and scipy only on first use;
the package exports every layer's public names."""

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import trfkit
from trfkit import (
    errors,
    lagged_design,
    lda_reduce,
    preprocess,
    ridge_trf,
    stats_eval,
    synthgen,
    tensorio,
)

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
    assert any(inside for _, inside in found["ridge_trf.py"])  # the walk sees function bodies
    top = [f"{name}:{line}" for name, imports in found.items() for line, inside in imports if not inside]
    assert not top, "scipy imported outside a function body: " + ", ".join(top)


# The names the package exported before it built __all__ from its modules'.
EXPORTED_BEFORE = {
    errors: [
        "TrfkitError", "FormatError", "ValidationError", "PreconditionError",
        "DegenerateDataError", "ConfigError", "NumericalError", "SingularSystemError",
        "DivergenceError",
    ],
    tensorio: [
        "TensorFile", "EegRecording", "WordEvent", "WordEventSequence", "LayoutEntry",
        "ChannelLayout", "read_tensor", "write_tensor", "read_eeg", "write_eeg",
        "read_word_events", "write_word_events", "read_channel_layout", "write_channel_layout",
    ],
    preprocess: [
        "FeatureSeries", "Segment", "SegmentSet", "zscore_channels", "zscore_features",
        "impulse_align", "segment",
    ],
    lagged_design: ["LagSpec", "DesignMatrix", "lag_range_to_samples", "build_lagged_matrix"],
    ridge_trf: [
        "KERNEL_UNITS", "TrfModel", "CvReport", "IterativeFit", "IterativeOptions",
        "make_lambda_grid", "ridge_closed_form", "fit_iterative", "predict", "reshape_trf",
        "flatten_trf", "cross_validate", "fit_trf", "write_trf", "read_trf",
    ],
    lda_reduce: [
        "ComponentClampWarning", "LdaModel", "fit_lda", "transform", "separation_report",
        "write_lda", "read_lda",
    ],
    stats_eval: [
        "ChannelScore", "EvaluationReport", "GroupReport", "pearson_r", "r_to_p",
        "fisher_combine", "mean_channel_r", "evaluate_subject", "group_report", "topo_report",
    ],
    synthgen: ["SynthSpec", "gen_kernel", "gen_words", "gen_response", "gen_dataset", "circle_layout"],
}


def test_package_still_exports_every_name_it_did():
    assert sum(map(len, EXPORTED_BEFORE.values())) == 72  # and __version__
    assert "__version__" in trfkit.__all__
    for module, names in EXPORTED_BEFORE.items():
        for name in names:
            assert name in trfkit.__all__, name
            assert getattr(trfkit, name) is getattr(module, name), name


def test_package_exports_each_layer_module_all_once():
    not_layers = ("__init__", "__main__", "_util", "cli")
    layers = [p.stem for p in PACKAGE.glob("*.py") if p.stem not in not_layers]
    exported = [name for name in trfkit.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    for layer in layers:
        module = importlib.import_module(f"trfkit.{layer}")
        for name in module.__all__:
            assert name in exported, f"{layer}.{name}"
            assert getattr(trfkit, name) is getattr(module, name), name
    cli = importlib.import_module("trfkit.cli")
    assert not set(cli.__all__) & set(exported)  # the CLI stays out of the package
