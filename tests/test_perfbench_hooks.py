"""perfbench/spans.py wraps trfkit functions by name; every name must resolve.

A name that no longer exists makes the benchmark's traced runs crash, so
the check runs with the unit tests. spans.py uses only the standard
library and is loaded from its path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_perfbench_hooks_resolves():
    spans = _load_spans()
    for layer in spans.LAYERS:
        importlib.import_module(f"trfkit.{layer}")
    for name in spans.COUNTED:
        layer, attr = name.split(".", 1)
        assert callable(getattr(importlib.import_module(f"trfkit.{layer}"), attr, None)), name
    cli = importlib.import_module("trfkit.cli")
    for attr in spans.CLI_SPANS:
        assert callable(getattr(cli, attr, None)), f"cli.{attr}"
