"""perfbench/spans.py wraps trfkit functions by name; every name must resolve.

A name that no longer exists makes the benchmark's traced runs crash, and
a function that is no longer called makes its per-layer metrics read 0, so
both are checked with the unit tests. spans.py uses only the standard
library and is loaded from its path.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from trfkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"
TRACED_PATH = ROOT / "perfbench" / "traced.py"


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


def test_traced_fit_keeps_its_ridge_spans_and_one_solve(tmp_path):
    spans = _load_spans()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"eeg": ["sub00_eeg.btsr"], "word_events": "words.tsv", "output": "."},
        "lags": {"tmin_s": -0.1, "tmax_s": 0.3},
        "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 4},
        "synth": {"fs_hz": 50.0, "duration_s": 40.0, "n_channels": 2, "n_features": 3},
    }), encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 0
    dump = tmp_path / "spans.json"
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TRACED_PATH), str(dump), "cli", "fit", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(dump.read_text(encoding="utf-8"))
    tree = spans.SpanTree(doc["spans"])
    assert tree.accounting_errors() == []
    (cmd,) = tree.named("cmd.fit")

    def under_cmd(s):
        while s[spans.PARENT]:
            s = tree.by_id[s[spans.PARENT]]
            if s is cmd:
                return True
        return False

    for name in ("ridge_trf.cross_validate", "ridge_trf.fit_trf"):
        found = [s for s in tree.named(name) if under_cmd(s)]
        assert len(found) == 1, name
        assert tree.self_time(found[0]) > 0, name
    assert doc["counters"]["solves"] == 1
