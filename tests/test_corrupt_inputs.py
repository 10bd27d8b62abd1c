"""One corruption of any file a command reads ends in a typed, named, one-line failure.

A toy tree (40 s, 2 channels, 3 features at 50 Hz, and a small tagged word
file for lda) is synthesised and fitted once per module. Each example copies
it, changes one input file by a bit flip, a byte set, a deletion, an
insertion or a truncation, and runs one command through `main`. The
property: the exit code is 0, 2, 3 or 4 and no warning is raised; a
non-zero exit leaves the output directory byte for byte as it was and
prints exactly one `error:` line, which names the changed file or the
subject it belongs to. The config file is not changed here: its errors
name the config key instead, and tests/test_cli.py covers them.
"""

import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trfkit.cli import main

CONFIG = {
    "paths": {
        "eeg": ["out/sub00_eeg.btsr"],
        "word_events": "out/words.tsv",
        "layout": "out/layout.csv",
        "output": "out",
    },
    "lags": {"tmin_s": -0.1, "tmax_s": 0.3},
    "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 4},
    "lda": {"enabled": True, "n_components": 1},  # one component never needs a clamp
    "synth": {"fs_hz": 50.0, "duration_s": 40.0, "n_channels": 2, "n_features": 3},
}

# each command, its arguments after the config, and the files it reads (under out/)
COMMANDS = {
    "fit": (["fit"], ["words.tsv", "sub00_eeg.btsr"]),
    "evaluate": (
        ["evaluate"],
        ["layout.csv", "words.tsv", "sub00_eeg.btsr", "sub00_trf.btsr", "sub00_cv.json"],
    ),
    "lda": (["lda", "--set", "paths.word_events=out/tagged.tsv"], ["tagged.tsv"]),
    "inspect": (None, ["sub00_eeg.btsr", "sub00_trf.btsr", "sub00_truth_trf.btsr"]),
}
# a file that holds one subject's data may be named by its subject instead
SUBJECT_FILES = {"words.tsv", "sub00_eeg.btsr", "sub00_trf.btsr", "sub00_cv.json"}


def _tagged_words(path, n_per_class=10, dim=3):
    rng = np.random.default_rng(0)
    lines = ["token\tonset_s\tpos\t" + "\t".join(f"v{i}" for i in range(dim))]
    for c in range(3):
        center = rng.normal(scale=4.0, size=dim)
        for j in range(n_per_class):
            k = c * n_per_class + j
            vec = center + rng.normal(size=dim)
            lines.append("\t".join([f"w{k}", repr(k / 4), f"T{c}", *map(repr, vec.tolist())]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    for command in ("synth", "fit"):
        assert _quiet_main([command, "--config", str(root / "config.json")])[0] == 0
    _tagged_words(root / "out" / "tagged.tsv")
    return root


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _mutate(data: bytes, kind: str, at: int, blob: bytes) -> bytes:
    buf = bytearray(data)
    at %= len(buf) + (kind in ("insert", "truncate"))
    if kind == "flip":
        buf[at] ^= 1 << (blob[0] % 8)
    elif kind == "set":
        buf[at] = blob[0]
    elif kind == "delete":
        del buf[at : at + len(blob)]
    elif kind == "insert":
        buf[at:at] = blob
    else:
        del buf[at:]
    return bytes(buf)


_JSONISH = st.sampled_from([bytes([b]) for b in b'0123456789-+.eE,:[]{}" \t\n'])
_MUTATIONS = st.tuples(
    st.sampled_from(["flip", "set", "delete", "insert", "truncate"]),
    # most examples hit the header or the first rows, where the structure is
    st.one_of(st.integers(0, 255), st.integers(0, 2**20)),
    st.one_of(_JSONISH, st.binary(min_size=1, max_size=4)),
)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _check_one_mutation(tree, tmp_path, command, name, mutation):
    root = tmp_path / "tree"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(tree, root)
    target = root / "out" / name
    target.write_bytes(_mutate(target.read_bytes(), *mutation))
    args, _ = COMMANDS[command]
    argv = [*args, "--config", str(root / "config.json")] if args else ["inspect", str(target)]
    before = _snapshot(root / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _quiet_main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4), err
    if code != 0:
        assert _snapshot(root / "out") == before
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        names = [name] + (["subject '"] if name in SUBJECT_FILES else [])
        assert any(n in lines[0] for n in names), lines[0]


def _property(command, examples):
    @settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(name=st.sampled_from(COMMANDS[command][1]), mutation=_MUTATIONS)
    def prop(tree, tmp_path, name, mutation):
        _check_one_mutation(tree, tmp_path, command, name, mutation)

    return prop


# fit runs cross-validation on every example, so it gets the fewest. The 500
# examples, set-up included, took 5.9-6.4 s on a 2-vCPU host with one BLAS
# thread; the budget is 20 s.
test_fit_survives_one_corrupted_input = _property("fit", 100)
test_evaluate_survives_one_corrupted_input = _property("evaluate", 150)
test_lda_survives_one_corrupted_input = _property("lda", 150)
test_inspect_survives_one_corrupted_input = _property("inspect", 100)
