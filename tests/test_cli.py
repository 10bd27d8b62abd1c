import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trfkit.cli import (
    DEFAULT_CONFIG,
    _check_heldout,
    _heldout_record,
    load_config,
    main,
    split_segments,
)
from trfkit.errors import ConfigError, PreconditionError, ValidationError
from trfkit.lda_reduce import ComponentClampWarning
from trfkit.preprocess import FeatureSeries, Segment, SegmentSet, segment
from trfkit.ridge_trf import read_trf
from trfkit.tensorio import EegRecording, read_eeg, read_tensor, read_word_events, write_tensor

FAST_CONFIG = {
    "paths": {
        "eeg": ["out/sub00_eeg.btsr"],
        "word_events": "out/words.tsv",
        "layout": "out/layout.csv",
        "output": "out",
    },
    "lags": {"tmin_s": -0.1, "tmax_s": 0.3},
    "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 4},
    "synth": {
        "fs_hz": 50.0,
        "duration_s": 40.0,
        "n_channels": 2,
        "n_features": 3,
        "word_rate_hz": 2.0,
        "snr": 5.0,
        "n_subjects": 1,
    },
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    for dotted, value in (overrides or {}).items():
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config handling


def test_defaults_cover_every_stage():
    assert DEFAULT_CONFIG["lags"] == {"tmin_s": -0.1, "tmax_s": 1.0}
    assert DEFAULT_CONFIG["window_s"] == 2.0
    assert DEFAULT_CONFIG["overlap"] == 0.1
    assert DEFAULT_CONFIG["lambda_grid"] == {"lo": 1e-3, "hi": 1e5, "n": 10}
    assert DEFAULT_CONFIG["folds"] == 5
    assert DEFAULT_CONFIG["solver"] == "closed_form"
    assert DEFAULT_CONFIG["iterative"]["lr"] == 1e-4
    assert DEFAULT_CONFIG["iterative"]["batch_size"] == 64


def test_load_config_merges_over_defaults(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path)
    assert cfg["lags"]["tmax_s"] == 0.3      # overridden
    assert cfg["window_s"] == 2.0            # default
    assert cfg["folds"] == 5                 # default
    assert cfg["lambda_grid"]["n"] == 4      # overridden


def test_relative_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "deep" / "nested"
    sub.mkdir(parents=True)
    path = _write_config(sub)
    cfg = load_config(path)
    assert cfg["paths"]["output"] == sub / "out"
    assert cfg["paths"]["eeg"][0] == sub / "out" / "sub00_eeg.btsr"


def test_output_flag_resolves_against_cwd(tmp_path, monkeypatch):
    path = _write_config(tmp_path)
    monkeypatch.chdir(tmp_path / "..")
    cfg = load_config(path, output="elsewhere")
    assert cfg["paths"]["output"].name == "elsewhere"
    assert not cfg["paths"]["output"].is_absolute()


def test_unknown_key_rejected(tmp_path):
    path = _write_config(tmp_path, {"typo_key": 1})
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(path)


def test_unknown_nested_key_rejected(tmp_path):
    path = _write_config(tmp_path, {"lambda_grid.count": 4})
    with pytest.raises(ConfigError, match="lambda_grid.count"):
        load_config(path)


def test_invalid_values_rejected(tmp_path):
    for overrides in (
        {"folds": 1},
        {"overlap": 1.0},
        {"lambda_grid.lo": 0.0},
        {"solver": "magic"},
        {"test_fraction": 0.0},
        {"lags.tmin_s": 2.0},
        {"paths.word_events": 5},
        {"synth.fs_hz": "abc"},
        {"synth.snr": None},
        {"lags.tmax_s": math.inf},
        {"synth.n_channels": 4.7},
        {"iterative.batch_size": True},
        {"lda.n_components": True},
        {"synth.n_subjects": True},
    ):
        path = _write_config(tmp_path, overrides)
        (key,) = overrides
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            load_config(path)


def test_infinite_override_exits_2_without_traceback(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config), "--set", "lags.tmax_s=Infinity") == 2
    err = capsys.readouterr().err
    assert "'lags.tmax_s'" in err
    assert "Traceback" not in err


def _leaves(node, trail=""):
    for key, value in node.items():
        dotted = f"{trail}.{key}" if trail else key
        if isinstance(value, dict):
            yield from _leaves(value, dotted)
        else:
            yield dotted, value


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


_JSON_VALUES = {
    "bool": st.booleans(),
    "number": st.integers() | st.floats(),
    "str": st.text(max_size=5),
    "list": st.lists(st.integers() | st.text(max_size=3), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_leaves(DEFAULT_CONFIG))), st.data())
def test_leaf_of_another_json_type_is_rejected_by_name(tmp_path, leaf, data):
    dotted, default = leaf
    other = data.draw(st.sampled_from([t for t in _JSON_VALUES if t != _json_type(default)]))
    value = data.draw(_JSON_VALUES[other])
    path = _write_config(tmp_path)  # the same file every example
    with pytest.raises(ConfigError, match=re.escape(repr(dotted))):
        load_config(path, sets=[f"{dotted}={json.dumps(value)}"])


def test_malformed_json_names_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"folds": }', encoding="utf-8")
    with pytest.raises(ConfigError, match="offset"):
        load_config(path)


def test_set_overrides_and_validates(tmp_path):
    path = _write_config(tmp_path)
    cfg = load_config(path, sets=["lambda_grid.n=6", "solver=iterative"])
    assert cfg["lambda_grid"]["n"] == 6
    assert cfg["solver"] == "iterative"
    with pytest.raises(ConfigError, match="no.such"):
        load_config(path, sets=["no.such=1"])
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path, sets=["folds"])


def test_seed_flag_wins(tmp_path):
    path = _write_config(tmp_path, {"seed": 5})
    assert load_config(path)["seed"] == 5
    assert load_config(path, seed=9)["seed"] == 9


def test_split_segments_holds_out_trailing_fraction():
    segs = SegmentSet(
        segments=[
            Segment(x=np.zeros((4, 1)), y=np.zeros((4, 1)), start=4 * k)
            for k in range(10)
        ],
        window_samples=4,
        hop_samples=4,
        fs_hz=10.0,
        channel_names=["c0"],
    )
    train, test = split_segments(segs, 0.2)
    assert len(train) == 8
    assert len(test) == 2
    assert [s.start for s in test.segments] == [32, 36]
    # tiny fractions still hold out one segment
    train, test = split_segments(segs, 0.01)
    assert len(test) == 1
    with pytest.raises(PreconditionError):
        split_segments(segs, 0.99)


# ---------------------------------------------------------------------------
# end-to-end commands


def _run(*argv):
    return main(list(argv))


def test_pipeline_synth_fit_evaluate(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "out"

    assert _run("synth", "--config", str(config)) == 0
    for name in ("words.tsv", "layout.csv", "sub00_eeg.btsr", "sub00_truth_trf.btsr"):
        assert (out / name).exists()

    assert _run("fit", "--config", str(config)) == 0
    assert (out / "sub00_trf.btsr").exists()
    cv = json.loads((out / "sub00_cv.json").read_text())
    assert cv["subject_id"] == "sub00"
    assert len(cv["grid"]) == 4
    assert cv["best_lambda"] in cv["grid"]
    assert len(cv["per_lambda_scores"]) == 4
    assert all(len(row) == 5 for row in cv["per_lambda_scores"])
    assert cv["solver"] == "closed_form"
    assert cv["n_train_segments"] + cv["n_test_segments"] == len(cv["fold_assignment"]) + cv["n_test_segments"]

    assert _run("evaluate", "--config", str(config)) == 0
    ev = json.loads((out / "sub00_eval.json").read_text())
    assert set(ev) == {"subject_id", "mean_r", "channels"}
    assert len(ev["channels"]) == 2
    group = json.loads((out / "group_eval.json").read_text())
    assert set(group) == {"subjects", "pooled_r", "fisher"}
    assert group["fisher"]["df"] == 2
    topo = (out / "sub00_topo.csv").read_text().splitlines()
    assert topo[0] == "channel,x,y,r,p"
    assert len(topo) == 3

    # the synthetic signal is strong; the fit should clearly beat chance
    assert ev["mean_r"] > 0.5


def test_fitted_kernel_tracks_truth(tmp_path):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config))
    _run("fit", "--config", str(config))
    out = tmp_path / "out"
    truth = read_trf(out / "sub00_truth_trf.btsr")
    fitted = read_trf(out / "sub00_trf.btsr")
    a = truth.kernel.ravel()
    b = fitted.kernel.ravel()
    # z-scoring rescales the response, so compare shapes not amplitudes
    cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cosine > 0.8


def test_synth_is_deterministic(tmp_path):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config), "--output", str(tmp_path / "a"))
    _run("synth", "--config", str(config), "--output", str(tmp_path / "b"))
    for name in ("words.tsv", "layout.csv", "sub00_eeg.btsr", "sub00_truth_trf.btsr"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_synth_output(tmp_path):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config), "--output", str(tmp_path / "a"))
    _run("synth", "--config", str(config), "--output", str(tmp_path / "b"), "--seed", "1")
    a = read_eeg(tmp_path / "a" / "sub00_eeg.btsr")
    b = read_eeg(tmp_path / "b" / "sub00_eeg.btsr")
    assert not np.array_equal(a.data, b.data)


def test_multi_subject_shares_word_stream(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "synth.n_subjects": 2,
            "paths.eeg": ["out/sub00_eeg.btsr", "out/sub01_eeg.btsr"],
        },
    )
    _run("synth", "--config", str(config))
    out = tmp_path / "out"
    a = read_eeg(out / "sub00_eeg.btsr")
    b = read_eeg(out / "sub01_eeg.btsr")
    assert a.subject_id == "sub00"
    assert b.subject_id == "sub01"
    assert not np.array_equal(a.data, b.data)
    # single shared stimulus stream
    words = read_word_events(out / "words.tsv")
    assert len(words) > 0

    assert _run("fit", "--config", str(config)) == 0
    assert _run("evaluate", "--config", str(config)) == 0
    group = json.loads((out / "group_eval.json").read_text())
    assert len(group["subjects"]) == 2
    assert group["fisher"]["df"] == 4


def test_workers_do_not_change_results(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "synth.n_subjects": 2,
            "paths.eeg": ["out/sub00_eeg.btsr", "out/sub01_eeg.btsr"],
        },
    )
    _run("synth", "--config", str(config))
    _run("fit", "--config", str(config), "--output", str(tmp_path / "w1"), "--workers", "1")
    _run("fit", "--config", str(config), "--output", str(tmp_path / "w2"), "--workers", "2")
    for name in ("sub00_trf.btsr", "sub01_trf.btsr", "sub00_cv.json", "sub01_cv.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_iterative_solver_runs_end_to_end(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "solver": "iterative",
            "lambda_grid": {"lo": 1.0, "hi": 10.0, "n": 2},
            "iterative": {"lr": 1e-4, "batch_size": 64, "tol": 1e-6, "max_epochs": 60},
        },
    )
    _run("synth", "--config", str(config))
    assert _run("fit", "--config", str(config)) == 0
    cv = json.loads((tmp_path / "out" / "sub00_cv.json").read_text())
    assert cv["solver"] == "iterative"


# ---------------------------------------------------------------------------
# exit codes and failure behavior


def test_config_error_exits_2_before_writing(tmp_path):
    config = _write_config(tmp_path, {"folds": 1})
    assert _run("synth", "--config", str(config)) == 2
    assert not (tmp_path / "out").exists()


def test_empty_output_flag_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    config = _write_config(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert _run("synth", "--config", str(config), "--output", "") == 2
    assert "--output" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_2(tmp_path):
    assert _run("synth", "--config", str(tmp_path / "absent.json")) == 2


def test_corrupt_eeg_exits_3(tmp_path):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config))
    (tmp_path / "out" / "sub00_eeg.btsr").write_bytes(b"not a header")
    assert _run("fit", "--config", str(config)) == 3
    assert not (tmp_path / "out" / "sub00_trf.btsr").exists()


def test_evaluate_refuses_segments_fit_did_not_hold_out(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config), "--set", "test_fraction=0.2") == 0
    # a larger test fraction would score training segments; the other
    # settings move the window grid or the lag range
    for override in ("test_fraction=0.6", "window_s=1.5", "overlap=0.2", "lags.tmax_s=0.5"):
        capsys.readouterr()
        assert _run("evaluate", "--config", str(config), "--set", override) == 2, override
        err = capsys.readouterr().err
        assert "sub00" in err and "Traceback" not in err
        assert not (out / "sub00_eval.json").exists()
        assert not (out / "group_eval.json").exists()
    # a fit record without the held-out segments cannot vouch for them
    cv_path = out / "sub00_cv.json"
    cv = json.loads(cv_path.read_text())
    cv_path.write_text(json.dumps({k: v for k, v in cv.items() if k != "heldout"}))
    assert _run("evaluate", "--config", str(config)) == 2
    assert "run fit again" in capsys.readouterr().err
    cv_path.write_text("{")
    assert _run("evaluate", "--config", str(config)) == 3
    assert "sub00_cv.json" in capsys.readouterr().err
    cv_path.write_text(json.dumps(cv))
    assert _run("evaluate", "--config", str(config), "--set", "test_fraction=0.2") == 0


# Each setting takes few values, so that a second draw often yields the
# same held-out record as the first.
_SPLIT_SETTINGS = {
    "n_segments": st.integers(2, 12),
    "test_fraction": st.sampled_from([0.1, 0.2, 0.25, 0.5]),
    "window_s": st.sampled_from([1.0, 1.5, 2.0]),
    "overlap": st.sampled_from([0.0, 0.1, 0.2]),
    "lags": st.sampled_from([(-0.1, 0.3), (-0.1, 0.5), (0.0, 0.3)]),
}


def _heldout_for(draw):
    """The record fit writes for one recording cut into draw["n_segments"] windows."""
    fs_hz = 10.0
    n = round(draw["n_segments"] * draw["window_s"] * fs_hz)
    rec = EegRecording(data=np.zeros((1, n)), fs_hz=fs_hz, channel_names=["c0"], subject_id="sub00")
    segs = segment(FeatureSeries(np.zeros((n, 1)), fs_hz), rec, draw["window_s"], draw["overlap"])
    _, test = split_segments(segs.subset(range(draw["n_segments"])), draw["test_fraction"])
    tmin_s, tmax_s = draw["lags"]
    cfg = {"window_s": draw["window_s"], "overlap": draw["overlap"],
           "lags": {"tmin_s": tmin_s, "tmax_s": tmax_s}}
    return _heldout_record(cfg, test)


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(_SPLIT_SETTINGS), st.data())
def test_evaluate_refuses_exactly_the_splits_fit_did_not_record(first, data):
    redrawn = data.draw(st.sets(st.sampled_from(sorted(_SPLIT_SETTINGS))))
    second = {**first, **{key: data.draw(_SPLIT_SETTINGS[key]) for key in sorted(redrawn)}}
    fitted = json.loads(json.dumps(_heldout_for(first)))  # as evaluate reads <sid>_cv.json
    now = _heldout_for(second)
    try:
        _check_heldout("sub00", {"heldout": fitted}, now)
        refused = False
    except ValidationError as e:
        assert "sub00" in str(e)
        refused = True
    assert refused == (fitted != now)
    if any(first[key] != second[key] for key in ("window_s", "overlap", "lags")):
        assert refused


def _loaded_after(statement: str, modules) -> str:
    """Code that runs statement, then prints which of modules are loaded."""
    return f"import sys; {statement}; print([m for m in {modules!r} if m in sys.modules])"


# argv[1] is the config, argv[2] the synthesised recording
_MAIN = "from trfkit.cli import main; assert main({}) == 0"


@pytest.mark.parametrize(
    "before, code",
    [
        # every command pays for what `import trfkit.cli` loads
        pytest.param(
            (),
            "import sys, trfkit.cli; "
            "print([m for m in ('scipy.stats', 'scipy.spatial') if m in sys.modules])",
            id="cli_stats_spatial",
        ),
        # scipy is loaded on first use, so a command loads only the scipy it calls
        pytest.param((), _loaded_after("import trfkit", ("scipy",)), id="package"),
        pytest.param((), _loaded_after("import trfkit.cli", ("scipy",)), id="cli"),
        pytest.param(
            (),
            _loaded_after(
                "import numpy as np; from trfkit.ridge_trf import predict; "
                "predict(np.ones((2, 1)), np.ones((3, 2)))",
                ("scipy",),
            ),
            id="predict_dense",
        ),
        pytest.param(
            (),
            _loaded_after(_MAIN.format("['synth', '--config', sys.argv[1]]"), ("scipy",)),
            id="synth",
        ),
        pytest.param(
            ("synth",),
            _loaded_after(_MAIN.format("['inspect', sys.argv[2]]"), ("scipy",)),
            id="inspect",
        ),
        pytest.param(
            ("synth",),
            _loaded_after(_MAIN.format("['fit', '--config', sys.argv[1]]"), ("scipy.special",)),
            id="fit",
        ),
        pytest.param(
            ("synth", "fit"),
            _loaded_after(
                _MAIN.format("['evaluate', '--config', sys.argv[1]]"), ("scipy.linalg",)
            ),
            id="evaluate",
        ),
    ],
)
def test_scipy_stays_unloaded_until_used(tmp_path, before, code):
    import subprocess
    import sys

    config = _write_config(tmp_path)
    for command in before:
        assert _run(command, "--config", str(config)) == 0
    eeg = tmp_path / "out" / "sub00_eeg.btsr"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(eeg)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2_before_reading_input(tmp_path, capsys, workers):
    absent = tmp_path / "absent.json"  # read first, it would fail with another message
    for command in ("fit", "evaluate"):
        assert _run(command, "--config", str(absent), "--workers", workers) == 2
        assert "--workers" in capsys.readouterr().err


def test_evaluate_without_fit_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config))
    code = _run("evaluate", "--config", str(config))
    assert code == 2
    assert "sub00" in capsys.readouterr().err
    assert not (tmp_path / "out" / "group_eval.json").exists()


def test_kernel_with_wrong_kind_lambda_exits_2_with_one_error_line(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    kernel = tmp_path / "out" / "sub00_trf.btsr"
    tf = read_tensor(kernel)
    write_tensor(kernel, tf.dtype, tf.shape, {**tf.meta, "lambda": "x"}, tf.values)
    capsys.readouterr()
    assert _run("evaluate", "--config", str(config)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "sub00_trf.btsr" in err[0] and "'lambda'" in err[0]


def test_divergence_exits_4(tmp_path):
    config = _write_config(
        tmp_path,
        {
            "solver": "iterative",
            "lambda_grid": {"lo": 1.0, "hi": 10.0, "n": 2},
            "iterative": {"lr": 1e6, "batch_size": 64, "tol": 1e-8, "max_epochs": 50},
        },
    )
    _run("synth", "--config", str(config))
    assert _run("fit", "--config", str(config)) == 4


def test_inspect_prints_header(tmp_path, capsys):
    config = _write_config(tmp_path)
    _run("synth", "--config", str(config))
    path = tmp_path / "out" / "sub00_eeg.btsr"
    assert _run("inspect", str(path)) == 0
    out = capsys.readouterr().out
    assert str(path) in out
    assert '"magic": "BTSR1"' in out
    assert '"fs_hz": 50.0' in out


def test_inspect_missing_file_exits_3(tmp_path):
    assert _run("inspect", str(tmp_path / "none.btsr")) == 3


# ---------------------------------------------------------------------------
# lda command


def _tagged_words_tsv(path, n_per_class=12, dim=6, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["token\tonset_s\tpos\t" + "\t".join(f"v{i}" for i in range(dim))]
    t = 0.0
    k = 0
    for c in range(n_classes):
        center = rng.normal(scale=4.0, size=dim)
        for _ in range(n_per_class):
            vec = center + rng.normal(size=dim)
            cells = [f"w{k:04d}", repr(t), f"TAG{c}"] + [repr(float(v)) for v in vec]
            lines.append("\t".join(cells))
            t += 0.25
            k += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_lda_command_reduces_vectors(tmp_path):
    words_path = tmp_path / "tagged.tsv"
    _tagged_words_tsv(words_path)
    config = _write_config(
        tmp_path,
        {
            "paths.word_events": "tagged.tsv",
            "lda": {"enabled": True, "n_components": 2},
        },
    )
    assert _run("lda", "--config", str(config)) == 0
    out = tmp_path / "out"
    reduced = read_word_events(out / "words_lda.tsv")
    assert reduced.dim == 2
    assert len(reduced) == 36
    assert reduced.events[0].pos_tag == "TAG0"
    sep = json.loads((out / "lda_separation.json").read_text())
    assert sep["n_components"] == 2
    assert not sep["clamped"]
    assert {c["label"] for c in sep["classes"]} == {"TAG0", "TAG1", "TAG2"}
    for c in sep["classes"]:
        assert c["mean_within_distance"] < c["nearest_centroid_distance"]


def test_lda_clamps_when_request_exceeds_classes(tmp_path):
    words_path = tmp_path / "tagged.tsv"
    _tagged_words_tsv(words_path)
    config = _write_config(
        tmp_path,
        {
            "paths.word_events": "tagged.tsv",
            "lda": {"enabled": True, "n_components": 9},
        },
    )
    with pytest.warns(ComponentClampWarning):
        assert _run("lda", "--config", str(config)) == 0
    sep = json.loads((tmp_path / "out" / "lda_separation.json").read_text())
    assert sep["requested_components"] == 9
    assert sep["n_components"] == 2  # 3 classes -> at most 2
    assert sep["clamped"]


def test_lda_requires_enable_flag(tmp_path):
    words_path = tmp_path / "tagged.tsv"
    _tagged_words_tsv(words_path)
    config = _write_config(tmp_path, {"paths.word_events": "tagged.tsv"})
    assert _run("lda", "--config", str(config)) == 2


def test_lda_rejects_untagged_rows(tmp_path, capsys):
    config = _write_config(tmp_path, {"lda": {"enabled": True, "n_components": 2}})
    _run("synth", "--config", str(config))  # synth words carry no tags
    assert _run("lda", "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert "row 2" in err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    config = _write_config(tmp_path)
    _run("synth", "--config", str(config))
    proc = subprocess.run(
        [sys.executable, "-m", "trfkit", "inspect",
         str(tmp_path / "out" / "sub00_eeg.btsr")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"magic": "BTSR1"' in proc.stdout
