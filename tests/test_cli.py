import gc
import importlib
import json
import math
import os
import re
import runpy
import warnings
from pathlib import Path

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
from trfkit.lagged_design import build_windows_csr
from trfkit.lda_reduce import ComponentClampWarning
from trfkit.preprocess import EventSeries, FeatureSeries, Segment, SegmentSet, segment
from trfkit.ridge_trf import cross_validate, read_trf
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


def test_readme_config_block_is_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    # json.dumps keeps key order and tells 100 from 100.0
    assert json.dumps(json.loads(block)) == json.dumps(DEFAULT_CONFIG)


def test_readme_python_api_block_runs(capsys):
    # the public dense path: impulse_align -> segment -> cross_validate/fit_trf -> evaluate_subject
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    mean_r, fisher_p = map(float, capsys.readouterr().out.split())
    assert 0.0 < mean_r <= 1.0 and 0.0 <= fisher_p < 0.05


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


def test_fit_bytes_repeat_for_one_blas_thread_count_and_barely_move_across_counts(tmp_path):
    # the reproducibility claim: identical bytes for the same machine, library
    # versions and BLAS thread count; another thread count may move last bits only
    import subprocess
    import sys

    import trfkit

    # 888 lag columns: enough for two BLAS threads to move the last bits of the kernel
    config = _write_config(tmp_path, {
        "lags.tmax_s": 1.0, "synth.fs_hz": 100.0, "synth.duration_s": 60.0,
        "synth.n_channels": 4, "synth.n_features": 8,
    })
    assert _run("synth", "--config", str(config)) == 0
    src = str(Path(trfkit.__file__).resolve().parents[1])
    for run, threads in (("one", "1"), ("one_again", "1"), ("two", "2")):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "trfkit", "fit", "--config", str(config), "--output", str(tmp_path / run)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    trees = [{p.name: p.read_bytes() for p in (tmp_path / run).iterdir()} for run in ("one", "one_again")]
    assert trees[0] == trees[1] and "sub00_trf.btsr" in trees[0]
    one, two = (read_trf(tmp_path / run / "sub00_trf.btsr") for run in ("one", "two"))
    assert one.lam == two.lam
    assert np.max(np.abs(one.kernel - two.kernel)) <= 1e-12 * np.max(np.abs(one.kernel))


def test_fit_releases_each_recording_once_it_is_segmented(tmp_path, monkeypatch):
    import weakref

    import trfkit.cli as cli

    config = _write_config(
        tmp_path,
        {
            "synth.n_subjects": 2,
            "paths.eeg": ["out/sub00_eeg.btsr", "out/sub01_eeg.btsr"],
        },
    )
    assert _run("synth", "--config", str(config)) == 0
    raw = {}

    def reading(path):
        rec = read_eeg(path)
        raw[rec.subject_id] = weakref.ref(rec.data)
        return rec

    alive = []

    def checking(step):
        def check(*args, **kwargs):
            alive.append(sorted(sid for sid, ref in raw.items() if ref() is not None))
            return step(*args, **kwargs)

        return check

    monkeypatch.setattr(cli, "read_eeg", reading)
    monkeypatch.setattr(cli, "cross_validate", checking(cross_validate))
    monkeypatch.setattr(cli, "evaluate_subject", checking(cli.evaluate_subject))
    assert _run("fit", "--config", str(config)) == 0
    # each recording is read when its turn comes and is gone before its windows are fitted
    assert alive == [[], []] and sorted(raw) == ["sub00", "sub01"]
    raw.clear()
    alive.clear()
    assert _run("evaluate", "--config", str(config)) == 0
    assert alive == [[], []] and sorted(raw) == ["sub00", "sub01"]


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


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_fit_on_a_truncated_word_file_names_the_subject(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    capsys.readouterr()
    words = tmp_path / "out" / "words.tsv"
    words.write_text("".join(words.read_text().splitlines(keepends=True)[:4]))
    # three words leave later validation windows without a stimulus
    assert _run("fit", "--config", str(config)) == 2
    assert _one_error_line(capsys) == (
        "error: subject 'sub00': correlation is undefined for a constant series"
    )
    assert not (tmp_path / "out" / "sub00_trf.btsr").exists()


def test_fit_on_a_recording_whose_rate_header_is_wrong_names_the_subject_once(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    capsys.readouterr()
    eeg = tmp_path / "out" / "sub00_eeg.btsr"
    raw = eeg.read_bytes()
    eeg.write_bytes(raw.replace(b'"fs_hz": 50.0', b'"fs_hz": 70.0', 1))  # one flipped bit: 5 -> 7
    assert _run("fit", "--config", str(config)) == 2
    line = _one_error_line(capsys)
    assert line.startswith("error: subject 'sub00': event(s) fall outside the 2000-sample grid")
    assert line.count("sub00") == 1
    # the fold-count message is prefixed by the same rule, not by its own
    eeg.write_bytes(raw)
    assert _run("fit", "--config", str(config), "--set", "folds=50") == 2
    assert _one_error_line(capsys) == (
        "error: subject 'sub00': 18 training segments cannot fill 50 folds"
    )


def test_evaluate_with_a_layout_that_lacks_a_channel_names_the_layout(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    layout = tmp_path / "out" / "layout.csv"
    layout.write_text("".join(layout.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert _run("evaluate", "--config", str(config)) == 2
    assert _one_error_line(capsys) == f"error: {layout}: channel(s) absent from the layout: C01"
    assert not (tmp_path / "out" / "group_eval.json").exists()


def test_evaluate_names_a_held_out_mismatch_once(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    capsys.readouterr()
    assert _run("evaluate", "--config", str(config), "--set", "window_s=1.5") == 2
    line = _one_error_line(capsys)
    assert line.startswith("error: subject 'sub00': config window_s is 1.5")
    assert line.count("sub00") == 1


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
# lda on a two-class tagged words file that the standard library writes next to the config
_LDA = (
    "import pathlib; pathlib.Path(sys.argv[1]).with_name('tagged.tsv').write_text("
    "'token\\tonset_s\\tpos\\tv0\\tv1\\n' + ''.join("
    "f'w{k}\\t{k / 4}\\t{\"AB\"[k % 2]}\\t{k % 2 + k % 5 / 10}\\t{k % 7 / 10}\\n' for k in range(20))); "
    + _MAIN.format(
        "['lda', '--config', sys.argv[1], '--set', 'lda.enabled=true', "
        "'--set', 'paths.word_events=tagged.tsv']"
    )
)


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
        # concurrent.futures, as no subject runs on a thread pool
        pytest.param(
            (), _loaded_after("import trfkit.cli", ("scipy", "concurrent.futures")), id="cli"
        ),
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
            _loaded_after(
                _MAIN.format("['synth', '--config', sys.argv[1]]"), ("scipy", "concurrent.futures")
            ),
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
        pytest.param((), _loaded_after(_LDA, ("scipy", "concurrent.futures")), id="lda"),
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


def test_recording_shape_numpy_cannot_hold_exits_2_with_one_error_line(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    eeg = tmp_path / "out" / "sub00_eeg.btsr"
    meta = read_tensor(eeg).meta
    # no values are needed to fill a shape with a zero entry, so the size check passes
    header = {"magic": "BTSR1", "dtype": "f64", "shape": [0, 2**62], "meta": meta}
    eeg.write_bytes(json.dumps(header).encode() + b"\n")
    capsys.readouterr()
    assert _run("fit", "--config", str(config)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "sub00_eeg.btsr" in err[0] and str([0, 2**62]) in err[0]


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_recording_with_no_channels_exits_2_with_one_error_line(tmp_path, capsys, command):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    out, eeg = tmp_path / "out", tmp_path / "out" / "sub00_eeg.btsr"
    tf = read_tensor(eeg)
    write_tensor(eeg, "f64", [0, tf.shape[1]], {**tf.meta, "channel_names": []}, np.zeros(0))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {eeg}: ") and "at least one channel" in line
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_word_feature_of_zero_variance_is_named_by_the_word_file_not_a_subject(
    tmp_path, capsys, command
):
    config = _write_config(tmp_path, {"synth.n_subjects": 2,
                                      "paths.eeg": ["out/sub00_eeg.btsr", "out/sub01_eeg.btsr"]})
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    words = tmp_path / "out" / "words.tsv"
    header, *rows = words.read_text(encoding="utf-8").splitlines()
    rows = ["\t".join(row.split("\t")[:4] + ["0.5"] + row.split("\t")[5:]) for row in rows]
    words.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 2
    assert _one_error_line(capsys) == (
        f"error: {words}: feature dimension(s) with zero variance: 1"
    )


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_two_eeg_files_of_one_subject_exit_2_naming_both_and_write_nothing(
    tmp_path, capsys, command
):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    first, again = tmp_path / "out" / "sub00_eeg.btsr", tmp_path / "again_eeg.btsr"
    again.write_bytes(first.read_bytes())
    config = _write_config(tmp_path, {"paths.eeg": ["out/sub00_eeg.btsr", "again_eeg.btsr"]})
    before = _files(tmp_path)
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 2
    line = _one_error_line(capsys)
    assert line.startswith("error: duplicate subject id 'sub00'")
    assert str(first) in line and str(again) in line
    assert _files(tmp_path) == before


@pytest.mark.parametrize("twice", [False, True], ids=["two_files", "one_file_twice"])
@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_duplicate_subject_id_is_refused_before_any_recording_is_read(
    tmp_path, capsys, monkeypatch, command, twice
):
    import trfkit.cli as cli

    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("fit", "--config", str(config)) == 0
    first = tmp_path / "out" / "sub00_eeg.btsr"
    again = first if twice else tmp_path / "again_eeg.btsr"
    again.write_bytes(first.read_bytes())
    config = _write_config(tmp_path, {"paths.eeg": ["out/sub00_eeg.btsr", str(again)]})
    read = []
    monkeypatch.setattr(cli, "read_eeg", read.append)
    before = _files(tmp_path)
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 2
    assert _one_error_line(capsys) == (
        f"error: duplicate subject id 'sub00' across EEG files {first} and {again}"
    )
    assert read == [] and _files(tmp_path) == before


def test_a_grid_refusal_names_no_subject(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    capsys.readouterr()
    assert _run("fit", "--config", str(config), "--set", "lambda_grid.n=300000000") == 2
    assert _one_error_line(capsys) == (
        "error: 300000000 grid points are more than the 10000000 allowed"
    )


@pytest.mark.parametrize("command", ["fit", "lda"])
def test_word_events_without_feature_columns_exit_3_with_one_error_line(tmp_path, capsys, command):
    config = _write_config(tmp_path, {"lda": {"enabled": True, "n_components": 2}})
    assert _run("synth", "--config", str(config)) == 0
    out, words = tmp_path / "out", tmp_path / "out" / "words.tsv"
    # tagged rows, so that lda would get past its check for untagged rows
    rows = "".join(f"w{k}\t{k / 4}\t{'AB'[k % 2]}\n" for k in range(40))
    words.write_text("token\tonset_s\tpos\n" + rows, encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 3
    assert _one_error_line(capsys).startswith(f"error: {words}: line 1: ")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _last_onset_huge(out):
    """Set the last onset in words.tsv to 1e308; return that event's token."""
    path = out / "words.tsv"
    *lines, last = path.read_text(encoding="utf-8").splitlines()
    fields = last.split("\t")
    fields[1] = "1e308"
    path.write_text("\n".join(lines + ["\t".join(fields)]) + "\n", encoding="utf-8")
    return repr(fields[0])


def _recording_rate_huge(out):
    """Set the EEG header's fs_hz to 1e308; return the first event's token."""
    path = out / "sub00_eeg.btsr"
    tf = read_tensor(path)
    write_tensor(path, tf.dtype, tf.shape, {**tf.meta, "fs_hz": 1e308}, tf.values)
    return repr(read_word_events(out / "words.tsv").events[0].token)


def _files(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "command, change, named",
    [
        ("synth", "synth.fs_hz=1e308", "fs_hz"),
        ("synth", "synth.duration_s=1e308", "duration_s"),
        ("synth", "lags.tmax_s=1e308", "tmax_s"),
        ("synth", "lags.tmin_s=-1e308", "tmin_s"),
        ("fit", "lags.tmax_s=1e308", "tmax_s"),
        ("fit", "lags.tmin_s=-1e308", "tmin_s"),
        ("synth", "lags.tmax_s=1e18", "tmax_s"),
        ("fit", "window_s=1e308", "window_s"),
        ("evaluate", "window_s=1e308", "window_s"),
        ("fit", _last_onset_huge, None),
        ("evaluate", _last_onset_huge, None),
        ("fit", _recording_rate_huge, None),
        ("evaluate", _recording_rate_huge, None),
    ],
)
def test_time_no_sample_index_can_hold_exits_2_with_one_error_line(
    tmp_path, capsys, command, change, named
):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    for earlier in ("synth", "fit")[: ("synth", "fit", "evaluate").index(command)]:
        assert _run(earlier, "--config", str(config)) == 0
    argv = [command, "--config", str(config)]
    if isinstance(change, str):
        argv += ["--set", change]
    else:
        named = change(out)  # a corrupted input file; the error names the event
    before = _files(tmp_path)
    capsys.readouterr()
    assert _run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert named in err[0] and "sample index" in err[0]
    assert _files(tmp_path) == before


@pytest.mark.parametrize(
    "command, name",
    [
        ("fit", "out/words.tsv"),
        ("evaluate", "out/layout.csv"),
        ("evaluate", "out/sub00_cv.json"),
        ("fit", "config.json"),
    ],
)
def test_non_utf8_byte_in_a_text_input_exits_3_naming_file_and_offset(
    tmp_path, capsys, command, name
):
    config = _write_config(tmp_path)
    for earlier in ("synth", "fit")[: ("synth", "fit", "evaluate").index(command)]:
        assert _run(earlier, "--config", str(config)) == 0
    path = tmp_path / name
    raw = path.read_bytes()
    offset = len(raw) // 2
    path.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1 :])
    before = _files(tmp_path)
    capsys.readouterr()
    assert _run(command, "--config", str(config)) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: not UTF-8 at byte offset {offset}"]
    assert _files(tmp_path) == before


# Starts trfkit's CLI in a fresh interpreter whose address space is capped first.
_LIMITED_MAIN = (
    "import resource, sys; limit = int(sys.argv[1]); "
    "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
    "from trfkit.cli import main; sys.exit(main(sys.argv[2:]))"
)


def _run_limited(*argv, timeout_s=60.0, address_space=1536 << 20):
    """Exit code and stderr of a CLI command run in a subprocess under both limits.

    A wall-clock timeout (subprocess.TimeoutExpired once it passes) and an
    RLIMIT_AS address-space cap (MemoryError inside the command) keep a
    command that would run forever or take all memory from doing either.
    """
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_MAIN, str(address_space), *argv],
        env=_child_env(), capture_output=True, text=True, timeout=timeout_s,
    )
    return proc.returncode, proc.stderr


def _child_env():
    """The environment of a child interpreter: this trfkit on its path, one BLAS thread."""
    import trfkit

    src = str(Path(trfkit.__file__).resolve().parents[1])
    # one BLAS thread keeps the libraries' own address-space reservations small
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return dict(os.environ, PYTHONPATH=src, **threads)


# Starts `python argv...` and prints its exit code and the peak RSS in KiB
# that wait4 reports for it.
_PEAK_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def _child_peak_rss(argv, timeout_s=300.0):
    """Exit code and own peak RSS in bytes of `python argv...`, started through a launcher.

    On Linux a child inherits its parent's peak RSS in the ru_maxrss that
    wait4 reports, so a command started straight from the test process would
    read at least this process's peak. The launcher holds no more than a bare
    interpreter, so the command's own peak shows above it.
    """
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_LAUNCHER, *argv],
        env=_child_env(), capture_output=True, text=True, timeout=timeout_s,
    )
    assert proc.returncode == 0, proc.stderr
    code, kib = map(int, proc.stdout.split()[-2:])
    return code, kib * 1024


@pytest.mark.parametrize(
    "command, change, named",
    [
        ("synth", "synth.word_rate_hz=1e308", ("duration_s", "word_rate_hz")),
        ("synth", "lags.tmax_s=1e8", ("tmin_s", "tmax_s")),
        ("fit", "lags.tmax_s=1e8", ("tmin_s", "tmax_s")),
        # 3 features x 45,006 lags: a lag count under MAX_LAGS, but a 136 GiB Gram
        ("fit", "lags.tmax_s=900", ("3 features x 45006 lags", "P = 135018", "135.8 GiB")),
        ("fit", "lambda_grid.n=300000000", ("300000000 grid points",)),
        # 3,000,000 penalties x 2 channels x P = 63: a 2.8 GiB block of weights
        ("fit", "lambda_grid.n=3000000", ("3000000 penalties", "P = 63", "2.8 GiB")),
        ("synth", "synth.n_channels=100000000", ("n_channels=100000000",)),
        (
            "synth",
            'synth={"n_channels": 2000, "duration_s": 100000}',
            ("n_channels=2000", "duration_s=100000.0"),
        ),
        ("synth", "synth.n_features=100000000", ("n_features=100000000",)),
        ("synth", "synth.n_subjects=100000000", ("n_subjects=100000000",)),
    ],
    ids=[
        "synth_word_rate", "synth_lags", "fit_lags", "fit_design_width", "fit_grid_points",
        "fit_grid_weights", "synth_channels", "synth_recording", "synth_features",
        "synth_subjects",
    ],
)
def test_a_spec_too_large_to_generate_or_lag_exits_2_with_one_error_line(
    tmp_path, command, change, named
):
    config = _write_config(tmp_path)
    if command == "fit":
        assert _run("synth", "--config", str(config)) == 0
    before = _files(tmp_path)
    code, err = _run_limited(command, "--config", str(config), "--set", change)
    lines = err.splitlines()
    assert code == 2, err
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(name in lines[0] for name in named) and "allowed" in lines[0]
    assert _files(tmp_path) == before


def test_a_size_under_every_cap_that_memory_cannot_hold_exits_2_with_one_error_line(tmp_path):
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    before = _files(tmp_path)
    # 2,000,000 penalties x 2 channels x P = 63: a 1.9 GiB block of weights, under the
    # weight-block cap but more than the child's 1.5 GiB of address space holds
    code, err = _run_limited("fit", "--config", str(config), "--set", "lambda_grid.n=2000000")
    lines = err.splitlines()
    assert code == 2, err
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), err
    assert "GiB" in lines[0]
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_cohort_peak_does_not_grow_by_a_recording_per_subject(tmp_path, command):
    eeg = [f"out/sub{s:02d}_eeg.btsr" for s in range(8)]
    settings = {
        "lags": {"tmin_s": 0.0, "tmax_s": 0.2}, "folds": 2, "lambda_grid.n": 4,
        "synth": {"fs_hz": 100.0, "duration_s": 60.0, "n_channels": 64, "n_features": 3,
                  "word_rate_hz": 2.0, "snr": 1.0, "n_subjects": 8},
    }
    configs = [
        _write_config(tmp_path, {**settings, "paths.eeg": eeg[:n]}, name=f"config{n}.json")
        for n in (4, 8)
    ]
    assert _run("synth", "--config", str(configs[1])) == 0
    peaks = []
    for config in configs:
        out = str(config.with_suffix(""))
        if command == "evaluate":
            assert _run("fit", "--config", str(config), "--output", out) == 0
        code, peak = _child_peak_rss(
            ["-m", "trfkit", command, "--config", str(config), "--output", out]
        )
        assert code == 0
        peaks.append(peak)
    recording = 60 * 100 * 64 * 8  # bytes: 60 s at 100 Hz, 64 channels of float64
    growth = (peaks[1] - peaks[0]) / recording
    # measured with one BLAS thread: 3.9-4.2 recordings while every recording was read
    # before the first subject was windowed; -0.1 to +0.1 reading one at a time
    assert growth < 1.0, f"4 more subjects raise {command}'s peak by {growth:.2f} recordings"


def test_long_story_builds_one_design_per_fold_and_one_test_design(tmp_path, monkeypatch):
    import trfkit.ridge_trf as ridge_trf

    # the benchmark's long_story settings: 180 s, 32 channels, 9 features, 111 lags, 5 folds
    config = _write_config(tmp_path, {
        "lags.tmin_s": -0.1, "lags.tmax_s": 1.0, "lambda_grid.n": 10, "folds": 5,
        "synth": {"fs_hz": 100.0, "duration_s": 180.0, "n_channels": 32, "n_features": 9,
                  "word_rate_hz": 2.0, "snr": 0.3, "n_subjects": 1},
    })
    assert _run("synth", "--config", str(config)) == 0
    builds = []

    def counting(windows, spec):
        builds.append(len(windows))
        return build_windows_csr(windows, spec)

    monkeypatch.setattr(ridge_trf, "build_windows_csr", counting)
    assert _run("fit", "--config", str(config)) == 0
    cv = json.loads((tmp_path / "out" / "sub00_cv.json").read_text(encoding="utf-8"))
    # one build per fold, covering every training window; the final fit solves
    # the report's totals and builds nothing
    assert len(builds) == 5 and sum(builds) == cv["n_train_segments"]
    builds.clear()
    assert _run("evaluate", "--config", str(config)) == 0
    assert builds == [cv["n_test_segments"]]


def test_fit_and_evaluate_build_no_dense_stimulus(tmp_path, monkeypatch):
    import trfkit.cli as cli
    import trfkit.preprocess as preprocess

    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0

    def dense(*args, **kwargs):
        raise AssertionError("a dense impulse series was built")

    monkeypatch.setattr(preprocess, "impulse_align", dense)
    monkeypatch.setattr(cli, "impulse_align", dense, raising=False)
    fitted = []

    def recording(segments, *args, **kwargs):
        fitted.append(segments)
        return cross_validate(segments, *args, **kwargs)

    monkeypatch.setattr(cli, "cross_validate", recording)
    assert _run("fit", "--config", str(config)) == 0
    assert _run("evaluate", "--config", str(config)) == 0
    (train,) = fitted
    # every window's stimulus is its events: it holds its response alone as an array
    assert all(isinstance(seg.x, EventSeries) for seg in train.segments) and train.n_features == 3
    assert all(
        [k for k, v in vars(seg).items() if isinstance(v, np.ndarray)] == ["y"] for seg in train.segments
    )


def test_fit_peak_rss_above_its_imports_stays_under_two_grams(tmp_path):
    # 10 features x 150 lags: P = 1,500, an 18 MB Gram, larger than all else fit holds
    config = _write_config(tmp_path, {
        "lags": {"tmin_s": 0.0, "tmax_s": 1.49}, "folds": 2,
        "synth": {"fs_hz": 100.0, "duration_s": 60.0, "n_channels": 2, "n_features": 10,
                  "word_rate_hz": 2.0, "snr": 1.0, "n_subjects": 1},
    })
    assert _run("synth", "--config", str(config)) == 0
    code, bare = _child_peak_rss(["-c", "import trfkit.cli, scipy.sparse, scipy.linalg"])
    assert code == 0
    code, peak = _child_peak_rss(["-m", "trfkit", "fit", "--config", str(config)])
    assert code == 0
    grams = (peak - bare) / (1500**2 * 8)
    # measured with one BLAS thread: 3.63 Grams while cross-validation held a total and
    # a fold Gram and fit_trf copied the total; 1.61-1.62 with one buffer for both
    assert grams < 2.0, f"{grams:.2f} Grams above the imports"


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


def test_lda_on_the_command_line_reports_a_clamp_once(tmp_path):
    import subprocess
    import sys

    _tagged_words_tsv(tmp_path / "tagged.tsv")
    config = _write_config(
        tmp_path, {"paths.word_events": "tagged.tsv", "lda": {"enabled": True, "n_components": 9}}
    )
    proc = subprocess.run(
        [sys.executable, "-m", "trfkit", "lda", "--config", str(config)],
        env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "lda: clamped from 9 to 2 components",
        "lda: 3 classes -> 2 components",
    ]


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


def test_lda_on_untagged_words_names_the_word_file(tmp_path, capsys):
    config = _write_config(tmp_path, {"lda": {"enabled": True, "n_components": 2}})
    assert _run("synth", "--config", str(config)) == 0  # synth words carry no tags
    capsys.readouterr()
    assert _run("lda", "--config", str(config)) == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {tmp_path / 'out' / 'words.tsv'}: word events without a POS tag")


def test_lda_with_a_huge_feature_value_exits_4_with_one_error_line(tmp_path, capsys):
    words_path = tmp_path / "tagged.tsv"
    _tagged_words_tsv(words_path)
    lines = words_path.read_text(encoding="utf-8").splitlines()
    cells = lines[6].split("\t")
    cells[5] = "1e308"  # finite, but its square is not
    lines[6] = "\t".join(cells)
    words_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _write_config(
        tmp_path, {"paths.word_events": "tagged.tsv", "lda": {"enabled": True, "n_components": 2}}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run("lda", "--config", str(config)) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "tagged.tsv" in err[0] and "too large" in err[0]
    assert not (tmp_path / "out").exists()


def test_lda_output_tree_repeats_byte_for_byte_across_fresh_processes(tmp_path):
    import subprocess
    import sys

    _tagged_words_tsv(tmp_path / "tagged.tsv", n_per_class=300, dim=12, n_classes=4)
    config = _write_config(
        tmp_path, {"paths.word_events": "tagged.tsv", "lda": {"enabled": True, "n_components": 3}}
    )
    # the second process allocates first, so its arrays sit elsewhere on the heap
    runs = {
        "a": "from trfkit.cli import main",
        "b": "import numpy as np; pad = [np.ones(k) for k in (3, 1001, 77777)]; from trfkit.cli import main",
    }
    trees = []
    for out, prelude in runs.items():
        code = f"{prelude}; import sys; sys.exit(main(['lda', '--config', sys.argv[1], '--output', sys.argv[2]]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(config), str(tmp_path / out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())})
    assert set(trees[0]) == {"lda_model.btsr", "words_lda.tsv", "lda_separation.json"}
    assert trees[0] == trees[1]


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


# runs `python -m trfkit` in this process and prints how it exited
_EXIT = """
import gc, runpy, sys
try:
    runpy.run_module("trfkit", run_name="__main__")
except SystemExit as e:
    print(e.code, gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("case, code", [("good", 0), ("malformed", 3), ("config", 2)])
def test_module_entry_point_freezes_the_collector_before_it_exits(tmp_path, case, code):
    import subprocess
    import sys

    good, malformed = tmp_path / "good.btsr", tmp_path / "malformed.btsr"
    write_tensor(good, "f64", (2, 3), {}, np.zeros((2, 3)))
    malformed.write_bytes(b"not a tensor\n")
    argv = {
        "good": ["inspect", str(good)],
        "malformed": ["inspect", str(malformed)],
        "config": ["fit", "--config", str(_write_config(tmp_path, {"folds": 1}))],
    }[case]
    proc = subprocess.run([sys.executable, "-c", _EXIT, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} True"


def test_main_leaves_the_collector_as_it_was(tmp_path):
    before = gc.get_freeze_count(), gc.isenabled()
    config = _write_config(tmp_path)
    assert _run("synth", "--config", str(config)) == 0
    assert _run("inspect", str(tmp_path / "out" / "sub00_eeg.btsr")) == 0
    assert _run("fit", "--config", str(_write_config(tmp_path, {"folds": 1}))) == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_is_the_function_the_module_entry_point_calls(monkeypatch):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    module, _, name = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"][
        "trfkit"
    ].partition(":")
    calls = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(name))
    runpy.run_module("trfkit", run_name="__main__")
    assert calls == [name]
