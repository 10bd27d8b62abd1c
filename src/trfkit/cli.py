"""Command-line pipeline: synth, fit, evaluate, lda, inspect.

One JSON config drives every stage. Relative paths inside the config
resolve against the config file's directory, so a config can travel with
its data. `--set section.key=value` overrides single entries; `--seed`
and `--output` override their config counterparts.

Identical config and seed give byte-identical trees for one machine, library
versions and BLAS thread count. Outputs are staged and moved into place only
after the whole command succeeds, so a failed run leaves no partial files.

Exit codes: 0 success, 2 config or validation error or out of memory,
3 data-format error, 4 numerical failure.
"""

import argparse
import copy
import gc
import json
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from ._util import JSON_KINDS, decode_utf8, naming, round_half_up
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    PreconditionError,
    TrfkitError,
    ValidationError,
)
from .lagged_design import lag_range_to_samples
from .lda_reduce import ComponentClampWarning, fit_lda, separation_report, transform, write_lda
from .preprocess import SegmentSet, align_events, segment, zscore_channels, zscore_features
from .ridge_trf import (
    IterativeOptions,
    cross_validate,
    fit_trf,
    make_lambda_grid,
    read_trf,
    write_trf,
)
from .stats_eval import evaluate_subject, group_report, topo_report, write_topo_csv
from .synthgen import SynthSpec, circle_layout, gen_kernel, gen_response, gen_words
from .tensorio import (
    read_channel_layout,
    read_eeg,
    read_json,
    read_tensor_header,
    read_word_events,
    write_channel_layout,
    write_eeg,
    write_json,
    write_word_events,
)

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "split_segments",
    "cmd_synth",
    "cmd_fit",
    "cmd_evaluate",
    "cmd_lda",
    "cmd_inspect",
    "main",
    "run",
]

# Range rules, keyed by the text that error messages show.
_RULES = {
    "": lambda v: True,
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
    "that is not empty": lambda v: v != "",
    "with no empty entry": lambda v: all(v),
    "in {closed_form, iterative}": lambda v: v in ("closed_form", "iterative"),
}

# One row per config leaf: dotted key, default, kind, range rule. The rows'
# order is DEFAULT_CONFIG's key order, which cv.json's "lags" record keeps.
_SCHEMA = [
    ("paths.eeg", [], "str list", "with no empty entry"),
    ("paths.word_events", "", "str", ""),
    ("paths.layout", "", "str", ""),
    ("paths.output", "out", "str", "that is not empty"),
    ("lags.tmin_s", -0.1, "float", ""),
    ("lags.tmax_s", 1.0, "float", ""),
    ("window_s", 2.0, "float", "> 0"),
    ("overlap", 0.1, "float", "in [0, 1)"),
    ("lambda_grid.lo", 1e-3, "float", "> 0"),
    ("lambda_grid.hi", 1e5, "float", ""),
    ("lambda_grid.n", 10, "int", ">= 2"),
    ("folds", 5, "int", ">= 2"),
    ("solver", "closed_form", "str", "in {closed_form, iterative}"),
    ("iterative.lr", IterativeOptions.lr, "float", "> 0"),
    ("iterative.batch_size", IterativeOptions.batch_size, "int", ">= 1"),
    ("iterative.tol", IterativeOptions.tol, "float", ">= 0"),
    ("iterative.max_epochs", IterativeOptions.max_epochs, "int", ">= 1"),
    ("lda.enabled", False, "bool", ""),
    ("lda.n_components", 9, "int", ">= 1"),
    ("test_fraction", 0.2, "float", "in (0, 1)"),
    ("seed", 0, "int", ">= 0"),
    ("synth.fs_hz", 100.0, "float", "> 0"),
    ("synth.duration_s", 120.0, "float", "> 0"),
    ("synth.n_channels", 4, "int", ">= 1"),
    ("synth.n_features", 8, "int", ">= 1"),
    ("synth.word_rate_hz", 2.0, "float", "> 0"),
    ("synth.snr", 5.0, "float", "> 0"),
    ("synth.n_subjects", 1, "int", ">= 1"),
]


def _leaf(tree: dict, dotted: str) -> tuple[dict, str]:
    """The section of tree that holds a dotted key, made if missing, and the leaf's name."""
    *sections, leaf = dotted.split(".")
    for key in sections:
        tree = tree.setdefault(key, {})
    return tree, leaf


def _default_config() -> dict:
    tree = {}
    for dotted, default, _, _ in _SCHEMA:
        node, leaf = _leaf(tree, dotted)
        node[leaf] = default
    return tree


DEFAULT_CONFIG = _default_config()


def _merge(base: dict, override: dict, trail: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{trail}.{key}" if trail else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    node = cfg
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings may be given unquoted
    node[leaf] = _merge(node, {leaf: value}, ".".join(keys[:-1]))[leaf]


def _validate(cfg: dict) -> None:
    """Check every leaf against _SCHEMA, storing the converted values in place."""
    for dotted, _, kind, rule in _SCHEMA:
        node, leaf = _leaf(cfg, dotted)
        kind_text, convert = JSON_KINDS[kind]
        value = convert(node[leaf])
        if value is None or not _RULES[rule](value):
            raise ConfigError(
                f"config key {dotted!r} must be {kind_text} {rule}".rstrip()
                + f", got {json.dumps(node[leaf])}"
            )
        node[leaf] = value
    if not cfg["lags"]["tmin_s"] < cfg["lags"]["tmax_s"]:
        raise ConfigError("config key 'lags.tmin_s' must be below lags.tmax_s")
    if not cfg["lambda_grid"]["lo"] < cfg["lambda_grid"]["hi"]:
        raise ConfigError("config key 'lambda_grid.lo' must be below lambda_grid.hi")


def _resolve(base: Path, value: str) -> Path | None:
    if not value:
        return None
    p = Path(value)
    return p if p.is_absolute() else base / p


def load_config(
    config_path,
    sets: list[str] | None = None,
    seed: int | None = None,
    output: str | None = None,
) -> dict:
    """Read, merge, override and validate a pipeline config.

    Returns the config tree, shaped like DEFAULT_CONFIG, with its paths
    resolved: `paths.eeg` is a list of Paths, `paths.word_events` and
    `paths.layout` are a Path or None when empty, and `paths.output` is a
    Path. Validation is total: any problem raises ConfigError before the
    caller gets a chance to touch the filesystem.
    """
    config_path = Path(config_path)
    try:
        raw = config_path.read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read config {config_path}: {e}") from None
    with naming(f"{config_path}: "):
        try:
            user_cfg = json.loads(decode_utf8(raw))
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed JSON at offset {e.pos}: {e.msg}") from None
        if not isinstance(user_cfg, dict):
            raise ConfigError("config must be a JSON object")

    cfg = _merge(DEFAULT_CONFIG, user_cfg)
    for assignment in sets or []:
        _apply_set(cfg, assignment)
    if seed is not None:
        cfg["seed"] = seed
    _validate(cfg)
    if output == "":
        raise ConfigError("--output must not be empty")

    base, paths = config_path.parent, cfg["paths"]
    paths["eeg"] = [_resolve(base, p) for p in paths["eeg"]]
    for key in ("word_events", "layout", "output"):
        paths[key] = _resolve(base, paths[key])
    if output is not None:  # --output resolves against the working directory
        paths["output"] = Path(output)
    return cfg


def split_segments(segments: SegmentSet, test_fraction: float) -> tuple[SegmentSet, SegmentSet]:
    """Hold out the final fraction of segments (at least one) as a test set."""
    n = len(segments)
    if n < 2:
        raise PreconditionError(f"need at least 2 segments to split, got {n}")
    n_test = max(1, round_half_up(n * test_fraction, f"test_fraction={test_fraction} of {n}"))
    if n_test >= n:
        raise PreconditionError(
            f"test fraction {test_fraction} leaves no training segments out of {n}"
        )
    return segments.subset(range(n - n_test)), segments.subset(range(n - n_test, n))


# ---------------------------------------------------------------------------
# output staging


def _commit_outputs(out_dir: Path, writers: list[tuple[str, object]]) -> None:
    """Run every writer into a staging dir, then move all files into place."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=out_dir))
    try:
        for name, write in writers:
            write(stage / name)
        for name, _ in writers:
            os.replace(stage / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: dict) -> None:
    """Generate synthetic subjects sharing one word stream."""
    base_spec = SynthSpec(**cfg["synth"], **cfg["lags"], seed=cfg["seed"])
    words = gen_words(base_spec)
    layout = circle_layout(base_spec.channel_names())

    writers = [
        ("words.tsv", lambda p, w=words: write_word_events(p, w)),
        ("layout.csv", lambda p, l=layout: write_channel_layout(p, l)),
    ]
    for s in range(base_spec.n_subjects):
        sid = f"sub{s:02d}"
        spec_s = replace(base_spec, seed=cfg["seed"] + s)
        kernel = gen_kernel(spec_s)
        rec = gen_response(kernel, words, spec_s, subject_id=sid)
        writers.append((f"{sid}_truth_trf.btsr", lambda p, k=kernel: write_trf(p, k)))
        writers.append((f"{sid}_eeg.btsr", lambda p, r=rec: write_eeg(p, r)))
        _log(f"synth {sid}: {rec.n_channels} channels x {rec.n_samples} samples, "
             f"{len(words)} words")
    _commit_outputs(cfg["paths"]["output"], writers)


def _heldout_record(cfg: dict, test: SegmentSet) -> dict:
    """What fit held out, and the settings that decide it, as `<sid>_cv.json` stores it."""
    return {
        "window_s": cfg["window_s"],
        "overlap": cfg["overlap"],
        "lags": cfg["lags"],
        "segment_starts": [seg.start for seg in test.segments],
    }


def _describe_starts(starts) -> str:
    if isinstance(starts, list) and starts:
        return f"{len(starts)} segments from sample {starts[0]}"
    return "no segments"


def _check_heldout(sid: str, cv_doc, now: dict) -> None:
    """Refuse to evaluate anything but the segments fit held out."""
    fitted = cv_doc.get("heldout") if isinstance(cv_doc, dict) else None
    if not isinstance(fitted, dict):
        raise ValidationError(
            f"subject {sid!r}: the fit record has no held-out segments; run fit again"
        )
    for key in ("window_s", "overlap", "lags"):
        if fitted.get(key) != now[key]:
            raise ValidationError(
                f"subject {sid!r}: config {key} is {json.dumps(now[key])} but the kernel "
                f"was fitted with {json.dumps(fitted.get(key))}"
            )
    if fitted.get("segment_starts") != now["segment_starts"]:
        raise ValidationError(
            f"subject {sid!r}: this config holds out {_describe_starts(now['segment_starts'])} "
            f"but fit held out {_describe_starts(fitted.get('segment_starts'))}; evaluate "
            f"scores only what fit held out (check test_fraction)"
        )


def _read_words(cfg: dict):
    """The path in paths.word_events and its word events, which need a feature column."""
    path = cfg["paths"]["word_events"]
    if path is None:
        raise ConfigError("paths.word_events is not set")
    words = read_word_events(path)
    if words.dim == 0:
        raise FormatError(f"{path}: line 1: no feature columns v0, v1, ... after token/onset_s/pos")
    return path, words


def _read_subjects(cfg: dict):
    """The word events, z-scored once, after the EEG headers are read to refuse a duplicate id."""
    if not cfg["paths"]["eeg"]:
        raise ConfigError("paths.eeg is empty")
    path, words = _read_words(cfg)
    with naming(f"{path}: "):
        words = zscore_features(words)
    seen = {}
    for path in cfg["paths"]["eeg"]:  # read_eeg reports a header's other faults, in its turn
        meta = read_tensor_header(path).get("meta")
        sid = meta.get("subject_id") if isinstance(meta, dict) else None
        if not isinstance(sid, str):
            continue
        if sid in seen:
            raise ValidationError(
                f"duplicate subject id {sid!r} across EEG files {seen[sid]} and {path}"
            )
        seen[sid] = path
    return words


def _windows(path, words, cfg: dict) -> tuple[str, float, SegmentSet, SegmentSet]:
    """Read one subject and window it: (sid, fs_hz, train, test); only the windows outlive it."""
    rec = read_eeg(path)
    with naming(f"subject {rec.subject_id!r}: "):
        rec = zscore_channels(rec)  # the recording as read goes here, before the windows are cut
        events = align_events(words, rec.fs_hz, rec.n_samples)
        segs = segment(events, rec, cfg["window_s"], cfg["overlap"])
        return (rec.subject_id, rec.fs_hz, *split_segments(segs, cfg["test_fraction"]))


def _fit_one(path, words, grid: list[float], cfg: dict):
    """Fit the subject recorded in path; its held-out windows go once their starts are recorded."""
    sid, fs_hz, train, test = _windows(path, words, cfg)
    heldout, n_test = _heldout_record(cfg, test), len(test)
    del test
    with naming(f"subject {sid!r}: "):
        if len(train) < cfg["folds"]:
            raise PreconditionError(
                f"{len(train)} training segments cannot fill {cfg['folds']} folds"
            )
        spec = lag_range_to_samples(**cfg["lags"], fs_hz=fs_hz)
        solver, iterative = cfg["solver"], IterativeOptions(**cfg["iterative"], seed=cfg["seed"])
        report = cross_validate(train, spec, grid, cfg["folds"], solver=solver, iterative=iterative)
        model = fit_trf(
            train, spec, report.best_lambda, solver=solver, iterative=iterative, cv=report
        )
    return model, {
        "subject_id": sid,
        "grid": report.grid,
        "per_lambda_scores": [list(map(float, row)) for row in report.per_lambda_scores],
        "best_lambda": report.best_lambda,
        "fold_assignment": report.fold_assignment,
        "n_train_segments": len(train),
        "n_test_segments": n_test,
        "solver": solver,
        "heldout": heldout,
    }


def cmd_fit(cfg: dict) -> None:
    """Cross-validate and fit one kernel per subject, reading one recording at a time."""
    grid = make_lambda_grid(**cfg["lambda_grid"])
    words = _read_subjects(cfg)
    writers = []
    for path in cfg["paths"]["eeg"]:
        model, cv_doc = _fit_one(path, words, grid, cfg)
        sid = cv_doc["subject_id"]
        writers.append((f"{sid}_trf.btsr", lambda p, m=model: write_trf(p, m)))
        writers.append((f"{sid}_cv.json", lambda p, d=cv_doc: write_json(p, d)))
        _log(f"fit {sid}: best lambda {cv_doc['best_lambda']:g} "
             f"({cv_doc['n_train_segments']} train / {cv_doc['n_test_segments']} test segments)")
    _commit_outputs(cfg["paths"]["output"], writers)


def cmd_evaluate(cfg: dict) -> None:
    """Score fitted kernels on each subject's held-out segments, reading one recording at a time."""
    out_dir, layout_path = cfg["paths"]["output"], cfg["paths"]["layout"]
    if layout_path is None:
        raise ConfigError("paths.layout is not set")
    layout = read_channel_layout(layout_path)
    words = _read_subjects(cfg)
    reports, writers = [], []
    for path in cfg["paths"]["eeg"]:
        sid, test = _windows(path, words, cfg)[::3]  # no training windows: evaluate holds none
        fitted = [out_dir / f"{sid}_{kind}" for kind in ("trf.btsr", "cv.json")]
        for p in fitted:
            if not p.exists():
                raise ValidationError(f"no fit output for subject {sid!r} (expected {p})")
        model, cv_doc = read_trf(fitted[0]), read_json(fitted[1])
        with naming(f"subject {sid!r}: "):
            _check_heldout(sid, cv_doc, _heldout_record(cfg, test))
            report = evaluate_subject(model, test, model.lag_spec, subject_id=sid)
        del test
        with naming(f"{layout_path}: "):
            rows = topo_report(report, layout)
        reports.append(report)
        writers.append((f"{sid}_eval.json", lambda p, d=report.to_json(): write_json(p, d)))
        writers.append((f"{sid}_topo.csv", lambda p, r=rows: write_topo_csv(p, r)))
        _log(f"evaluate {sid}: mean r {report.mean_r:.4f} over {report.n_samples} samples")
    group = group_report(reports)
    writers.append(("group_eval.json", lambda p, d=group.to_json(): write_json(p, d)))
    _log(f"group: pooled r {group.pooled_r:.4f}, fisher p {group.fisher_p:.3g}")
    _commit_outputs(out_dir, writers)


def cmd_lda(cfg: dict) -> None:
    """Reduce word vectors to discriminant space; write a reduced TSV."""
    if not cfg["lda"]["enabled"]:
        raise ConfigError("lda.enabled is false; enable it to run the lda command")
    path, words = _read_words(cfg)
    untagged = np.flatnonzero(np.equal(np.array(words.tags, dtype=object), None))
    if untagged.size:
        shown = ", ".join(f"row {k + 2} ({words.tokens[k]!r})" for k in untagged[:10])
        more = "" if untagged.size <= 10 else f" and {untagged.size - 10} more"
        raise ValidationError(f"{path}: word events without a POS tag: {shown}{more}")
    try:
        with np.errstate(over="raise"), naming(f"{path}: "):  # e.g. a tag that too few rows carry
            model = fit_lda(words.vectors(), words.tags, cfg["lda"]["n_components"])
            projected = transform(model, words.vectors())
            scores = separation_report(model, words.vectors(), words.tags)
    except FloatingPointError as e:
        raise NumericalError(
            f"{path}: its vectors are too large for the discriminant reduction ({e})"
        ) from None
    if model.clamped:
        _log(
            f"lda: clamped from {model.requested_components} to "
            f"{model.n_components} components"
        )
    reduced = words.with_vectors(projected)
    doc = {
        "n_components": model.n_components,
        "requested_components": model.requested_components,
        "clamped": model.clamped,
        "eigenvalues": model.eigenvalues.tolist(),
        "classes": [asdict(s) for s in scores],
    }
    _log(f"lda: {len(model.class_labels)} classes -> {model.n_components} components")
    _commit_outputs(
        cfg["paths"]["output"],
        [
            ("lda_model.btsr", lambda p: write_lda(p, model)),
            ("words_lda.tsv", lambda p: write_word_events(p, reduced)),
            ("lda_separation.json", lambda p: write_json(p, doc)),
        ],
    )


def cmd_inspect(paths: list[str]) -> int:
    """Print the BTSR header of each file."""
    for path in paths:
        header = read_tensor_header(path)
        print(f"{path}:")
        print(json.dumps(header, indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(sub: argparse.ArgumentParser, workers: bool = False) -> None:
    sub.add_argument("--config", required=True, help="pipeline config (JSON)")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--output", default=None, help="override output directory")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry, e.g. --set lambda_grid.n=10",
    )
    if workers:
        sub.add_argument(
            "--workers", type=int, default=1,
            help="accepted and checked (>= 1) but changes nothing: subjects run one after another",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trfkit",
        description="Time-lagged ridge regression pipeline for multichannel recordings",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    _add_config_flags(commands.add_parser("synth", help="generate synthetic subjects"))
    _add_config_flags(commands.add_parser("fit", help="cross-validate and fit kernels"), workers=True)
    _add_config_flags(
        commands.add_parser("evaluate", help="score kernels on held-out segments"), workers=True
    )
    _add_config_flags(commands.add_parser("lda", help="reduce word vectors to discriminant space"))
    inspect = commands.add_parser("inspect", help="print BTSR headers")
    inspect.add_argument("files", nargs="+", help="BTSR files to inspect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.files)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config, sets=args.set, seed=args.seed, output=args.output)
        if args.command == "synth":
            cmd_synth(cfg)
        elif args.command == "fit":
            cmd_fit(cfg)
        elif args.command == "evaluate":
            cmd_evaluate(cfg)
        elif args.command == "lda":
            cmd_lda(cfg)
        return 0
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except TrfkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # a size under every cap that this host's memory cannot hold
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run main() on the command line and exit with its code: `python -m trfkit` and `trfkit`.

    The collector is frozen first, so the interpreter's last collections skip
    every object still alive, which the OS reclaims anyway. Atexit handlers,
    the flush of stdout and stderr and module teardown run as before. main()
    itself leaves the collector alone, for callers that stay in the process.
    """
    warnings.simplefilter("ignore", ComponentClampWarning)  # `lda` reports a clamp in its own line
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
