"""Output identity and error-line checks of a trfkit source tree against another.

    python3 tools/identity.py build SRC OUT
    python3 tools/identity.py corrupt SRC OUT --cases N --seed S
    python3 tools/identity.py compare A B

`build` runs the identity set of trees with the trfkit package in SRC (the
`src` directory of a checkout) and writes OUT/manifest.json: the sha256 of
every file each tree holds at the end, and the exit code and stderr of every
command. `corrupt` builds a fitted 2-subject tree, then runs N seeded cases,
each of which corrupts one file of a fresh copy of that tree and runs one
command on it; its manifest records each case's command, exit code, stderr,
stdout and the sha256 of the files the case's tree holds afterwards. `compare`
prints every difference between two manifests (directories holding
manifest.json, or the files) and exits 1 if there is one.

Every command is a fresh `python -m trfkit` (corpora: a fresh
perfbench/corpus.py) with PYTHONPATH=SRC and OpenBLAS/OMP/MKL threads at 1,
run inside its tree with relative paths, so two checkouts give comparable
messages. Only the standard library is used.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus.py"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 600

LONG_STORY = {
    "lags": {"tmin_s": -0.1, "tmax_s": 1.0},
    "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 10},
    "folds": 5,
    "solver": "closed_form",
    "synth": {"duration_s": 180.0, "n_channels": 32, "n_features": 9, "snr": 0.3, "n_subjects": 1},
}
SMALL = {
    "lags": {"tmin_s": -0.1, "tmax_s": 0.3},
    "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 4},
    "folds": 3,
    "synth": {"fs_hz": 50.0, "duration_s": 40.0, "n_channels": 4, "n_features": 3, "n_subjects": 2},
}


def _merged(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merged(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


def _eeg(config: dict, seed: int, workers: int = 1) -> dict:
    """A synth -> fit -> evaluate tree."""
    common = ["--config", "cfg.json", "--seed", str(seed)]
    return {
        "config": config,
        "steps": [
            ("synth", ["-m", "trfkit", "synth", *common, "--output", "in"]),
            ("fit", ["-m", "trfkit", "fit", *common, "--workers", str(workers)]),
            ("evaluate", ["-m", "trfkit", "evaluate", *common, "--workers", str(workers)]),
        ],
    }


def _lda(seed: int, words: int, dim: int, n_components: int) -> dict:
    """A corpus -> lda tree."""
    corpus = [str(CORPUS), "--seed", str(seed), "--words", str(words), "--dim", str(dim)]
    return {
        "config": {"lda": {"enabled": True, "n_components": n_components}},
        "steps": [
            ("corpus", [*corpus, "--out", "in/words.tsv"]),
            ("lda", ["-m", "trfkit", "lda", "--config", "cfg.json", "--seed", str(seed)]),
        ],
    }


TREES = {
    **{f"long_story_{s}": _eeg(LONG_STORY, s) for s in (1, 2, 3, 5101)},
    "two_subjects_60s_workers_2": _eeg(
        _merged(SMALL, {"synth": {"duration_s": 60.0, "n_channels": 8}, "folds": 4}), 7, workers=2
    ),
    "iterative_40s": _eeg(
        _merged(SMALL, {"solver": "iterative", "iterative": {"lr": 1e-4, "max_epochs": 5}}), 17
    ),
    "zero_overlap_90s": _eeg(
        _merged(LONG_STORY, {"overlap": 0.0, "synth": {"duration_s": 90.0, "n_channels": 16}}), 23
    ),
    **{
        f"long_story_{n}_subjects": _eeg(_merged(LONG_STORY, {"synth": {"n_subjects": n}}), 11)
        for n in (4, 8)
    },
    "corpus_lda_5301": _lda(5301, 12000, 60, 9),
    "lda_clamped": _lda(5302, 600, 20, 20),
}
# not in TREES: a tree small enough for a unit test
TOY = _eeg(
    _merged(
        SMALL, {"lambda_grid": {"n": 3}, "folds": 2, "synth": {"duration_s": 12.0, "n_subjects": 1}}
    ),
    3,
)
PATHS = {
    "eeg": "in/sub{:02d}_eeg.btsr",
    "word_events": "in/words.tsv",
    "layout": "in/layout.csv",
    "output": "out",
}


def _write_config(tree: Path, config: dict) -> None:
    n_subjects = config.get("synth", {}).get("n_subjects", 0)
    paths = dict(PATHS, eeg=[PATHS["eeg"].format(s) for s in range(n_subjects)])
    text = json.dumps(dict(config, paths=paths), indent=1)
    (tree / "cfg.json").write_text(text, encoding="utf-8")


def _run(src: Path, cwd: Path, argv: list) -> dict:
    """Run one command in cwd; its record, with src's path in stderr written as SRC."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S
        )
        rc, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as e:
        rc, out, err = "timeout", e.stdout or b"", e.stderr or b""
    text = err.decode("utf-8", "replace").replace(str(src), "SRC")
    return {"argv": argv, "rc": rc, "stderr": text, "stdout": out.decode("utf-8", "replace")}


def digest_tree(top: Path) -> dict:
    """sha256 of every file under top, keyed by its path relative to top."""
    return {
        p.relative_to(top).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(top.rglob("*"))
        if p.is_file()
    }


def _fresh(out: Path) -> None:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)


def _build_tree(src: Path, tree: Path, spec: dict) -> dict:
    """Make one tree from its spec; the records of its steps, keyed by step name."""
    (tree / "in").mkdir(parents=True)
    _write_config(tree, spec["config"])
    return {name: _run(src, tree, argv) for name, argv in spec["steps"]}


def build(src: Path, out: Path, trees: dict) -> dict:
    """Make each tree of trees, a dict of specs by name, under out/trees; their manifest."""
    _fresh(out)
    manifest = {"kind": "build", "files": {}, "commands": {}}
    for name, spec in trees.items():
        print(f"build {name}", file=sys.stderr)
        for step, record in _build_tree(src, out / "trees" / name, spec).items():
            manifest["commands"][f"{name}/{step}"] = record
    manifest["files"] = digest_tree(out / "trees")
    return manifest


# ---------------------------------------------------------------------------
# corruptions

TAGGED = "in/tagged.tsv"
# the base tree: SMALL's 2-subject tree after fit, plus a tagged corpus for lda
BASE = _eeg(SMALL, 5)
BASE["steps"] = BASE["steps"][:2] + [
    ("corpus", [str(CORPUS), "--seed", "5", "--words", "400", "--dim", "6", "--out", TAGGED]),
]
LDA_CONFIG = {"lda": {"enabled": True, "n_components": 4}, "paths": {"word_events": TAGGED}}

INSPECT = ("inspect",)
FIT = ("fit", "evaluate")
# file of the base tree -> the commands that read it
TARGETS = {
    "in/sub00_eeg.btsr": FIT + INSPECT,
    "in/sub01_eeg.btsr": FIT + INSPECT,
    "in/words.tsv": FIT,
    TAGGED: ("lda",),
    "in/layout.csv": ("evaluate",),
    "out/sub00_trf.btsr": ("evaluate", "inspect"),
    "out/sub01_trf.btsr": ("evaluate", "inspect"),
    "out/sub00_cv.json": ("evaluate",),
    "out/sub01_cv.json": ("evaluate",),
}
ODD_VALUES = [None, -1, 0, 1e308, 2**70, "x", "", [], {}, True, -0.0, 0.5]
ODD_FIELDS = ["nan", "inf", "-inf", "", "x", "1e400", "-0", "0x10", " 1", "1_0", "é"]


def _bit(rng, data: bytes) -> bytes:
    if not data:
        return b"\x01"
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]


def _byte(rng, data: bytes) -> bytes:
    if not data:
        return b"\x00"
    i = rng.randrange(len(data))
    return data[:i] + bytes([(data[i] + rng.randrange(1, 256)) % 256]) + data[i + 1 :]


def _truncate(rng, data: bytes) -> bytes:
    return data[: rng.randrange(len(data))] if data else data


def _append(rng, data: bytes) -> bytes:
    return data + bytes(rng.randrange(256) for _ in range(rng.randrange(1, 65)))


def _mutate_value(rng, value):
    """One random mutation of a JSON value: an odd value, or a nudge of a number or list."""
    if isinstance(value, bool) or not isinstance(value, (int, float, list)) or rng.random() < 0.5:
        return rng.choice(ODD_VALUES)
    if isinstance(value, list):
        if value and rng.random() < 0.5:
            return value[: rng.randrange(len(value))]
        return value + [rng.choice(value) if value else 1]
    return value + rng.choice([-1, 1]) * (1 if isinstance(value, int) else max(abs(value), 1e-3))


def _mutate_json(rng, doc):
    """doc with one key or list entry, at a random depth, mutated or deleted."""
    if isinstance(doc, dict) and doc:
        key = rng.choice(sorted(doc))
        if rng.random() < 0.15:
            return {k: v for k, v in doc.items() if k != key}
        return {**doc, key: _mutate_entry(rng, doc[key])}
    if isinstance(doc, list) and doc:
        i = rng.randrange(len(doc))
        return doc[:i] + [_mutate_entry(rng, doc[i])] + doc[i + 1 :]
    return _mutate_value(rng, doc)


def _mutate_entry(rng, value):
    """A non-empty object or list is mutated inside more often than replaced whole."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.6:
        return _mutate_json(rng, value)
    return _mutate_value(rng, value)


def _header(rng, data: bytes) -> bytes:
    line, sep, payload = data.partition(b"\n")
    header = json.loads(line)
    return json.dumps(_mutate_json(rng, header)).encode() + sep + payload


def _json(rng, data: bytes) -> bytes:
    return (json.dumps(_mutate_json(rng, json.loads(data)), indent=2) + "\n").encode()


def _row(rng, data: bytes) -> bytes:
    lines = data.decode("utf-8").split("\n")
    sep = "\t" if "\t" in lines[0] else ","
    i = rng.randrange(len(lines) - 1)  # the last entry is the empty one after the final LF
    fields = lines[i].split(sep)
    how = rng.randrange(5)
    if how == 0:
        del lines[i]
    elif how == 1:
        lines.insert(i, lines[i])
    elif how == 2:
        lines[i] = sep.join(fields[:-1])
    elif how == 3:
        lines[i] = sep.join(fields + [rng.choice(ODD_FIELDS)])
    else:
        fields[rng.randrange(len(fields))] = rng.choice(ODD_FIELDS)
        lines[i] = sep.join(fields)
    return "\n".join(lines).encode("utf-8")


def _late_onsets(rng, data: bytes) -> bytes:
    """The last 1-5 words moved past the recording's end (40 s) up to 1e30 s, in order."""
    lines = data.decode("utf-8").split("\n")
    k = rng.randint(1, 5)
    t = 10 ** rng.uniform(math.log10(40.0), 30.0)
    for j, i in enumerate(range(len(lines) - 1 - k, len(lines) - 1)):
        fields = lines[i].split("\t")
        fields[1] = repr(t * (1 + j * 1e-6))
        lines[i] = "\t".join(fields)
    return "\n".join(lines).encode("utf-8")


def _kinds(path: str) -> dict:
    """The corruptions that suit a file of the base tree, by name."""
    kinds = {"bit": _bit, "byte": _byte, "truncate": _truncate, "append": _append}
    if path.endswith(".btsr"):
        kinds["header"] = _header
    elif path.endswith(".json"):
        kinds["json"] = _json
    else:
        kinds["row"] = _row
    if path == "in/words.tsv":
        kinds["late_onsets"] = _late_onsets
    return kinds


def _argv(command: str, path: str) -> list:
    if command == "inspect":
        return ["-m", "trfkit", "inspect", path]
    return ["-m", "trfkit", command, "--config", "lda.json" if command == "lda" else "cfg.json"]


def corrupt(src: Path, out: Path, cases: int, seed: int) -> dict:
    _fresh(out)
    base = out / "base"
    manifest = {"kind": "corrupt", "files": {}, "commands": {}}
    for step, record in _build_tree(src, base, BASE).items():
        manifest["commands"][f"base/{step}"] = record
    (base / "lda.json").write_text(json.dumps(LDA_CONFIG), encoding="utf-8")
    manifest["files"] = {f"base/{k}": v for k, v in digest_tree(base).items()}
    work = out / "case"
    kinds = sorted({kind for path in TARGETS for kind in _kinds(path)})
    for case in range(cases):
        rng = random.Random(f"{seed}/{case}")
        kind = rng.choice(kinds)
        path = rng.choice([p for p in sorted(TARGETS) if kind in _kinds(p)])
        command = rng.choice(FIT if kind == "late_onsets" else TARGETS[path])
        shutil.copytree(base, work)
        target = work / path
        target.write_bytes(_kinds(path)[kind](rng, target.read_bytes()))
        record = _run(src, work, _argv(command, path))
        record.update(file=path, kind=kind, files=digest_tree(work))
        manifest["commands"][f"case{case:04d}"] = record
        shutil.rmtree(work)
        if (case + 1) % 50 == 0:
            print(f"corrupt: {case + 1}/{cases} cases", file=sys.stderr)
    return manifest


# ---------------------------------------------------------------------------
# comparison


def _load(path: Path) -> dict:
    path = path / "manifest.json" if path.is_dir() else path
    return json.loads(path.read_text(encoding="utf-8"))


def differences(a: dict, b: dict) -> list:
    """One line per file hash or command record field that differs between two manifests."""
    lines = []
    for section in ("files", "commands"):
        left, right = a.get(section, {}), b.get(section, {})
        for key in sorted(set(left) | set(right)):
            if key not in right:
                lines.append(f"{section}: {key} only in A")
            elif key not in left:
                lines.append(f"{section}: {key} only in B")
            elif section == "files":
                if left[key] != right[key]:
                    lines.append(f"files: {key} differs")
            else:
                for field in sorted(set(left[key]) | set(right[key])):
                    x, y = left[key].get(field), right[key].get(field)
                    if x != y:
                        shown = " vs ".join(json.dumps(v)[:300] for v in (x, y))
                        lines.append(f"commands: {key} {field} differs: {shown}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("build", help="run the identity set of trees")
    p.add_argument("src", type=Path)
    p.add_argument("out", type=Path)
    p = commands.add_parser("corrupt", help="run seeded single-file corruptions of a fitted tree")
    p.add_argument("src", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = commands.add_parser("compare", help="print the differences of two manifests")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        a, b = _load(args.a), _load(args.b)
        lines = differences(a, b)
        for line in lines:
            print(line)
        n_files, n_commands = len(a.get("files", {})), len(a.get("commands", {}))
        print(f"{len(lines)} difference(s) over {n_files} files and {n_commands} commands of A")
        return 1 if lines else 0
    src = args.src.resolve()
    if not (src / "trfkit").is_dir():
        raise SystemExit(f"{src} holds no trfkit package")
    if args.command == "build":
        manifest = build(src, args.out, TREES)
    else:
        manifest = corrupt(src, args.out, args.cases, args.seed)
    text = json.dumps(manifest, indent=1, sort_keys=True)
    (args.out / "manifest.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
