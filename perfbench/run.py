"""trfkit benchmark: seeded workloads run as a user runs them, then checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
`src/` there. Every trfkit command is a fresh `python3 -m trfkit` process
with OPENBLAS/OMP/MKL threads pinned to 1 and `--workers 1`.

A run does this:

1. warm-up: one untimed `import trfkit.cli` in a fresh process, so that
   `.pyc` files exist before anything is timed;
2. set-up into `inputs/`: `trfkit synth`, or for corpus_lda the corpus
   writer (perfbench/corpus.py, which writes with
   `trfkit.tensorio.write_word_events`);
3. a closed loop for `--seconds`. Each iteration runs the timed
   pipeline: `fit` then `evaluate`, or `lda`, each a fresh process timed
   with its peak RSS read from `os.wait4`. Every SETUP_EVERY-th iteration
   first sets up once more into a scratch directory, whose tree must be
   byte-identical to `inputs/`, so that set-up samples spread over the
   run as the pipeline's do. Every pipeline's outputs are checked and
   digested; all digests within one run must agree.
   The host's speed drifts by tens of percent over minutes, more than
   any bound a change could be judged by. So every timed set-up and
   pipeline runs between two runs of perfbench/reference.py, a fixed
   task that never changes with the program, and is divided by the mean
   of those two. `pipeline_s` and `setup_s` are the medians of those
   ratios times the workload's `reference_s`: seconds on a host where
   the reference task takes `reference_s`. The raw wall-clock medians
   are reported too, and are per-layer metrics of traced runs;
4. with `--trace 1`, the untimed loop gets half of `--seconds`; then
   the same pipeline runs with every command in-process under
   perfbench/traced.py, which wraps each layer's public functions in
   spans, followed by one traced set-up. Those runs give the per-layer
   metrics and the tracing overhead (traced minus untraced pipeline
   median); `cli.import_s` comes from its own fresh processes. Each span
   dump is checked: consistent span accounting, one `cmd.<name>` span
   with layer spans under it, and top-level spans covering at least
   MIN_COVERAGE of the traced process.
   End-to-end metrics always come from untraced runs.

Lines starting with `#` are the human report (environment, per-command
medians with sample counts, quality figures, checks, span table). The
last line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans  # sibling module: the script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 3
MIN_COVERAGE = 0.95  # share of a traced command's process wall time under top-level spans
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
SETUP_EVERY = 3  # iterations of the timed loop per extra set-up

END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "tensorio.read_s": "s",
    "tensorio.read.wait_s": "s",
    "tensorio.write_s": "s",
    "tensorio.bytes_read": "B",
    "tensorio.bytes_written": "B",
    "preprocess.s": "s",
    "preprocess.segments": "count",
    "lagged_design.build_s": "s",
    "lagged_design.calls": "count",
    "lagged_design.bytes_built": "B",
    "ridge_trf.cross_validate.self_s": "s",
    "ridge_trf.fit_trf.self_s": "s",
    "ridge_trf.self_s": "s",
    "ridge_trf.solves": "count",
    "ridge_trf.grams": "count",
    "ridge_trf.gram_flops": "flop_computed",
    "ridge_trf.solve_flops": "flop_computed",
    "ridge_trf.max_design_bytes": "B",
    "stats_eval.mean_channel_r_s": "s",
    "stats_eval.pearson_calls": "count",
    "stats_eval.evaluate_subject_s": "s",
    "stats_eval.group_report_s": "s",
    "lda_reduce.fit_lda_s": "s",
    "lda_reduce.transform_s": "s",
    "lda_reduce.separation_report_s": "s",
    "synthgen.s": "s",
    "setup.tensorio.write_s": "s",
    "quality.heldout_r": "r",
    "quality.kernel_recovery_r": "r",
    "quality.lda_centroid_accuracy": "share",
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
    "wall.pipeline_s": "s",
    "wall.setup_s": "s",
    "reference.wall_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    name: str
    kind: str  # "eeg": synth -> fit -> evaluate; "corpus": corpus writer -> lda
    config: dict  # trfkit config, without paths
    toy: dict  # overrides of config (or of corpus) for the self-test size
    corpus: dict = field(default_factory=dict)  # words, dim
    floors: dict = field(default_factory=dict)
    toy_floors: dict = field(default_factory=dict)
    interior_lambda: bool = False
    # kind of perfbench/reference.py task closest to the workload's own
    # work, so that a change in the host's speed slows both alike
    reference: str = "linalg"
    # the reference task's median wall time on the 2-vCPU Intel Xeon KVM guest
    # the benchmark was tuned on; end-to-end times are in seconds of that host
    reference_s: float = 0.85


SNR = 0.3  # held-out r near 0.2, as in real EEG; keeps the chosen penalty inside the grid

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="long_story",
            kind="eeg",
            config={
                "lags": {"tmin_s": -0.1, "tmax_s": 1.0},
                "lambda_grid": {"lo": 1e-3, "hi": 1e5, "n": 10},
                "folds": 5,
                "solver": "closed_form",
                "synth": {"duration_s": 180.0, "n_channels": 32, "n_features": 9, "snr": SNR, "n_subjects": 1},
            },
            toy={"synth": {"duration_s": 40.0, "n_channels": 4}},
            # seed commit, seeds 1-12: heldout_r 0.163-0.197, kernel_recovery_r 0.689-0.712, lambda 215
            floors={"heldout_r": 0.12, "kernel_recovery_r": 0.6},
            toy_floors={"heldout_r": 0.02, "kernel_recovery_r": 0.2},
            interior_lambda=True,
        ),
        Workload(
            name="corpus_lda",
            kind="corpus",
            config={"lda": {"enabled": True, "n_components": 9}},
            corpus={"words": 12000, "dim": 60},
            toy={"words": 600, "dim": 20},
            # seed commit, seeds 1-8: 0.559-0.618 (chance is 1/12)
            floors={"lda_centroid_accuracy": 0.45},
            toy_floors={"lda_centroid_accuracy": 0.3},
            reference="text",  # lda is start-up and text parsing
            reference_s=1.0,
        ),
    ]
}


def deep_merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = deep_merge(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    wall_s: float
    rc: int
    maxrss_kb: int
    log: Path

    def tail(self) -> str:
        return self.log.read_text(errors="replace")[-400:]


class Runner:
    """Starts children with the pinned environment and waits for each."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED)
        # the warm-up must leave .pyc files behind, as an installed package has them
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.count = 0

    def run(self, argv) -> ChildResult:
        self.count += 1
        log = self.work / "logs" / f"{self.count:04d}.log"
        log.parent.mkdir(exist_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(wall_s=wall, rc=proc.returncode, maxrss_kb=usage.ru_maxrss, log=log)


# ---------------------------------------------------------------------------
# checks


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def file_set(path: Path) -> set:
    return {p.name for p in path.iterdir()} if path.is_dir() else set()


def read_btsr(path: Path):
    import numpy as np

    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    dtype = {"f64": "<f8", "f32": "<f4"}[header["dtype"]]
    return np.frombuffer(raw[nl + 1:], dtype=dtype).reshape(header["shape"])


def pearson(a, b) -> float:
    import numpy as np

    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


def read_tsv_vectors(path: Path):
    """Tags and vectors of a word-event TSV, parsed independently of trfkit."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    tags = [r[2] for r in rows]
    vecs = np.array([[float(v) for v in r[3:]] for r in rows]) if rows else np.zeros((0, len(header) - 3))
    return header, tags, vecs


def read_tags(path: Path):
    return [line.split("\t", 3)[2] for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def centroid_accuracy(tags, vecs) -> float:
    import numpy as np

    classes = sorted(set(tags))
    labels = np.array([classes.index(t) for t in tags])
    cents = np.stack([vecs[labels == c].mean(axis=0) for c in range(len(classes))])
    d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(d2.argmin(axis=1) == labels))


# ---------------------------------------------------------------------------
# one workload


class Bench:
    def __init__(self, wl: Workload, seed: int, scale: str, work: Path, deadline: float):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.runner = Runner(work, deadline)
        self.checks = Checks()
        self.config = deep_merge(wl.config, wl.toy) if scale == "toy" and wl.kind == "eeg" else wl.config
        self.corpus = deep_merge(wl.corpus, wl.toy) if scale == "toy" and wl.kind == "corpus" else wl.corpus
        self.floors = wl.toy_floors if scale == "toy" else wl.floors
        self.n_subjects = self.config.get("synth", {}).get("n_subjects", 0)
        self.sids = [f"sub{s:02d}" for s in range(self.n_subjects)]
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.setup_digest = None
        self.out_digest = None
        self.quality = {}
        self.reference_walls = []
        self._write_config()

    # -- configuration and commands

    def _write_config(self):
        paths = {"word_events": "inputs/words.tsv", "output": "out"}
        if self.wl.kind == "eeg":
            paths.update(eeg=[f"inputs/{sid}_eeg.btsr" for sid in self.sids], layout="inputs/layout.csv")
        cfg = dict(self.config, paths=paths)
        (self.work / "cfg.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")

    def setup_argv(self, dest: str):
        if self.wl.kind == "eeg":
            return ["-m", "trfkit", "synth", "--config", "cfg.json", "--seed", str(self.seed), "--output", dest]
        (self.work / dest).mkdir(exist_ok=True)
        return [str(HERE / "corpus.py"), "--seed", str(self.seed), "--words", str(self.corpus["words"]),
                "--dim", str(self.corpus["dim"]), "--out", f"{dest}/words.tsv"]

    def pipeline(self):
        """(name, trfkit argv) of each timed command."""
        common = ["--config", "cfg.json", "--seed", str(self.seed)]
        if self.wl.kind == "eeg":
            return [("fit", ["fit", *common, "--workers", "1"]), ("evaluate", ["evaluate", *common, "--workers", "1"])]
        return [("lda", ["lda", *common])]

    def expected_setup_files(self):
        if self.wl.kind == "corpus":
            return {"words.tsv"}
        return {"words.tsv", "layout.csv"} | {f"{s}_{k}.btsr" for s in self.sids for k in ("eeg", "truth_trf")}

    def expected_out_files(self):
        if self.wl.kind == "corpus":
            return {"lda_model.btsr", "words_lda.tsv", "lda_separation.json"}
        per = ("trf.btsr", "cv.json", "eval.json", "topo.csv")
        return {"group_eval.json"} | {f"{s}_{k}" for s in self.sids for k in per}

    # -- phases

    def warm_up(self):
        r = self.runner.run(["-c", "import trfkit.cli"])
        self.checks.check("warm-up import exits 0", r.rc == 0, r.tail())

    def reference(self) -> float:
        r = self.runner.run([str(HERE / "reference.py"), self.wl.reference])
        self.checks.check("reference task exits 0", r.rc == 0, r.tail())
        self.reference_walls.append(r.wall_s)
        return r.wall_s

    def scaled(self, wall: float) -> float:
        """`wall`, just measured, in seconds of the reference host: divided
        by the mean of the reference runs just before and just after it."""
        before = self.reference_walls[-1]
        return self.wl.reference_s * wall / ((before + self.reference()) / 2)

    def setup(self) -> float:
        """One timed set-up. The first fills `inputs/`; later ones go to a
        scratch directory that must match it byte for byte."""
        first = self.setup_digest is None
        dest = "inputs" if first else "setup_again"
        r = self.runner.run(self.setup_argv(dest))
        if not self.checks.check("set-up exits 0", r.rc == 0, r.tail()):
            if first:
                raise SetupFailed(f"set-up command exited {r.rc}: {r.tail()}")
            shutil.rmtree(self.work / dest, ignore_errors=True)
            return r.wall_s
        got = file_set(self.work / dest)
        self.checks.check("set-up file set", got == self.expected_setup_files(), f"{sorted(got)}")
        digest = tree_digest(self.work / dest)
        if first:
            self.setup_digest = digest
        else:
            self.checks.check("set-up tree repeats", digest == self.setup_digest)
            shutil.rmtree(self.work / dest)
        return r.wall_s

    def run_pipeline(self, traced: bool = False):
        """One pass of the workload's commands; returns per-command walls, peak RSS and span dumps."""
        shutil.rmtree(self.out, ignore_errors=True)
        walls, rss, dumps = {}, [], []
        ok = True
        for name, argv in self.pipeline():
            if not ok:
                self.checks.check(f"{name} exits 0", False, "skipped after an earlier failure")
                continue
            if traced:
                dump = self.work / f"spans-{self.runner.count + 1:04d}.json"
                r = self.runner.run([str(HERE / "traced.py"), str(dump), "cli", *argv])
            else:
                r = self.runner.run(["-m", "trfkit", *argv])
            ok = self.checks.check(f"{name} exits 0", r.rc == 0, r.tail())
            walls[name] = r.wall_s
            rss.append(r.maxrss_kb)
            if traced and ok:
                doc = json.loads(dump.read_text())
                self.check_trace(name, doc)
                dumps.append((name, doc))
        self.check_outputs(ok)
        return walls, max(rss), dumps

    def check_outputs(self, ran: bool):
        got = file_set(self.out)
        self.checks.check("output file set", got == self.expected_out_files(), f"{sorted(got)}")
        if not ran:
            return
        digest = tree_digest(self.out)
        if self.out_digest is None:
            self.out_digest = digest
        self.checks.check("output tree digest repeats", digest == self.out_digest)
        try:
            quality = self.eeg_quality() if self.wl.kind == "eeg" else self.corpus_quality()
        except (OSError, KeyError, ValueError, IndexError) as e:
            self.checks.check("outputs readable", False, repr(e))
            return
        for key, floor in self.floors.items():
            self.checks.check(f"{key} >= {floor}", quality[key] >= floor, f"got {quality[key]:.4f}")
        if self.quality:
            self.checks.check("quality repeats exactly", quality == self.quality, f"{quality} vs {self.quality}")
        self.quality = quality

    def check_trace(self, name: str, doc: dict, coverage: bool = True):
        """The span accounting of one traced command's dump. The set-up's
        own data generation lies outside any layer, so its coverage is not
        checked."""
        tree = spans.SpanTree(doc["spans"])
        self.checks.check(f"traced {name} wrapped trfkit bindings", doc["bound"] > 0)
        errors = tree.accounting_errors()
        self.checks.check(f"traced {name} span accounting", not errors, "; ".join(errors[:3]))
        cmds = [s for s in tree.spans if s[spans.PARENT] == 0 and s[spans.NAME].startswith("cmd.")]
        if not self.checks.check(f"traced {name} has one cmd.{name} span and a cli.import span",
                                 [s[spans.NAME] for s in cmds] == [f"cmd.{name}"] and bool(tree.named("cli.import"))):
            return
        layers = {k[spans.NAME].split(".")[0] for k in tree.children.get(cmds[0][spans.ID], [])}
        self.checks.check(f"traced cmd.{name} has layer spans under it", bool(layers & set(spans.LAYERS)),
                          f"children from {sorted(layers)}")
        if not coverage:
            return
        process, _ = command_coverage([(name, doc)])[name]
        self.checks.check(f"traced {name} top-level span coverage >= {MIN_COVERAGE:.0%}", process >= MIN_COVERAGE,
                          f"got {process:.4f}")

    def eeg_quality(self):
        group = json.loads((self.out / "group_eval.json").read_text())
        recovery = []
        for sid in self.sids:
            fitted = read_btsr(self.out / f"{sid}_trf.btsr")
            truth = read_btsr(self.inputs / f"{sid}_truth_trf.btsr")
            recovery.append(pearson(fitted, truth))
            if self.wl.interior_lambda:
                cv = json.loads((self.out / f"{sid}_cv.json").read_text())
                grid = cv["grid"]
                self.checks.check(
                    f"{sid} best_lambda inside the grid", grid[0] < cv["best_lambda"] < grid[-1],
                    f"{cv['best_lambda']} on [{grid[0]}, {grid[-1]}]",
                )
        return {"heldout_r": float(group["pooled_r"]), "kernel_recovery_r": sum(recovery) / len(recovery)}

    def corpus_quality(self):
        header, tags, vecs = read_tsv_vectors(self.out / "words_lda.tsv")
        in_tags = read_tags(self.inputs / "words.tsv")
        n_comp = self.config["lda"]["n_components"]
        self.checks.check("words_lda.tsv rows", len(tags) == self.corpus["words"], f"{len(tags)} rows")
        self.checks.check("words_lda.tsv dimensions", len(header) - 3 == n_comp, f"{len(header) - 3} dims")
        self.checks.check("words_lda.tsv keeps the tags", tags == in_tags)
        return {"lda_centroid_accuracy": centroid_accuracy(in_tags, vecs)}

    def import_times(self, n: int):
        code = "import time; t = time.perf_counter(); import trfkit.cli; print(time.perf_counter() - t)"
        out = []
        for _ in range(n):
            r = self.runner.run(["-c", code])
            if self.checks.check("import probe exits 0", r.rc == 0, r.tail()):
                out.append(float(r.log.read_text().split()[-1]))
        return out

    def traced_setup(self):
        dump = self.work / "spans-setup.json"
        dest = "setup_traced"
        argv = self.setup_argv(dest)
        kind_argv = ["cli", *argv[2:]] if self.wl.kind == "eeg" else ["corpus", *argv[1:]]
        r = self.runner.run([str(HERE / "traced.py"), str(dump), *kind_argv])
        if not self.checks.check("traced set-up exits 0", r.rc == 0, r.tail()):
            return None
        self.checks.check("traced set-up tree matches", tree_digest(self.work / dest) == self.setup_digest)
        doc = json.loads(dump.read_text())
        self.check_trace("synth" if self.wl.kind == "eeg" else "corpus", doc, coverage=False)
        return doc


class SetupFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics and trace analysis


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "min": min(values), "max": max(values)}
    if n > 10:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return out


def fmt_summary(s):
    extra = "".join(f" {k}={v:.4f}" for k, v in s.items() if k.startswith("p"))
    if not extra:
        extra = " (no percentile: fewer than 11 samples)"
    return f"median={s['median']:.4f} n={s['n']} min={s['min']:.4f} max={s['max']:.4f}{extra}"


def is_read(name):
    return name.startswith("tensorio.read_")


def is_write(name):
    return name.startswith("tensorio.write_")


def layer_metrics(dumps):
    """Per-layer figures summed over one traced pipeline's command dumps."""
    m = {k: 0.0 for k in PER_LAYER}
    for _, doc in dumps:
        tree = spans.SpanTree(doc["spans"])
        c = doc["counters"]
        m["tensorio.read_s"] += tree.group_time(is_read)
        m["tensorio.read.wait_s"] += sum(tree.wall(s) - s[spans.CPU] for s in tree.outermost(is_read))
        m["tensorio.write_s"] += tree.group_time(is_write)
        m["tensorio.bytes_read"] += tree.group_attr(is_read, "bytes")
        m["tensorio.bytes_written"] += tree.group_attr(is_write, "bytes")
        m["preprocess.s"] += tree.group_time(lambda n: n.startswith("preprocess."))
        m["preprocess.segments"] += tree.attr_sum("preprocess.segment", "segments")
        build = "lagged_design.build_lagged_matrix"
        m["lagged_design.build_s"] += tree.group_time(lambda n: n == build)
        m["lagged_design.calls"] += len(tree.named(build))
        m["lagged_design.bytes_built"] += tree.attr_sum(build, "bytes_built")
        for fn in ("cross_validate", "fit_trf"):
            m[f"ridge_trf.{fn}.self_s"] += sum(tree.self_time(s) for s in tree.named(f"ridge_trf.{fn}"))
        m["ridge_trf.self_s"] += sum(
            tree.self_time(s) for s in tree.spans if s[spans.NAME].startswith("ridge_trf.")
        )
        m["ridge_trf.solves"] += c.get("solves", 0)
        m["ridge_trf.solve_flops"] += c.get("solve_flops", 0)
        m["ridge_trf.max_design_bytes"] = max(m["ridge_trf.max_design_bytes"], c.get("max_design_bytes", 0))
        for name in ("ridge_trf.cross_validate", "ridge_trf.ridge_closed_form"):
            m["ridge_trf.grams"] += tree.attr_sum(name, "grams")
            m["ridge_trf.gram_flops"] += tree.attr_sum(name, "gram_flops")
        m["stats_eval.pearson_calls"] += c.get("pearson_calls", 0)
        for fn in ("mean_channel_r", "evaluate_subject", "group_report"):
            m[f"stats_eval.{fn}_s"] += tree.group_time(lambda n, fn=fn: n == f"stats_eval.{fn}")
        for fn in ("fit_lda", "transform", "separation_report"):
            m[f"lda_reduce.{fn}_s"] += tree.group_time(lambda n, fn=fn: n == f"lda_reduce.{fn}")
    return m


def command_coverage(dumps):
    """Per command: the share of the traced process's wall time covered by
    top-level layer spans (the `cli.import` span plus the direct children
    of the `cmd.<name>` span), and the share of the command span alone
    covered by its children."""
    out = {}
    for name, doc in dumps:
        tree = spans.SpanTree(doc["spans"])
        cmd = tree.named(f"cmd.{name}")[0]
        imports = sum(tree.wall(s) for s in tree.named("cli.import"))
        covered = tree.covered_by_children(cmd)
        out[name] = ((imports + covered) / (doc["process_end"] - doc["process_start"]), covered / tree.wall(cmd))
    return out


def span_table(dumps):
    """name -> calls, wall, cpu, wait, self, max RSS (MB) over all dumps."""
    table = {}
    for _, doc in dumps:
        tree = spans.SpanTree(doc["spans"])
        for s in tree.spans:
            row = table.setdefault(s[spans.NAME], [0, 0.0, 0.0, 0.0, 0.0, 0.0])
            wall = tree.wall(s)
            row[0] += 1
            row[1] += wall
            row[2] += s[spans.CPU]
            row[3] += wall - s[spans.CPU]
            row[4] += tree.self_time(s)
            row[5] = max(row[5], s[spans.RSS] / 1024)
    return table


def ranking_expectations(name, dumps):
    """The layer that should dominate each workload's main command at seed."""
    out = []
    for cmd, doc in dumps:
        tree = spans.SpanTree(doc["spans"])
        top = tree.named(f"cmd.{cmd}")
        if not top:
            continue
        wall = tree.wall(top[0])
        if name == "long_story" and cmd == "fit":
            share = (tree.group_time(lambda n: n.startswith("lagged_design."))
                     + sum(tree.self_time(s) for s in tree.spans if s[spans.NAME].startswith("ridge_trf."))) / wall
            out.append(("lagged_design + ridge_trf self time > 50% of fit", share > 0.5, share))
        elif name == "corpus_lda" and cmd == "lda":
            shares = {}
            for k in tree.children.get(top[0][spans.ID], []):
                key = "tensorio.read" if k[spans.NAME].startswith("tensorio.read_") else k[spans.NAME]
                shares[key] = shares.get(key, 0.0) + tree.wall(k)
            largest = max(shares, key=shares.get) if shares else ""
            out.append(("tensorio.read is the largest span of lda", largest == "tensorio.read", largest))
    return out


# ---------------------------------------------------------------------------
# environment record


def l3_bytes() -> int:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            if (idx / "level").read_text().strip() == "3":
                text = (idx / "size").read_text().strip()
                mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
                return int(text.rstrip("KMG")) * mult
        except OSError:
            continue
    try:
        return max(0, os.sysconf("SC_LEVEL3_CACHE_SIZE"))
    except (ValueError, OSError):
        return 0


def environment(seed: int, workload: str, scale: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "trfkit").rglob("*.py")):
        src.update(f.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3_bytes": l3_bytes(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "pinned": PINNED,
    }


# ---------------------------------------------------------------------------
# main


def report(line: str) -> None:
    print(f"# {line}", flush=True)


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + HARD_LIMIT_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        env = environment(args.seed, wl.name, args.scale)
        report("env " + json.dumps(env))
        bench = Bench(wl, args.seed, args.scale, work, deadline)
        bench.warm_up()
        loop_s = args.seconds / 2 if args.trace else args.seconds
        setup_walls, setup_scaled, iters, pipeline_scaled = [], [], [], []
        t0 = time.perf_counter()
        bench.reference()
        while True:
            if len(iters) % SETUP_EVERY == 0:
                setup_walls.append(bench.setup())
                setup_scaled.append(bench.scaled(setup_walls[-1]))
            iters.append(bench.run_pipeline())
            pipeline_scaled.append(bench.scaled(sum(iters[-1][0].values())))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(iters) > loop_s:
                break
        pipeline = [sum(w.values()) for w, _, _ in iters]
        report(f"reference task wall: {fmt_summary(summary(bench.reference_walls))}")
        report(f"setup wall: {fmt_summary(summary(setup_walls))}")
        report(f"setup_s: {fmt_summary(summary(setup_scaled))} (scaled by the reference task)")
        for name, _ in bench.pipeline():
            report(f"{name}_s: {fmt_summary(summary([w[name] for w, _, _ in iters if name in w]))} (wall)")
        report(f"pipeline wall: {fmt_summary(summary(pipeline))}")
        report(f"pipeline_s: {fmt_summary(summary(pipeline_scaled))} (scaled by the reference task)")
        peak = [rss / 1024 for _, rss, _ in iters]
        report(f"peak_rss_mb: {fmt_summary(summary(peak))}")

        if not args.trace:
            metrics = {
                "pipeline_s": statistics.median(pipeline_scaled),
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": statistics.median(peak),
            }
        else:
            metrics = traced_metrics(bench, args, env, pipeline, setup_walls, t0)
        for key, value in sorted(bench.quality.items()):
            report(f"{key}: {value:.6f} (floor {bench.floors.get(key)})")
        checks = bench.checks
        report(f"checks: attempted={checks.attempted} failed={checks.failed} "
               f"failed_ops={checks.failed / max(1, checks.attempted):.4f}")
        for failure in checks.failures:
            report(f"FAILED {failure}")
        units = PER_LAYER if args.trace else END_TO_END
        return {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def traced_metrics(bench: Bench, args, env, pipeline, setup_walls, t0) -> dict:
    """Per-layer metrics; `pipeline` and `setup_walls` are the untraced walls."""
    traced_iters = []
    t_traced = time.perf_counter()
    while True:
        traced_iters.append(bench.run_pipeline(traced=True))
        elapsed = time.perf_counter() - t0
        per = (time.perf_counter() - t_traced) / len(traced_iters)
        if elapsed + per > args.seconds:
            break
    setup_dump = bench.traced_setup()
    imports = bench.import_times(1 if args.scale == "toy" else IMPORT_SAMPLES)

    per_iter = [layer_metrics(dumps) for _, _, dumps in traced_iters]
    metrics = {k: statistics.median(m[k] for m in per_iter) for k in PER_LAYER}
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    if setup_dump is not None:
        tree = spans.SpanTree(setup_dump["spans"])
        metrics["synthgen.s"] = tree.group_time(lambda n: n.startswith("synthgen."))
        metrics["setup.tensorio.write_s"] = tree.group_time(is_write)
    for key, value in bench.quality.items():
        metrics[f"quality.{key}"] = value
    metrics["wall.pipeline_s"] = statistics.median(pipeline)
    metrics["wall.setup_s"] = statistics.median(setup_walls)
    metrics["reference.wall_s"] = statistics.median(bench.reference_walls)
    traced_pipeline = [sum(w.values()) for w, _, _ in traced_iters]
    metrics["trace.overhead_s"] = statistics.median(traced_pipeline) - statistics.median(pipeline)
    coverage = [command_coverage(d) for _, _, d in traced_iters]
    flat = [v[0] for c in coverage for v in c.values()]
    metrics["trace.coverage_pct"] = 100 * min(flat) if flat else 0.0
    if metrics["ridge_trf.max_design_bytes"]:
        report(f"largest stacked design {metrics['ridge_trf.max_design_bytes'] / 2**20:.1f} MiB (measured: "
               f"nbytes of the stacked array) against L3 {env['l3_bytes'] / 2**20:.1f} MiB: "
               f"{metrics['ridge_trf.max_design_bytes'] / max(1, env['l3_bytes']):.2f}x; gram and solve flops "
               f"are computed from shapes, not measured")

    report(f"traced pipeline_s: {fmt_summary(summary(traced_pipeline))}; "
           f"overhead {metrics['trace.overhead_s']:+.4f} s against the untraced median")
    for cmd in coverage[0] if coverage else []:
        report(f"{cmd}: top-level layer spans cover {100 * min(c[cmd][0] for c in coverage if cmd in c):.2f}% "
               f"of the traced process, and {100 * min(c[cmd][1] for c in coverage if cmd in c):.2f}% "
               f"of cmd.{cmd} alone")
    for what, ok, value in ranking_expectations(bench.wl.name, traced_iters[0][2]):
        report(f"expect {what}: {'met' if ok else 'NOT MET'} ({value if isinstance(value, str) else f'{value:.3f}'})")
    table = span_table(traced_iters[0][2])
    report("span table, first traced pipeline: name calls wall_s cpu_s wait_s self_s max_rss_mb")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1][4])[:16]:
        report(f"  {name:40s} {row[0]:7d} {row[1]:9.4f} {row[2]:9.4f} {row[3]:9.4f} {row[4]:9.4f} {row[5]:9.1f}")
    for key in PER_LAYER:
        report(f"{key} = {metrics[key]:.6g} {PER_LAYER[key]}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trfkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for perfbench/selftest.py")
    args = parser.parse_args(argv)
    if not (SRC / "trfkit" / "cli.py").is_file():
        print(f"error: no trfkit sources under {SRC}; run from a trfkit checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except SetupFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
