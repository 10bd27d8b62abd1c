"""Self-test of the benchmark at toy sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload with `--scale toy`, tracing off and on, and checks:

- the last line of stdout: exactly correct/attempted/failed/metrics,
  correct true and nothing failed;
- the metric names and units against BENCHMARK.json (end_to_end with
  tracing off, per_layer with it on), and those against run.py, and the
  workload and metric names the benchmark was specified with;
- through run.py's own checks, which a traced run must pass: the span
  accounting of every traced command (no span outside its parent,
  children never covering more than their parent, a `cmd.<name>` span
  with layer spans under it, top-level spans covering at least 95 % of
  the process); and that those accounting checks do reject broken trees;
- that a directory holding only BENCHMARK.json and perfbench/ makes the
  benchmark exit non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ["long_story", "corpus_lda"]
END_TO_END = ["pipeline_s", "setup_s", "peak_rss_mb"]
# per-layer names the benchmark must report on every workload
PER_LAYER = [
    "cli.import_s", "tensorio.read_s", "tensorio.write_s", "tensorio.bytes_read", "tensorio.bytes_written",
    "preprocess.s", "preprocess.segments", "lagged_design.build_s", "lagged_design.calls",
    "lagged_design.bytes_built", "ridge_trf.cross_validate.self_s", "ridge_trf.fit_trf.self_s",
    "ridge_trf.solves", "ridge_trf.gram_flops", "ridge_trf.solve_flops", "stats_eval.mean_channel_r_s", "stats_eval.pearson_calls",
    "stats_eval.evaluate_subject_s", "stats_eval.group_report_s", "lda_reduce.fit_lda_s",
    "lda_reduce.transform_s", "lda_reduce.separation_report_s", "synthgen.s",
]
# figures the human report must name, per workload kind
REPORTED = {
    "eeg": ["setup_s", "fit_s:", "evaluate_s:", "pipeline_s:", "peak_rss_mb:", "heldout_r:", "kernel_recovery_r:", "failed_ops="],
    "corpus": ["setup_s", "lda_s:", "pipeline_s:", "peak_rss_mb:", "lda_centroid_accuracy:", "failed_ops="],
}
# the traced commands whose span dumps run.py checked
TRACE_REPORTED = {
    "eeg": ["fit: top-level layer spans cover", "evaluate: top-level layer spans cover"],
    "corpus": ["lda: top-level layer spans cover"],
}


def run_bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(problems, where, proc, expected_metrics):
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{where}: last line is not a JSON result")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or not result["attempted"] >= 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}: "
                        + " | ".join(l for l in lines if "FAILED" in l))
    if not all(isinstance(result[k], int) and not isinstance(result[k], bool) for k in ("attempted", "failed")):
        problems.append(f"{where}: attempted/failed must be integers")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics:
        problems.append(f"{where}: metrics {sorted(got)} != {sorted(expected_metrics)}")
    for k, v in result["metrics"].items():
        if sorted(v) != ["unit", "value"] or not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: metric {k} malformed: {v}")
    return lines


def check_accounting(problems):
    """SpanTree.accounting_errors must pass a consistent tree and reject broken ones."""
    def span(sid, parent, name, t0, t1):
        return [sid, parent, name, 0, t0, t1, 0.0, 0, {}]

    good = [span(1, 0, "cmd.fit", 0.0, 10.0), span(2, 1, "ridge_trf.fit_trf", 1.0, 9.0),
            span(3, 2, "lagged_design.build_lagged_matrix", 2.0, 3.0)]
    if spans.SpanTree(good).accounting_errors():
        problems.append(f"accounting: a consistent tree is rejected: {spans.SpanTree(good).accounting_errors()}")
    outside = good + [span(4, 2, "stats_eval.mean_channel_r", 8.5, 9.5)]
    overlapping = [span(1, 0, "cmd.fit", 0.0, 1.0), span(2, 1, "a", 0.0, 1.0), span(3, 1, "b", 0.0, 1.0)]
    backwards = [span(1, 0, "cmd.fit", 2.0, 1.0)]
    for what, tree in (("child outside parent", outside), ("backwards span", backwards)):
        if not spans.SpanTree(tree).accounting_errors():
            problems.append(f"accounting: a {what} is not caught")
    # overlapping children from two threads may each lie inside the parent; their union must not exceed it
    if spans.SpanTree(overlapping).covered_by_children(overlapping[0]) > 1.0 + 1e-9:
        problems.append("accounting: overlapping children are counted twice")


def check_declared(problems):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_wl = [w["name"] for w in bench["workloads"]]
    if declared_wl != WORKLOADS or sorted(run.WORKLOADS) != sorted(WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json {declared_wl}, run.py {sorted(run.WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END or list(e2e) != END_TO_END:
        problems.append(f"end_to_end: BENCHMARK.json {e2e} vs run.py {run.END_TO_END}")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layer != run.PER_LAYER:
        problems.append("per_layer: BENCHMARK.json and run.py disagree")
    missing = [m for m in PER_LAYER if m not in layer]
    if missing:
        problems.append(f"per_layer: missing {missing}")
    return e2e, layer


def check_bare_directory(problems):
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("long_story", 0, cwd=tmp)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or '"metrics"' in last:
            problems.append(f"bare directory: exit {proc.returncode}, last line {last[:80]!r}")


def main() -> int:
    problems = []
    e2e, layer = check_declared(problems)
    check_accounting(problems)
    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda job: run_bench(job[0], job[1]), jobs))
    for (workload, trace), proc in zip(jobs, procs):
        where = f"{workload} --trace {trace}"
        lines = check_result(problems, where, proc, layer if trace else e2e)
        if not lines:
            continue
        text = "\n".join(lines)
        for needle in (TRACE_REPORTED if trace else REPORTED)[run.WORKLOADS[workload].kind]:
            if needle not in text:
                problems.append(f"{where}: report does not name {needle!r}")
    check_bare_directory(problems)
    try:
        (ROOT / ".perfbench_work").rmdir()  # only when no benchmark run is using it
    except OSError:
        pass
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
