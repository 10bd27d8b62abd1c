"""Fixed reference task that gauges the host's speed at one moment.

    python3 perfbench/reference.py linalg|text

It does what a trfkit command does, on fixed sizes and without importing
trfkit: a fresh interpreter imports numpy and the scipy modules trfkit
uses, then either (`linalg`) stacks a seeded lagged design, forms its
Gram matrix and factors it, or (`text`) formats a seeded word-event table
as tab-separated text and parses it back. A host slows interpreted Python
and linear algebra by different amounts, so each workload uses the kind
closer to its own work. The code never changes with the program under
test, so its wall time moves only with the host: run.py runs it before
and after every timed command and divides the command's time by the mean
of the two.
"""

import csv
import io
import sys

import numpy as np
import scipy.linalg
import scipy.spatial.distance  # noqa: F401  (imported by trfkit.lda_reduce; part of the start-up being gauged)

N_ROWS, N_FEATURES, N_LAGS = 8000, 9, 100
N_WORDS, N_DIMS = 2500, 60


def linalg() -> None:
    x = np.random.default_rng(7).standard_normal((N_ROWS, N_FEATURES))
    design = np.zeros((N_ROWS, N_FEATURES * N_LAGS))
    for k in range(N_LAGS):
        design[k:, k * N_FEATURES:(k + 1) * N_FEATURES] = x[:N_ROWS - k]
    gram = design.T @ design
    scipy.linalg.cho_factor(gram + np.eye(gram.shape[0]))


def text() -> None:
    vectors = np.random.default_rng(7).standard_normal((N_WORDS, N_DIMS))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t", lineterminator="\n")
    for k, row in enumerate(vectors):
        writer.writerow([f"w{k:06d}", f"{0.25 * k:.6f}", "NOUN", *(repr(float(v)) for v in row)])
    parsed = [[float(v) for v in r[3:]] for r in csv.reader(io.StringIO(buf.getvalue()), delimiter="\t")]
    if np.array(parsed).shape != vectors.shape:
        raise SystemExit("reference text task: round trip lost rows")


TASKS = {"linalg": linalg, "text": text}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in TASKS:
        raise SystemExit(f"usage: reference.py {'|'.join(TASKS)}")
    TASKS[sys.argv[1]]()
