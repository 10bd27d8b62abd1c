"""Run one trfkit command in-process with span wrappers installed.

    python3 perfbench/traced.py SPANS_JSON cli <trfkit arguments...>
    python3 perfbench/traced.py SPANS_JSON corpus <corpus.py arguments...>

The process records a `cli.import` span around `import trfkit.cli`, wraps
every layer function (see spans.py), then runs the command inside a
`cmd.<name>` span: `trfkit.cli.main` for `cli`, or the corpus writer for
`corpus`. The spans and counters are written to SPANS_JSON when the
command returns, and the process exits with the command's exit code.
"""

import json
import sys
import time

T_START = time.perf_counter()

import spans  # noqa: E402  (sibling module; the script directory is on sys.path)


def main(argv):
    out_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import trfkit.cli
    bound = tracer.install()
    if kind == "cli":
        with tracer.span(f"cmd.{rest[0]}"):
            rc = trfkit.cli.main(rest)
    elif kind == "corpus":
        import corpus

        with tracer.span("cmd.corpus"):
            corpus.main(rest)
            rc = 0
    else:
        raise SystemExit(f"unknown traced command kind {kind!r}")
    doc = tracer.dump()
    doc["bound"] = bound
    doc["process_start"] = T_START
    doc["process_end"] = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
