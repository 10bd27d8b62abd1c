"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps trfkit functions from outside: every public function of
each layer module is replaced, in every trfkit namespace that binds it,
by a wrapper that records one span per call. A few hot or private
functions get counting wrappers instead, so that a per-call span does not
distort the layer it sits in. Spans go to a list in memory and are dumped
as JSON when the traced process ends.

A span is (id, parent id, name, thread id, start, end, thread CPU seconds,
max RSS in KiB at exit, attrs). Parents come from a thread-local stack.
Self time and layer totals are computed afterwards from the dump by the
functions at the bottom of this file, which use only the standard library.
"""

import inspect
import itertools
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("tensorio", "preprocess", "lagged_design", "ridge_trf", "stats_eval", "lda_reduce", "synthgen")
# the CLI's own work between layer calls: argument parsing, config
# validation, the train/test split and the staged, atomic output commit
CLI_SPANS = ("build_parser", "load_config", "split_segments", "_commit_outputs")

# field positions in a dumped span
ID, PARENT, NAME, THREAD, T0, T1, CPU, RSS, ATTRS = range(9)


def _path_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _ridge_gram_flops(n_rows, p, e):
    """Nominal dense flops of X^T X plus X^T Y for an (n_rows x p) design."""
    return 2 * n_rows * p * (p + e)


def _cv_attrs(args, kwargs, result):
    segments, spec = args[0], args[1]
    solver = kwargs.get("solver", args[5] if len(args) > 5 else "closed_form")
    if solver != "closed_form" or not segments.segments:
        return {}
    n_rows = len(segments) * segments.window_samples
    p = segments.n_features * spec.n_lags
    folds = kwargs.get("k", args[3] if len(args) > 3 else 0)
    return {"grams": folds, "gram_flops": _ridge_gram_flops(n_rows, p, segments.n_channels)}


def _closed_form_attrs(args, kwargs, result):
    X, Y = args[0], args[1]
    e = Y.shape[1] if getattr(Y, "ndim", 1) == 2 else 1
    return {"grams": 1, "gram_flops": _ridge_gram_flops(X.shape[0], X.shape[1], e)}


def _solve_attrs(args, kwargs, result):
    p, e = result.shape[0], result.shape[1] if result.ndim == 2 else 1
    # Cholesky p^3/3 plus two triangular solves of p x e right-hand sides
    return {"solves": 1, "solve_flops": p**3 // 3 + 2 * p * p * e}


# Per-function attribute hooks, keyed by "layer.function". Each returns a
# dict of numbers that are summed ("max_" keys are maxed) per command.
ATTR_HOOKS = {
    "tensorio.read_tensor": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.read_eeg": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.read_word_events": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.read_channel_layout": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.write_tensor": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.write_eeg": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.write_word_events": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.write_channel_layout": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "tensorio.write_json": lambda a, k, r: {"bytes": _path_bytes(a[0])},
    "preprocess.segment": lambda a, k, r: {"segments": len(r)},
    "lagged_design.build_lagged_matrix": lambda a, k, r: {"bytes_built": int(r.data.nbytes)},
    "ridge_trf.cross_validate": _cv_attrs,
    "ridge_trf.ridge_closed_form": _closed_form_attrs,
}

# Functions that get a counting wrapper instead of a span: pearson_r runs
# once per channel per score, _solve_gram is the per-penalty solve inside
# cross_validate's self time, _stack_segments shows the stacked design size.
COUNTED = {
    "stats_eval.pearson_r": lambda a, k, r: {"pearson_calls": 1},
    "ridge_trf._solve_gram": _solve_attrs,
    "ridge_trf._stack_segments": lambda a, k, r: {"max_design_bytes": int(r[0].nbytes)},
}


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_counts(self, counts):
        with self._lock:
            for key, value in counts.items():
                if key.startswith("max_"):
                    self.counters[key] = max(self.counters.get(key, 0), value)
                else:
                    self.counters[key] = self.counters.get(key, 0) + value

    @contextmanager
    def span(self, name):
        """Record one span around a block; the block may fill the yielded attrs."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        attrs = {}
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            yield attrs
        finally:
            c1 = time.thread_time()
            t1 = time.perf_counter()
            stack.pop()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.spans.append([sid, parent, name, threading.get_ident(), t0, t1, c1 - c0, rss, attrs])

    def wrap_span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs.update(hook(args, kwargs, result))
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_count(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add_counts(hook(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap layer functions wherever any loaded trfkit module binds them.

        Returns the number of bindings replaced.
        """
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"trfkit.{layer}"]
            for attr in getattr(module, "__all__", []):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    replacements[fn] = self.wrap_span(name, fn, ATTR_HOOKS.get(name))
        # the I/O layer's containers validate and stack their contents in methods
        tensorio = sys.modules["trfkit.tensorio"]
        for attr in tensorio.__all__:
            cls = getattr(tensorio, attr)
            if inspect.isclass(cls) and cls.__module__ == tensorio.__name__:
                for meth, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                        setattr(cls, meth, self.wrap_span(f"tensorio.{attr}.{meth}", fn))
        cli = sys.modules["trfkit.cli"]
        for attr in CLI_SPANS:
            fn = getattr(cli, attr)
            replacements[fn] = self.wrap_span(f"cli.{attr}", fn)
        # counting wrappers take the place of span wrappers for these
        for name, hook in COUNTED.items():
            layer, attr = name.split(".", 1)
            fn = getattr(sys.modules[f"trfkit.{layer}"], attr)
            replacements[fn] = self.wrap_count(fn, hook)
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "trfkit" or mod_name.startswith("trfkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, attr, replacements[value])
                    bound += 1
        return bound

    def dump(self):
        return {"spans": self.spans, "counters": self.counters}


# ---------------------------------------------------------------------------
# analysis of a dump


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Index over one process's spans: children, self time, layer totals."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[PARENT], []).append(s)

    def wall(self, s):
        return s[T1] - s[T0]

    def covered_by_children(self, s):
        """Part of s's interval covered by its direct child spans."""
        kids = self.children.get(s[ID], [])
        return union_length([(max(k[T0], s[T0]), min(k[T1], s[T1])) for k in kids if k[T1] > s[T0]])

    def self_time(self, s):
        return self.wall(s) - self.covered_by_children(s)

    def named(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def outermost(self, match):
        """Spans matching the predicate that have no matching ancestor."""
        out = []
        for s in self.spans:
            if not match(s[NAME]):
                continue
            parent = self.by_id.get(s[PARENT])
            while parent is not None and not match(parent[NAME]):
                parent = self.by_id.get(parent[PARENT])
            if parent is None:
                out.append(s)
        return out

    def group_time(self, match):
        return union_length([(s[T0], s[T1]) for s in self.outermost(match)])

    def group_attr(self, match, key):
        return sum(s[ATTRS].get(key, 0) for s in self.outermost(match))

    def attr_sum(self, name, key):
        return sum(s[ATTRS].get(key, 0) for s in self.named(name))

    def accounting_errors(self, tol=1e-6):
        """Spans whose timing contradicts their parent; empty when all is consistent."""
        errors = []
        for s in self.spans:
            if s[T1] < s[T0]:
                errors.append(f"{s[NAME]}: ends before it starts")
            parent = self.by_id.get(s[PARENT])
            if parent is not None and (s[T0] < parent[T0] - tol or s[T1] > parent[T1] + tol):
                errors.append(f"{s[NAME]}: outside its parent {parent[NAME]}")
            if self.covered_by_children(s) > self.wall(s) + tol:
                errors.append(f"{s[NAME]}: children cover more than its wall time")
        return errors
