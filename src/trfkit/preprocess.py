"""Standardisation, onset alignment and windowing.

Everything here is a pure function from arrays to arrays. Standardisation
uses the population standard deviation (divide by N, not N-1) and is
applied over the full recording, before any windowing, so repeated
application is a no-op up to float rounding.

A word stimulus has one internal form, its events (align_events). segment()
gives each window of them its own EventSeries, whose rows are not copied: the
command line builds no dense impulse series and copies no feature window.
impulse_align and FeatureSeries are the same events made dense, and segment()
copies each window of a FeatureSeries.
"""

import copy
from dataclasses import dataclass, replace

import numpy as np

from ._util import pow2_scaled, round_half_up
from .errors import DegenerateDataError, PreconditionError
from .tensorio import EegRecording, WordEventSequence

__all__ = [
    "FeatureSeries",
    "EventSeries",
    "Segment",
    "SegmentSet",
    "zscore_channels",
    "zscore_features",
    "align_events",
    "impulse_align",
    "segment",
]


@dataclass
class FeatureSeries:
    """Regular time series of stimulus features, samples x features."""

    data: np.ndarray
    fs_hz: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise PreconditionError(
                f"feature series must be 2-D (samples x features), got ndim={self.data.ndim}"
            )
        if not (self.fs_hz > 0):
            raise PreconditionError(f"fs_hz must be positive, got {self.fs_hz}")

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]


@dataclass
class EventSeries:
    """A stimulus on an n_samples grid as events: rows[k] at samples[k], zero elsewhere."""

    samples: np.ndarray  # (n_events,) int64: distinct, increasing, in [0, n_samples)
    rows: np.ndarray  # (n_events, n_features)
    n_samples: int
    fs_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int64)
        self.rows = np.asarray(self.rows, dtype=np.float64)
        s, n = self.samples, self.n_samples
        # a sample off the grid would index past the design's rows
        if s.ndim != 1 or self.rows.ndim != 2 or len(s) != len(self.rows) or not (
            len(s) == 0 or (0 <= s[0] and s[-1] < n and np.all(s[1:] > s[:-1]))
        ):
            raise PreconditionError(
                f"events need a 1-D run of samples increasing in [0, {n}) and one row of "
                f"features each, got samples of shape {s.shape} and rows of shape {self.rows.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """(n_samples, n_features), the shape of the dense series these events stand for."""
        return self.n_samples, self.rows.shape[1]

    def window(self, start: int, n: int) -> "EventSeries":
        """The n samples from start on, as events of their own grid; the rows are not copied."""
        lo, hi = np.searchsorted(self.samples, [start, start + n])
        out = copy.copy(self)  # a shifted slice of checked events meets the checks: none run again
        out.samples, out.rows, out.n_samples = self.samples[lo:hi] - start, self.rows[lo:hi], n
        return out


@dataclass
class Segment:
    """One analysis window: its own stimulus block x and response block y."""

    x: np.ndarray | EventSeries  # (window_samples, n_features), dense or as events
    y: np.ndarray  # (window_samples, n_channels)
    start: int  # sample index of the window start in the source recording


@dataclass
class SegmentSet:
    """Windowed view of one recording, in temporal order."""

    segments: list[Segment]
    window_samples: int
    hop_samples: int
    fs_hz: float
    channel_names: list[str]

    def __post_init__(self):
        if self.hop_samples > self.window_samples:
            raise PreconditionError(
                f"hop ({self.hop_samples}) exceeds window ({self.window_samples})"
            )
        for k, seg in enumerate(self.segments):
            if seg.x.shape[0] != self.window_samples or seg.y.shape[0] != self.window_samples:
                raise PreconditionError(f"segment {k} does not span {self.window_samples} samples")

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def n_features(self) -> int:
        return self.segments[0].x.shape[1] if self.segments else 0

    @property
    def n_channels(self) -> int:
        return self.segments[0].y.shape[1] if self.segments else len(self.channel_names)

    def subset(self, indices) -> "SegmentSet":
        return replace(self, segments=[self.segments[i] for i in indices])


def zscore_channels(rec: EegRecording) -> EegRecording:
    """Standardise every channel to zero mean, unit population std.

    A zero-variance channel cannot be standardised and raises
    DegenerateDataError naming the offender.
    """
    if rec.n_samples < 2:
        raise PreconditionError(
            f"need at least 2 samples per channel to standardise, got {rec.n_samples}"
        )
    data = pow2_scaled(rec.data, axis=1)  # a finite channel cannot overflow std
    mean = data.mean(axis=1, keepdims=True)
    std = data.std(axis=1, keepdims=True)  # population: divide by N
    flat = np.flatnonzero(std.ravel() == 0.0)
    if flat.size:
        names = ", ".join(rec.channel_names[i] for i in flat)
        raise DegenerateDataError(f"channel(s) with zero variance: {names}")
    return EegRecording(
        data=(data - mean) / std,
        fs_hz=rec.fs_hz,
        channel_names=list(rec.channel_names),
        subject_id=rec.subject_id,
    )


def zscore_features(seq: WordEventSequence) -> WordEventSequence:
    """Standardise each feature dimension across events (population std)."""
    if len(seq) < 2:
        raise PreconditionError(f"need at least 2 events to standardise, got {len(seq)}")
    mat = pow2_scaled(seq.vectors())  # a finite feature cannot overflow std
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    dead = np.flatnonzero(std == 0.0)
    if dead.size:
        raise DegenerateDataError(
            f"feature dimension(s) with zero variance: {', '.join(map(str, dead))}"
        )
    return seq.with_vectors((mat - mean) / std)


def align_events(seq: WordEventSequence, fs_hz: float, n_samples: int) -> EventSeries:
    """The words as events on an n_samples grid.

    Each word lands at sample floor(onset_s * fs_hz + 0.5); the vectors of words
    that land on one sample are summed, from +0.0 and in word order.
    """
    if not (fs_hz > 0):
        raise PreconditionError(f"fs_hz must be positive, got {fs_hz}")
    if n_samples < 1:
        raise PreconditionError(f"n_samples must be >= 1, got {n_samples}")
    idx = seq.onset_samples(fs_hz)
    bad = np.flatnonzero((idx < 0) | (idx >= n_samples))
    if bad.size:
        detail = ", ".join(
            f"{seq.tokens[i]!r}@{seq.onsets()[i]}s->sample {idx[i]}" for i in bad[:10]
        ) + ("" if bad.size <= 10 else f" and {bad.size - 10} more")
        raise PreconditionError(f"event(s) fall outside the {n_samples}-sample grid: {detail}")
    samples, slot = np.unique(idx, return_inverse=True)
    rows = np.zeros((samples.size, seq.dim))
    np.add.at(rows, slot, seq.vectors())
    return EventSeries(samples=samples, rows=rows, n_samples=n_samples, fs_hz=fs_hz)


def impulse_align(seq: WordEventSequence, fs_hz: float, n_samples: int) -> FeatureSeries:
    """The events of align_events as a dense impulse train, samples x features."""
    events = align_events(seq, fs_hz, n_samples)
    out = np.zeros(events.shape)
    out[events.samples] = events.rows
    return FeatureSeries(data=out, fs_hz=fs_hz)


def segment(x, y: EegRecording, window_s: float, overlap_frac: float) -> SegmentSet:
    """Cut aligned stimulus/response into fixed windows, temporal order.

    window_samples = round(window_s * fs); hop = round(window * (1 - overlap)).
    A trailing partial window is dropped. Each window of a FeatureSeries x is a
    copy of its rows; each window of an EventSeries x is its EventSeries.window.
    """
    if x.fs_hz != y.fs_hz:
        raise PreconditionError(f"sampling rates differ: x {x.fs_hz} vs y {y.fs_hz}")
    if x.n_samples != y.n_samples:
        raise PreconditionError(
            f"sample counts differ: x {x.n_samples} vs y {y.n_samples}"
        )
    if not (0.0 <= overlap_frac < 1.0):
        raise PreconditionError(f"overlap_frac must lie in [0, 1), got {overlap_frac}")
    window = round_half_up(window_s * x.fs_hz, f"window_s={window_s} at fs_hz={x.fs_hz}")
    if window < 1:
        raise PreconditionError(f"window of {window_s}s is shorter than one sample")
    if window > x.n_samples:
        raise PreconditionError(
            f"window of {window} samples does not fit into {x.n_samples} samples"
        )
    hop = round_half_up(window * (1.0 - overlap_frac), f"hop at overlap_frac={overlap_frac}")
    if hop < 1:
        raise PreconditionError(
            f"window {window} with overlap {overlap_frac} yields an empty hop"
        )
    events = isinstance(x, EventSeries)
    yt = y.data.T  # samples x channels
    segments = []
    for start in range(0, x.n_samples - window + 1, hop):
        segments.append(
            Segment(
                x=x.window(start, window) if events else x.data[start : start + window].copy(),
                y=yt[start : start + window].copy(),
                start=start,
            )
        )
    return SegmentSet(
        segments=segments,
        window_samples=window,
        hop_samples=hop,
        fs_hz=x.fs_hz,
        channel_names=list(y.channel_names),
    )
