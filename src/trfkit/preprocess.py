"""Standardisation, onset alignment and windowing.

Everything here is a pure function from arrays to arrays. Standardisation
uses the population standard deviation (divide by N, not N-1) and is
applied over the full recording, before any windowing, so repeated
application is a no-op up to float rounding.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._util import pow2_scaled, round_half_up
from .errors import DegenerateDataError, PreconditionError
from .tensorio import EegRecording, WordEventSequence

__all__ = [
    "FeatureSeries",
    "Segment",
    "SegmentSet",
    "zscore_channels",
    "zscore_features",
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
class Segment:
    """One analysis window: stimulus block x and response block y."""

    x: np.ndarray  # (window_samples, n_features)
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


def impulse_align(seq: WordEventSequence, fs_hz: float, n_samples: int) -> FeatureSeries:
    """Scatter event vectors onto the sampling grid as an impulse train.

    Each event lands at sample floor(onset_s * fs_hz + 0.5); events that
    round to the same sample are summed. Every other sample is zero.
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
    out = np.zeros((n_samples, seq.dim))
    np.add.at(out, idx, seq.vectors())
    return FeatureSeries(data=out, fs_hz=fs_hz)


def segment(x: FeatureSeries, y: EegRecording, window_s: float, overlap_frac: float) -> SegmentSet:
    """Cut aligned stimulus/response into fixed windows, temporal order.

    window_samples = round(window_s * fs); hop = round(window * (1 - overlap)).
    A trailing partial window is dropped.
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
    yt = y.data.T  # samples x channels
    segments = []
    for start in range(0, x.n_samples - window + 1, hop):
        segments.append(
            Segment(
                x=x.data[start : start + window].copy(),
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
