"""Synthetic ground-truth datasets for end-to-end validation.

Kernels are sums of two or three Gaussian bumps per channel-feature pair,
bounded to [-1, 1]. Word onsets follow a Poisson-like process (exponential
gaps at the requested rate); feature vectors are i.i.d. standard normal.

The clean response is accumulated lag by lag: each word adds
kernel[l, :, :] @ vector at sample round(onset * fs) + lag_samples[l],
one matrix-vector product per word, in word order at each sample. That
is the plain double sum over features and lags, deliberately not the
design-matrix code path, so the two routes check each other. White noise
is added per channel at the requested signal-to-noise ratio (std of the
clean response over std of the noise; snr = inf means noiseless, and a
silent channel falls back to unit noise so a zero kernel yields pure
noise).

Everything is driven by a single integer seed; identical specs reproduce
identical datasets bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import round_half_up
from .errors import PreconditionError
from .lagged_design import LagSpec, lag_range_to_samples
from .ridge_trf import TrfModel
from .tensorio import ChannelLayout, EegRecording, LayoutEntry, WordEventSequence

__all__ = [
    "SynthSpec",
    "gen_kernel",
    "gen_words",
    "gen_response",
    "gen_dataset",
    "circle_layout",
]

# gen_words draws words one at a time; a spec expecting more than this is refused
MAX_SYNTH_WORDS = 1_000_000

# sub-stream tags so kernel, word and noise draws never overlap
_KERNEL_STREAM = 1
_WORD_STREAM = 2
_NOISE_STREAM = 3


@dataclass
class SynthSpec:
    """Parameters of one synthetic subject."""

    fs_hz: float = 100.0
    duration_s: float = 300.0
    n_channels: int = 4
    n_features: int = 8
    tmin_s: float = -0.1
    tmax_s: float = 1.0
    word_rate_hz: float = 2.0
    snr: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("fs_hz", "duration_s", "word_rate_hz"):
            if not (getattr(self, name) > 0):
                raise PreconditionError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_channels < 1 or self.n_features < 1:
            raise PreconditionError(
                f"need at least one channel and one feature, got "
                f"{self.n_channels} channels / {self.n_features} features"
            )
        self.lag_spec()  # checks the lag window
        if not (self.snr > 0):
            raise PreconditionError(f"snr must be positive, got {self.snr}")
        self.n_samples  # checks that a sample index can hold the duration
        expected = self.duration_s * self.word_rate_hz
        if not 10 <= expected <= MAX_SYNTH_WORDS:
            raise PreconditionError(
                f"duration_s={self.duration_s} at word_rate_hz={self.word_rate_hz} expects "
                f"{expected:.3g} words; from 10 to {MAX_SYNTH_WORDS} are allowed"
            )

    @property
    def n_samples(self) -> int:
        return round_half_up(self.duration_s * self.fs_hz, "duration_s * fs_hz")

    def lag_spec(self) -> LagSpec:
        return lag_range_to_samples(self.tmin_s, self.tmax_s, self.fs_hz)

    def channel_names(self) -> list[str]:
        width = max(2, len(str(self.n_channels - 1)))
        return [f"C{e:0{width}d}" for e in range(self.n_channels)]


def gen_kernel(spec: SynthSpec) -> TrfModel:
    """Draw a smooth random kernel, 2-3 Gaussian bumps per (channel, feature)."""
    rng = np.random.default_rng([spec.seed, _KERNEL_STREAM])
    lag_spec = spec.lag_spec()
    times = np.asarray(lag_spec.lag_times_s())
    span = spec.tmax_s - spec.tmin_s
    kernel = np.zeros((lag_spec.n_lags, spec.n_channels, spec.n_features))
    for e in range(spec.n_channels):
        for i in range(spec.n_features):
            curve = np.zeros_like(times)
            for _ in range(int(rng.integers(2, 4))):
                centre = rng.uniform(spec.tmin_s, spec.tmax_s)
                width = rng.uniform(0.04, 0.15) * span
                amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
                curve += amp * np.exp(-0.5 * ((times - centre) / width) ** 2)
            peak = np.max(np.abs(curve))
            if peak > 1.0:
                curve /= peak
            kernel[:, e, i] = curve
    return TrfModel(
        kernel=kernel,
        lag_spec=lag_spec,
        channel_names=spec.channel_names(),
        lam=0.0,
    )


def gen_words(spec: SynthSpec) -> WordEventSequence:
    """Draw word onsets (exponential gaps) and standard normal vectors."""
    rng = np.random.default_rng([spec.seed, _WORD_STREAM])
    limit = (spec.n_samples - 0.5) / spec.fs_hz  # keeps rounded onsets on the grid
    onsets = []
    t = float(rng.exponential(1.0 / spec.word_rate_hz))
    while t < limit:
        onsets.append(t)
        t += float(rng.exponential(1.0 / spec.word_rate_hz))
    n = len(onsets)
    width = max(4, len(str(max(n - 1, 0))))
    vectors = rng.standard_normal((n, spec.n_features))
    tokens = [f"w{k:0{width}d}" for k in range(n)]
    return WordEventSequence._of_columns(tokens, np.array(onsets), [None] * n, vectors)


def gen_response(
    kernel: TrfModel, words: WordEventSequence, spec: SynthSpec, subject_id: str | None = None
) -> EegRecording:
    """Clean response by direct event accumulation, plus white noise."""
    lag_spec = spec.lag_spec()
    if kernel.lag_spec.lag_samples != lag_spec.lag_samples:
        raise PreconditionError("kernel lag range does not match the synthesis settings")
    if kernel.kernel.shape[1] != spec.n_channels or kernel.n_features != spec.n_features:
        raise PreconditionError(
            f"kernel is {kernel.kernel.shape[1]} channels x {kernel.n_features} features, "
            f"spec wants {spec.n_channels} x {spec.n_features}"
        )
    if words.dim != spec.n_features:
        raise PreconditionError(
            f"word vectors have {words.dim} dimensions, spec wants {spec.n_features}"
        )

    T = spec.n_samples
    bases = words.onset_samples(spec.fs_hz)
    late = np.searchsorted(bases, T)  # onsets are non-negative and non-decreasing
    if late < len(words):
        raise PreconditionError(
            f"event {words.tokens[late]!r} at {words.onsets()[late]}s falls outside the recording"
        )
    vectors = words.vectors()[:, :, None]
    clean = np.zeros((spec.n_channels, T))
    # lags from last to first add each sample's words in word order; add.at is fast on 1-D
    for lag, kernel_at_lag in reversed(list(zip(lag_spec.lag_samples, kernel.kernel))):
        t_idx = bases + lag
        keep = (t_idx >= 0) & (t_idx < T)
        flat = t_idx[keep, None] + T * np.arange(spec.n_channels)  # (word, channel) in clean.flat
        np.add.at(clean.reshape(-1), flat.ravel(), np.matmul(kernel_at_lag, vectors[keep]).ravel())

    rng = np.random.default_rng([spec.seed, _NOISE_STREAM])
    noise = rng.standard_normal(clean.shape)
    clean_std = clean.std(axis=1)
    if math.isinf(spec.snr):
        sigma = np.zeros_like(clean_std)
    else:
        sigma = np.where(clean_std > 0.0, clean_std / spec.snr, 1.0)
    data = clean + sigma[:, None] * noise
    return EegRecording(
        data=data,
        fs_hz=spec.fs_hz,
        channel_names=spec.channel_names(),
        subject_id=subject_id if subject_id is not None else f"synth-{spec.seed}",
    )


def gen_dataset(kernel: TrfModel, spec: SynthSpec) -> tuple[EegRecording, WordEventSequence]:
    """One subject's recording and its word stream, fully seed-determined."""
    words = gen_words(spec)
    rec = gen_response(kernel, words, spec)
    return rec, words


def circle_layout(channel_names: list[str]) -> ChannelLayout:
    """Evenly spaced unit-circle positions, for topographic tables."""
    n = len(channel_names)
    entries = []
    for k, name in enumerate(channel_names):
        angle = 2.0 * math.pi * k / max(n, 1)
        entries.append(LayoutEntry(name=name, x=math.cos(angle), y=math.sin(angle)))
    return ChannelLayout(entries=entries)
