from dataclasses import replace

import numpy as np
import pytest

from trfkit.errors import PreconditionError
from trfkit.lagged_design import build_lagged_matrix
from trfkit.preprocess import impulse_align, segment
from trfkit.ridge_trf import fit_trf, flatten_trf
from trfkit.synthgen import (
    SynthSpec,
    circle_layout,
    gen_dataset,
    gen_kernel,
    gen_response,
    gen_words,
)


def _spec(**kwargs):
    base = dict(fs_hz=100.0, duration_s=60.0, n_channels=3, n_features=4,
                tmin_s=-0.1, tmax_s=0.4, word_rate_hz=2.0, snr=5.0, seed=0)
    base.update(kwargs)
    return SynthSpec(**base)


def _dataset(spec):
    kernel = gen_kernel(spec)
    rec, words = gen_dataset(kernel, spec)
    return words, rec, kernel


def test_same_seed_reproduces_everything():
    a_words, a_eeg, a_kernel = _dataset(_spec(seed=7))
    b_words, b_eeg, b_kernel = _dataset(_spec(seed=7))
    assert a_eeg.data.tobytes() == b_eeg.data.tobytes()
    assert a_kernel.kernel.tobytes() == b_kernel.kernel.tobytes()
    assert len(a_words) == len(b_words)
    assert all(
        x.token == y.token and x.onset_s == y.onset_s
        for x, y in zip(a_words.events, b_words.events)
    )


def test_different_seeds_differ():
    a = _dataset(_spec(seed=0))[1]
    b = _dataset(_spec(seed=1))[1]
    assert not np.array_equal(a.data, b.data)


def test_kernel_shape_and_bounds():
    spec = _spec()
    kernel = gen_kernel(spec)
    L = spec.lag_spec().n_lags
    assert kernel.kernel.shape == (L, 3, 4)
    assert np.max(np.abs(kernel.kernel)) <= 1.0
    assert kernel.lag_spec.lag_samples[0] == -10
    assert kernel.lag_spec.lag_samples[-1] == 40


def test_words_are_sorted_and_in_range():
    spec = _spec(duration_s=120.0)
    words = gen_words(spec)
    onsets = words.onsets()
    assert np.all(np.diff(onsets) >= 0)
    assert onsets[0] >= 0.0
    assert onsets[-1] < spec.duration_s
    # a 2 Hz renewal process over 120 s lands near 240 events
    assert 140 <= len(words) <= 360
    assert words.dim == 4
    assert words.events[0].token == "w0000"


def test_response_matches_design_matrix_route():
    # the generator scatters kernel slices at event samples; the modelling
    # path builds a lagged design from aligned impulses. Both must agree.
    spec = _spec(duration_s=30.0, snr=float("inf"))
    words, eeg, kernel = _dataset(spec)
    impulses = impulse_align(words, spec.fs_hz, spec.n_samples)
    design = build_lagged_matrix(impulses, kernel.lag_spec)
    clean = design.data @ flatten_trf(kernel)
    assert np.max(np.abs(clean.T - eeg.data)) <= 1e-10


def test_noiseless_recovery_identifies_kernel():
    # one window spanning the whole recording: windowing would cut the
    # lag structure at segment edges and blur an otherwise exact problem
    spec = _spec(duration_s=120.0, snr=float("inf"), seed=3)
    words, eeg, kernel = _dataset(spec)
    impulses = impulse_align(words, spec.fs_hz, spec.n_samples)
    segs = segment(impulses, eeg, window_s=spec.duration_s, overlap_frac=0.0)
    assert len(segs) == 1
    model = fit_trf(segs, kernel.lag_spec, lam=1e-8)
    assert np.max(np.abs(model.kernel - kernel.kernel)) <= 1e-3


def test_snr_controls_noise_power():
    spec = _spec(duration_s=90.0, snr=5.0, seed=11)
    words, noisy, kernel = _dataset(spec)
    clean = gen_response(kernel, words, replace(spec, snr=float("inf"))).data
    noise = noisy.data - clean
    for e in range(spec.n_channels):
        ratio = clean[e].std() / noise[e].std()
        assert ratio == pytest.approx(5.0, rel=0.05)


def test_zero_kernel_yields_unit_noise():
    spec = _spec(duration_s=30.0, seed=2)
    words = gen_words(spec)
    kernel = gen_kernel(spec)
    kernel.kernel[:] = 0.0
    eeg = gen_response(kernel, words, spec)
    # silent clean signal falls back to unit noise, not to all zeros
    for e in range(spec.n_channels):
        assert eeg.data[e].std() == pytest.approx(1.0, rel=0.1)


def test_infinite_snr_zero_kernel_is_silent():
    spec = _spec(duration_s=30.0, snr=float("inf"))
    words = gen_words(spec)
    kernel = gen_kernel(spec)
    kernel.kernel[:] = 0.0
    eeg = gen_response(kernel, words, spec)
    assert not eeg.data.any()


def test_subject_id_defaults_to_seed_tag():
    spec = _spec(seed=9, duration_s=30.0)
    words = gen_words(spec)
    eeg = gen_response(gen_kernel(spec), words, spec)
    assert eeg.subject_id == "synth-9"
    named = gen_response(gen_kernel(spec), words, spec, subject_id="sub00")
    assert named.subject_id == "sub00"


def test_channel_names_are_padded():
    spec = _spec(n_channels=12)
    names = spec.channel_names()
    assert names[0] == "C00"
    assert names[-1] == "C11"
    assert len(set(names)) == 12


def test_spec_validation():
    with pytest.raises(PreconditionError):
        _spec(snr=0.0)
    with pytest.raises(PreconditionError):
        _spec(tmin_s=0.5, tmax_s=0.1)
    with pytest.raises(PreconditionError):
        _spec(duration_s=2.0, word_rate_hz=1.0)  # too few expected events
    with pytest.raises(PreconditionError):
        _spec(n_channels=0)


def test_spec_refuses_more_expected_words_than_it_can_draw():
    # at 1e308 words/s every gap is below the ulp of the onset, which then never grows
    with pytest.raises(PreconditionError, match="duration_s=30.0 at word_rate_hz=1e"):
        _spec(duration_s=30.0, word_rate_hz=1e308)
    _spec(fs_hz=20.0, duration_s=120.0, word_rate_hz=60.0)  # many words per sample is fine


def test_response_rejects_foreign_kernel():
    spec = _spec()
    words = gen_words(spec)
    kernel = gen_kernel(replace(spec, n_features=6))
    with pytest.raises(PreconditionError):
        gen_response(kernel, words, spec)


def test_circle_layout_geometry():
    layout = circle_layout(["a", "b", "c", "d"])
    assert [e.name for e in layout.entries] == ["a", "b", "c", "d"]
    for e in layout.entries:
        assert e.x**2 + e.y**2 == pytest.approx(1.0, abs=1e-12)
    assert layout.entries[0].x == pytest.approx(1.0)
    assert layout.entries[0].y == pytest.approx(0.0)


def test_response_names_the_first_event_past_the_recording():
    spec = _spec()
    words = gen_words(replace(spec, duration_s=120.0))
    first_late = next(ev for ev in words.events if ev.onset_s * spec.fs_hz + 0.5 >= 6000)
    with pytest.raises(PreconditionError, match=f"event {first_late.token!r} at .* falls outside"):
        gen_response(gen_kernel(spec), words, spec)
