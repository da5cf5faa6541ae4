import numpy as np
import pytest

from reverbkit.convolve import convolve_grad
from reverbkit.vocoder import (F0Track, ToyVocoderParams, sine_source,
                               vocoder_backward, vocoder_forward)


def flat_track(f0=100.0, frames=10, frame_shift=80, fs=8000, voiced=True):
    return F0Track(np.full(frames, f0), np.full(frames, voiced, dtype=bool),
                   frame_shift, fs)


def test_track_validation():
    with pytest.raises(ValueError):
        F0Track([100.0, 0.0], [True, True], 80, 8000)
    with pytest.raises(ValueError):
        F0Track([100.0], [True, False], 80, 8000)
    # unvoiced frames may carry zero f0
    F0Track([0.0], [False], 80, 8000)


def test_vocoder_params_unit_tap():
    p = ToyVocoderParams(np.array([0.5, 0.2]))
    assert np.array_equal(p.fir, [1.0, 0.5, 0.2])
    p = ToyVocoderParams.identity(8)
    assert p.tail.shape == (7,)
    assert p.fir[0] == 1.0 and np.all(p.fir[1:] == 0)
    assert ToyVocoderParams.identity(1).fir.shape == (1,)
    with pytest.raises(ValueError):
        ToyVocoderParams.identity(0)


def test_sine_source_deterministic():
    t = flat_track()
    a = sine_source(t, 4, 0.3, seed=0)
    b = sine_source(t, 4, 0.3, seed=0)
    assert np.array_equal(a.samples, b.samples)


def test_sine_source_pure_tone_single_harmonic():
    # constant 100 Hz, one harmonic: exactly amp*sin(2 pi f n / fs)
    t = flat_track(f0=100.0, frames=5, frame_shift=80, fs=8000)
    w = sine_source(t, 1, 0.5, seed=0)
    n = np.arange(400)
    expected = 0.5 * np.sin(2 * np.pi * 100.0 * n / 8000.0)
    assert np.allclose(w.samples, expected, atol=1e-9)


def test_sine_source_harmonic_rolloff():
    # k-th harmonic enters at amplitude amp/k
    t = flat_track(f0=100.0, frames=5, frame_shift=80, fs=8000)
    w = sine_source(t, 2, 0.5, seed=0)
    n = np.arange(400)
    expected = 0.5 * (np.sin(2 * np.pi * 100.0 * n / 8000.0)
                      + 0.5 * np.sin(2 * np.pi * 200.0 * n / 8000.0))
    assert np.allclose(w.samples, expected, atol=1e-9)


def test_sine_source_nyquist_harmonics_dropped():
    # f0 3000 Hz at fs 8000: only the fundamental is below Nyquist
    t = flat_track(f0=3000.0, frames=5, frame_shift=80, fs=8000)
    one = sine_source(t, 1, 0.4, seed=0)
    many = sine_source(t, 8, 0.4, seed=0)
    assert np.allclose(one.samples, many.samples)


def test_sine_source_phase_continuity():
    # an F0 step must not cause a sample-scale jump (phase accumulates)
    t = F0Track(np.array([100.0, 200.0]), np.array([True, True]), 200, 8000)
    w = sine_source(t, 1, 1.0, seed=0)
    assert np.max(np.abs(np.diff(w.samples))) < 2 * np.pi * 200.0 / 8000.0 + 1e-6


def test_sine_source_unvoiced_noise_level():
    t = flat_track(frames=200, voiced=False)
    w = sine_source(t, 4, 0.3, seed=3)
    assert abs(np.std(w.samples) - 0.1) < 0.005
    assert abs(np.mean(w.samples)) < 0.005


def test_sine_source_voiced_unvoiced_boundary():
    vuv = np.array([True] * 5 + [False] * 5)
    t = F0Track(np.full(10, 100.0), vuv, 80, 8000)
    w = sine_source(t, 1, 0.5, seed=1)
    n = np.arange(400)
    expected_voiced = 0.5 * np.sin(2 * np.pi * 100.0 * n / 8000.0)
    assert np.allclose(w.samples[:400], expected_voiced)


def test_sine_source_bad_harmonics():
    with pytest.raises(ValueError):
        sine_source(flat_track(), 0, 0.3, seed=0)


def test_vocoder_identity_filter():
    t = flat_track()
    src = sine_source(t, 4, 0.3, seed=0)
    out, _ = vocoder_forward(ToyVocoderParams.identity(16), src)
    assert np.array_equal(out.samples, src.samples)
    assert out.sample_rate == src.sample_rate


def test_vocoder_output_length():
    src = sine_source(flat_track(), 4, 0.3, seed=0)
    p = ToyVocoderParams(np.array([0.4, -0.2]))
    out, _ = vocoder_forward(p, src)
    assert len(out.samples) == len(src.samples)


def test_vocoder_two_tap_hand_case():
    src = np.array([1.0, 2.0, 3.0])
    from reverbkit.dsp import Waveform
    out, _ = vocoder_forward(ToyVocoderParams(np.array([0.5])),
                             Waveform(src, 8000))
    assert np.allclose(out.samples, [1.0, 2.5, 4.0])


def test_vocoder_backward_masks_unit_tap():
    # the gradient covers the tail only: the unit tap is not a parameter
    src = sine_source(flat_track(frames=4), 2, 0.3, seed=0)
    p = ToyVocoderParams(np.array([0.3, -0.1, 0.05]))
    out, cache = vocoder_forward(p, src)
    g = np.ones(len(out.samples))
    gtail = vocoder_backward(p, cache, g)
    assert gtail.shape == p.tail.shape
    assert np.array_equal(gtail, convolve_grad(src, p.fir, g).grad_rir[1:])


def test_vocoder_backward_finite_differences():
    rng = np.random.default_rng(0)
    from reverbkit.dsp import Waveform
    src = Waveform(rng.standard_normal(64), 8000)
    tail = 0.1 * rng.standard_normal(7)
    p = ToyVocoderParams(tail.copy())
    ref = rng.standard_normal(64)

    def loss_of(tailv):
        out, _ = vocoder_forward(ToyVocoderParams(tailv), src)
        d = out.samples - ref
        return 0.5 * float(d @ d)

    out, cache = vocoder_forward(p, src)
    gtail = vocoder_backward(p, cache, out.samples - ref)
    eps = 1e-6
    for k in range(7):
        tp = tail.copy(); tp[k] += eps
        tm = tail.copy(); tm[k] -= eps
        num = (loss_of(tp) - loss_of(tm)) / (2 * eps)
        assert abs(num - gtail[k]) <= 1e-6 * max(abs(num), 1.0)

