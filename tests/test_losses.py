import numpy as np
import pytest

from reverbkit.checks import check_mrsd, check_secondary
from reverbkit.dsp import StftConfig, _window, fft
from reverbkit.losses import (DESK_MRSD, MrsdConfig, _grad_through_stft,
                              _overlap_add, _pearson_loss, _spectral_mse,
                              mrsd_loss, secondary_dry_loss, waveform_mse_loss)

TINY = MrsdConfig((
    StftConfig(fft_size=64, frame_length=48, frame_shift=16),
    StftConfig(fft_size=32, frame_length=24, frame_shift=8),
))


def test_mrsd_identical_signals_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    loss, grad = mrsd_loss(x, x, TINY)
    assert loss == 0.0
    assert np.all(grad == 0)


def test_mrsd_positive_for_different_signals():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    loss, _ = mrsd_loss(x, y, TINY)
    assert loss > 0


def test_mrsd_symmetric_in_value():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    a, _ = mrsd_loss(x, y, TINY)
    b, _ = mrsd_loss(y, x, TINY)
    assert abs(a - b) <= 1e-12


def test_mrsd_scale_offset():
    # log magnitudes: gen = 2*ref adds (log 2)^2 per bin where unfloored
    rng = np.random.default_rng(3)
    x = 0.5 + 0.2 * rng.standard_normal(512)  # keeps magnitudes well above floor
    loss, _ = mrsd_loss(2.0 * x, x, TINY)
    assert abs(loss - len(TINY.resolutions) * np.log(2.0) ** 2) <= 1e-2


def test_mrsd_is_sum_over_resolutions():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    total, _ = mrsd_loss(x, y, TINY)
    parts = sum(mrsd_loss(x, y, MrsdConfig((r,)))[0] for r in TINY.resolutions)
    assert abs(total - parts) <= 1e-12


def test_mrsd_length_mismatch():
    with pytest.raises(ValueError):
        mrsd_loss(np.zeros(100), np.zeros(101), TINY)


def test_mrsd_gradient_check():
    rep = check_mrsd()
    assert rep["passed"], rep


def test_mrsd_floor_gives_zero_gradient():
    # silent generated signal: every generated magnitude is floored
    ref = np.random.default_rng(5).standard_normal(256)
    loss, grad = mrsd_loss(np.zeros(256), ref, TINY)
    assert loss > 0
    assert np.all(grad == 0)


def test_stft_gradient_overlap_add_matches_frame_loop():
    # 400-sample frames are not a whole number of 96-sample shifts, and
    # the last frame ends 24 samples before the signal does
    cfg = StftConfig(fft_size=512, frame_length=400, frame_shift=96)
    n_samples = 1000
    n_frames = cfg.n_frames(n_samples)
    gframes = np.random.default_rng(11).standard_normal((n_frames, cfg.frame_length))
    want = np.zeros(n_samples)
    for t in range(n_frames):
        s = t * cfg.frame_shift
        want[s : s + cfg.frame_length] += gframes[t]
    assert np.array_equal(_overlap_add(gframes, cfg.frame_shift, n_samples), want)


def test_stft_gradient_frames_match_full_complex_inverse():
    # the half-spectrum irfft path equals N * Re(ifft) of the spectrum
    # zero-padded above n/2, imaginary parts of bins 0 and n/2 included
    cfg = StftConfig(fft_size=512, frame_length=400, frame_shift=96)
    n_frames = 7
    rng = np.random.default_rng(11)
    gspec = (rng.standard_normal((n_frames, cfg.n_bins))
             + 1j * rng.standard_normal((n_frames, cfg.n_bins)))
    g_full = np.zeros((n_frames, cfg.fft_size), dtype=np.complex128)
    g_full[:, : cfg.n_bins] = gspec
    gframes = cfg.fft_size * np.real(fft(g_full, cfg.fft_size, inverse=True))
    gframes = gframes[:, : cfg.frame_length] * _window(cfg)
    for t in range(n_frames):  # one frame alone: the overlap-add is the frame
        got = _grad_through_stft(gspec[t : t + 1], cfg, cfg.frame_length)
        assert np.max(np.abs(got - gframes[t])) <= 1e-12 * np.max(np.abs(gframes[t]))


def test_mrsd_default_config_is_desk():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    assert mrsd_loss(x, y)[0] == mrsd_loss(x, y, DESK_MRSD)[0]


def test_waveform_mse_hand_case():
    loss, grad = waveform_mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert abs(loss - 2.5) <= 1e-12
    assert np.allclose(grad, [1.0, 2.0])


def test_waveform_mse_zero():
    x = np.random.default_rng(8).standard_normal(64)
    loss, grad = waveform_mse_loss(x, x)
    assert loss == 0.0 and np.all(grad == 0)


def test_secondary_zero_at_identity():
    cfg = StftConfig(fft_size=64, frame_length=48, frame_shift=16)
    x = np.random.default_rng(9).standard_normal(256)
    # the correlation epsilon guard leaves a ~1e-11 residual at identity
    loss, grad = secondary_dry_loss(x, x, las_cfg=cfg)
    assert abs(loss) <= 1e-9
    assert np.max(np.abs(grad)) <= 1e-9


def test_secondary_correlation_term():
    # anti-correlated signals: correlation loss alone contributes ~2
    cfg = StftConfig(fft_size=64, frame_length=48, frame_shift=16)
    x = np.sin(np.linspace(0, 20, 256))
    la, _ = _pearson_loss(x, -x)
    assert abs(la - 2.0) <= 1e-6
    # the secondary loss is the unit-weight sum of its three terms
    full, _ = secondary_dry_loss(x, -x, las_cfg=cfg)
    assert full == _spectral_mse(x, -x, cfg)[0] + waveform_mse_loss(x, -x)[0] + la


def test_secondary_gradient_check():
    rep = check_secondary()
    assert rep["passed"], rep


def test_secondary_constant_signal_guarded():
    # zero-variance generated signal must not divide by zero
    cfg = StftConfig(fft_size=64, frame_length=48, frame_shift=16)
    r = np.random.default_rng(11).standard_normal(256)
    loss, grad = secondary_dry_loss(np.zeros(256), r, las_cfg=cfg)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_secondary_length_mismatch():
    with pytest.raises(ValueError):
        secondary_dry_loss(np.zeros(10), np.zeros(11), las_cfg=TINY.resolutions[0])


def test_mrsd_grad_descent_direction():
    # a small step along -grad must not increase the loss
    rng = np.random.default_rng(12)
    x = rng.standard_normal(256)
    y = rng.standard_normal(256)
    loss, grad = mrsd_loss(x, y, TINY)
    stepped, _ = mrsd_loss(x - 1e-4 * grad, y, TINY)
    assert stepped <= loss
