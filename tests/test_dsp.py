import numpy as np
import pytest

from reverbkit.dsp import (AMPLITUDE_FLOOR, StftConfig, Waveform, _window, fft,
                           frame_signal, irfft, log_amplitude, rfft, stft)


def test_fft_delta_is_constant():
    X = fft([1, 0, 0, 0], 4)
    assert np.allclose(X, np.ones(4))


def test_fft_constant_is_dc():
    X = fft([1, 1, 1, 1], 4)
    assert np.allclose(X, [4, 0, 0, 0])


def test_fft_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    X = fft(x, 64)
    back = fft(X, 64, inverse=True)
    assert np.max(np.abs(back.real - x)) <= 1e-9
    assert abs(np.sum(x**2) - np.sum(np.abs(X) ** 2) / 64) <= 1e-9 * np.sum(x**2)


@pytest.mark.parametrize("n", [1, 2, 8, 256, 4096, 65536])
def test_fft_roundtrip_many_sizes(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    back = fft(fft(x, n), n, inverse=True)
    assert np.max(np.abs(back.real - x)) <= 1e-9


def test_fft_hermitian_symmetry():
    rng = np.random.default_rng(1)
    X = fft(rng.standard_normal(32), 32)
    assert np.allclose(X[1:], np.conj(X[1:][::-1]))


def test_fft_rejects_bad_sizes():
    with pytest.raises(ValueError):
        fft([1, 2, 3], 6)
    with pytest.raises(ValueError):
        fft([1, 2, 3, 4, 5], 4)


def test_fft_zero_pads():
    X = fft([1.0], 8)
    assert np.allclose(X, np.ones(8))


def test_fft_batched_rows_match_dft_and_single_rows():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
    padded = np.concatenate([x, np.zeros((2, 3, 3))], axis=-1)
    k = np.arange(8)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / 8)
    X = fft(x, 8)
    assert X.shape == (2, 3, 8)
    assert np.max(np.abs(X - padded @ dft.T)) <= 1e-12
    assert np.max(np.abs(fft(X, 8, inverse=True) - padded)) <= 1e-12
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(fft(x[i, j], 8), X[i, j])


def _bit_reversed_fft(x, n, inverse=False):
    """Reference: in-place radix-2 decimation in time after a bit reversal."""
    a = np.zeros(x.shape[:-1] + (n,), dtype=np.complex128)
    a[..., : x.shape[-1]] = x
    rev = np.zeros(n, dtype=np.intp)
    for b in range(n.bit_length() - 1):
        rev = (rev << 1) | ((np.arange(n) >> b) & 1)
    a = a[..., rev]
    size = 2
    while size <= n:
        tw = np.exp(-2j * np.pi * np.arange(size // 2) / size)
        blocks = a.reshape(a.shape[:-1] + (n // size, size))
        t = blocks[..., size // 2 :] * (np.conj(tw) if inverse else tw)
        even = blocks[..., : size // 2]
        lower = even + t
        blocks[..., size // 2 :] = even - t
        blocks[..., : size // 2] = lower
        size *= 2
    return a / n if inverse and n > 1 else a


@pytest.mark.parametrize("shape,n", [((5,), 1), ((1,), 2), ((400, 80), 128),
                                     ((3, 97, 640), 1024), ((16000,), 32768)])
def test_fft_bit_identical_to_bit_reversed_form(shape, n):
    # same butterflies in a different memory order: results match exactly
    rng = np.random.default_rng(n)
    x = rng.standard_normal(shape)[..., :n]
    for inverse in (False, True):
        assert np.array_equal(fft(x, n, inverse), _bit_reversed_fft(x, n, inverse))
    z = x + 1j * rng.standard_normal(x.shape)
    assert np.array_equal(fft(z, n, True), _bit_reversed_fft(z, n, True))


@pytest.mark.parametrize("n", [2**p for p in range(16)])
def test_rfft_matches_complex_fft_and_inverts(n):
    # input lengths 1, odd and n, under leading axes [2, 3, m]
    rng = np.random.default_rng(n)
    for m in sorted({1, max(1, n - 1), n}):
        x = rng.standard_normal((2, 3, m))
        X = rfft(x, n)
        want = fft(x, n)[..., : n // 2 + 1]
        assert X.shape == (2, 3, n // 2 + 1)
        assert np.max(np.abs(X - want)) <= 1e-12 * np.max(np.abs(want))
        padded = np.zeros((2, 3, n))
        padded[..., :m] = x
        back = irfft(X, n)
        assert back.shape == (2, 3, n) and back.dtype == np.float64
        assert np.max(np.abs(back - padded)) <= 1e-12 * np.max(np.abs(padded))


@pytest.mark.parametrize("n", [1, 2, 8, 512])
def test_irfft_ignores_imaginary_dc_and_nyquist(n):
    X = rfft(np.random.default_rng(n).standard_normal(n), n)
    Y = X.copy()
    Y[0] += 5j
    Y[-1] -= 3j
    assert np.array_equal(irfft(Y, n), irfft(X, n))


def test_real_transforms_reject_bad_sizes():
    with pytest.raises(ValueError):
        rfft([1.0, 2.0, 3.0], 6)
    with pytest.raises(ValueError):
        rfft([1.0, 2.0, 3.0, 4.0, 5.0], 4)
    with pytest.raises(ValueError):
        irfft(np.zeros(5, dtype=complex), 6)
    with pytest.raises(ValueError):
        irfft(np.zeros(4, dtype=complex), 8)  # 8 points need 5 bins
    with pytest.raises(ValueError):
        irfft(np.zeros(2, dtype=complex), 1)


def test_stft_is_half_of_complex_fft_of_windowed_frames():
    cfg = StftConfig(fft_size=512, frame_length=400, frame_shift=96)
    x = np.random.default_rng(4).standard_normal(1000)
    spec = stft(x, cfg)
    want = fft(frame_signal(x, cfg) * _window(cfg), cfg.fft_size)[:, : cfg.n_bins]
    assert spec.shape == (cfg.n_frames(1000), cfg.n_bins)
    assert np.max(np.abs(spec - want)) <= 1e-12 * np.max(np.abs(want))


def test_stft_frame_count():
    cfg = StftConfig(fft_size=2048, frame_length=1200, frame_shift=288)
    assert stft(np.zeros(1200), cfg).shape[0] == 1
    assert stft(np.zeros(1200 + 288 * 3 + 5), cfg).shape[0] == 4


@pytest.mark.parametrize("n,length,shift", [(500, 100, 30), (1000, 256, 64),
                                            (4097, 512, 128)])
def test_frame_count_formula(n, length, shift):
    cfg = StftConfig(fft_size=512, frame_length=length, frame_shift=shift)
    assert stft(np.zeros(n), cfg).shape[0] == (n - length) // shift + 1


@pytest.mark.parametrize("n,length,shift", [(400, 400, 96), (1000, 400, 96),
                                            (4097, 512, 128), (7, 3, 1)])
def test_frame_signal_frames_are_exact_slices(n, length, shift):
    x = np.random.default_rng(n).standard_normal(n)
    cfg = StftConfig(fft_size=512, frame_length=length, frame_shift=shift)
    frames = frame_signal(x, cfg)
    assert frames.shape == (cfg.n_frames(n), length)
    for i, frame in enumerate(frames):
        assert np.array_equal(frame, x[i * shift : i * shift + length])


def test_stft_zero_signal():
    cfg = StftConfig(fft_size=256, frame_length=200, frame_shift=50)
    spec = stft(np.zeros(1000), cfg)
    assert np.all(spec == 0)


def test_stft_too_short_raises():
    cfg = StftConfig(fft_size=256, frame_length=200, frame_shift=50)
    with pytest.raises(ValueError):
        stft(np.zeros(100), cfg)


def test_stft_sine_peak_at_bin():
    # bin-centered sine under the periodic Hann window: the main lobe covers
    # bins k-1..k+1 (neighbours at half the peak); every other bin is far down
    cfg = StftConfig(fft_size=256, frame_length=256, frame_shift=64)
    k = 20
    t = np.arange(256)
    mag = np.abs(stft(np.sin(2 * np.pi * k * t / 256), cfg)[0, : cfg.n_bins])
    peak = mag[k]
    assert np.allclose(mag[[k - 1, k + 1]], peak / 2)
    others = np.delete(mag, [k - 1, k, k + 1])
    assert peak / max(others.max(), 1e-30) >= 10 ** (40 / 20)


def test_log_amplitude_floor_and_values():
    # half spectra in: 5 bins for an 8-point FFT
    zeros = np.zeros((3, 5), dtype=complex)
    las = log_amplitude(zeros)
    assert np.allclose(las.values, np.log(1e-5))
    assert las.values.shape == (3, 5)
    ones = np.ones((2, 5), dtype=complex)
    assert np.allclose(log_amplitude(ones).values, 0.0)
    assert np.allclose(log_amplitude(np.e * ones).values, 1.0)


def test_log_amplitude_monotone():
    lo = log_amplitude(np.full((1, 5), 0.5 + 0j)).values
    hi = log_amplitude(np.full((1, 5), 2.0 + 0j)).values
    assert np.all(hi > lo)
    assert np.all(lo >= np.log(AMPLITUDE_FLOOR))


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([1.0, np.inf]), 8000)
    with pytest.raises(ValueError):
        Waveform(np.array([]), 8000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(fft_size=100, frame_length=50, frame_shift=10)
    with pytest.raises(ValueError):
        StftConfig(fft_size=64, frame_length=128, frame_shift=10)
    with pytest.raises(ValueError):
        StftConfig(fft_size=64, frame_length=32, frame_shift=64)
