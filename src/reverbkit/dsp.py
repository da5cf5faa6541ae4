"""Spectral primitives: FFT, real-input FFT, STFT and its adjoint, log amplitude spectra.

Everything here is a pure function of its inputs and runs in double
precision.  The FFT is an in-house vectorized radix-2 implementation so
results are bit-for-bit reproducible across installations.  Real signals
go through `rfft`/`irfft`, which pack n real samples into one n/2-point
complex `fft` (Sorensen et al., IEEE TASSP 1987).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

AMPLITUDE_FLOOR = 1e-5


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass
class Waveform:
    """A mono sample sequence with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ValueError("waveform must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class StftConfig:
    fft_size: int
    frame_length: int
    frame_shift: int

    def __post_init__(self):
        if not _is_pow2(self.fft_size):
            raise ValueError("fft_size must be a power of two")
        if self.frame_length > self.fft_size:
            raise ValueError("frame_length must not exceed fft_size")
        if self.frame_shift < 1 or self.frame_shift > self.frame_length:
            raise ValueError("frame_shift must be in [1, frame_length]")

    @property
    def n_bins(self):
        return self.fft_size // 2 + 1

    def n_frames(self, n_samples):
        if n_samples < self.frame_length:
            raise ValueError("signal shorter than one frame")
        return (n_samples - self.frame_length) // self.frame_shift + 1


# Analysis defaults: full scale follows the 24 kHz configuration
# (2048-point FFT, 50 ms frames, 12 ms shift); the 8 kHz desk config
# keeps the same ratios so tests run in seconds.
FULL_STFT_24K = StftConfig(fft_size=2048, frame_length=1200, frame_shift=288)
DESK_STFT_8K = StftConfig(fft_size=512, frame_length=400, frame_shift=96)


def default_stft_config(sample_rate):
    """Analysis config for a sample rate: 24 kHz full-scale, else desk-scale."""
    if sample_rate == 24000:
        return FULL_STFT_24K
    return DESK_STFT_8K


@dataclass
class LasFrames:
    """Log amplitude spectra, one row per frame, fft_size/2+1 bins."""

    values: np.ndarray


# Rows are transformed in blocks of about this many points, so that the
# arrays one stage touches (256 KiB of complex128 each) stay in cache.
_FFT_BLOCK_POINTS = 1 << 14


@lru_cache(maxsize=64)
def _fft_twiddles(n, inverse):
    """Per-stage twiddles exp(-2*pi*i*k/size), size = 2, 4, ..., n (conjugated if inverse)."""
    twiddles = []
    size = 2
    while size <= n:
        tw = np.exp(-2j * np.pi * np.arange(size // 2) / size)
        twiddles.append(np.conj(tw) if inverse else tw)
        size *= 2
    return twiddles


def _fft_rows(rows, n, inverse):
    """Unscaled radix-2 transforms of the rows of a 2-D array, zero-padded to n.

    Decimation in time in Stockham order: before the stage that builds
    size-2s transforms, y[k, p, r] holds bin k of the size-s transform of
    row r's samples p, p + n/s, p + 2n/s, ...  Each stage combines
    residues p and p + n/2s with one butterfly over the whole array, so
    no bit reversal is needed and every operation runs along long
    contiguous runs.
    """
    m = rows.shape[0]
    y = np.zeros((1, n, m), dtype=np.complex128)
    y[0, : rows.shape[1]] = rows.T
    s = 1
    for tw in _fft_twiddles(n, inverse):
        q = n // (2 * s)
        even = y[:, :q]
        t = y[:, q:] * tw[:, None, None]
        y = np.empty((2 * s, q, m), dtype=np.complex128)
        np.add(even, t, out=y[:s])
        np.subtract(even, t, out=y[s:])
        s *= 2
    return y.reshape(n, m).T


def fft(x, n, inverse=False):
    """FFT of x along its last axis, zero-padded to length n (power of two).

    Forward uses exp(-2*pi*i*k*m/n); inverse applies the 1/n factor.
    """
    x = np.asarray(x)
    if not _is_pow2(n):
        raise ValueError("transform size must be a power of two")
    if x.shape[-1] > n:
        raise ValueError("transform size smaller than the input")
    lead = x.shape[:-1]
    rows = x.reshape(math.prod(lead), x.shape[-1])
    out = np.empty((rows.shape[0], n), dtype=np.complex128)
    block = max(1, _FFT_BLOCK_POINTS // n)
    for r in range(0, rows.shape[0], block):
        out[r : r + block] = _fft_rows(rows[r : r + block], n, inverse)
    out = out.reshape(lead + (n,))
    if inverse and n > 1:
        out /= n
    return out


@lru_cache(maxsize=64)
def _split_twiddles(n):
    """a_k = (1 - i w^k)/2 and b_k = (1 + i w^k)/2, w = exp(-2*pi*i/n), k < n/2.

    The split step of a real transform: X_k = a_k Z_k + b_k conj(Z_{n/2-k}),
    and its inverse Z_k = conj(a_k) X_k + conj(b_k) conj(X_{n/2-k}).
    """
    w = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    a, b = 0.5 - 0.5j * w, 0.5 + 0.5j * w
    return a, b, np.conj(a), np.conj(b)


def rfft(x, n):
    """Bins 0..n/2 of the FFT of real x along its last axis, zero-padded to n.

    Even and odd samples become the real and imaginary parts of one
    n/2-point complex `fft`; an O(n) split step separates their spectra.
    Rows go through in blocks, so each split step reads a transform
    that is still in cache.
    """
    x = np.asarray(x, dtype=np.float64)
    if not _is_pow2(n):
        raise ValueError("transform size must be a power of two")
    if x.shape[-1] > n:
        raise ValueError("transform size smaller than the input")
    if n == 1:
        return fft(x, 1)
    lead, h = x.shape[:-1], n // 2
    rows = x.reshape(math.prod(lead), x.shape[-1])
    if rows.shape[1] % 2:
        rows = np.concatenate([rows, np.zeros((rows.shape[0], 1))], axis=1)
    z = np.ascontiguousarray(rows).view(np.complex128)
    a, b, _, _ = _split_twiddles(n)
    out = np.empty((z.shape[0], h + 1), dtype=np.complex128)
    block = max(1, _FFT_BLOCK_POINTS // h)
    for r in range(0, z.shape[0], block):
        Z = fft(z[r : r + block], h)
        o = out[r : r + block]
        zr = np.empty_like(Z)  # conj(Z_{(h-k) mod h})
        np.conjugate(Z[:, :1], out=zr[:, :1])
        np.conjugate(Z[:, :0:-1], out=zr[:, 1:])
        np.multiply(Z, a, out=o[:, :h])
        zr *= b
        o[:, :h] += zr
        o[:, h] = Z[:, 0].real - Z[:, 0].imag
    return out.reshape(lead + (h + 1,))


def irfft(X, n):
    """The n real samples whose rfft is X, bins 0..n/2 on the last axis.

    The imaginary parts of bins 0 and n/2 are ignored, as a real signal
    has none.
    """
    X = np.asarray(X, dtype=np.complex128)
    if not _is_pow2(n):
        raise ValueError("transform size must be a power of two")
    if X.shape[-1] != n // 2 + 1:
        raise ValueError("need n/2 + 1 bins")
    if n == 1:
        return X.real.copy()
    lead, h = X.shape[:-1], n // 2
    rows = X.reshape(math.prod(lead), h + 1)
    _, _, ca, cb = _split_twiddles(n)
    out = np.empty((rows.shape[0], n))
    block = max(1, _FFT_BLOCK_POINTS // h)
    for r in range(0, rows.shape[0], block):
        Xb = rows[r : r + block]
        z = np.multiply(Xb[:, :h], ca)
        xr = np.conjugate(Xb[:, h:0:-1])  # conj(X_{h-k})
        xr *= cb
        z += xr
        dc, nyq = Xb[:, 0].real, Xb[:, h].real  # k = 0 from real parts only
        z[:, 0] = 0.5 * (dc + nyq) + 0.5j * (dc - nyq)
        out[r : r + block] = fft(z, h, inverse=True).view(np.float64)
    return out.reshape(lead + (n,))


def _window(cfg):
    n = np.arange(cfg.frame_length)
    return 0.5 - 0.5 * np.cos(2 * np.pi * n / cfg.frame_length)


def frame_signal(samples, cfg):
    """Overlapping frames [n_frames, frame_length]: a read-only strided view."""
    cfg.n_frames(len(samples))  # raises on a signal shorter than one frame
    return sliding_window_view(samples, cfg.frame_length)[::cfg.frame_shift]


def stft(samples, cfg):
    """Hann-windowed, zero-padded real FFT per frame of a sample array.

    Returns [n_frames, n_bins] complex: bins 0..fft_size/2 of each frame.
    """
    frames = frame_signal(samples, cfg) * _window(cfg)
    return rfft(frames, cfg.fft_size)


def stft_adjoint(gspec, cfg, n_samples):
    """The adjoint of `stft`: a complex spectrum gradient back to the samples.

    gspec holds dL/dRe + i*dL/dIm for bins 0..fft_size/2 of each frame.
    For a real input frame x, dL/dx = N * Re(ifft(g_full)) with g_full
    zero above n/2; that is N * irfft of gspec with its interior bins
    halved (their Hermitian mirrors carry the other half) and only the
    real parts of bins 0 and n/2, which irfft keeps.
    """
    half = gspec * (cfg.fft_size / 2)
    half[:, 0] *= 2
    half[:, -1] *= 2
    gframes = irfft(half, cfg.fft_size)[:, : cfg.frame_length] * _window(cfg)
    return _overlap_add(gframes, cfg.frame_shift, n_samples)


def _overlap_add(frames, shift, n_samples):
    """Sum frames [n_frames, frame_length] placed every shift samples.

    Works in blocks of shift samples: block b gets piece j of frame
    b - j, added in increasing frame order as a per-frame loop would
    (the zero padding up to a whole number of blocks adds nothing).
    """
    n_frames, length = frames.shape
    k = -(-length // shift)
    pieces = np.zeros((n_frames, k * shift))
    pieces[:, :length] = frames
    pieces = pieces.reshape(n_frames, k, shift)
    blocks = np.zeros((n_frames + k - 1, shift))
    for j in reversed(range(k)):
        blocks[j : j + n_frames] += pieces[:, j]
    out = np.zeros(n_samples)
    m = min(n_samples, blocks.size)
    out[:m] = blocks.reshape(-1)[:m]
    return out


def log_amplitude(spec):
    """Floored natural-log magnitudes of a spectrum."""
    return LasFrames(np.log(np.maximum(np.abs(spec), AMPLITUDE_FLOOR)))


def las(w):
    """Log amplitude spectra of a waveform under its sample rate's analysis config."""
    cfg = default_stft_config(w.sample_rate)
    return log_amplitude(stft(w.samples, cfg))
