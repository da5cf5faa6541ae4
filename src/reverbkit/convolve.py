"""Reverberant convolution and its gradient (adjoint) operators.

The forward path realizes r = d * h as a frequency-domain product with
enough zero padding that the product is *linear* convolution, then
truncates to the dry length T.  The gradients account for that
truncation exactly, which is what lets the RIR be trained jointly with
whatever produced the dry waveform.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, irfft, rfft


@dataclass
class ConvGrad:
    grad_dry: np.ndarray
    grad_rir: np.ndarray


def _next_pow2(n):
    return 1 << (n - 1).bit_length()


def _as_array(x):
    a = x.samples if isinstance(x, Waveform) else np.asarray(x, dtype=np.float64)
    if a.size < 1:
        raise ValueError("empty input")
    return a


def convolve_direct(d, h):
    """Time-domain linear convolution truncated to the dry length."""
    dd = _as_array(d)
    hh = _as_array(h)
    return np.convolve(dd, hh)[: len(dd)]


def linear_conv_fft(a, b):
    """Full linear convolution of two 1-D arrays via zero-padded FFT."""
    n = _next_pow2(len(a) + len(b) - 1)
    return irfft(rfft(a, n) * rfft(b, n), n)[: len(a) + len(b) - 1]


def convolve_fft(d, h):
    """Frequency-domain convolve_direct; a Waveform input gives a Waveform output."""
    dd = _as_array(d)
    hh = _as_array(h)
    if not np.any(hh[1:]):  # pure direct path: keep the output sample-exact
        out = hh[0] * dd
    else:
        out = linear_conv_fft(dd, hh)[: len(dd)]
    if isinstance(d, Waveform):
        return Waveform(out, d.sample_rate)
    return out


def convolve_grad(d, h, grad_r, wrt_dry=True):
    """Gradients of the truncated convolution w.r.t. both inputs.

    With r_t = sum_k h_k d_{t-k} (0-based, output truncated to T):
      grad_rir_k = sum_t grad_r_t d_{t-k}
      grad_dry_s = sum_t grad_r_t h_{t-s}
    Both are cross-correlations, taken here as circular correlations
    irfft(G * conj(D)) and irfft(G * conj(H)) at the forward pass's size
    n = next_pow2(T + L - 1), where lags that wrap around land on zero
    padding.  RIR taps k >= T see no signal and get exactly 0.  With
    wrt_dry=False the dry gradient is skipped (grad_dry is None) for
    callers whose dry input is fixed.
    """
    dd = _as_array(d)
    hh = _as_array(h)
    g = np.asarray(grad_r, dtype=np.float64)
    T, L = len(dd), len(hh)
    if len(g) != T:
        raise ValueError("grad_r length must match the dry length")
    n = _next_pow2(T + L - 1)
    G = rfft(g, n)
    grad_rir = irfft(G * np.conj(rfft(dd, n)), n)[:L].copy()
    grad_rir[T:] = 0.0  # rounding residue, not gradient
    grad_dry = None
    if wrt_dry:
        grad_dry = irfft(G * np.conj(rfft(hh, n)), n)[:T].copy()
    return ConvGrad(grad_dry=grad_dry, grad_rir=grad_rir)
