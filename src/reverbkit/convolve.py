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


def _as_rows(d, h):
    """d [..., T] and h [..., L] as arrays, h broadcast to d's leading axes."""
    dd, hh = _as_array(d), _as_array(h)
    return dd, np.broadcast_to(hh, dd.shape[:-1] + hh.shape[-1:])


def convolve_direct(d, h):
    """Time-domain linear convolution truncated to the dry length."""
    dd = _as_array(d)
    hh = _as_array(h)
    return np.convolve(dd, hh)[: len(dd)]


def linear_conv_fft(a, b):
    """Full linear convolution of the rows of a and b via zero-padded FFT."""
    m = a.shape[-1] + b.shape[-1] - 1
    n = _next_pow2(m)
    return irfft(rfft(a, n) * rfft(b, n), n)[..., :m]


def convolve_fft(d, h):
    """Frequency-domain convolve_direct along the last axis.

    d is [..., T]; h is one RIR [L] or one per row [..., L].  A row whose
    RIR is a pure direct path is scaled, not transformed, so its output
    stays sample-exact.  A Waveform input gives a Waveform output.
    """
    dd, hh = _as_rows(d, h)
    T = dd.shape[-1]
    rd, rh = dd.reshape(-1, T), hh.reshape(-1, hh.shape[-1])
    out = rh[:, :1] * rd
    fir = np.any(rh[:, 1:], axis=1)
    if fir.any():
        out[fir] = linear_conv_fft(rd[fir], rh[fir])[:, :T]
    out = out.reshape(dd.shape)
    if isinstance(d, Waveform):
        return Waveform(out, d.sample_rate)
    return out


def convolve_grad(d, h, grad_r, wrt_dry=True):
    """Gradients of the truncated convolution w.r.t. both inputs, per row.

    With r_t = sum_k h_k d_{t-k} (0-based, output truncated to T):
      grad_rir_k = sum_t grad_r_t d_{t-k}
      grad_dry_s = sum_t grad_r_t h_{t-s}
    Both are cross-correlations, taken here as circular correlations
    irfft(G * conj(D)) and irfft(G * conj(H)) at the forward pass's size
    n = next_pow2(T + L - 1), where lags that wrap around land on zero
    padding.  RIR taps k >= T see no signal and get exactly 0.  d and
    grad_r are [..., T]; h is [L] or [..., L], and grad_rir is [..., L]
    either way.  With wrt_dry=False the dry gradient is skipped (grad_dry
    is None) for callers whose dry input is fixed.
    """
    dd, hh = _as_rows(d, h)
    g = np.asarray(grad_r, dtype=np.float64)
    T, L = dd.shape[-1], hh.shape[-1]
    if g.shape != dd.shape:
        raise ValueError("grad_r shape must match the dry shape")
    n = _next_pow2(T + L - 1)
    G = rfft(g, n)
    # np.multiply, not `*`: on a large temporary right operand `*` works in
    # place with the operands swapped, which changes the product's last bit,
    # so a row's gradient would depend on how many rows came with it.
    grad_rir = irfft(np.multiply(G, np.conj(rfft(dd, n))), n)[..., :L].copy()
    grad_rir[..., T:] = 0.0  # rounding residue, not gradient
    grad_dry = None
    if wrt_dry:
        grad_dry = irfft(np.multiply(G, np.conj(rfft(hh, n))), n)[..., :T].copy()
    return ConvGrad(grad_dry=grad_dry, grad_rir=grad_rir)
