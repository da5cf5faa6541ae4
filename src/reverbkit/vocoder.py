"""Minimal trainable waveform generator: sine-based source + FIR filter.

Stands in for a full neural vocoder so that joint and multi-task
training of the reverberation module have a trainable dry branch.  The
FIR's first tap is fixed to 1 and, like the RIR's direct path, is not a
parameter: only the taps after it (the tail) are stored and trained.
"""

from dataclasses import dataclass

import numpy as np

from .convolve import convolve_fft, convolve_grad
from .dsp import Waveform
from .rir import assemble


@dataclass
class F0Track:
    """Frame-level F0 and voicing, plus the frame grid they live on."""

    f0: np.ndarray  # Hz per frame
    vuv: np.ndarray  # bool per frame
    frame_shift: int  # samples
    sample_rate: int

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64)
        self.vuv = np.asarray(self.vuv, dtype=bool)
        if self.f0.shape != self.vuv.shape:
            raise ValueError("f0 and vuv must have equal lengths")
        if np.any(self.vuv & (self.f0 <= 0)):
            raise ValueError("voiced frames must have positive f0")


@dataclass
class ToyVocoderParams:
    """FIR taps after the fixed unit tap; fir is [1, tail...]."""

    tail: np.ndarray

    def __post_init__(self):
        self.tail = np.asarray(self.tail, dtype=np.float64)

    @classmethod
    def identity(cls, n_taps=32):
        if n_taps < 1:
            raise ValueError("the FIR needs at least one tap")
        return cls(np.zeros(n_taps - 1))

    @property
    def fir(self):
        return assemble(self.tail)


def sine_source(track, harmonics, amp, seed):
    """Harmonic excitation with continuous phase; noise in unvoiced regions.

    Voiced samples: amp * sum_k (1/k) sin(phi_k), with each harmonic's
    phase accumulated per sample from the frame-held F0 and harmonics at
    or above Nyquist dropped.  Unvoiced samples: Gaussian noise with
    std amp/3, deterministic from the seed.
    """
    if harmonics < 1:
        raise ValueError("need at least one harmonic")
    fs = track.sample_rate
    f0 = np.repeat(track.f0, track.frame_shift)
    voiced = np.repeat(track.vuv, track.frame_shift)
    n = len(f0)
    k = np.arange(1, harmonics + 1)[:, None]
    phase = np.cumsum(2.0 * np.pi * k * f0[None, :] / fs, axis=1)
    phase = np.concatenate([np.zeros((harmonics, 1)), phase[:, :-1]], axis=1)
    audible = (k * f0[None, :]) < fs / 2.0
    tones = np.sum(np.sin(phase) / k * audible, axis=0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * (amp / 3.0)
    samples = np.where(voiced, amp * tones, noise)
    return Waveform(samples, fs)


def vocoder_forward(params, source):
    """Filter each source row [..., T]: d = source * fir, truncated to the
    source length.

    The cache is the source: the FIR gradient does not depend on the FIR.
    """
    return convolve_fft(source, params.fir), source


def vocoder_backward(params, cache, grad_dry):
    """Gradient w.r.t. the FIR tail, summed over the source rows; the unit
    tap is not a parameter."""
    g = convolve_grad(cache, params.fir, grad_dry, wrt_dry=False).grad_rir[..., 1:]
    return g.reshape(-1, g.shape[-1]).sum(axis=0)
