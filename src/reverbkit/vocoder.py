"""Minimal trainable waveform generator: sine-based source + FIR filter.

Stands in for a full neural vocoder so that joint and multi-task
training of the reverberation module have a trainable dry branch.  The
FIR's first tap is fixed to 1, mirroring the RIR's direct-path
constraint.
"""

from dataclasses import dataclass

import numpy as np

from .convolve import convolve_fft, convolve_grad
from .dsp import Waveform


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
    """FIR taps, tap 0 fixed to 1."""

    fir: np.ndarray

    def __post_init__(self):
        self.fir = np.asarray(self.fir, dtype=np.float64)
        if len(self.fir) < 1 or self.fir[0] != 1.0:
            raise ValueError("fir must be non-empty with fir[0] == 1")

    @classmethod
    def identity(cls, n_taps=32):
        fir = np.zeros(n_taps)
        fir[0] = 1.0
        return cls(fir)


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
    """Filter the source: d = source * fir, truncated to the source length."""
    out = convolve_fft(source, params.fir)
    cache = {"source": source, "fir": params.fir.copy()}
    return out, cache


def vocoder_backward(params, cache, grad_dry):
    """Gradients w.r.t. the FIR taps (tap 0 masked) and the source samples."""
    if cache["fir"].shape != params.fir.shape or np.any(cache["fir"] != params.fir):
        raise ValueError("cache does not match the given parameters")
    cg = convolve_grad(cache["source"], params.fir, grad_dry)
    grad_fir = cg.grad_rir
    grad_fir[0] = 0.0  # the unit tap is structural, never trained
    return grad_fir, cg.grad_dry
