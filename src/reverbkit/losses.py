"""Training objectives and their analytic gradients.

Main objective: multi-resolution spectral distortion (MRSD) between the
rendered reverberant waveform and the natural reverberant waveform.
Secondary (multi-task) objective on the intermediate dry waveform:
LAS-MSE + waveform MSE + (1 - Pearson correlation).

Every loss returns (scalar, gradient w.r.t. the generated samples); the
gradients go through the STFT and the floored log analytically, with
zero gradient wherever the amplitude floor is active.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import AMPLITUDE_FLOOR, StftConfig, _window, irfft, log_amplitude, stft

CORR_EPS = 1e-8


@dataclass(frozen=True)
class MrsdConfig:
    resolutions: tuple

    def __post_init__(self):
        if len(self.resolutions) < 1:
            raise ValueError("need at least one STFT resolution")


# Desk-scale resolutions for 8 kHz material; chosen short/medium/long so
# both temporal envelope and fine spectral structure are constrained.
DESK_MRSD = MrsdConfig((
    StftConfig(fft_size=512, frame_length=320, frame_shift=80),
    StftConfig(fft_size=128, frame_length=80, frame_shift=40),
    StftConfig(fft_size=1024, frame_length=640, frame_shift=160),
))


def _grad_through_stft(gspec, cfg, n_samples):
    """Backpropagate a complex spectrum gradient to the input samples.

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


def _spectral_mse(gen, ref, cfg):
    """Mean squared log-magnitude error at one resolution, with gradient."""
    spec_g = stft(gen, cfg)
    diff = log_amplitude(spec_g).values - log_amplitude(stft(ref, cfg)).values
    n_elem = diff.size
    loss = float(np.mean(diff**2))
    # d loss / d|X| is zero where the floor clamps; elsewhere 2*diff/(n*|X|)
    mag_g = np.abs(spec_g)
    floored_g = np.maximum(mag_g, AMPLITUDE_FLOOR)
    active = mag_g > AMPLITUDE_FLOOR
    dmag = np.where(active, 2.0 * diff / (n_elem * floored_g), 0.0)
    safe = np.where(mag_g > 0, mag_g, 1.0)
    gspec = dmag * spec_g / safe
    grad = _grad_through_stft(gspec, cfg, len(gen))
    return loss, grad


def _pair(gen, ref):
    """Generated and reference samples as float64 arrays of equal length."""
    g = np.asarray(gen, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    if len(g) != len(r):
        raise ValueError("generated and reference lengths differ")
    return g, r


def mrsd_loss(gen, ref, cfg=DESK_MRSD):
    """Multi-resolution spectral distortion; returns (loss, grad w.r.t. gen)."""
    g, r = _pair(gen, ref)
    total = 0.0
    grad = np.zeros(len(g))
    for res in cfg.resolutions:
        l, gr = _spectral_mse(g, r, res)
        total += l
        grad += gr
    return total, grad


def _pearson_loss(g, r):
    """1 - Pearson correlation with an epsilon-guarded denominator."""
    gc = g - g.mean()
    rc = r - r.mean()
    sgr = float(gc @ rc)
    sg = float(np.sqrt(gc @ gc))
    sr = float(np.sqrt(rc @ rc))
    denom = sg * sr + CORR_EPS
    rho = sgr / denom
    loss = 1.0 - rho
    if sg < CORR_EPS or sr < CORR_EPS:
        return loss, np.zeros_like(g)
    drho_dgc = rc / denom - sgr * sr * (gc / sg) / denom**2
    drho = drho_dgc - drho_dgc.mean()  # centering projection
    return loss, -drho


def secondary_dry_loss(gen_dry, ref_dry, las_cfg):
    """LAS-MSE (under las_cfg) + waveform MSE + correlation loss on the dry branch."""
    g, r = _pair(gen_dry, ref_dry)
    las_l, las_g = _spectral_mse(g, r, las_cfg)
    wav_l, wav_g = waveform_mse_loss(g, r)
    corr_l, corr_g = _pearson_loss(g, r)
    return las_l + wav_l + corr_l, las_g + wav_g + corr_g


def waveform_mse_loss(gen, ref):
    """Plain mean squared sample error; the phase-aware main-loss option."""
    g, r = _pair(gen, ref)
    diff = g - r
    return float(np.mean(diff**2)), 2.0 * diff / len(g)
