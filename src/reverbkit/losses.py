"""Training objectives and their analytic gradients.

Main objective: multi-resolution spectral distortion (MRSD) between the
rendered reverberant waveform and the natural reverberant waveform.
Secondary (multi-task) objective on the intermediate dry waveform:
LAS-MSE + waveform MSE + (1 - Pearson correlation).

Every loss returns (scalar, gradient w.r.t. the generated samples); the
gradients go through the STFT and the floored log analytically, with
zero gradient wherever the amplitude floor is active.
"""

import numpy as np

from .dsp import AMPLITUDE_FLOOR, StftConfig, log_amplitude, stft, stft_adjoint

CORR_EPS = 1e-8

# Desk-scale resolutions for 8 kHz material; chosen short/medium/long so
# both temporal envelope and fine spectral structure are constrained.
DESK_MRSD = (
    StftConfig(fft_size=512, frame_length=320, frame_shift=80),
    StftConfig(fft_size=128, frame_length=80, frame_shift=40),
    StftConfig(fft_size=1024, frame_length=640, frame_shift=160),
)


def _spectral_mse(gen, ref, cfg):
    """Mean squared log-magnitude error at one resolution, with gradient."""
    spec_g = stft(gen, cfg)
    mag_g = np.maximum(np.abs(spec_g), AMPLITUDE_FLOOR)
    diff = np.log(mag_g) - log_amplitude(stft(ref, cfg)).values
    loss = float(np.mean(diff**2))
    # d loss / d|X| is zero where the floor clamps; elsewhere 2*diff/(n*|X|)
    dmag = np.where(mag_g > AMPLITUDE_FLOOR, 2.0 * diff / (diff.size * mag_g), 0.0)
    return loss, stft_adjoint(dmag * spec_g / mag_g, cfg, len(gen))


def _pair(gen, ref):
    """Generated and reference samples as float64 arrays of equal length."""
    g = np.asarray(gen, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    if len(g) != len(r):
        raise ValueError("generated and reference lengths differ")
    return g, r


def mrsd_loss(gen, ref, resolutions=DESK_MRSD):
    """Multi-resolution spectral distortion over a tuple of StftConfigs;
    returns (loss, grad w.r.t. gen)."""
    if not resolutions:
        raise ValueError("need at least one STFT resolution")
    g, r = _pair(gen, ref)
    total = 0.0
    grad = np.zeros(len(g))
    for res in resolutions:
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
