"""Independent reference computations for the benchmark's checks.

Each function re-derives a documented formula with `numpy.fft` and
`np.convolve`, never through the package, so a fault in the package's
in-house FFT, convolution, losses or estimator shows as a mismatch.  The
package itself promises not to use `numpy.fft`; these live here instead.
"""

import numpy as np

FS = 8000
FLOOR = 1e-5          # amplitude floor of the log spectra
CORR_EPS = 1e-8       # guard of the Pearson denominator
# (fft_size, frame_length, frame_shift), Hann windows throughout
LAS_RES = (512, 400, 96)
MRSD_RES = ((512, 320, 80), (128, 80, 40), (1024, 640, 160))


def conv(d, h):
    """Linear convolution truncated to the dry length."""
    return np.convolve(d, h)[: len(d)]


def log_mag(x, fft_size, frame, shift):
    """Floored log magnitudes of Hann-windowed frames, non-redundant bins."""
    n_frames = (len(x) - frame) // shift + 1
    idx = np.arange(n_frames)[:, None] * shift + np.arange(frame)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame) / frame)
    spec = np.fft.rfft(x[idx] * win, n=fft_size, axis=1)
    return np.log(np.maximum(np.abs(spec), FLOOR))


def las(x):
    return log_mag(x, *LAS_RES)


def spectral_mse(g, r, res):
    return float(np.mean((log_mag(g, *res) - log_mag(r, *res)) ** 2))


def mrsd(g, r):
    return sum(spectral_mse(g, r, res) for res in MRSD_RES)


def wave_mse(g, r):
    return float(np.mean((g - r) ** 2))


def secondary(g, r):
    """LAS-MSE + waveform MSE + (1 - Pearson correlation), unit weights."""
    gc, rc = g - g.mean(), r - r.mean()
    rho = (gc @ rc) / (np.sqrt(gc @ gc) * np.sqrt(rc @ rc) + CORR_EPS)
    return spectral_mse(g, r, LAS_RES) + wave_mse(g, r) + 1.0 - float(rho)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def estimator_tail(p, x):
    """GRU -> same-padded tanh conv -> mean over frames -> affine.

    p maps the parameter names (W_z, U_z, ..., out_b) to arrays.
    """
    h = np.zeros(p["U_z"].shape[0])
    hs = []
    for xt in x:
        z = _sigmoid(p["W_z"] @ xt + p["U_z"] @ h + p["b_z"])
        g = _sigmoid(p["W_g"] @ xt + p["U_g"] @ h + p["b_g"])
        c = np.tanh(p["W_c"] @ xt + g * (p["U_c"] @ h) + p["b_c"])
        h = (1.0 - z) * c + z * h
        hs.append(h)
    hs = np.array(hs)
    w = p["conv_w"]
    pad = (w.shape[2] - 1) // 2
    padded = np.pad(hs, ((pad, pad), (0, 0)))
    pre = sum(padded[k : k + len(hs)] @ w[:, :, k].T for k in range(w.shape[2]))
    pooled = np.tanh(pre + p["conv_b"]).mean(axis=0)
    return p["out_w"] @ pooled + p["out_b"]


def batch_indices(seed, step, n, batch_size):
    """The documented stateless minibatch rule: a generator seeded by (seed, step)."""
    rng = np.random.default_rng([seed, step])
    return rng.integers(0, n, size=min(batch_size, n))
