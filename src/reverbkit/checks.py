"""Finite-difference verification of every analytic gradient path.

Each entry builds a tiny deterministic problem, wraps it as a
loss_fn(params) -> (loss, grads) closure, and runs the central-difference
checker.  Used by the test suite and by the `gradcheck` CLI subcommand.
"""

import numpy as np

from .convolve import convolve_fft, convolve_grad
from .dsp import StftConfig, Waveform
from .estimator import UtvEstimatorParams, estimator_backward, estimator_forward
from .losses import MrsdConfig, mrsd_loss, secondary_dry_loss
from .optim import grad_check
from .rir import assemble
from .vocoder import ToyVocoderParams, vocoder_backward, vocoder_forward

TINY_STFT = StftConfig(fft_size=64, frame_length=48, frame_shift=16)
TINY_MRSD = MrsdConfig((
    TINY_STFT,
    StftConfig(fft_size=32, frame_length=24, frame_shift=8),
))


def check_gti(eps=1e-5, tolerance=1e-5):
    """MRSD loss through the convolution w.r.t. a GTI tail (tiny config)."""
    rng = np.random.default_rng(41)
    dry = rng.standard_normal(240)
    ref = rng.standard_normal(240)
    tail0 = 0.1 * rng.standard_normal(15)

    def loss_fn(params):
        h = assemble(params["gti.tail"])
        r = convolve_fft(dry, h)
        loss, grad_r = mrsd_loss(r, ref, TINY_MRSD)
        cg = convolve_grad(dry, h, grad_r)
        return loss, {"gti.tail": cg.grad_rir[1:]}

    return grad_check(loss_fn, {"gti.tail": tail0.copy()}, eps, tolerance)


def check_utv(eps=1e-5, tolerance=1e-4):
    """Estimator network end to end, every parameter group, on a batch of
    two sequences run in step (tiny config)."""
    rng = np.random.default_rng(42)
    est = UtvEstimatorParams.init(input_dim=8, hidden_dim=4, channels=4,
                                  kernel=3, tail_len=15, seed=7)
    x = rng.standard_normal((2, 5, 8))
    target = 0.05 * rng.standard_normal((2, 15))

    def loss_fn(params):
        p = UtvEstimatorParams.from_dict(params, "utv.")
        tail, cache = estimator_forward(p, x)
        diff = tail - target
        loss = float(np.sum(diff * diff))
        grads, _ = estimator_backward(p, cache, 2.0 * diff)
        return loss, grads.as_dict("utv.")

    return grad_check(loss_fn, est.as_dict("utv."), eps, tolerance)


def check_utv_through_conv(eps=1e-5, tolerance=1e-4):
    """Estimator gradients through convolution and the spectral loss."""
    rng = np.random.default_rng(43)
    est = UtvEstimatorParams.init(input_dim=8, hidden_dim=4, channels=4,
                                  kernel=3, tail_len=15, seed=9)
    x = rng.standard_normal((5, 8))
    dry = rng.standard_normal(240)
    ref = rng.standard_normal(240)

    def loss_fn(params):
        p = UtvEstimatorParams.from_dict(params, "utv.")
        tail, cache = estimator_forward(p, x)
        r = convolve_fft(dry, assemble(tail))
        loss, grad_r = mrsd_loss(r, ref, TINY_MRSD)
        cg = convolve_grad(dry, assemble(tail), grad_r)
        grads, _ = estimator_backward(p, cache, cg.grad_rir[1:])
        return loss, grads.as_dict("utv.")

    return grad_check(loss_fn, est.as_dict("utv."), eps, tolerance)


def check_vocoder(eps=1e-5, tolerance=1e-6):
    """Quadratic loss through the FIR filter w.r.t. the trainable taps."""
    rng = np.random.default_rng(44)
    source = Waveform(rng.standard_normal(200), 8000)
    target = rng.standard_normal(200)
    tail0 = 0.2 * rng.standard_normal(7)

    def loss_fn(params):
        voc = ToyVocoderParams(params["voc.tail"])
        d, cache = vocoder_forward(voc, source)
        diff = d.samples - target
        loss = float(np.mean(diff**2))
        return loss, {"voc.tail": vocoder_backward(voc, cache, 2.0 * diff / len(diff))}

    return grad_check(loss_fn, {"voc.tail": tail0}, eps, tolerance)


def check_mrsd(eps=1e-5, tolerance=1e-5):
    """MRSD gradient w.r.t. the generated samples directly."""
    rng = np.random.default_rng(45)
    gen = rng.standard_normal(160)
    ref = rng.standard_normal(160)

    def loss_fn(params):
        loss, grad = mrsd_loss(params["gen"], ref, TINY_MRSD)
        return loss, {"gen": grad}

    return grad_check(loss_fn, {"gen": gen.copy()}, eps, tolerance)


def check_secondary(eps=1e-5, tolerance=1e-5):
    """Secondary dry loss (LAS-MSE + waveform + correlation) gradient."""
    rng = np.random.default_rng(46)
    gen = rng.standard_normal(160)
    ref = rng.standard_normal(160)

    def loss_fn(params):
        loss, grad = secondary_dry_loss(params["gen"], ref, las_cfg=TINY_STFT)
        return loss, {"gen": grad}

    return grad_check(loss_fn, {"gen": gen.copy()}, eps, tolerance)


ALL_CHECKS = {
    "gti": check_gti,
    "utv": check_utv,
    "utv_conv": check_utv_through_conv,
    "vocoder": check_vocoder,
    "mrsd": check_mrsd,
    "secondary": check_secondary,
}


def run_checks(name="all"):
    """Run one check by name, or every check; returns {name: report}."""
    if name == "all":
        return {n: check() for n, check in ALL_CHECKS.items()}
    if name not in ALL_CHECKS:
        raise ValueError(f"unknown gradient check {name!r}")
    return {name: ALL_CHECKS[name]()}
