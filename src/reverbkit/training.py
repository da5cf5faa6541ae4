"""The training loop for the reverberation models.

GTI, UTV and multi-task training run the same loop: sample utterances,
render the reverberant output through the convolution module, evaluate
the main loss, push gradients back through the convolution into the
reverb model (a learned tail or the estimator network) and, for
multi-task, into the vocoder, then take an Adam step.  Minibatch
selection is derived statelessly from (seed, step) so a run can be
checkpointed and resumed bit-exactly.
"""

import json
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .convolve import convolve_fft, convolve_grad
from .dsp import default_stft_config, las
from .estimator import UtvEstimatorParams, estimator_backward, estimator_forward
from .losses import DESK_MRSD, mrsd_loss, secondary_dry_loss, waveform_mse_loss
from .optim import AdamState, adam_step
from .rir import Rir, assemble
from .vocoder import sine_source, vocoder_backward, vocoder_forward


@dataclass
class TrainHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 4
    loss: str = "mrsd"  # or "wave"
    mrsd: object = DESK_MRSD
    secondary_weight: float = 1.0
    harmonics: int = 8
    source_amp: float = 0.3


@dataclass
class TrainReport:
    records: list = field(default_factory=list)
    final_checksum: int = 0

    def log(self, step, main_loss, secondary_loss=None, wall_ms=0.0):
        if not np.isfinite(main_loss):
            raise ValueError(f"non-finite main loss at step {step}")
        self.records.append({
            "step": step,
            "main_loss": float(main_loss),
            "secondary_loss": None if secondary_loss is None else float(secondary_loss),
            "wall_ms": float(wall_ms),
        })

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")


def params_checksum(params):
    """CRC32 over the raw bytes of all arrays, in sorted name order."""
    crc = 0
    for name in sorted(params):
        crc = zlib.crc32(np.ascontiguousarray(params[name]).tobytes(), crc)
    return crc


def _main_loss(hyper, gen, ref):
    if hyper.loss == "mrsd":
        return mrsd_loss(gen, ref, hyper.mrsd)
    if hyper.loss == "wave":
        return waveform_mse_loss(gen, ref)
    raise ValueError(f"unknown main loss {hyper.loss!r}")


def _batch_indices(seed, step, n, batch_size):
    rng = np.random.default_rng([seed, step])
    return rng.integers(0, n, size=min(batch_size, n))


class _GtiModel:
    """Reverb model whose one shared tail is itself the parameter."""

    def __init__(self, gti):
        self.params = {"gti.tail": gti.tail}

    def forward(self, i):
        return self.params["gti.tail"], None

    def backward(self, cache, grad_tail):
        return {"gti.tail": grad_tail}


class _UtvModel:
    """Reverb model predicting each utterance's tail from its reverberant LAS."""

    def __init__(self, est, dataset, las_cache=None):
        self.est = est
        self.las_cache = reverb_las(dataset) if las_cache is None else las_cache
        self.params = est.as_dict("utv.")

    def forward(self, i):
        return estimator_forward(self.est, self.las_cache[i])

    def backward(self, cache, grad_tail):
        grads, _ = estimator_backward(self.est, cache, grad_tail)
        return grads.as_dict("utv.")


def _start(dataset, hyper):
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return hyper or TrainHyper()


def _train(dataset, model, steps, hyper, seed, adam, start_step, report,
           batch_size, voc=None, sources=None):
    """The training loop; voc and sources add the vocoder's dry branch.

    Per utterance: the model's tail, the render through the convolution,
    the main loss and its gradient back to the tail (and, with a
    vocoder, to the FIR, plus the secondary loss on the dry output).
    Gradients and losses are averaged over the batch before one Adam step.
    """
    adam = adam or AdamState()
    report = report or TrainReport()
    params = dict(model.params)
    if voc is not None:
        params["voc.tail"] = voc.tail
        sec_cfg = default_stft_config(dataset[0].dry.sample_rate)
    for step in range(start_step, start_step + steps):
        ts = time.perf_counter()
        idx = [int(i) for i in _batch_indices(seed, step, len(dataset), batch_size)]
        total, sec_total, acc = 0.0, 0.0, None
        for i in idx:
            utt = dataset[i]
            tail, cache = model.forward(i)
            h = assemble(tail)
            dry = utt.dry.samples
            if voc is not None:
                dry_hat, vcache = vocoder_forward(voc, sources[i])
                dry = dry_hat.samples
            r_hat = convolve_fft(dry, h)
            loss, grad_r = _main_loss(hyper, r_hat, utt.reverb.samples)
            cg = convolve_grad(dry, h, grad_r, wrt_dry=voc is not None)
            grads = model.backward(cache, cg.grad_rir[1:])  # direct path is structural
            if voc is not None:
                sec_l, sec_g = 0.0, 0.0
                if hyper.secondary_weight != 0.0:
                    sec_l, sec_g = secondary_dry_loss(dry, utt.dry.samples,
                                                      las_cfg=sec_cfg)
                grads["voc.tail"] = vocoder_backward(
                    voc, vcache, cg.grad_dry + hyper.secondary_weight * sec_g)
                sec_total += sec_l
            total += loss
            acc = grads if acc is None else {k: acc[k] + grads[k] for k in acc}
        adam_step(adam, params, {k: g / len(idx) for k, g in acc.items()},
                  hyper.lr, hyper.beta1, hyper.beta2)
        sec = None if voc is None else hyper.secondary_weight * sec_total / len(idx)
        report.log(step, total / len(idx), sec,
                   wall_ms=(time.perf_counter() - ts) * 1e3)
    report.final_checksum = params_checksum(params)
    return adam, report


def train_gti(dataset, rir_len, steps, hyper=None, seed=0,
              gti=None, adam=None, start_step=0, report=None):
    """Learn one shared RIR tail on (dry, reverberant) pairs."""
    hyper = _start(dataset, hyper)
    gti = gti or Rir.zeros(rir_len, dataset[0].dry.sample_rate)
    adam, report = _train(dataset, _GtiModel(gti), steps, hyper, seed, adam,
                          start_step, report, hyper.batch_size)
    return gti, adam, report


def reverb_las(dataset):
    """LAS of each utterance's natural reverberant waveform (estimator input)."""
    return [las(utt.reverb).values for utt in dataset]


def train_utv(dataset, params_init, steps, hyper=None, seed=0,
              adam=None, start_step=0, report=None, las_cache=None):
    """Train the per-utterance RIR predictor on (dry, reverberant) pairs."""
    hyper = _start(dataset, hyper)
    model = _UtvModel(params_init, dataset, las_cache)
    adam, report = _train(dataset, model, steps, hyper, seed, adam,
                          start_step, report, hyper.batch_size)
    return params_init, adam, report


def predict_rir_tail(params, las_values):
    """Inference-time tail prediction (no cache kept)."""
    tail, _ = estimator_forward(params, las_values)
    return tail


def utterance_sources(dataset, hyper, seed):
    """Deterministic sine-source excitation per utterance (from its F0 track)."""
    sources = []
    for i, utt in enumerate(dataset):
        if utt.f0 is None:
            raise ValueError(f"utterance {i} has no F0 track")
        sources.append(sine_source(utt.f0, hyper.harmonics, hyper.source_amp,
                                   seed=[seed, 7001, i]))
    return sources


def train_mt(dataset, vocoder_init, reverb_model, steps, hyper=None, seed=0,
             adam=None, start_step=0, report=None):
    """Joint vocoder + reverberation training with the optional dry-side task.

    reverb_model is either a Rir or UtvEstimatorParams; one utterance
    per step.  The main loss acts on the rendered reverberant output; the
    secondary loss (scaled by hyper.secondary_weight) acts on the
    intermediate dry output only, so RIR parameters never receive
    gradient from it.
    """
    hyper = _start(dataset, hyper)
    if isinstance(reverb_model, UtvEstimatorParams):
        model = _UtvModel(reverb_model, dataset)
    else:
        model = _GtiModel(reverb_model)
    adam, report = _train(dataset, model, steps, hyper, seed, adam, start_step,
                          report, 1, voc=vocoder_init,
                          sources=utterance_sources(dataset, hyper, seed))
    return vocoder_init, reverb_model, adam, report
