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
from functools import partial

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

    def forward(self, idx):
        tail = self.params["gti.tail"]
        return np.broadcast_to(tail, (len(idx),) + tail.shape), None

    def backward(self, cache, grad_tail):
        return {"gti.tail": grad_tail.sum(axis=0)}


class _UtvModel:
    """Reverb model predicting each utterance's tail from its reverberant LAS."""

    def __init__(self, est, dataset, las_cache=None):
        self.est = est
        self.las_cache = reverb_las(dataset) if las_cache is None else las_cache
        self.params = est.as_dict("utv.")

    def forward(self, idx):
        return estimator_forward(self.est, np.stack([self.las_cache[i] for i in idx]))

    def backward(self, cache, grad_tail):
        grads, _ = estimator_backward(self.est, cache, grad_tail)
        return grads.as_dict("utv.")


def _start(dataset, hyper):
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return hyper or TrainHyper()


def _length_groups(dataset, idx):
    """(batch positions, dataset indices) of each utterance length, in batch order."""
    groups = {}
    for pos, i in enumerate(idx):
        groups.setdefault(len(dataset[i].dry), []).append((pos, i))
    return [tuple(map(list, zip(*g))) for g in groups.values()]


def _check_finite(step, utts, loss, grad_rows):
    """Raise naming the step and the first utterance whose loss or gradient
    row is not finite."""
    ok = np.isfinite(loss) & np.all(np.isfinite(grad_rows), axis=-1)
    if not ok.all():
        raise ValueError(f"non-finite loss or gradient at step {step}, "
                         f"utterance {utts[int(np.argmin(ok))].utt_id}")


def _row_losses(fn, gen, refs):
    """fn(gen_row, ref) per row; returns (losses [B], gradients [B, T])."""
    out = [fn(g, r) for g, r in zip(gen, refs)]
    return np.array([l for l, _ in out]), np.stack([g for _, g in out])


def _train(dataset, model, steps, hyper, seed, adam, start_step, report,
           batch_size, voc=None, sources=None):
    """The training loop; voc and sources add the vocoder's dry branch.

    Each step groups its batch by utterance length and runs each group as
    one array pass: the model's tails [B, L-1], the render through the
    convolution, the main loss per row and its gradient back to the model
    (and, with a vocoder, to the FIR, plus the secondary loss on the dry
    output).  Gradients and losses are averaged over the batch before one
    Adam step.
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
        losses, sec_losses, acc = np.zeros(len(idx)), np.zeros(len(idx)), None
        for pos, group in _length_groups(dataset, idx):
            utts = [dataset[i] for i in group]
            tail, cache = model.forward(group)
            h = assemble(tail)
            dry = np.stack([u.dry.samples for u in utts])
            if voc is not None:
                dry, vcache = vocoder_forward(
                    voc, np.stack([sources[i].samples for i in group]))
            r_hat = convolve_fft(dry, h)
            loss, grad_r = _row_losses(partial(_main_loss, hyper), r_hat,
                                       [u.reverb.samples for u in utts])
            cg = convolve_grad(dry, h, grad_r, wrt_dry=voc is not None)
            _check_finite(step, utts, loss, cg.grad_rir)
            grads = model.backward(cache, cg.grad_rir[:, 1:])  # direct path is structural
            if voc is not None:
                sec_l, sec_g = np.zeros(len(group)), 0.0
                if hyper.secondary_weight != 0.0:
                    sec_l, sec_g = _row_losses(
                        partial(secondary_dry_loss, las_cfg=sec_cfg), dry,
                        [u.dry.samples for u in utts])
                grad_dry = cg.grad_dry + hyper.secondary_weight * sec_g
                _check_finite(step, utts, sec_l, grad_dry)
                grads["voc.tail"] = vocoder_backward(voc, vcache, grad_dry)
                sec_losses[pos] = sec_l
            losses[pos] = loss
            acc = grads if acc is None else {k: acc[k] + grads[k] for k in acc}
        adam_step(adam, params, {k: g / len(idx) for k, g in acc.items()},
                  hyper.lr, hyper.beta1, hyper.beta2)
        # Losses add up in batch order, one utterance after another.
        sec = (None if voc is None
               else hyper.secondary_weight * sum(sec_losses.tolist()) / len(idx))
        report.log(step, sum(losses.tolist()) / len(idx), sec,
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
    """Inference-time tail prediction from one utterance's LAS (no cache kept)."""
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
