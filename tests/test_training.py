import dataclasses
import math
import sys

import numpy as np
import pytest

from reverbkit import dsp
from reverbkit.convolve import convolve_fft, convolve_grad
from reverbkit.dsp import StftConfig
from reverbkit.estimator import (UtvEstimatorParams, estimator_backward,
                                 estimator_forward)
from reverbkit.fileio import load_checkpoint, save_checkpoint
from reverbkit.losses import MrsdConfig, mrsd_loss, waveform_mse_loss
from reverbkit.optim import AdamState, grad_check
from reverbkit.rir import GtiRir, Rir, RoomSpec, assemble, synth_rir
from reverbkit.simdata import Utterance, synth_dry
from reverbkit.training import (TrainHyper, TrainReport, _batch_indices,
                                params_checksum, reverb_las, train_gti,
                                train_mt, train_utv, utterance_sources)
from reverbkit.vocoder import ToyVocoderParams

FS = 8000
TINY_MRSD = MrsdConfig((
    StftConfig(fft_size=64, frame_length=48, frame_shift=16),
    StftConfig(fft_size=32, frame_length=24, frame_shift=8),
))


def tiny_dataset(n=6, duration=0.5, t60=0.15, rir_len=64, seed=500):
    room = RoomSpec("r0", t60, 2.0, 1, 55)
    rir = synth_rir(room, rir_len, FS, min_decay_db=0)
    utts = []
    for i in range(n):
        dry, track = synth_dry([seed, i], duration, FS)
        rev = convolve_fft(dry, rir.coefficients)
        utts.append(Utterance(f"u{i}", dry, rev, track, "r0", t60, "train"))
    return utts, rir


def wave_hyper(lr=3e-3):
    return TrainHyper(lr=lr, loss="wave")


def mrsd_hyper(lr=1e-3):
    return TrainHyper(lr=lr, loss="mrsd", mrsd=TINY_MRSD)


def test_batch_indices_deterministic():
    a = _batch_indices(3, 17, 100, 4)
    b = _batch_indices(3, 17, 100, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _batch_indices(3, 18, 100, 4))


def test_batch_indices_bounds():
    idx = _batch_indices(0, 0, 5, 10)
    assert len(idx) == 5
    assert np.all((idx >= 0) & (idx < 5))


def test_report_rejects_nonfinite():
    rep = TrainReport()
    with pytest.raises(ValueError):
        rep.log(0, np.nan)


def test_report_jsonl(tmp_path):
    rep = TrainReport()
    rep.log(0, 1.0, 0.5)
    rep.log(1, 0.9)
    p = tmp_path / "r.jsonl"
    rep.write_jsonl(p)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 2
    import json
    rec = json.loads(lines[0])
    assert rec["step"] == 0 and rec["main_loss"] == 1.0


def test_params_checksum_order_invariant():
    a = {"x": np.arange(3.0), "y": np.ones(2)}
    b = {"y": np.ones(2), "x": np.arange(3.0)}
    assert params_checksum(a) == params_checksum(b)
    b["x"][0] = 5.0
    assert params_checksum(a) != params_checksum(b)


def test_train_gti_zero_steps_is_identity():
    utts, _ = tiny_dataset()
    gti, adam, rep = train_gti(utts, 64, 0, wave_hyper(), seed=0)
    assert np.all(gti.tail == 0)
    assert adam.step == 0
    assert rep.records == []


def test_train_gti_empty_dataset_raises():
    with pytest.raises(ValueError):
        train_gti([], 64, 1)


def test_train_gti_reduces_wave_loss():
    utts, rir = tiny_dataset()
    gti, _, rep = train_gti(utts, 64, 400, wave_hyper(), seed=0)
    assert rep.records[-1]["main_loss"] < 0.1 * rep.records[0]["main_loss"]
    err0 = np.sum(rir.tail**2)
    err = np.sum((gti.tail - rir.tail) ** 2)
    assert err < 0.1 * err0


def test_train_gti_deterministic():
    utts, _ = tiny_dataset()
    a, _, ra = train_gti(utts, 64, 20, wave_hyper(), seed=7)
    b, _, rb = train_gti(utts, 64, 20, wave_hyper(), seed=7)
    assert np.array_equal(a.tail, b.tail)
    assert ra.final_checksum == rb.final_checksum


def test_train_gti_seed_changes_trajectory():
    utts, _ = tiny_dataset()
    a, _, _ = train_gti(utts, 64, 20, wave_hyper(), seed=1)
    b, _, _ = train_gti(utts, 64, 20, wave_hyper(), seed=2)
    assert not np.array_equal(a.tail, b.tail)


def test_train_gti_resume_bit_exact():
    utts, _ = tiny_dataset()
    full, _, _ = train_gti(utts, 64, 30, wave_hyper(), seed=3)
    g1, a1, r1 = train_gti(utts, 64, 15, wave_hyper(), seed=3)
    g2, _, _ = train_gti(utts, 64, 15, wave_hyper(), seed=3,
                         gti=g1, adam=a1, start_step=15, report=r1)
    assert np.array_equal(g2.tail, full.tail)


def test_train_gti_resume_from_checkpoint_bit_exact(tmp_path):
    utts, _ = tiny_dataset()
    full, _, _ = train_gti(utts, 64, 12, wave_hyper(), seed=3)
    g1, a1, _ = train_gti(utts, 64, 6, wave_hyper(), seed=3)
    save_checkpoint(tmp_path / "gti.ckpt", {"gti.tail": g1.tail, **a1.state_dict()})
    ckpt = load_checkpoint(tmp_path / "gti.ckpt")
    adam = AdamState()  # the run's hyper, not the state, sets the rates
    adam.load_state_dict(ckpt)
    g2, _, _ = train_gti(utts, 64, 6, wave_hyper(), seed=3,
                         gti=GtiRir(ckpt["gti.tail"], FS), adam=adam,
                         start_step=6)
    assert np.array_equal(g2.tail, full.tail)


def test_train_gti_mrsd_runs_and_descends():
    utts, _ = tiny_dataset()
    _, _, rep = train_gti(utts, 64, 100, mrsd_hyper(lr=3e-3), seed=0)
    first = np.mean([r["main_loss"] for r in rep.records[:10]])
    last = np.mean([r["main_loss"] for r in rep.records[-10:]])
    assert last < first


def test_train_gti_unknown_loss_raises():
    utts, _ = tiny_dataset(n=2)
    with pytest.raises(ValueError):
        train_gti(utts, 64, 1, TrainHyper(loss="huber"))


def tiny_estimator(tail_len=63, seed=0):
    # input_dim matches the default 8 kHz LAS bins (fft 512 -> 257)
    return UtvEstimatorParams.init(257, 8, 8, 5, tail_len, seed=seed)


def test_train_utv_runs_and_is_deterministic():
    utts, _ = tiny_dataset(n=4)
    pa, _, ra = train_utv(utts, tiny_estimator(), 10, mrsd_hyper(), seed=5)
    pb, _, rb = train_utv(utts, tiny_estimator(), 10, mrsd_hyper(), seed=5)
    assert ra.final_checksum == rb.final_checksum
    for k, v in pa.as_dict().items():
        assert np.array_equal(v, pb.as_dict()[k])


def test_train_utv_resume_bit_exact():
    utts, _ = tiny_dataset(n=4)
    full, _, _ = train_utv(utts, tiny_estimator(seed=1), 12, mrsd_hyper(), seed=4)
    p1, a1, r1 = train_utv(utts, tiny_estimator(seed=1), 6, mrsd_hyper(), seed=4)
    p2, _, _ = train_utv(utts, p1, 6, mrsd_hyper(), seed=4,
                         adam=a1, start_step=6, report=r1)
    for k, v in p2.as_dict().items():
        assert np.array_equal(v, full.as_dict()[k])


def test_train_utv_wave_loss_descends():
    utts, _ = tiny_dataset(n=4)
    _, _, rep = train_utv(utts, tiny_estimator(), 120,
                          TrainHyper(lr=3e-3, loss="wave"), seed=0)
    first = np.mean([r["main_loss"] for r in rep.records[:10]])
    last = np.mean([r["main_loss"] for r in rep.records[-10:]])
    assert last < first


def test_utterance_sources_deterministic_and_per_utt():
    utts, _ = tiny_dataset(n=3)
    hy = TrainHyper()
    a = utterance_sources(utts, hy, seed=9)
    b = utterance_sources(utts, hy, seed=9)
    assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))
    assert not np.array_equal(a[0].samples[:100], a[1].samples[:100])


def test_train_mt_gti_keeps_constraints():
    utts, _ = tiny_dataset(n=4)
    voc = ToyVocoderParams.identity(8)
    gti = GtiRir.zeros(64, FS)
    hy = mrsd_hyper()
    voc, gti, _, rep = train_mt(utts, voc, gti, 15, hy, seed=0)
    assert voc.fir[0] == 1.0
    assert len(rep.records) == 15
    assert rep.records[0]["secondary_loss"] is not None


def test_train_mt_utv_runs():
    utts, _ = tiny_dataset(n=3)
    voc = ToyVocoderParams.identity(8)
    est = tiny_estimator()
    voc, est, _, rep = train_mt(utts, voc, est, 8, mrsd_hyper(), seed=0)
    assert voc.fir[0] == 1.0
    assert len(rep.records) == 8


def test_train_mt_applied_gradient_matches_finite_differences():
    # After one step at batch 1, adam.m / (1 - beta1) is the gradient the loop
    # applied: the main loss through both convolutions plus the weighted
    # secondary loss on the dry output, back to the GTI and FIR tails.
    utts, _ = tiny_dataset(n=1, duration=0.06, rir_len=16)
    hy = TrainHyper(loss="mrsd", mrsd=TINY_MRSD, secondary_weight=1.0)
    rng = np.random.default_rng(7)
    tails = {"gti.tail": 0.1 * rng.standard_normal(15),
             "voc.tail": 0.1 * rng.standard_normal(7)}

    def one_step(p):
        _, _, adam, rep = train_mt(utts, ToyVocoderParams(p["voc.tail"].copy()),
                                   Rir(p["gti.tail"].copy(), FS), 1, hy, seed=0)
        rec = rep.records[0]
        return (rec["main_loss"] + rec["secondary_loss"],
                {k: adam.m[k] / (1.0 - hy.beta1) for k in p})

    report = grad_check(one_step, tails, eps=1e-6, tolerance=1e-5)
    assert report["passed"], report


def test_train_mt_secondary_weight_zero_skips_secondary():
    utts, _ = tiny_dataset(n=3)
    hy = TrainHyper(loss="mrsd", mrsd=TINY_MRSD, secondary_weight=0.0)
    _, _, _, rep = train_mt(utts, ToyVocoderParams.identity(8),
                            GtiRir.zeros(64, FS), 3, hy, seed=0)
    assert all(r["secondary_loss"] == 0.0 for r in rep.records)


def test_train_mt_deterministic():
    utts, _ = tiny_dataset(n=3)
    outs = []
    for _ in range(2):
        voc, gti, _, rep = train_mt(utts, ToyVocoderParams.identity(8),
                                    GtiRir.zeros(64, FS), 10, mrsd_hyper(),
                                    seed=11)
        outs.append((voc.fir.copy(), gti.tail.copy(), rep.final_checksum))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert outs[0][2] == outs[1][2]


def test_train_mt_resume_bit_exact():
    utts, _ = tiny_dataset(n=3)
    fvoc, fgti, _, _ = train_mt(utts, ToyVocoderParams.identity(8),
                                GtiRir.zeros(64, FS), 10, mrsd_hyper(), seed=2)
    v1, g1, a1, r1 = train_mt(utts, ToyVocoderParams.identity(8),
                              GtiRir.zeros(64, FS), 5, mrsd_hyper(), seed=2)
    v2, g2, _, _ = train_mt(utts, v1, g1, 5, mrsd_hyper(), seed=2,
                            adam=a1, start_step=5, report=r1)
    assert np.array_equal(v2.fir, fvoc.fir)
    assert np.array_equal(g2.tail, fgti.tail)


def test_utterance_step_transforms_half_the_complex_points(monkeypatch):
    # one GTI MRSD utterance-step (0.375 s at 8 kHz, L = 256, DESK_MRSD):
    # render, loss and RIR gradient.  Complex transforms of the real
    # signals took 163,584 points here (convolve_fft 3 x 4,096, mrsd_loss
    # 126,720, convolve_grad 3 x 8,192); real transforms take 75,648.
    # Every module that holds dsp.fft is patched, so a transform that
    # bypasses rfft/irfft is counted too.
    points = []
    orig = dsp.fft

    def counting(x, n, inverse=False):
        points.append(math.prod(np.shape(x)[:-1]) * n)
        return orig(x, n, inverse)

    for name, mod in list(sys.modules.items()):
        if name == "reverbkit" or name.startswith("reverbkit."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counting)
    rng = np.random.default_rng(0)
    dry, ref = rng.standard_normal(3000), rng.standard_normal(3000)
    h = assemble(0.01 * rng.standard_normal(255))
    _, grad = mrsd_loss(convolve_fft(dry, h), ref)
    convolve_grad(dry, h, grad, wrt_dry=False)
    assert sum(points) <= 163_584 // 2


def two_length_dataset():
    """Three 0.5 s and three 0.625 s utterances of one room, ids u0-u2, v0-v2."""
    short, _ = tiny_dataset(n=3)
    longer, _ = tiny_dataset(n=3, duration=0.625, seed=501)
    return short + [dataclasses.replace(u, utt_id=f"v{i}")
                    for i, u in enumerate(longer)]


def test_step_gradient_is_the_per_utterance_average_across_lengths():
    # Seed 6's first batch holds both lengths, so the step runs two
    # array passes; adam.m / (1 - beta1) after one step is the gradient
    # the loop applied.
    utts = two_length_dataset()
    hy = TrainHyper(lr=3e-3, loss="wave", batch_size=4)
    idx = [int(i) for i in _batch_indices(6, 0, len(utts), 4)]
    assert len({len(utts[i].dry) for i in idx}) == 2
    est = tiny_estimator(seed=2)
    _, adam, rep = train_utv(utts, tiny_estimator(seed=2), 1, hy, seed=6)
    feats = reverb_las(utts)
    want, losses = None, []
    for i in idx:
        tail, cache = estimator_forward(est, feats[i])
        h = assemble(tail)
        loss, grad_r = waveform_mse_loss(convolve_fft(utts[i].dry.samples, h),
                                         utts[i].reverb.samples)
        cg = convolve_grad(utts[i].dry.samples, h, grad_r, wrt_dry=False)
        g = estimator_backward(est, cache, cg.grad_rir[1:])[0].as_dict("utv.")
        want = g if want is None else {k: want[k] + g[k] for k in g}
        losses.append(loss)
    assert abs(rep.records[0]["main_loss"] - np.mean(losses)) <= 1e-12 * np.mean(losses)
    for k, total in want.items():
        mean = total / len(idx)
        got = adam.m[k] / (1.0 - hy.beta1)
        assert np.max(np.abs(got - mean)) <= 1e-12 * np.max(np.abs(mean)), k


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_non_finite_step_names_the_step_and_the_utterance():
    utts, _ = tiny_dataset(n=4)
    first = int(_batch_indices(0, 0, len(utts), 4)[0])
    with pytest.raises(ValueError, match=f"step 0, utterance u{first}$"):
        train_gti(utts, 64, 1, wave_hyper(), seed=0, gti=Rir(np.full(63, 1e308), FS))
