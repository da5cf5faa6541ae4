"""End-to-end acceptance gate.

Each test prints one PASS/FAIL-style summary line with its measured
numbers.  The training criteria (3-6) run real optimization at full
criterion scale and take several minutes each.
"""

import numpy as np
import pytest

from reverbkit.checks import (check_gti, check_mrsd, check_secondary,
                              check_utv, check_utv_through_conv, check_vocoder)
from reverbkit.convolve import convolve_direct, convolve_fft
from reverbkit.dsp import default_stft_config
from reverbkit.estimator import UtvEstimatorParams
from reverbkit.fileio import (load_checkpoint, read_rir, read_wav,
                              save_checkpoint, write_rir, write_wav)
from reverbkit.losses import DESK_MRSD, _spectral_mse, mrsd_loss
from reverbkit.rir import (GtiRir, Rir, RoomSpec, assemble, decay_rate,
                           estimate_t60, synth_rir)
from reverbkit.simdata import (DESK_SEEN_ROOMS, Utterance, room_rir_length,
                               synth_dry)
from reverbkit.training import (TrainHyper, predict_rir_tail, reverb_las,
                                train_gti, train_mt, train_utv,
                                utterance_sources)
from reverbkit.vocoder import ToyVocoderParams, vocoder_forward

FS = 8000


def make_utterances(rooms, rirs, n, duration, seed):
    utts = []
    for i in range(n):
        room = rooms[i % len(rooms)]
        dry, track = synth_dry([seed, i], duration, FS)
        rev = convolve_fft(dry, rirs[room.room_id].coefficients)
        utts.append(Utterance(f"u{i}", dry, rev, track, room.room_id,
                              room.t60, "train"))
    return utts


@pytest.fixture(scope="module")
def single_room_setup():
    """Criterion 3/4 shared setup: T60 0.15 s, fs 8 kHz, L=256, 50 x 2 s."""
    room = RoomSpec("accept", 0.15, 2.0, 1, 12)
    rir = synth_rir(room, 256, FS, min_decay_db=0)
    utts = make_utterances([room], {"accept": rir}, 50, 2.0, 777)
    return room, rir, utts


def test_criterion_1_convolution_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        d = rng.standard_normal(4800)
        h = rng.standard_normal(256)
        a = convolve_direct(d, h)
        b = convolve_fft(d, h)
        worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
    print(f"\ncriterion 1: max relative deviation {worst:.3e} (bound 1e-6)")
    assert worst <= 1e-6


def test_criterion_2_gradient_integrity():
    reports = {
        "gti (tol 1e-5)": check_gti(tolerance=1e-5),
        "utv (tol 1e-4)": check_utv(tolerance=1e-4),
        "utv through conv (tol 1e-4)": check_utv_through_conv(tolerance=1e-4),
        "vocoder (tol 1e-6)": check_vocoder(tolerance=1e-6),
        "mrsd (tol 1e-5)": check_mrsd(tolerance=1e-5),
        "secondary (tol 1e-5)": check_secondary(tolerance=1e-5),
    }
    print()
    for name, rep in reports.items():
        print(f"criterion 2: {name}: max rel error {rep['max_rel_error']:.2e} "
              f"{'PASS' if rep['passed'] else 'FAIL'}")
    assert all(r["passed"] for r in reports.values()), \
        {k: v["max_rel_error"] for k, v in reports.items()}


def test_criterion_3_gti_exact_recovery(single_room_setup):
    _, rir, utts = single_room_setup
    hyper = TrainHyper(lr=3e-3, loss="wave")
    gti, _, _ = train_gti(utts, 256, 1000, hyper, seed=1)
    rel = float(np.sum((gti.tail - rir.tail) ** 2) / np.sum(rir.tail**2))
    print(f"\ncriterion 3: relative tail error {rel:.3e} after 1000 steps "
          f"(bound 1e-3)")
    assert rel <= 1e-3


def test_criterion_4_gti_mrsd(single_room_setup):
    _, rir, utts = single_room_setup
    probe = utts[:10]
    init = float(np.mean([mrsd_loss(u.dry.samples, u.reverb.samples,
                                    DESK_MRSD)[0] for u in probe]))
    gti = adam = report = None
    for lr, steps, start in ((1e-3, 600, 0), (1e-4, 400, 600)):
        hyper = TrainHyper(lr=lr, loss="mrsd")
        gti, adam, report = train_gti(utts, 256, steps, hyper, seed=1,
                                      gti=gti, adam=adam, start_step=start,
                                      report=report)
    h = assemble(gti.tail)
    final = float(np.mean([mrsd_loss(convolve_fft(u.dry.samples, h),
                                     u.reverb.samples, DESK_MRSD)[0]
                           for u in probe]))
    reduction = 1.0 - final / init
    t60 = estimate_t60(h, FS)
    print(f"\ncriterion 4: learned T60 {t60:.4f} s (truth 0.15, within 15% "
          f"means [0.1275, 0.1725]); MRSD {init:.3f} -> {final:.3f} "
          f"({100 * reduction:.1f}% reduction, bound 90%)")
    assert abs(t60 - 0.15) <= 0.15 * 0.15
    assert reduction >= 0.90


@pytest.fixture(scope="module")
def multi_room_setup():
    """Criterion 5 setup: 4 rooms (T60 0.1-0.4 s), 160 train / 40 held out."""
    rooms = DESK_SEEN_ROOMS
    rirs = {r.room_id: synth_rir(r, room_rir_length(r.t60, FS), FS,
                                 min_decay_db=0) for r in rooms}
    utts = make_utterances(rooms, rirs, 200, 1.0, 888)
    return utts[:160], utts[160:]


def test_criterion_5_utv_beats_gti(multi_room_setup):
    train, held = multi_room_setup
    rir_len = 1024

    gti, _, _ = train_gti(train, rir_len, 1500,
                          TrainHyper(lr=1e-3, loss="wave"), seed=2)
    gti_t60 = estimate_t60(assemble(gti.tail), FS)
    gti_err = float(np.mean([abs(gti_t60 - u.t60_truth) for u in held]))

    est = UtvEstimatorParams.init(257, 32, 32, 11, rir_len - 1, seed=2)
    adam = report = None
    cache = reverb_las(train)
    for lr, steps, start in ((1e-3, 300, 0), (1e-4, 700, 300)):
        hyper = TrainHyper(lr=lr, loss="wave", batch_size=4)
        est, adam, report = train_utv(train, est, steps, hyper, seed=2,
                                      adam=adam, start_step=start,
                                      report=report, las_cache=cache)
    held_las = reverb_las(held)
    errs = []
    within = 0
    for u, feats in zip(held, held_las):
        tail = predict_rir_tail(est, feats)
        try:
            t60 = estimate_t60(assemble(tail), FS)
        except ValueError:
            t60 = -1.0
        errs.append(abs(t60 - u.t60_truth))
        within += abs(t60 - u.t60_truth) <= 0.2 * u.t60_truth
    utv_err = float(np.mean(errs))
    print(f"\ncriterion 5: UTV within 20% on {within}/{len(held)} held-out "
          f"(bound >= {int(np.ceil(0.8 * len(held)))}); mean|err| UTV "
          f"{utv_err:.4f} vs GTI {gti_err:.4f} (UTV must be lower)")
    assert within >= 0.8 * len(held)
    assert utv_err < gti_err


@pytest.fixture(scope="module")
def mt_setup():
    """Criterion 6 setup: one room, 40 x 1 s utterances with F0 tracks."""
    room = RoomSpec("mt", 0.2, 2.0, 1, 33)
    rir = synth_rir(room, 800, FS, min_decay_db=0)
    return make_utterances([room], {"mt": rir}, 40, 1.0, 999)


def test_criterion_6_multitask_effect(mt_setup):
    utts = mt_setup
    cfg = default_stft_config(FS)
    results = {}
    for secondary_weight in (1.0, 0.0):
        hyper = TrainHyper(lr=1e-3, loss="wave",
                           secondary_weight=secondary_weight)
        voc = ToyVocoderParams.identity(32)
        est = UtvEstimatorParams.init(257, 16, 16, 11, 255, seed=6)
        voc, est, _, _ = train_mt(utts, voc, est, 1000, hyper, seed=6)
        sources = utterance_sources(utts, hyper, seed=6)
        results[secondary_weight] = float(np.mean(
            [_spectral_mse(vocoder_forward(voc, s)[0].samples,
                           u.dry.samples, cfg)[0]
             for u, s in zip(utts, sources)]))
    gain = 1.0 - results[1.0] / results[0.0]
    print(f"\ncriterion 6: dry LAS-MSE with MT {results[1.0]:.4f} vs without "
          f"{results[0.0]:.4f} ({100 * gain:.1f}% relative, bound 10%)")
    assert results[1.0] < results[0.0]
    assert gain >= 0.10


def test_criterion_7_t60_calibration():
    worst = 0.0
    for fs in (8000, 24000):
        for t60 in (0.1, 0.2, 0.3, 0.5):
            a = decay_rate(t60, fs)
            h = a ** np.arange(1, int(0.8 * t60 * fs) + 1)
            est = estimate_t60(h, fs)
            worst = max(worst, abs(est - t60) / t60)
    print(f"\ncriterion 7: worst relative T60 error {100 * worst:.3f}% "
          f"(bound 2%)")
    assert worst <= 0.02


def test_criterion_8_structural_constraints(tmp_path):
    # h1 = 1 and fir1 = 1 after every optimizer step
    room = RoomSpec("s8", 0.15, 2.0, 1, 12)
    rir = synth_rir(room, 128, FS, min_decay_db=0)
    utts = make_utterances([room], {"s8": rir}, 6, 0.5, 555)
    hyper = TrainHyper(lr=1e-3, loss="wave")
    gti = adam = report = None
    for step in range(10):
        gti, adam, report = train_gti(utts, 128, 1, hyper, seed=0, gti=gti,
                                      adam=adam, start_step=step, report=report)
        assert assemble(gti.tail)[0] == 1.0
    voc = ToyVocoderParams.identity(16)
    est = UtvEstimatorParams.init(257, 8, 8, 5, 63, seed=0)
    adam = report = None
    for step in range(10):
        voc, est, adam, report = train_mt(utts, voc, est, 1, hyper, seed=0,
                                          adam=adam, start_step=step,
                                          report=report)
        assert voc.fir[0] == 1.0
        tail = predict_rir_tail(est, reverb_las(utts[:1])[0])
        assert assemble(tail)[0] == 1.0

    # identity-RIR application is sample-exact
    dry = utts[0].dry
    identity = assemble(np.zeros(127))
    assert np.array_equal(convolve_fft(dry.samples, identity), dry.samples)

    # file-format roundtrips are bit-exact
    write_rir(tmp_path / "h.rir", Rir(gti.tail.copy(), FS))
    assert np.array_equal(read_rir(tmp_path / "h.rir").tail, gti.tail)
    write_wav(tmp_path / "d.wav", dry, bit_depth=32)
    w1 = read_wav(tmp_path / "d.wav")
    write_wav(tmp_path / "d2.wav", w1, bit_depth=32)
    assert np.array_equal(read_wav(tmp_path / "d2.wav").samples, w1.samples)
    params = {**est.as_dict("utv."), "voc.fir": voc.fir, **adam.state_dict()}
    save_checkpoint(tmp_path / "m.ckpt", params)
    back = load_checkpoint(tmp_path / "m.ckpt")
    assert all(np.array_equal(back[k], np.asarray(params[k], dtype=np.float64))
               for k in params)

    # fixed-seed reproducibility of a full training run
    a, _, ra = train_gti(utts, 128, 10, hyper, seed=4)
    b, _, rb = train_gti(utts, 128, 10, hyper, seed=4)
    assert np.array_equal(a.tail, b.tail)
    assert ra.final_checksum == rb.final_checksum
    print("\ncriterion 8: unit direct path held at every step; identity "
          "application, file roundtrips, and seeded reruns all exact")
