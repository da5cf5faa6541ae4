"""The four workloads and the checks on their outputs.

A workload builds its inputs from the seed, sets up, runs its timed
operations, and returns a `Run` with the operation times and the
evidence its checks need.  `verify(run)` then recomputes the outputs
along independent paths (see oracle.py), outside the timed region, and
returns the failed checks and the count of known failures.  The smoke
test corrupts that evidence to show every check can fail.
"""

import contextlib
import functools
import io
import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

import oracle
from reverbkit import (cli, convolve, dsp, estimator, fileio, rir, simdata,
                       training, vocoder)

FS = oracle.FS
LOSS_RTOL = 1e-6      # in-house FFT vs numpy.fft on a recomputed loss
CONV_RTOL = 1e-6      # acceptance criterion 1's bound
TARGET_ATOL = 1e-6    # a few float32 ulps at full scale
ROOM_T60_RTOL = 0.15


@dataclass
class Run:
    op_bounds: list           # (start, end) perf_counter of each operation
    op_cpu: list              # process CPU seconds of each operation
    op_ref: list              # CPU seconds of the reference paired with each
    audio_s: float            # audio seconds through the forward path, timed phase
    setup_end: float          # perf_counter when the first operation starts
    kind: str                 # "training" or "render"
    evidence: dict = field(default_factory=dict)


def _utterances(rooms, rirs, n, duration, seed):
    """n (dry, reverberant) pairs, rooms assigned round-robin."""
    utts = []
    for i in range(n):
        room = rooms[i % len(rooms)]
        dry, track = simdata.synth_dry([seed, i], duration, FS)
        rev = convolve.convolve_fft(dry, rirs[room.room_id].coefficients)
        utts.append(simdata.Utterance(f"u{i}", dry, rev, track, room.room_id,
                                      room.t60, "train"))
    return utts


def _desk_rooms():
    rooms = simdata.DESK_SEEN_ROOMS
    return rooms, {r.room_id: rir.synth_rir(r, simdata.room_rir_length(r.t60, FS),
                                            FS, min_decay_db=0.0) for r in rooms}


def _snapshot(params):
    return {k: np.array(v, copy=True) for k, v in params.items()}


def _train(clock, state, call, params, seconds, min_ops, audio_per_step,
           check_steps):
    """Warm up, run the timed steps in one training call, then check steps.

    call(start_step, steps) continues the training state in place;
    params() returns the current name -> array dict.
    """
    call(0, 1)  # warm-up: FFT plans and the first, identity-RIR step
    setup_end = time.perf_counter()
    # Plan the step count from the warm-up step's own wall time.
    step_s = state["report"].records[-1]["wall_ms"] / 1e3
    n = max(min_ops, math.ceil(seconds / step_s))
    clock.start()
    call(1, n)
    bounds, op_cpu, op_ref = clock.ops()
    if len(bounds) != n:
        raise RuntimeError(f"expected {n} optimizer steps, saw {len(bounds)}")
    checks = []
    for k in range(check_steps):
        step = 1 + n + k
        before = _snapshot(params())
        call(step, 1)
        rec = state["report"].records[-1]
        checks.append({"step": step, "before": before,
                       "after": _snapshot(params()),
                       "loss": rec["main_loss"], "secondary": rec["secondary_loss"]})
    return Run(bounds, op_cpu, op_ref, n * audio_per_step, setup_end, "training",
               {"checks": checks, "final": _snapshot(params())})


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def verify_training(run):
    """Loss recomputation, Adam step bound, h[0] == 1 and descent."""
    ev = run.evidence
    errors = []
    hy = ev["hyper"]
    bound = hy.lr * (1.0 - hy.beta1) / math.sqrt(1.0 - hy.beta2)
    for c in ev["checks"]:
        main, sec = ev["step_loss"](c["before"], c["step"])
        if not _close(c["loss"], main, LOSS_RTOL):
            errors.append(f"step {c['step']}: reported loss {c['loss']!r} != "
                          f"recomputed {main!r}")
        if sec is not None and not _close(c["secondary"], sec, LOSS_RTOL):
            errors.append(f"step {c['step']}: reported secondary loss "
                          f"{c['secondary']!r} != recomputed {sec!r}")
        for name in c["before"]:
            moved = float(np.max(np.abs(c["after"][name] - c["before"][name])))
            if moved > bound * (1.0 + 1e-9):
                errors.append(f"step {c['step']}: {name} moved {moved:.3e} > "
                              f"Adam bound {bound:.3e}")
    for h0 in ev["h0"]:
        if h0 != 1.0:
            errors.append(f"direct path h[0] = {h0!r}, not 1")
    learned = ev["probe_loss"](ev["final"], identity=False)
    identity = ev["probe_loss"](ev["final"], identity=True)
    if not learned < identity:
        errors.append(f"no descent: probe loss {learned:.6g} with the learned "
                      f"model, {identity:.6g} with the identity RIR")
    return errors, 0


def _h(tail):
    return np.concatenate(([1.0], tail))


def gti_mrsd(seed, seconds, clock, workdir, utts=16, duration=2.0,
             rir_len=256, batch=4, min_ops=40, check_steps=3, probe=4):
    """GTI under MRSD: batch 4 x 2 s, L=256, one room with T60 0.15 s."""
    room = rir.RoomSpec("gti", 0.15, 2.0, 1, seed)
    truth = rir.synth_rir(room, rir_len, FS, min_decay_db=0.0)
    data = _utterances([room], {"gti": truth}, utts, duration, seed)
    hyper = training.TrainHyper(lr=1e-3, loss="mrsd", batch_size=batch)
    state = {"gti": rir.GtiRir.zeros(rir_len, FS), "adam": None, "report": None}

    def call(start, steps):
        g, a, r = training.train_gti(data, rir_len, steps, hyper, seed=seed,
                                     gti=state["gti"], adam=state["adam"],
                                     start_step=start, report=state["report"])
        state.update(gti=g, adam=a, report=r)

    def params():
        return {"gti.tail": state["gti"].tail}

    run = _train(clock, state, call, params, seconds, min_ops,
                 batch * duration, check_steps)

    def step_loss(p, step):
        h = _h(p["gti.tail"])
        idx = oracle.batch_indices(seed, step, len(data), batch)
        return float(np.mean([oracle.mrsd(oracle.conv(data[i].dry.samples, h),
                                          data[i].reverb.samples)
                              for i in idx])), None

    def probe_loss(p, identity):
        h = np.ones(1) if identity else _h(p["gti.tail"])
        return float(np.mean([oracle.mrsd(oracle.conv(u.dry.samples, h),
                                          u.reverb.samples) for u in data[:probe]]))

    run.evidence.update(hyper=hyper, step_loss=step_loss, probe_loss=probe_loss,
                        h0=[state["gti"].coefficients[0]])
    return run


def _oracle_las(data):
    return functools.lru_cache(maxsize=None)(lambda i: oracle.las(data[i].reverb.samples))


def _utv_params(p):
    return {k.split(".", 1)[1]: v for k, v in p.items() if k.startswith("utv.")}


def utv_wave(seed, seconds, clock, workdir, per_room=10, duration=1.0,
             rir_len=1024, batch=4, hidden=32, channels=32, kernel=11,
             min_ops=100, check_steps=3, probe=4):
    """UTV under waveform MSE: batch 4 x 1 s, L=1024, the four seen desk rooms."""
    rooms, rirs = _desk_rooms()
    data = _utterances(rooms, rirs, per_room * len(rooms), duration, seed)
    # Criterion 5's second-phase rate.  At 1e-3 the probe loss climbs back
    # above the identity RIR's after ~100 steps on some seeds, so the
    # descent check would pass or fail by seed.
    hyper = training.TrainHyper(lr=1e-4, loss="wave", batch_size=batch)
    est = estimator.UtvEstimatorParams.init(dsp.DESK_STFT_8K.n_bins, hidden,
                                            channels, kernel, rir_len - 1, seed=seed)
    las_cache = training.reverb_las(data)
    state = {"adam": None, "report": None}

    def call(start, steps):
        _, a, r = training.train_utv(data, est, steps, hyper, seed=seed,
                                     adam=state["adam"], start_step=start,
                                     report=state["report"], las_cache=las_cache)
        state.update(adam=a, report=r)

    def params():
        return est.as_dict("utv.")

    run = _train(clock, state, call, params, seconds, min_ops,
                 batch * duration, check_steps)
    feats = _oracle_las(data)

    def wave(p, i):
        h = _h(oracle.estimator_tail(_utv_params(p), feats(i)))
        return oracle.wave_mse(oracle.conv(data[i].dry.samples, h),
                               data[i].reverb.samples)

    def step_loss(p, step):
        idx = oracle.batch_indices(seed, step, len(data), batch)
        return float(np.mean([wave(p, int(i)) for i in idx])), None

    def probe_loss(p, identity):
        if identity:
            return float(np.mean([oracle.wave_mse(u.dry.samples, u.reverb.samples)
                                  for u in data[:probe]]))
        return float(np.mean([wave(p, i) for i in range(probe)]))

    h0 = [rir.assemble(training.predict_rir_tail(est, las_cache[i]))[0]
          for i in range(probe)]
    run.evidence.update(hyper=hyper, step_loss=step_loss, probe_loss=probe_loss,
                        h0=h0)
    return run


def mt_joint(seed, seconds, clock, workdir, per_room=10, duration=1.0,
             rir_len=256, fir_taps=32, hidden=32, channels=32, kernel=11,
             min_ops=100, check_steps=3, probe=4):
    """Vocoder FIR + UTV jointly, MRSD plus the secondary dry loss, batch 1 x 1 s."""
    rooms, rirs = _desk_rooms()
    data = _utterances(rooms, rirs, per_room * len(rooms), duration, seed)
    hyper = training.TrainHyper(lr=1e-3, loss="mrsd", batch_size=1,
                                secondary_weight=1.0)
    voc = vocoder.ToyVocoderParams.identity(fir_taps)
    est = estimator.UtvEstimatorParams.init(dsp.DESK_STFT_8K.n_bins, hidden,
                                            channels, kernel, rir_len - 1, seed=seed)
    state = {"adam": None, "report": None}

    def call(start, steps):
        _, _, a, r = training.train_mt(data, voc, est, steps, hyper, seed=seed,
                                       adam=state["adam"], start_step=start,
                                       report=state["report"])
        state.update(adam=a, report=r)

    def params():
        return {"voc.fir": voc.fir, **est.as_dict("utv.")}

    run = _train(clock, state, call, params, seconds, min_ops, duration,
                 check_steps)
    feats = _oracle_las(data)
    sources = [s.samples for s in training.utterance_sources(data, hyper, seed)]

    def losses(p, i, identity=False):
        dry_hat = oracle.conv(sources[i], p["voc.fir"])
        h = np.ones(1) if identity else _h(oracle.estimator_tail(_utv_params(p), feats(i)))
        main = oracle.mrsd(oracle.conv(dry_hat, h), data[i].reverb.samples)
        return main, hyper.secondary_weight * oracle.secondary(dry_hat, data[i].dry.samples)

    def step_loss(p, step):
        i = int(oracle.batch_indices(seed, step, len(data), 1)[0])
        return losses(p, i)

    def probe_loss(p, identity):
        # The learned vocoder either way; only the reverberation differs.
        return float(np.mean([losses(p, i, identity)[0] for i in range(probe)]))

    las_cache = training.reverb_las(data[:probe])
    h0 = [rir.assemble(training.predict_rir_tail(est, x))[0] for x in las_cache]
    run.evidence.update(hyper=hyper, step_loss=step_loss, probe_loss=probe_loss,
                        h0=h0)
    return run


# The rendering model is fixed, like the dataset.  Its RIRs change which
# T60 fit runs (direct line fit, ~0.3 ms, or the truncated-decay search,
# 12-15 ms) and how loud the rendered output gets, and both vary widely
# from one model seed to the next.  Model seed 7 sends 29 of the 240
# utterances through the truncated fit (10 of them end at its grid
# edge) and keeps every rendered sample within [-0.74, 0.74].
RENDER_MODEL_SEED = 7


def render_eval(seed, seconds, clock, workdir, utts=200, duration=1.0,
                train_utts=40, train_steps=10, rir_len=256, min_rounds=3):
    """Inference: per utterance read, LAS, estimator, T60, render, write.

    The dataset is always `simulate --seed 0` and the model is always
    RENDER_MODEL_SEED: the utterances that write_wav clips are then the
    same in every run, so the failed count is the same share of every
    round.  The benchmark seed sets the order of the utterances.
    """
    ds = workdir / "data"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):  # simulate's own report
        rc = cli.run(["--out", str(ds), "--seed", "0", "simulate",
                      "--utts", str(utts), "--duration", str(duration),
                      "--fs", str(FS)])
    if rc != 0:
        raise RuntimeError(f"simulate exited with {rc}")
    manifest = simdata.load_manifest(ds / "manifest.json")
    train = simdata.load_utterances(manifest, ("train",))[:train_utts]
    est = estimator.UtvEstimatorParams.init(dsp.DESK_STFT_8K.n_bins, 32, 32, 11,
                                            rir_len - 1, seed=RENDER_MODEL_SEED)
    est, _, _ = training.train_utv(train, est, train_steps,
                                   training.TrainHyper(lr=1e-3, loss="wave"),
                                   seed=RENDER_MODEL_SEED)
    saved = est.as_dict("utv.")
    fileio.save_checkpoint(workdir / "utv.ckpt", saved)
    loaded = fileio.load_checkpoint(workdir / "utv.ckpt")
    model = estimator.UtvEstimatorParams.from_dict(loaded, "utv.")
    wet_dir = workdir / "wet"
    wet_dir.mkdir()
    root = manifest.root
    entries = manifest.entries
    order = np.random.default_rng(seed).permutation(len(entries))

    def op(e):
        dry = fileio.read_wav(root / e["dry_path"])
        rev = fileio.read_wav(root / e["reverb_path"])
        tail, _ = estimator.estimator_forward(model, dsp.las(rev).values)
        h = rir.assemble(tail)
        try:
            t60 = rir.estimate_t60(h, manifest.sample_rate)
        except ValueError:
            t60 = None
        wet = convolve.convolve_fft(dry, h)
        fileio.write_wav(wet_dir / f"{e['utt_id']}_wet.wav", wet, bit_depth=32)
        return dry.samples, h, t60, wet.samples

    op(entries[order[0]])  # warm-up
    setup_end = time.perf_counter()
    round_crcs = []
    clock.start()
    t0 = time.perf_counter()
    while len(round_crcs) < min_rounds or time.perf_counter() - t0 < seconds:
        crc, last = 0, {}
        for k in order:
            last[k] = op(entries[k])
            clock.lap()
            crc = zlib.crc32(last[k][3].tobytes(), crc)
        round_crcs.append(crc)
    bounds, op_cpu, op_ref = clock.ops()
    return Run(bounds, op_cpu, op_ref, len(bounds) * duration, setup_end, "render",
               {"manifest": manifest, "wet_dir": wet_dir, "last": last,
                "round_crcs": round_crcs, "saved": saved, "loaded": loaded,
                "duration": duration, "rooms": simdata.room_rirs(manifest)})


def _clipped(x):
    return float(np.max(np.abs(x))) > 1.0


def verify_render(run):
    """Criterion-1 oracle, WAV read-back, stored targets, room T60s.

    A mismatch on a file whose samples exceed [-1, 1] is write_wav's
    hard clip, a known fault: it fails the operation, not the benchmark.
    """
    ev = run.evidence
    m = ev["manifest"]
    errors, known = [], set()
    if len(set(ev["round_crcs"])) != 1:
        errors.append(f"rounds rendered different outputs: {ev['round_crcs']}")
    for k in ev["saved"]:
        if not np.array_equal(ev["saved"][k], ev["loaded"].get(k)):
            errors.append(f"checkpoint round trip changed {k}")
    rooms = ev["rooms"]
    for rid, h in rooms.items():
        design = m.rooms[rid].t60
        try:
            t60 = rir.estimate_t60(h)
        except ValueError as exc:
            t60 = exc
        if isinstance(t60, ValueError) or abs(t60 - design) > ROOM_T60_RTOL * design:
            errors.append(f"{rid}: T60 {t60} s, design {design} s")
    for k, (dry, h, t60, wet) in ev["last"].items():
        e = m.entries[k]
        uid = e["utt_id"]
        dry64, _ = simdata.synth_dry([0, k], ev["duration"], m.sample_rate)
        if not np.array_equal(dry, dry64.samples.astype(np.float32)):
            errors.append(f"{uid}: dry file does not read back as written")
        target = oracle.conv(dry64.samples, rooms[e["room_id"]].coefficients)
        stored = fileio.read_wav(m.root / e["reverb_path"]).samples
        if np.max(np.abs(stored - target.astype(np.float32))) > TARGET_ATOL:
            if _clipped(target):
                known.add(k)
            else:
                errors.append(f"{uid}: stored target is not dry * room RIR")
        if h[0] != 1.0:
            errors.append(f"{uid}: direct path h[0] = {h[0]!r}, not 1")
        ref = oracle.conv(dry, h)
        if np.max(np.abs(wet - ref)) > CONV_RTOL * np.max(np.abs(ref)):
            errors.append(f"{uid}: rendered output is not dry * h")
        back = fileio.read_wav(ev["wet_dir"] / f"{uid}_wet.wav").samples
        if not np.array_equal(back, wet.astype(np.float32)):
            if _clipped(wet):
                known.add(k)
            else:
                errors.append(f"{uid}: rendered WAV does not read back as written")
    return errors, len(known) * len(ev["round_crcs"])


def verify(run):
    return verify_render(run) if run.kind == "render" else verify_training(run)


# name -> (workload, tail percentile).  Each percentile leaves at least
# ten operations beyond it at the workload's minimum operation count.
WORKLOADS = {
    "gti_mrsd": (gti_mrsd, 75),
    "utv_wave": (utv_wave, 90),
    "mt_joint": (mt_joint, 90),
    "render_eval": (render_eval, 98),
}
