"""Seconds-long smoke test of the benchmark; not part of tier-1.

    python3 bench/smoke.py

Runs every workload at a tiny size and asserts that all its checks
pass.  Then, for each check, corrupts one output and asserts that the
check reports it.  Exits 0 on success.
"""

import contextlib
import dataclasses
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from reverbkit import dsp, fileio, rir  # noqa: E402

TINY = {
    "gti_mrsd": dict(utts=3, duration=0.25, rir_len=64, batch=2, min_ops=2,
                     check_steps=2, probe=2),
    "utv_wave": dict(per_room=1, duration=0.25, rir_len=64, batch=2, hidden=4,
                     channels=4, kernel=3, min_ops=2, check_steps=2, probe=2),
    "mt_joint": dict(per_room=1, duration=0.25, rir_len=64, fir_taps=8, hidden=4,
                     channels=4, kernel=3, min_ops=2, check_steps=2, probe=2),
    "render_eval": dict(utts=8, duration=0.25, train_utts=4, train_steps=2,
                        min_rounds=1),
}


def with_evidence(run, **changes):
    """A copy of run whose evidence has some entries replaced."""
    return dataclasses.replace(run, evidence={**run.evidence, **changes})


def changed_check(checks, key, fn):
    first = dict(checks[0])
    first[key] = fn(first[key])
    return [first] + checks[1:]


def bump_first(params):
    name = sorted(params)[0]
    out = dict(params)
    out[name] = params[name].copy()
    out[name].flat[0] += 1.0
    return out


def training_corruptions(run):
    ev = run.evidence
    bound = ev["hyper"].lr * (1 - ev["hyper"].beta1) / np.sqrt(1 - ev["hyper"].beta2)

    def push(after):
        out = {k: v.copy() for k, v in after.items()}
        name = sorted(out)[-1]
        out[name].flat[-1] += 10 * bound
        return out

    def louder(final):  # every reverberation weight 5: a tail far too loud
        return {k: v if k == "voc.fir" else np.full_like(v, 5.0)
                for k, v in final.items()}

    yield "reported loss", with_evidence(
        run, checks=changed_check(ev["checks"], "loss", lambda v: v * (1 + 1e-4)))
    if ev["checks"][0]["secondary"] is not None:
        yield "reported secondary loss", with_evidence(
            run, checks=changed_check(ev["checks"], "secondary",
                                      lambda v: v * (1 + 1e-4)))
    yield "Adam bound", with_evidence(
        run, checks=changed_check(ev["checks"], "after", push))
    yield "direct path", with_evidence(run, h0=[0.5] + ev["h0"][1:])
    yield "no descent", with_evidence(run, final=louder(ev["final"]))


def rewrite_wav(path, fn):
    """Overwrite a WAV with fn(samples); returns a function that undoes it."""
    original = path.read_bytes()
    w = fileio.read_wav(path)
    fileio.write_wav(path, dsp.Waveform(fn(w.samples), w.sample_rate), bit_depth=32)
    return lambda: path.write_bytes(original)


def render_corruptions(run):
    ev = run.evidence
    m = ev["manifest"]
    k = sorted(ev["last"])[0]
    dry, h, t60, wet = ev["last"][k]
    entry = m.entries[k]

    def replace_last(**fields):
        d = dict(zip(("dry", "h", "t60", "wet"), ev["last"][k]))
        d.update(fields)
        return with_evidence(run, last={**ev["last"], k: tuple(d.values())})

    yield "rounds rendered different", with_evidence(
        run, round_crcs=ev["round_crcs"] + [ev["round_crcs"][0] + 1])
    yield "checkpoint round trip", with_evidence(run, loaded=bump_first(ev["loaded"]))
    rooms = dict(ev["rooms"])  # room_a (T60 0.1 s) given room_b's decay (0.2 s)
    rooms["room_a"] = rir.Rir(rooms["room_b"].tail[: len(rooms["room_a"].tail)],
                              rooms["room_a"].sample_rate)
    yield "room_a: T60", with_evidence(run, rooms=rooms)
    yield "dry file does not read back", replace_last(dry=dry * (1 + 1e-3))
    h_bad = h.copy()
    h_bad[0] = 0.5
    yield "direct path", replace_last(h=h_bad)
    yield "rendered output is not dry * h", replace_last(wet=wet * (1 + 1e-3))
    undo = rewrite_wav(ev["wet_dir"] / f"{entry['utt_id']}_wet.wav", lambda x: 0.5 * x)
    yield "rendered WAV does not read back", run
    undo()
    undo = rewrite_wav(m.root / entry["reverb_path"], lambda x: 0.5 * x)
    yield "stored target is not dry * room RIR", run
    undo()


def main():
    clock = spans.StepClock()
    restore = clock.install()
    base = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, sizes in TINY.items():
            workdir = base / name
            workdir.mkdir(parents=True)
            run = workloads.WORKLOADS[name][0](0, 0.0, clock, workdir, **sizes)
            errors, failed = workloads.verify(run)
            assert not errors, (name, errors)
            print(f"{name}: {len(run.op_bounds)} operations, checks pass, {failed} failed")
            corrupt = render_corruptions if run.kind == "render" else training_corruptions
            for expect, bad in corrupt(run):
                with np.errstate(all="ignore"):  # corrupted weights overflow
                    errors, _ = workloads.verify(bad)
                assert any(expect in e for e in errors), (name, expect, errors)
                print(f"  corrupted -> caught: {expect}")
    finally:
        restore()
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()  # only when no benchmark run still uses it
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
