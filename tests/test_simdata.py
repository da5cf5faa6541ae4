import json

import numpy as np
import pytest

from reverbkit.convolve import convolve_fft
from reverbkit.dsp import Waveform
from reverbkit.fileio import read_wav, write_wav
from reverbkit.rir import RoomSpec, estimate_t60
from reverbkit.simdata import (DESK_SEEN_ROOMS, DESK_UNSEEN_ROOMS,
                               build_dataset, gen_f0_track, load_manifest,
                               load_utterances, room_rir_length, room_rirs,
                               synth_dry)

FS = 8000
TWO_ROOMS = (RoomSpec("ra", 0.12, 2.0, 1, 11), RoomSpec("rb", 0.25, 2.0, 1, 12))
ONE_UNSEEN = (RoomSpec("ru", 0.18, 2.0, 1, 21),)


def small_dataset(tmp_path, n=8, duration=0.4, seed=77):
    return build_dataset(TWO_ROOMS, ONE_UNSEEN, n, duration, FS,
                         tmp_path / "data", seed)


def test_room_rir_length_floor():
    assert room_rir_length(0.05, 8000) == 256
    assert room_rir_length(0.4, 8000) == 1600
    assert room_rir_length(0.5, 24000) == 6000


def test_f0_track_deterministic():
    a = gen_f0_track(5, 1.0, FS, 96)
    b = gen_f0_track(5, 1.0, FS, 96)
    assert np.array_equal(a.f0, b.f0)
    assert np.array_equal(a.vuv, b.vuv)


def test_f0_track_range_and_runs():
    t = gen_f0_track(9, 3.0, FS, 96)
    assert np.all((t.f0 >= 80.0) & (t.f0 <= 300.0))
    # voiced/unvoiced runs are at least 10 frames long
    changes = np.flatnonzero(np.diff(t.vuv.astype(int)))
    bounds = np.concatenate(([0], changes + 1, [len(t.vuv)]))
    assert np.all(np.diff(bounds) >= 10)


def test_f0_track_too_short_raises():
    with pytest.raises(ValueError):
        gen_f0_track(0, 0.01, FS, 96)


def test_synth_dry_deterministic():
    a, ta = synth_dry(3, 0.5, FS)
    b, tb = synth_dry(3, 0.5, FS)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(ta.f0, tb.f0)
    c, _ = synth_dry(4, 0.5, FS)
    assert not np.array_equal(a.samples, c.samples)


def test_build_dataset_layout(tmp_path):
    m = small_dataset(tmp_path)
    root = tmp_path / "data"
    assert (root / "manifest.json").exists()
    for e in m.entries:
        assert (root / e["dry_path"]).exists()
        assert (root / e["reverb_path"]).exists()
        assert (root / e["f0_path"]).exists()


def test_build_dataset_splits(tmp_path):
    m = build_dataset(TWO_ROOMS, ONE_UNSEEN, 40, 0.3, FS, tmp_path / "d", 1)
    counts = {s: sum(e["split"] == s for e in m.entries)
              for s in ("train", "val", "test_seen", "test_unseen")}
    assert counts["train"] == 36
    assert counts["val"] == 2
    assert counts["test_seen"] == 2
    assert counts["test_unseen"] == 4  # max(1, 40//10) per unseen room


def test_build_dataset_round_robin_rooms(tmp_path):
    m = small_dataset(tmp_path)
    seen = [e for e in m.entries if e["split"] != "test_unseen"]
    rooms = [e["room_id"] for e in seen]
    assert rooms == ["ra", "rb"] * 4


def test_build_dataset_reverb_consistent(tmp_path):
    # stored reverberant audio equals dry * the room's RIR up to float32
    m = small_dataset(tmp_path)
    rirs = room_rirs(m)
    utts = load_utterances(m, splits=("train", "val", "test_seen"))
    for u in utts[:3]:
        expect = convolve_fft(u.dry.samples, rirs[u.room_id].coefficients)
        assert np.max(np.abs(u.reverb.samples - expect)) <= 1e-6


def test_build_dataset_deterministic(tmp_path):
    m1 = build_dataset(TWO_ROOMS, ONE_UNSEEN, 6, 0.3, FS, tmp_path / "a", 9)
    m2 = build_dataset(TWO_ROOMS, ONE_UNSEEN, 6, 0.3, FS, tmp_path / "b", 9)
    b1 = (tmp_path / "a" / m1.entries[0]["dry_path"]).read_bytes()
    b2 = (tmp_path / "b" / m2.entries[0]["dry_path"]).read_bytes()
    assert b1 == b2
    j1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    j2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert j1 == j2


def test_manifest_roundtrip(tmp_path):
    m = small_dataset(tmp_path)
    loaded = load_manifest(tmp_path / "data" / "manifest.json")
    assert loaded.sample_rate == FS
    assert loaded.entries == m.entries
    assert set(loaded.rooms) == {"ra", "rb", "ru"}
    assert loaded.rooms["rb"].t60 == 0.25


def test_load_utterances_filters_split(tmp_path):
    m = small_dataset(tmp_path)
    unseen = load_utterances(m, splits=("test_unseen",))
    assert all(u.split == "test_unseen" for u in unseen)
    assert all(u.room_id == "ru" for u in unseen)
    assert len(unseen) > 0


@pytest.mark.parametrize("side,cut,rate,message", [
    ("reverb_path", 10, FS, "dry WAV has {n} samples, reverberant WAV {cut}"),
    ("dry_path", 10, FS, "dry WAV has {cut} samples, reverberant WAV {n}"),
    ("reverb_path", 0, 16000, "reverberant WAV is at 16000 Hz"),
    ("dry_path", 0, 16000, "dry WAV is at 16000 Hz"),
])
def test_load_utterances_rejects_mismatched_wavs(tmp_path, side, cut, rate, message):
    m = small_dataset(tmp_path)
    e = m.entries[3]
    path = m.root / e[side]
    samples = read_wav(path).samples
    n = len(samples)
    write_wav(path, Waveform(samples[: n - cut], rate), bit_depth=32)
    with pytest.raises(ValueError, match=message.format(n=n, cut=n - cut)) as err:
        load_utterances(m)
    assert str(err.value).startswith(f"utterance {e['utt_id']}: ")


def test_room_rirs_t60_self_consistent(tmp_path):
    m = build_dataset(DESK_SEEN_ROOMS, DESK_UNSEEN_ROOMS, 4, 0.3, FS,
                      tmp_path / "d", 2)
    for rid, rir in room_rirs(m).items():
        truth = m.rooms[rid].t60
        assert abs(estimate_t60(rir) - truth) <= 0.1 * truth, rid


def test_build_dataset_validation(tmp_path):
    with pytest.raises(ValueError):
        build_dataset((), (), 4, 0.3, FS, tmp_path / "d", 0)
    with pytest.raises(ValueError):
        build_dataset(TWO_ROOMS, (), 1, 0.3, FS, tmp_path / "d", 0)
    dup = (RoomSpec("x", 0.1, 2.0, 1, 1), RoomSpec("x", 0.2, 2.0, 1, 2))
    with pytest.raises(ValueError):
        build_dataset(dup, (), 4, 0.3, FS, tmp_path / "d", 0)


def test_f0_json_roundtrip(tmp_path):
    m = small_dataset(tmp_path)
    utts = load_utterances(m, splits=("train",))
    _, track = synth_dry([77, 0], 0.4, FS)
    assert np.array_equal(utts[0].f0.f0, track.f0)
    assert np.array_equal(utts[0].f0.vuv, track.vuv)
