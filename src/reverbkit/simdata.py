"""Deterministic multi-room dry/reverberant dataset synthesis.

Dry utterances are sine-source excitations shaped by one fixed
spectrally rich FIR; each is convolved with its room's synthetic RIR to
produce the reverberant side.  Everything derives from the top-level
seed, so a rebuild is byte-identical.
"""

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .convolve import convolve_fft
from .dsp import Waveform
from .fileio import read_wav, write_wav
from .rir import RoomSpec, synth_rir
from .vocoder import F0Track, ToyVocoderParams, sine_source, vocoder_forward

@dataclass
class Utterance:
    utt_id: str
    dry: Waveform
    reverb: Waveform
    f0: F0Track
    room_id: str
    t60_truth: float
    split: str


@dataclass
class DatasetManifest:
    entries: list
    rooms: dict  # room_id -> RoomSpec
    sample_rate: int
    root: Path = field(default=Path("."))


# Desk defaults mirroring the seen/unseen room structure: unseen T60s sit
# outside the seen range so generalization is actually tested.
DESK_SEEN_ROOMS = (
    RoomSpec("room_a", 0.10, 2.0, 1, 101),
    RoomSpec("room_b", 0.20, 2.0, 1, 102),
    RoomSpec("room_c", 0.30, 2.0, 1, 103),
    RoomSpec("room_d", 0.40, 2.0, 1, 104),
)
DESK_UNSEEN_ROOMS = (
    RoomSpec("room_u1", 0.15, 2.0, 1, 201),
    RoomSpec("room_u2", 0.50, 2.0, 1, 202),
)


def room_rir_length(t60, sample_rate):
    """Long enough for >= 30 dB of envelope decay (and T60 estimation)."""
    return max(256, int(np.ceil(0.5 * t60 * sample_rate)))


def gen_f0_track(seed, duration, fs, frame_shift):
    """Piecewise-smooth F0 random walk in [80, 300] Hz with voiced/unvoiced
    runs of at least 10 frames; deterministic from the seed."""
    n_frames = int(duration * fs) // frame_shift
    if n_frames < 2:
        raise ValueError("duration must cover at least two frames")
    rng = np.random.default_rng(seed)
    f0 = np.empty(n_frames)
    f0[0] = rng.uniform(120.0, 260.0)
    steps = rng.normal(0.0, 3.0, n_frames - 1)
    for t in range(1, n_frames):
        f0[t] = np.clip(f0[t - 1] + steps[t - 1], 80.0, 300.0)
    vuv = np.empty(n_frames, dtype=bool)
    pos = 0
    state = bool(rng.integers(0, 2))
    while pos < n_frames:
        run = int(rng.integers(10, 40))
        if n_frames - (pos + run) < 10:  # absorb a too-short final run
            run = n_frames - pos
        vuv[pos : pos + run] = state
        pos += run
        state = not state
    return F0Track(f0, vuv, frame_shift, fs)


def _rich_fir():
    """Fixed spectrally rich 24-tap shaping filter shared by every dry utterance."""
    rng = np.random.default_rng(12345)
    return ToyVocoderParams(0.5 * rng.uniform(-1.0, 1.0, 23)
                            * (0.85 ** np.arange(1, 24)))


def synth_dry(seed, duration, fs):
    """One deterministic dry utterance plus its F0 track (96-sample frames)."""
    track = gen_f0_track([seed, 1], duration, fs, frame_shift=96)
    source = sine_source(track, harmonics=8, amp=0.3, seed=[seed, 2])
    dry, _ = vocoder_forward(_rich_fir(), source)
    return dry, track


def _f0_to_json(track):
    return {"f0": track.f0.tolist(), "vuv": track.vuv.astype(int).tolist(),
            "frame_shift": track.frame_shift, "sample_rate": track.sample_rate}


def _room_rirs(rooms, fs):
    """Each room's ground-truth RIR, by room_id."""
    return {r.room_id: synth_rir(r, room_rir_length(r.t60, fs), fs, min_decay_db=0.0)
            for r in rooms}


def build_dataset(rooms, unseen_rooms, n_utts, duration, fs, out_dir, seed):
    """Write a dataset to out_dir and return its manifest.

    Seen-room utterances are split 90/5/5 (train/val/test_seen); a
    separate batch of n_utts // 10 (at least 1) utterances per unseen room
    forms test_unseen.  Rooms are
    assigned round-robin.  Fully deterministic from the seed.
    """
    rooms = list(rooms)
    unseen_rooms = list(unseen_rooms)
    if not rooms:
        raise ValueError("need at least one seen room")
    if n_utts < len(rooms):
        raise ValueError("need at least one utterance per room")
    all_rooms = rooms + unseen_rooms
    ids = [r.room_id for r in all_rooms]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate room_ids")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rirs = _room_rirs(all_rooms, fs)
    n_unseen_utts = max(1, n_utts // 10) * len(unseen_rooms)

    n_train = int(round(n_utts * 0.90))
    n_val = int(round(n_utts * 0.05))
    splits = (["train"] * n_train + ["val"] * n_val
              + ["test_seen"] * (n_utts - n_train - n_val))

    entries = []

    def emit(utt_idx, room, split):
        utt_id = f"utt{utt_idx:04d}"
        dry, track = synth_dry([seed, utt_idx], duration, fs)
        reverb = convolve_fft(dry, rirs[room.room_id].coefficients)
        dry_path = f"{utt_id}_dry.wav"
        rev_path = f"{utt_id}_rev.wav"
        f0_path = f"{utt_id}_f0.json"
        write_wav(out / dry_path, dry, bit_depth=32)
        write_wav(out / rev_path, reverb, bit_depth=32)
        (out / f0_path).write_text(json.dumps(_f0_to_json(track)), encoding="utf-8")
        entries.append({
            "utt_id": utt_id, "dry_path": dry_path, "reverb_path": rev_path,
            "f0_path": f0_path, "room_id": room.room_id,
            "t60_truth": room.t60, "split": split,
        })

    for i in range(n_utts):
        emit(i, rooms[i % len(rooms)], splits[i])
    for j in range(n_unseen_utts):
        emit(n_utts + j, unseen_rooms[j % len(unseen_rooms)], "test_unseen")

    manifest = {
        "sample_rate": fs,
        "seed": seed,
        "duration": duration,
        "rooms": [{**asdict(r), "seen": r in rooms} for r in all_rooms],
        "entries": entries,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return DatasetManifest(entries, {r.room_id: r for r in all_rooms}, fs, out)


def check_fields(d, fields, where, optional=()):
    """d, checked to be a JSON object whose fields have their declared types.

    fields maps each key to list, str, int or float; every key outside
    optional must be present.  An int may stand for a float, a bool for
    neither.  ValueError names where and the first bad field.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for key, kind in fields.items():
        if key not in d:
            if key in optional:
                continue
            raise ValueError(f"{where}: missing key {key!r}")
        val = d[key]
        if isinstance(val, bool) or not isinstance(
                val, (int, float) if kind is float else kind):
            raise ValueError(f"{where}: {key!r} must be {kind.__name__}, "
                             f"not {type(val).__name__}")
    return d


def read_json(path):
    """The content of a JSON file; an undecodable file is a ValueError that
    names it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # json.JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {e}") from e


ROOM_FIELDS = {f.name: f.type for f in fields(RoomSpec)}
ENTRY_FIELDS = {"split": str, "utt_id": str, "room_id": str, "t60_truth": float,
                "dry_path": str, "reverb_path": str, "f0_path": str}
F0_FIELDS = {"f0": list, "vuv": list, "frame_shift": int, "sample_rate": int}


def _room_from_json(r, where, optional):
    """The RoomSpec of one JSON room; an optional direct_to_reverb_db or
    onset_delay that is absent defaults to 2.0 dB or 1 sample."""
    check_fields(r, ROOM_FIELDS, where, optional)
    return RoomSpec(r["room_id"], r["t60"], r.get("direct_to_reverb_db", 2.0),
                    r.get("onset_delay", 1), r["seed"])


def load_rooms(path):
    """(seen, unseen) RoomSpec lists of a rooms file {"seen": [...], "unseen": [...]};
    unseen and each room's direct_to_reverb_db and onset_delay may be left out."""
    d = check_fields(read_json(path), {"seen": list, "unseen": list}, path,
                     optional=("unseen",))
    optional = ("direct_to_reverb_db", "onset_delay")
    return tuple([_room_from_json(r, f"{path}: {group} room {i}", optional)
                  for i, r in enumerate(d.get(group, []))]
                 for group in ("seen", "unseen"))


def load_manifest(path):
    path = Path(path)
    d = check_fields(read_json(path),
                     {"rooms": list, "entries": list, "sample_rate": int}, path)
    rooms = [_room_from_json(r, f"{path}: room {i}", ())
             for i, r in enumerate(d["rooms"])]
    for i, e in enumerate(d["entries"]):
        check_fields(e, ENTRY_FIELDS, f"{path}: entry {i}")
    return DatasetManifest(d["entries"], {r.room_id: r for r in rooms},
                           d["sample_rate"], path.parent)


def load_utterances(manifest, splits=("train",)):
    """Materialize Utterance objects for the requested splits.

    An entry whose dry and reverberant WAVs differ in length, or either of
    which is not at the manifest's sample rate, is a ValueError naming it.
    """
    utts = []
    for e in manifest.entries:
        if e["split"] not in splits:
            continue
        dry = read_wav(manifest.root / e["dry_path"])
        reverb = read_wav(manifest.root / e["reverb_path"])
        for side, w in (("dry", dry), ("reverberant", reverb)):
            if w.sample_rate != manifest.sample_rate:
                raise ValueError(f"utterance {e['utt_id']}: {side} WAV is at "
                                 f"{w.sample_rate} Hz, the manifest at "
                                 f"{manifest.sample_rate} Hz")
        if len(dry) != len(reverb):
            raise ValueError(f"utterance {e['utt_id']}: dry WAV has {len(dry)} "
                             f"samples, reverberant WAV {len(reverb)}")
        f0_path = manifest.root / e["f0_path"]
        d = check_fields(read_json(f0_path), F0_FIELDS, f0_path)
        f0 = F0Track(d["f0"], d["vuv"], d["frame_shift"], d["sample_rate"])
        utts.append(Utterance(e["utt_id"], dry, reverb, f0, e["room_id"],
                              e["t60_truth"], e["split"]))
    return utts


def room_rirs(manifest):
    """Regenerate every room's ground-truth RIR from the manifest."""
    return _room_rirs(manifest.rooms.values(), manifest.sample_rate)
