"""Seeded fuzz test of every file reader and the commands that read them.

Each input file is truncated at a spread of lengths and has single bits
flipped at a spread of positions.  Every mutant either loads or raises
FormatError / ValueError, a checkpoint mutant never loads (its CRC catches
it), and through the CLI every mutant exits 0, or 1 with one error line.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from reverbkit.cli import run
from reverbkit.dsp import default_stft_config
from reverbkit.estimator import UtvEstimatorParams
from reverbkit.fileio import (FormatError, load_checkpoint, read_rir, read_wav,
                              save_checkpoint, write_rir, write_wav)
from reverbkit.rir import RoomSpec, synth_rir
from reverbkit.simdata import load_manifest, load_rooms, load_utterances

ROOMS = {"seen": [{"room_id": "ra", "t60": 0.12, "direct_to_reverb_db": 2.0,
                   "onset_delay": 1, "seed": 11},
                  {"room_id": "rb", "t60": 0.25, "seed": 12}],
         "unseen": [{"room_id": "ru", "t60": 0.18, "seed": 21}]}
SIMULATE = ["simulate", "--utts", "2", "--duration", "0.1"]


def mutants(raw, seed, header=32, spread=16):
    """Truncations of raw, then copies with one bit flipped: every byte of
    the header and `spread` random positions past it."""
    rng = np.random.default_rng(seed)
    n = len(raw)
    cuts = {0, 1, 4, 8, 12, 16, 20, 36, 44, n // 2, n - 4, n - 1}
    cuts |= {int(c) for c in rng.integers(0, n, spread)}
    for cut in sorted(c for c in cuts if 0 <= c < n):
        yield raw[:cut]
    positions = set(range(min(header, n))) | {int(p) for p in rng.integers(0, n, spread)}
    for pos in sorted(positions):
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << int(rng.integers(8))
        yield bytes(flipped)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A three-utterance dataset, an RIR, a UTV checkpoint and a PCM16 WAV."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "rooms.json").write_text(json.dumps(ROOMS))
    assert run(["--out", str(root), *SIMULATE, "--rooms", str(root / "rooms.json")]) == 0
    write_rir(root / "h.rir", synth_rir(RoomSpec("x", 0.1, 2.0, 1, 5), 512, 8000))
    est = UtvEstimatorParams.init(default_stft_config(8000).n_bins, 4, 4, 3, 31, seed=0)
    save_checkpoint(root / "utv.ckpt", est.as_dict("utv."))
    write_wav(root / "pcm16.wav", read_wav(root / "utt0000_rev.wav"), bit_depth=16)
    return root


def _manifest_with(files, tmp_path, **paths):
    """A copy of the dataset's manifest, its first entry's paths replaced."""
    m = json.loads((files / "manifest.json").read_text())
    entry = m["entries"][0]
    entry.update({k: str(files / v) for k, v in entry.items() if k.endswith("_path")},
                 **paths)
    m["entries"] = [entry]
    (tmp_path / "manifest.json").write_text(json.dumps(m))
    return str(tmp_path / "manifest.json")


def _exits_cleanly(capsys, argv):
    """run(argv)'s exit code, checked to be 0, or 1 with one error line; an
    exception it lets through (a traceback from the CLI) fails the test."""
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1), (argv, rc, err)
    if rc == 1:
        lines = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(lines) == 1 and err.rstrip().endswith(lines[0]), err
    return rc


def _read_error(read, path):
    """None if read(path) loads; its error if that is a ValueError (as
    FormatError and json.JSONDecodeError are)."""
    try:
        read(path)
    except ValueError as e:
        return e
    return None


SOURCES = {"wav16": "pcm16.wav", "wav32": "utt0000_rev.wav", "rir": "h.rir",
           "ckpt": "utv.ckpt", "manifest": "manifest.json", "rooms": "rooms.json",
           "f0": "utt0000_f0.json"}


@pytest.mark.parametrize("kind", SOURCES)
def test_mutated_file_loads_or_fails_cleanly(files, tmp_path, capsys, kind):
    path = tmp_path / ("m" + Path(SOURCES[kind]).suffix)
    ckpt, manifest = str(files / "utv.ckpt"), str(files / "manifest.json")
    evaluate = ["evaluate", "--split", "train,test_unseen", "--manifest"]
    if kind in ("wav16", "wav32"):
        read = read_wav
        commands = [evaluate + [_manifest_with(files, tmp_path, reverb_path=path.name),
                                "--model", ckpt]]
    elif kind == "rir":
        read = read_rir
        commands = [["t60", "--rir", str(path)], evaluate + [manifest, "--model", str(path)]]
    elif kind == "ckpt":
        read, commands = load_checkpoint, [evaluate + [manifest, "--model", str(path)]]
    elif kind == "manifest":
        for f in files.glob("utt*"):  # the entries' paths resolve beside the mutant
            (tmp_path / f.name).symlink_to(f)
        read, commands = load_manifest, [evaluate + [str(path), "--model", ckpt]]
    elif kind == "rooms":
        read = load_rooms
        commands = [["--out", str(tmp_path / "sim"), *SIMULATE, "--rooms", str(path)]]
    else:
        m = _manifest_with(files, tmp_path, f0_path=path.name)
        read = lambda _: load_utterances(load_manifest(m), ("train",))  # noqa: E731
        commands = [["--out", str(tmp_path / "run"), "train-gti", "--manifest", m,
                     "--rir-len", "32", "--steps", "0"]]
    raw = (files / SOURCES[kind]).read_bytes()
    for mutant in mutants(raw, seed=list(SOURCES).index(kind)):
        path.write_bytes(mutant)
        error = _read_error(read, path)
        assert error is None or str(path) in str(error)
        codes = [_exits_cleanly(capsys, argv) for argv in commands]
        if kind == "ckpt":  # the CRC catches every mutant
            assert isinstance(error, FormatError) and codes == [1]
