import struct
import zlib

import numpy as np
import pytest

from reverbkit.dsp import Waveform
from reverbkit.fileio import (FormatError, load_checkpoint, read_rir, read_wav,
                              save_checkpoint, write_rir, write_wav)
from reverbkit.rir import Rir


def test_wav_float32_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1.0, 1.0, 1000).astype(np.float32).astype(np.float64)
    w = Waveform(samples, 8000)
    p = tmp_path / "a.wav"
    write_wav(p, w, bit_depth=32)
    back = read_wav(p)
    assert back.sample_rate == 8000
    assert np.array_equal(back.samples, samples)


def test_wav_float32_double_roundtrip_stable(tmp_path):
    # after one float32 quantization, further roundtrips are bit-exact
    w = Waveform(np.random.default_rng(1).uniform(-1, 1, 500), 24000)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(p1, w, bit_depth=32)
    b1 = read_wav(p1)
    write_wav(p2, b1, bit_depth=32)
    b2 = read_wav(p2)
    assert np.array_equal(b1.samples, b2.samples)


def test_wav_pcm16_roundtrip(tmp_path):
    w = Waveform(np.linspace(-1, 1, 101), 8000)
    p = tmp_path / "a.wav"
    write_wav(p, w, bit_depth=16)
    back = read_wav(p)
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32767.0


def test_wav_pcm16_integer_roundtrip_stable(tmp_path):
    w = Waveform(np.random.default_rng(2).uniform(-1, 1, 333), 8000)
    p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav(p1, w, bit_depth=16)
    b1 = read_wav(p1)
    write_wav(p2, b1, bit_depth=16)
    b2 = read_wav(p2)
    assert np.array_equal(b1.samples, b2.samples)


def test_wav_clipping(tmp_path):
    w = Waveform(np.array([-2.0, 0.0, 2.0]), 8000)
    p = tmp_path / "a.wav"
    write_wav(p, w, bit_depth=32)
    assert np.array_equal(read_wav(p).samples, [-1.0, 0.0, 1.0])


def test_wav_odd_sample_count_round_trips(tmp_path):
    # PCM16 with an odd sample count: 2 bytes a sample keep every chunk even
    w = Waveform(np.zeros(3), 8000)
    p = tmp_path / "a.wav"
    write_wav(p, w, bit_depth=16)
    raw = p.read_bytes()
    assert len(raw) % 2 == 0
    assert len(read_wav(p).samples) == 3


def test_wav_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"not a wav at all")
    with pytest.raises(FormatError):
        read_wav(p)


def test_wav_rejects_stereo(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
    data = b"\x00" * 8
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    p = tmp_path / "st.wav"
    p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(FormatError):
        read_wav(p)


def test_wav_rejects_unknown_encoding(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 64000, 8, 64)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 8) + b"\x00" * 8)
    p = tmp_path / "x.wav"
    p.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(FormatError):
        read_wav(p)


def _wav_bytes(fmt, data, data_size=None):
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
            + struct.pack("<I", len(data) if data_size is None else data_size) + data)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_wav_rejects_short_fmt_chunk(tmp_path):
    p = tmp_path / "x.wav"
    p.write_bytes(_wav_bytes(struct.pack("<HHII", 1, 1, 8000, 16000), b"\x00" * 8))
    with pytest.raises(FormatError, match="fmt chunk too short"):
        read_wav(p)


def test_wav_rejects_data_past_end_of_file(tmp_path):
    # 100 PCM16 samples declared, 50 present: no silent truncation
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    p = tmp_path / "x.wav"
    p.write_bytes(_wav_bytes(fmt, b"\x00" * 100, data_size=200))
    with pytest.raises(FormatError, match="past the end"):
        read_wav(p)


def test_wav_bad_bit_depth(tmp_path):
    with pytest.raises(FormatError):
        write_wav(tmp_path / "a.wav", Waveform(np.zeros(4), 8000), bit_depth=24)


def test_rir_roundtrip_bit_exact(tmp_path):
    tail = np.random.default_rng(3).standard_normal(255)
    r = Rir(tail, 8000)
    p = tmp_path / "a.rir"
    write_rir(p, r)
    back = read_rir(p)
    assert back.sample_rate == 8000
    assert np.array_equal(back.tail, tail)
    assert back.coefficients[0] == 1.0


def test_rir_rejects_bad_magic(tmp_path):
    p = tmp_path / "a.rir"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError):
        read_rir(p)


def test_rir_rejects_bad_version(tmp_path):
    p = tmp_path / "a.rir"
    p.write_bytes(b"RIR1" + struct.pack("<III", 9, 8000, 1)
                  + np.array([1.0]).tobytes())
    with pytest.raises(FormatError):
        read_rir(p)


def test_rir_rejects_nonunit_direct_path(tmp_path):
    p = tmp_path / "a.rir"
    p.write_bytes(b"RIR1" + struct.pack("<III", 1, 8000, 2)
                  + np.array([0.5, 0.1]).astype("<f8").tobytes())
    with pytest.raises(FormatError):
        read_rir(p)


def test_rir_rejects_truncated_payload(tmp_path):
    p = tmp_path / "a.rir"
    p.write_bytes(b"RIR1" + struct.pack("<III", 1, 8000, 4)
                  + np.array([1.0, 0.1]).astype("<f8").tobytes())
    with pytest.raises(FormatError):
        read_rir(p)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    params = {
        "a.scalar": np.array(3.25),
        "b.vec": rng.standard_normal(17),
        "c.mat": rng.standard_normal((3, 5)),
        "d.cube": rng.standard_normal((2, 3, 4)),
    }
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, params)
    back = load_checkpoint(p)
    assert set(back) == set(params)
    for k in params:
        assert np.array_equal(back[k], np.asarray(params[k], dtype=np.float64))
        assert back[k].shape == np.asarray(params[k]).shape


def test_checkpoint_crc_detects_corruption(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.arange(8.0)})
    raw = bytearray(p.read_bytes())
    raw[20] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_shape_validation(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros((2, 3))})
    load_checkpoint(p, expected_shapes={"w": (2, 3)})
    with pytest.raises(FormatError, match="w"):
        load_checkpoint(p, expected_shapes={"w": (3, 2)})
    with pytest.raises(FormatError, match="missing"):
        load_checkpoint(p, expected_shapes={"v": (1,)})


def test_checkpoint_rejects_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(p)


def test_checkpoint_rejects_payload_shorter_than_entry_table(tmp_path):
    # CRC-valid payload that declares one entry but holds none
    payload = struct.pack("<I", 1)
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"CKP1" + struct.pack("<I", 1) + payload
                  + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(FormatError, match="entry table"):
        load_checkpoint(p)


def test_checkpoint_rejects_bad_version(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.zeros(2)})
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 77)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(p)


@pytest.mark.parametrize("n_bytes", [4, 6, 15])
def test_rir_rejects_short_header(tmp_path, n_bytes):
    p = tmp_path / "a.rir"
    write_rir(p, Rir(np.zeros(3), 8000))
    p.write_bytes(p.read_bytes()[:n_bytes])
    with pytest.raises(FormatError, match="truncated header"):
        read_rir(p)


@pytest.mark.parametrize("n_bytes", [4, 6, 15])
def test_checkpoint_rejects_short_header(tmp_path, n_bytes):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {})
    p.write_bytes(p.read_bytes()[:n_bytes])
    with pytest.raises(FormatError, match="truncated header"):
        load_checkpoint(p)
