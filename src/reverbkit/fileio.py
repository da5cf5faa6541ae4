"""Bit-exact file formats: mono WAV audio, RIR files, parameter checkpoints.

All formats are little-endian and versioned; unknown versions are
rejected, never guessed.  RIRs and checkpoints store IEEE-754 binary64
so a reload reproduces training bit-for-bit.
"""

import struct
import zlib
from pathlib import Path

import numpy as np

from .dsp import Waveform
from .rir import Rir

RIR_MAGIC = b"RIR1"
CKPT_MAGIC = b"CKP1"


class FormatError(ValueError):
    """Malformed or unsupported file content."""


# --- WAV ------------------------------------------------------------------

def write_wav(path, w, bit_depth=16):
    """Mono WAV, PCM 16-bit or IEEE-float 32-bit; samples hard-clipped to [-1, 1]."""
    samples = np.clip(w.samples, -1.0, 1.0)
    fs = w.sample_rate
    if bit_depth == 16:
        fmt_tag, block = 1, 2
        data = np.round(samples * 32767.0).astype("<i2").tobytes()
    elif bit_depth == 32:
        fmt_tag, block = 3, 4
        data = samples.astype("<f4").tobytes()
    else:
        raise FormatError("bit_depth must be 16 (PCM) or 32 (float)")
    fmt = struct.pack("<HHIIHH", fmt_tag, 1, fs, fs * block, block, bit_depth)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if fmt_tag == 3:
        chunks += b"fact" + struct.pack("<II", 4, len(samples))
    chunks += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        chunks += b"\x00"
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def read_wav(path):
    """Read a mono PCM16 or float32 WAV into a Waveform."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if pos + 8 + size > len(raw):
            raise FormatError(f"{path}: {cid!r} chunk of {size} bytes runs past "
                              f"the end of the file")
        body = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    fmt_tag, channels, fs, _, _, bits = fmt
    if channels != 1:
        raise FormatError(f"{path}: only mono supported, got {channels} channels")
    if fmt_tag == 1 and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32767.0
    elif fmt_tag == 3 and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise FormatError(f"{path}: unsupported encoding (format {fmt_tag}, {bits}-bit)")
    return Waveform(samples, fs)


# --- RIR ------------------------------------------------------------------

def write_rir(path, h):
    """RIR1 file: magic, version, sample rate, L, then L float64 coefficients."""
    coeffs = h.coefficients
    with open(path, "wb") as f:
        f.write(RIR_MAGIC)
        f.write(struct.pack("<III", 1, h.sample_rate, len(coeffs)))
        f.write(coeffs.astype("<f8").tobytes())


def read_rir(path):
    raw = Path(path).read_bytes()
    if raw[:4] != RIR_MAGIC:
        raise FormatError(f"{path}: bad magic, not a RIR file")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    version, fs, length = struct.unpack_from("<III", raw, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported RIR version {version}")
    payload = raw[16:]
    if len(payload) != 8 * length:
        raise FormatError(f"{path}: truncated payload ({len(payload)} bytes "
                          f"for L={length})")
    coeffs = np.frombuffer(payload, dtype="<f8")
    if length < 1 or coeffs[0] != 1.0:
        raise FormatError(f"{path}: direct-path coefficient h1 must equal 1.0, "
                          f"got {coeffs[0] if length else 'nothing'}")
    return Rir(coeffs[1:].copy(), fs)


# --- checkpoints ----------------------------------------------------------

def save_checkpoint(path, params):
    """Named float64 arrays with shapes; CRC32 of the payload trails the file."""
    payload = bytearray()
    payload += struct.pack("<I", len(params))
    for name in sorted(params):
        # note: ascontiguousarray alone would promote 0-d arrays to 1-d
        arr = np.asarray(params[name], dtype=np.float64)
        nb = name.encode("utf-8")
        payload += struct.pack("<I", len(nb)) + nb
        payload += struct.pack("<I", arr.ndim)
        payload += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        payload += arr.tobytes()
    crc = zlib.crc32(bytes(payload))
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC + struct.pack("<I", 1) + payload + struct.pack("<I", crc))


def load_checkpoint(path, expected_shapes=None):
    """Load name->array dict; verifies CRC and, if given, group shapes."""
    raw = Path(path).read_bytes()
    if raw[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    payload = raw[8:-4]
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise FormatError(f"{path}: CRC mismatch, file corrupted")
    try:
        pos = 0
        (count,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        params = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            name = payload[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (ndim,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            shape = struct.unpack_from(f"<{ndim}I", payload, pos) if ndim else ()
            pos += 4 * ndim
            size = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(payload, dtype="<f8", count=size, offset=pos)
            pos += 8 * size
            params[name] = arr.reshape(shape).copy()
    except (struct.error, ValueError) as e:  # ValueError: frombuffer, name decoding
        raise FormatError(f"{path}: payload shorter than its entry table or "
                          f"malformed ({e})") from e
    if expected_shapes is not None:
        for name, shape in expected_shapes.items():
            if name not in params:
                raise FormatError(f"{path}: missing parameter group {name}")
            if tuple(params[name].shape) != tuple(shape):
                raise FormatError(
                    f"{path}: shape mismatch for group {name}: "
                    f"{params[name].shape} vs expected {tuple(shape)}")
    return params
