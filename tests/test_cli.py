import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reverbkit
from reverbkit.cli import _build_parser, run
from reverbkit.dsp import Waveform
from reverbkit.fileio import read_rir, read_wav, write_rir, write_wav
from reverbkit.rir import Rir


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rooms = out / "rooms.json"
    rooms.write_text(json.dumps({
        "seen": [{"room_id": "ra", "t60": 0.12, "seed": 11},
                 {"room_id": "rb", "t60": 0.25, "seed": 12}],
        "unseen": [{"room_id": "ru", "t60": 0.18, "seed": 21}],
    }))
    rc = run(["--out", str(out), "--seed", "3", "simulate",
              "--rooms", str(rooms), "--utts", "8", "--duration", "0.4",
              "--fs", "8000"])
    assert rc == 0
    return out


def test_simulate_writes_manifest(dataset):
    m = json.loads((dataset / "manifest.json").read_text())
    assert m["sample_rate"] == 8000
    assert len(m["entries"]) == 9  # 8 seen + 1 unseen


def test_train_gti_produces_artifacts(dataset, tmp_path, capsys):
    rc = run(["--out", str(tmp_path), "train-gti",
              "--manifest", str(dataset / "manifest.json"),
              "--rir-len", "64", "--steps", "5", "--loss", "wave"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert (tmp_path / "gti.rir").exists()
    assert (tmp_path / "gti.ckpt").exists()
    assert (tmp_path / "train_gti_report.jsonl").exists()
    assert np.isfinite(out["final_loss"])


def test_train_gti_deterministic_checksum(dataset, tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        rc = run(["--out", str(tmp_path / sub), "--seed", "5", "train-gti",
                  "--manifest", str(dataset / "manifest.json"),
                  "--rir-len", "64", "--steps", "5", "--loss", "wave"])
        assert rc == 0
        outs.append(json.loads(capsys.readouterr().out)["checksum"])
    assert outs[0] == outs[1]


def test_train_utv_produces_ckpt(dataset, tmp_path, capsys):
    rc = run(["--out", str(tmp_path), "train-utv",
              "--manifest", str(dataset / "manifest.json"),
              "--rir-len", "32", "--steps", "3", "--loss", "wave",
              "--hidden", "4", "--channels", "4", "--kernel", "3"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "utv.ckpt").exists()


def test_train_mt_produces_ckpt(dataset, tmp_path, capsys):
    rc = run(["--out", str(tmp_path), "train-mt",
              "--manifest", str(dataset / "manifest.json"),
              "--rir-len", "32", "--steps", "3", "--loss", "wave",
              "--hidden", "4", "--channels", "4", "--kernel", "3",
              "--fir-taps", "8"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "mt.ckpt").exists()


def test_apply_with_rir(tmp_path, capsys):
    dry = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 800), 8000)
    write_wav(tmp_path / "dry.wav", dry, bit_depth=32)
    write_rir(tmp_path / "h.rir", Rir(np.array([0.0, 0.0, 0.0]), 8000))
    rc = run(["apply", "--dry", str(tmp_path / "dry.wav"),
              "--rir", str(tmp_path / "h.rir"),
              "--out-wav", str(tmp_path / "wet.wav")])
    assert rc == 0
    capsys.readouterr()
    wet = read_wav(tmp_path / "wet.wav")
    # identity RIR: output samples match the dry input exactly
    assert np.array_equal(wet.samples, read_wav(tmp_path / "dry.wav").samples)


def test_apply_missing_model_is_usage_error(tmp_path, capsys):
    dry = Waveform(np.zeros(100), 8000)
    write_wav(tmp_path / "dry.wav", dry, bit_depth=32)
    rc = run(["apply", "--dry", str(tmp_path / "dry.wav"),
              "--out-wav", str(tmp_path / "wet.wav")])
    capsys.readouterr()
    assert rc == 2


def test_t60_command(tmp_path, capsys):
    from reverbkit.rir import RoomSpec, synth_rir
    r = synth_rir(RoomSpec("x", 0.2, 2.0, 1, 5), 2048, 8000)
    write_rir(tmp_path / "h.rir", r)
    rc = run(["t60", "--rir", str(tmp_path / "h.rir")])
    assert rc == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 0.2) <= 0.1 * 0.2


def test_evaluate_with_rir_model(dataset, tmp_path, capsys):
    from reverbkit.rir import RoomSpec, synth_rir
    r = synth_rir(RoomSpec("x", 0.2, 2.0, 1, 5), 2048, 8000)
    write_rir(tmp_path / "h.rir", r)
    rc = run(["evaluate", "--manifest", str(dataset / "manifest.json"),
              "--model", str(tmp_path / "h.rir"),
              "--split", "test_seen,test_unseen",
              "--plot-csv", str(tmp_path / "pts.csv")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pooled"]["n"] >= 1
    assert (tmp_path / "pts.csv").exists()
    lines = (tmp_path / "pts.csv").read_text().strip().split("\n")
    assert lines[0].startswith("utt_id,room_id")
    assert len(lines) == rep["pooled"]["n"] + 1


def test_evaluate_with_utv_ckpt(dataset, tmp_path, capsys):
    rc = run(["--out", str(tmp_path), "train-utv",
              "--manifest", str(dataset / "manifest.json"),
              "--rir-len", "32", "--steps", "2", "--loss", "wave",
              "--hidden", "4", "--channels", "4", "--kernel", "3"])
    assert rc == 0
    capsys.readouterr()
    rc = run(["evaluate", "--manifest", str(dataset / "manifest.json"),
              "--model", str(tmp_path / "utv.ckpt"), "--split", "test_seen"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert "rooms" in rep


@pytest.mark.parametrize("module", ["vocoder", "mrsd"])
def test_gradcheck_command(capsys, module):
    rc = run(["gradcheck", "--module", module])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["passed"]
    assert list(out["checks"]) == [module]
    assert out["checks"][module]["passed"]


def test_config_file_overrides_defaults(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train-gti": {"steps": 2, "loss": "wave",
                                             "rir_len": 32}}))
    rc = run(["--out", str(tmp_path), "--config", str(cfg), "train-gti",
              "--manifest", str(dataset / "manifest.json")])
    assert rc == 0
    capsys.readouterr()
    report = (tmp_path / "train_gti_report.jsonl").read_text().strip().split("\n")
    assert len(report) == 2


def test_config_int_stands_for_float(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train-gti": {"steps": 1, "loss": "wave",
                                             "rir_len": 32, "lr": 0}}))
    rc = run(["--out", str(tmp_path), "--config", str(cfg), "train-gti",
              "--manifest", str(dataset / "manifest.json")])
    capsys.readouterr()
    assert rc == 0


def test_flag_overrides_config(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train-gti": {"steps": 2, "loss": "wave",
                                             "rir_len": 32}}))
    rc = run(["--out", str(tmp_path), "--config", str(cfg), "train-gti",
              "--manifest", str(dataset / "manifest.json"), "--steps", "3"])
    assert rc == 0
    capsys.readouterr()
    report = (tmp_path / "train_gti_report.jsonl").read_text().strip().split("\n")
    assert len(report) == 3


def test_missing_file_is_runtime_error(tmp_path, capsys):
    rc = run(["t60", "--rir", str(tmp_path / "nope.rir")])
    capsys.readouterr()
    assert rc == 1


def test_truncated_rir_is_runtime_error(tmp_path, capsys):
    (tmp_path / "short.rir").write_bytes(b"RIR1\x01\x00")
    rc = run(["t60", "--rir", str(tmp_path / "short.rir")])
    assert rc == 1
    assert "truncated header" in capsys.readouterr().err


def test_bad_usage_is_exit_2(capsys):
    rc = run(["train-gti"])  # missing required --manifest
    capsys.readouterr()
    assert rc == 2


def test_unknown_command_is_exit_2(capsys):
    rc = run(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(lines) == 1 and err.rstrip().endswith(lines[0])
    return lines[0]


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]",
                                     '{"train-gti": [1, 2]}',
                                     '{"train-gti": {"steps": "3"}}',
                                     '{"train-gti": {"lr": true}}',
                                     '{"simulate": {"rooms": 5}}',
                                     '{"apply": {"rir": 3}}',
                                     '{"apply": {"las_source": 3}}'])
def test_bad_config_file_is_runtime_error(dataset, tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    commands = {
        "train-gti": ["--manifest", str(dataset / "manifest.json")],
        "simulate": ["--utts", "2", "--duration", "0.1"],
        "apply": ["--dry", str(tmp_path / "d.wav"), "--out-wav", str(tmp_path / "w.wav")],
    }
    command = next((c for c in commands if f'"{c}"' in (content or "")), "train-gti")
    rc = run(["--out", str(tmp_path), "--config", str(cfg), command, *commands[command]])
    assert rc == 1
    err = _one_line_error(capsys)
    for key in ("steps", "lr", "rooms", "rir", "las_source"):
        if f'"{key}"' in (content or ""):
            assert repr(key) in err


@pytest.mark.parametrize("content,key", [("{}", "seen"),
                                         ('{"seen": [{}]}', "room_id"),
                                         ('{"seen": 5}', "seen")])
def test_rooms_file_missing_key_is_runtime_error(tmp_path, capsys, content, key):
    rooms = tmp_path / "rooms.json"
    rooms.write_text(content)
    rc = run(["--out", str(tmp_path / "data"), "simulate", "--rooms", str(rooms),
              "--utts", "2", "--duration", "0.1"])
    assert rc == 1
    err = _one_line_error(capsys)
    assert repr(key) in err and str(rooms) in err


ROOM = {"room_id": "r", "t60": 0.1, "direct_to_reverb_db": 2.0, "onset_delay": 1,
        "seed": 1}
ENTRY = {"split": "train", "utt_id": "u", "room_id": "r", "t60_truth": 0.1,
         "dry_path": "d.wav", "reverb_path": "d.wav", "f0_path": "f0.json"}


def _manifest(rooms=(), entries=()):
    return json.dumps({"rooms": rooms, "entries": entries, "sample_rate": 8000})


def _write_utterance_files(root, f0_json):
    """d.wav for both sides of ENTRY, and its F0 file f0.json."""
    write_wav(root / "d.wav", Waveform(np.zeros(800), 8000), bit_depth=32)
    (root / "f0.json").write_text(f0_json)


@pytest.mark.parametrize("content,key", [
    ("{}", "rooms"),
    ('{"rooms": []}', "entries"),
    ('{"rooms": [], "entries": []}', "sample_rate"),
    ('{"rooms": 5, "entries": [], "sample_rate": 8000}', "rooms"),
    ('{"rooms": [], "entries": 5, "sample_rate": 8000}', "entries"),
    ('{"rooms": [], "entries": [], "sample_rate": "8000"}', "sample_rate"),
    (_manifest([{**ROOM, "seed": 1.5}]), "seed"),
    (_manifest([ROOM], [{**ENTRY, "t60_truth": "x"}]), "t60_truth"),
    (_manifest([ROOM], [ENTRY]), "vuv"),  # f0.json has no vuv
])
def test_manifest_missing_key_is_runtime_error(tmp_path, capsys, content, key):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(content)
    no_vuv = '{"f0": [0.0], "frame_shift": 96, "sample_rate": 8000}'
    _write_utterance_files(tmp_path, no_vuv)
    rc = run(["--out", str(tmp_path), "train-gti", "--manifest", str(manifest)])
    assert rc == 1
    err = _one_line_error(capsys)
    assert repr(key) in err
    assert str(tmp_path / ("f0.json" if key == "vuv" else "manifest.json")) in err


def test_json_top_level_list_is_runtime_error(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    assert run(["--out", str(tmp_path / "data"), "simulate", "--rooms", str(listed),
                "--utts", "2", "--duration", "0.1"]) == 1
    assert "JSON object" in _one_line_error(capsys)
    assert run(["--out", str(tmp_path), "train-gti", "--manifest", str(listed)]) == 1
    assert "JSON object" in _one_line_error(capsys)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(_manifest([ROOM], [ENTRY]))
    _write_utterance_files(tmp_path, "[]")
    assert run(["--out", str(tmp_path), "train-gti", "--manifest", str(manifest)]) == 1
    err = _one_line_error(capsys)
    assert "JSON object" in err and str(tmp_path / "f0.json") in err


def test_manifest_entry_missing_key_names_entry(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"rooms": [], "entries": [{"utt_id": "x"}],
                                    "sample_rate": 8000}))
    rc = run(["--out", str(tmp_path), "train-gti", "--manifest", str(manifest)])
    assert rc == 1
    err = _one_line_error(capsys)
    assert "entry 0" in err and "'split'" in err


def test_subcommand_options_are_pinned():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {cmd: {" ".join(a.option_strings): (a.dest, a.type) for a in p._actions
                 if a.dest != "help"}
           for cmd, p in sub.choices.items()}
    train = {"--manifest": ("manifest", Path), "--rir-len": ("rir_len", int),
             "--steps": ("steps", int), "--loss": ("loss", str),
             "--lr": ("lr", float), "--split": ("split", str)}
    estimator = {"--hidden": ("hidden", int), "--channels": ("channels", int),
                 "--kernel": ("kernel", int)}
    assert got == {
        "simulate": {"--rooms": ("rooms", Path), "--utts": ("utts", int),
                     "--duration": ("duration", float), "--fs": ("fs", int)},
        "train-gti": {**train, "--batch": ("batch", int)},
        "train-utv": {**train, **estimator},
        "train-mt": {**train, **estimator,
                     "--secondary-weight": ("secondary_weight", float),
                     "--fir-taps": ("fir_taps", int)},
        "apply": {"--dry": ("dry", Path), "--rir": ("rir", Path),
                  "--ckpt": ("ckpt", Path), "--las-source": ("las_source", Path),
                  "--out-wav": ("out_wav", Path)},
        "t60": {"--rir": ("rir", Path)},
        "evaluate": {"--manifest": ("manifest", Path), "--model": ("model", Path),
                     "--split": ("split", str), "--plot-csv": ("plot_csv", Path)},
        "gradcheck": {"--module": ("module", None)},
    }
    for cmd in ("train-gti", "train-utv", "train-mt"):
        loss = next(a for a in sub.choices[cmd]._actions if a.dest == "loss")
        assert loss.choices == ["mrsd", "wave"]


@pytest.fixture(scope="module")
def gti_ckpt(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("gti")
    rc = run(["--out", str(out), "train-gti", "--manifest",
              str(dataset / "manifest.json"), "--rir-len", "32", "--steps", "1",
              "--loss", "wave"])
    assert rc == 0
    return out / "gti.ckpt"


def test_evaluate_with_gti_ckpt_is_runtime_error(dataset, gti_ckpt, capsys):
    capsys.readouterr()
    rc = run(["evaluate", "--manifest", str(dataset / "manifest.json"),
              "--model", str(gti_ckpt)])
    assert rc == 1
    assert "utv.W_z" in _one_line_error(capsys)


def test_apply_with_gti_ckpt_is_runtime_error(dataset, gti_ckpt, tmp_path, capsys):
    capsys.readouterr()
    wav = dataset / "utt0000_rev.wav"
    rc = run(["apply", "--dry", str(wav), "--ckpt", str(gti_ckpt),
              "--las-source", str(wav), "--out-wav", str(tmp_path / "o.wav")])
    assert rc == 1
    assert "utv.W_z" in _one_line_error(capsys)


@pytest.mark.parametrize("command,result_key", [("train-gti", "rir"),
                                                ("train-utv", "ckpt"),
                                                ("train-mt", "ckpt")])
def test_train_zero_steps_prints_null_final_loss(dataset, tmp_path, capsys,
                                                 command, result_key):
    extra = [] if command == "train-gti" else ["--hidden", "4", "--channels", "4",
                                                "--kernel", "3"]
    rc = run(["--out", str(tmp_path), command, "--manifest",
              str(dataset / "manifest.json"), "--rir-len", "32", "--steps", "0"]
             + extra)
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == [result_key, "final_loss", "checksum"]
    assert out["final_loss"] is None


def test_truncated_wav_is_runtime_error(tmp_path, capsys):
    p = tmp_path / "dry.wav"
    write_wav(p, Waveform(np.zeros(100), 8000), bit_depth=32)
    p.write_bytes(p.read_bytes()[:-200])  # data chunk now runs past the end
    rc = run(["apply", "--dry", str(p), "--rir", str(tmp_path / "x.rir"),
              "--out-wav", str(tmp_path / "o.wav")])
    assert rc == 1
    assert "past the end" in _one_line_error(capsys)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if preset is not None:
        env.update(dict.fromkeys(BLAS_VARS, preset))
    env["PYTHONPATH"] = str(Path(reverbkit.__file__).parent.parent)
    code = (f"import os, reverbkit, numpy; "
            f"print(*(os.environ[v] for v in {BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [want] * len(BLAS_VARS)
