"""Command-line surface: simulate, train, apply, evaluate, verify.

Configuration resolves in three layers: built-in defaults, then a JSON
file given with --config, then explicit flags.  The resolved config is
printed to stderr before the run; machine-readable results go to stdout.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from . import checks, simdata
from .convolve import convolve_fft
from .dsp import default_stft_config, las
from .estimator import UtvEstimatorParams
from .fileio import (load_checkpoint, read_rir, read_wav, save_checkpoint,
                     write_rir, write_wav)
from .rir import assemble, estimate_t60, t60_error_stats
from .training import (TrainHyper, predict_rir_tail, train_gti, train_mt,
                       train_utv)
from .vocoder import ToyVocoderParams

DEFAULTS = {
    "simulate": {"utts": 200, "duration": 2.0, "fs": 8000, "rooms": None},
    "train-gti": {"rir_len": 256, "steps": 500, "loss": "mrsd", "lr": 1e-3,
                  "split": "train", "batch": 4},
    "train-utv": {"rir_len": 256, "steps": 1000, "loss": "mrsd", "lr": 1e-3,
                  "split": "train", "hidden": 32, "channels": 32, "kernel": 11},
    "train-mt": {"rir_len": 256, "steps": 1000, "loss": "mrsd", "lr": 1e-3,
                 "split": "train", "hidden": 32, "channels": 32, "kernel": 11,
                 "secondary_weight": 1.0, "fir_taps": 32},
    "apply": {}, "t60": {}, "evaluate": {"split": "test_seen"}, "gradcheck": {},
}


def _add_default_flags(s, command):
    """--key-with-dashes, typed like its default, for each valued default."""
    for key, default in DEFAULTS[command].items():
        if default is not None:
            s.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           choices=["mrsd", "wave"] if key == "loss" else None)


def _build_parser():
    p = argparse.ArgumentParser(prog="reverbkit",
                                description="trainable reverberation toolkit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=Path, help="JSON file overriding defaults")
    p.add_argument("--out", type=Path, default=Path("."))
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="build a synthetic dataset")
    s.add_argument("--rooms", type=Path, help="JSON room specs {seen:[],unseen:[]}")
    _add_default_flags(s, "simulate")

    for name in ("train-gti", "train-utv", "train-mt"):
        s = sub.add_parser(name, help=f"run {name.replace('-', ' ')}")
        s.add_argument("--manifest", type=Path, required=True)
        _add_default_flags(s, name)

    s = sub.add_parser("apply", help="convolve a dry file with an RIR model")
    s.add_argument("--dry", type=Path, required=True)
    s.add_argument("--rir", type=Path)
    s.add_argument("--ckpt", type=Path)
    s.add_argument("--las-source", dest="las_source", type=Path)
    s.add_argument("--out-wav", dest="out_wav", type=Path, required=True)

    s = sub.add_parser("t60", help="print the T60 of an RIR file in seconds")
    s.add_argument("--rir", type=Path, required=True)

    s = sub.add_parser("evaluate", help="T60 error statistics on a manifest")
    s.add_argument("--manifest", type=Path, required=True)
    s.add_argument("--model", type=Path, required=True,
                   help="a .rir file or a UTV checkpoint")
    _add_default_flags(s, "evaluate")
    s.add_argument("--plot-csv", dest="plot_csv", type=Path)

    s = sub.add_parser("gradcheck", help="verify every analytic gradient path")
    s.add_argument("--module", default="all",
                   choices=["all", *checks.ALL_CHECKS])
    return p


def _resolve(args):
    defaults = DEFAULTS.get(args.command, {})
    cfg = dict(defaults)
    if args.config:
        overlay = json.loads(args.config.read_text(encoding="utf-8"))
        if isinstance(overlay, dict):
            overlay = overlay.get(args.command, overlay)
        # A key takes its default's type.  A flag without a default that the
        # command line left unset names a file: its key must be a string.
        typed = {k: str for k, v in vars(args).items() if v is None}
        typed.update({k: type(v) for k, v in defaults.items() if v is not None})
        cfg.update(simdata.check_fields(overlay, typed, args.config, optional=typed))
    for key, val in vars(args).items():
        if key in ("config", "command"):
            continue
        if val is not None:
            cfg[key] = val
    print(f"resolved config: {json.dumps({k: str(v) if isinstance(v, Path) else v for k, v in cfg.items()}, sort_keys=True)}",
          file=sys.stderr)
    return cfg


def _cmd_simulate(cfg):
    seen, unseen = ((simdata.DESK_SEEN_ROOMS, simdata.DESK_UNSEEN_ROOMS)
                    if cfg["rooms"] is None else simdata.load_rooms(cfg["rooms"]))
    manifest = simdata.build_dataset(seen, unseen, cfg["utts"], cfg["duration"],
                                     cfg["fs"], cfg["out"], cfg["seed"])
    print(json.dumps({"out": str(cfg["out"]), "entries": len(manifest.entries)}))
    return 0


def _hyper(cfg):
    return TrainHyper(lr=cfg["lr"], loss=cfg["loss"],
                      batch_size=cfg.get("batch", 4),
                      secondary_weight=cfg.get("secondary_weight", 1.0))


def _train_common(cfg):
    manifest = simdata.load_manifest(cfg["manifest"])
    utts = simdata.load_utterances(manifest, splits=tuple(cfg["split"].split(",")))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return manifest, utts, out


def _train_epilogue(out, name, params, adam, report, result):
    """Write <name>.ckpt and the report; print result plus final loss (null
    after zero steps) and checksum."""
    save_checkpoint(out / f"{name}.ckpt", {**params, **adam.state_dict()})
    report.write_jsonl(out / f"train_{name}_report.jsonl")
    final = report.records[-1]["main_loss"] if report.records else None
    print(json.dumps({**result, "final_loss": final,
                      "checksum": report.final_checksum}))
    return 0


def _cmd_train_gti(cfg):
    manifest, utts, out = _train_common(cfg)
    gti, adam, report = train_gti(utts, cfg["rir_len"], cfg["steps"],
                                  _hyper(cfg), seed=cfg["seed"])
    write_rir(out / "gti.rir", gti)
    return _train_epilogue(out, "gti", {"gti.tail": gti.tail}, adam, report,
                           {"rir": str(out / "gti.rir")})


def _make_estimator(cfg, manifest, seed):
    input_dim = default_stft_config(manifest.sample_rate).n_bins
    return UtvEstimatorParams.init(input_dim, cfg["hidden"], cfg["channels"],
                                   cfg["kernel"], cfg["rir_len"] - 1, seed=seed)


def _cmd_train_utv(cfg):
    manifest, utts, out = _train_common(cfg)
    est = _make_estimator(cfg, manifest, cfg["seed"])
    est, adam, report = train_utv(utts, est, cfg["steps"], _hyper(cfg),
                                  seed=cfg["seed"])
    return _train_epilogue(out, "utv", est.as_dict("utv."), adam, report,
                           {"ckpt": str(out / "utv.ckpt")})


def _cmd_train_mt(cfg):
    manifest, utts, out = _train_common(cfg)
    est = _make_estimator(cfg, manifest, cfg["seed"])
    voc = ToyVocoderParams.identity(cfg["fir_taps"])
    voc, est, adam, report = train_mt(utts, voc, est, cfg["steps"],
                                      _hyper(cfg), seed=cfg["seed"])
    return _train_epilogue(out, "mt", {"voc.tail": voc.tail, **est.as_dict("utv.")},
                           adam, report, {"ckpt": str(out / "mt.ckpt")})


def _cmd_apply(cfg):
    dry = read_wav(cfg["dry"])
    if cfg.get("rir"):
        coeffs = read_rir(cfg["rir"]).coefficients
    elif cfg.get("ckpt") and cfg.get("las_source"):
        params = UtvEstimatorParams.from_dict(load_checkpoint(cfg["ckpt"]), "utv.")
        tail = predict_rir_tail(params, las(read_wav(cfg["las_source"])).values)
        coeffs = assemble(tail)
    else:
        print("apply needs --rir, or --ckpt with --las-source", file=sys.stderr)
        return 2
    out = convolve_fft(dry, coeffs)
    write_wav(cfg["out_wav"], out, bit_depth=32)
    print(json.dumps({"out": str(cfg["out_wav"]), "samples": len(out)}))
    return 0


def _cmd_t60(cfg):
    h = read_rir(cfg["rir"])
    print(f"{estimate_t60(h):.6f}")
    return 0


def _cmd_evaluate(cfg):
    manifest = simdata.load_manifest(cfg["manifest"])
    model_path = Path(cfg["model"])
    if model_path.suffix == ".rir":
        fixed_t60 = estimate_t60(read_rir(model_path))
        predict = lambda e: fixed_t60
    else:
        params = UtvEstimatorParams.from_dict(load_checkpoint(model_path), "utv.")

        def predict(e):
            wave = read_wav(manifest.root / e["reverb_path"])
            tail = predict_rir_tail(params, las(wave).values)
            try:
                return estimate_t60(assemble(tail), manifest.sample_rate)
            except ValueError:
                return None
    splits = tuple(cfg["split"].split(","))
    rows = [(e["utt_id"], e["room_id"], e["t60_truth"], predict(e))
            for e in manifest.entries if e["split"] in splits]
    by_room = {}
    for _, room_id, truth, est in rows:
        by_room.setdefault(room_id, []).append((truth, est))
    room_stats, pooled = [], []  # pooled in sorted-room order
    for room_id in sorted(by_room):
        pairs = [(t, e) for t, e in by_room[room_id] if e is not None]
        stats = t60_error_stats([e for _, e in pairs], [t for t, _ in pairs]) \
            if pairs else {"mean": None, "median": None, "q1": None, "q3": None, "n": 0}
        room_stats.append({"room_id": room_id, "t60_truth": by_room[room_id][0][0],
                           "mean_err": stats["mean"], "median_err": stats["median"],
                           "q1": stats["q1"], "q3": stats["q3"], "n": stats["n"],
                           "n_failed": len(by_room[room_id]) - len(pairs)})
        pooled += pairs
    pooled = (t60_error_stats([e for _, e in pooled], [t for t, _ in pooled])
              if pooled else None)
    print(json.dumps({"rooms": room_stats, "pooled": pooled}, indent=1))
    if cfg.get("plot_csv"):
        with open(cfg["plot_csv"], "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["utt_id", "room_id", "t60_truth", "t60_est", "error"])
            for utt_id, room_id, truth, est in rows:
                w.writerow([utt_id, room_id, truth, est,
                            None if est is None else est - truth])
    return 0


def _cmd_gradcheck(cfg):
    out = {name: {k: report[k] for k in ("passed", "max_rel_error", "tolerance")}
           for name, report in checks.run_checks(cfg["module"]).items()}
    ok = all(r["passed"] for r in out.values())
    print(json.dumps({"passed": ok, "checks": out}, indent=1))
    return 0 if ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train-gti": _cmd_train_gti,
    "train-utv": _cmd_train_utv,
    "train-mt": _cmd_train_mt,
    "apply": _cmd_apply,
    "t60": _cmd_t60,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
}


def run(argv):
    """Parse argv (without the program name) and run; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](_resolve(args))
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
