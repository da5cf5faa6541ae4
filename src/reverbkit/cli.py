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

# Every key of every command, in flag order, with its default; a path key's
# default is None (unset) or a Path.  "reverbkit" holds the flags before the
# command name: every command shares them, but for config, which names the
# --config file and is not itself a setting.
_TRAIN = {"manifest": None, "rir_len": 256, "steps": 500, "loss": "mrsd",
          "lr": 1e-3, "split": "train"}
_ESTIMATOR = {"hidden": 32, "channels": 32, "kernel": 11}
DEFAULTS = {
    "reverbkit": {"seed": 0, "config": None, "out": Path(".")},
    "simulate": {"rooms": None, "utts": 200, "duration": 2.0, "fs": 8000},
    "train-gti": {**_TRAIN, "batch": 4},
    "train-utv": {**_TRAIN, "steps": 1000, **_ESTIMATOR},
    "train-mt": {**_TRAIN, "steps": 1000, **_ESTIMATOR, "secondary_weight": 1.0,
                 "fir_taps": 32},
    "apply": {"dry": None, "rir": None, "ckpt": None, "las_source": None,
              "out_wav": None},
    "t60": {"rir": None},
    "evaluate": {"manifest": None, "model": None, "split": "test_seen",
                 "plot_csv": None},
    "gradcheck": {"module": "all"},
}
REQUIRED = {**dict.fromkeys(("train-gti", "train-utv", "train-mt"), ("manifest",)),
            "apply": ("dry", "out_wav"), "t60": ("rir",),
            "evaluate": ("manifest", "model")}
CHOICES = {"loss": ["mrsd", "wave"], "module": ["all", *checks.ALL_CHECKS]}
HELP = {"config": "JSON file overriding defaults",
        "model": "a .rir file or a UTV checkpoint",
        "rooms": "JSON room specs {seen:[],unseen:[]}"}


def _kind(default):
    """A key's flag type: a path key's is Path; in JSON it is a string."""
    return Path if default is None or isinstance(default, Path) else type(default)


def _build_parser():
    """One --key-with-dashes flag per key of DEFAULTS; argparse fills in no
    default, so the parsed namespace holds only the flags given."""
    def add_flags(parser, command):
        for key, default in DEFAULTS[command].items():
            parser.add_argument("--" + key.replace("_", "-"), dest=key,
                                type=_kind(default), choices=CHOICES.get(key),
                                required=key in REQUIRED.get(command, ()),
                                help=HELP.get(key))

    p = argparse.ArgumentParser(prog="reverbkit", argument_default=argparse.SUPPRESS,
                                description="trainable reverberation toolkit")
    add_flags(p, "reverbkit")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        add_flags(sub.add_parser(command, help=help_text,
                                 argument_default=argparse.SUPPRESS), command)
    return p


def _resolve(args):
    """Defaults, then the --config file's section for the command (or, if it
    has none, its keys naming no command), then the flags given."""
    given = dict(vars(args))
    command, config = given.pop("command"), given.pop("config", None)
    cfg = {**DEFAULTS["reverbkit"], **DEFAULTS[command]}
    del cfg["config"]
    if config is not None:
        overlay, unread = simdata.read_json(config), []
        if isinstance(overlay, dict):
            flat = {k: v for k, v in overlay.items() if k not in _COMMANDS}
            overlay, unread = ((overlay[command], [*flat]) if command in overlay
                               else (flat, []))
        kinds = {k: str if _kind(v) is Path else _kind(v) for k, v in cfg.items()
                 if k not in REQUIRED.get(command, ())}
        cfg.update(simdata.check_fields(overlay, kinds, config, optional=kinds))
        unread += [k for k in overlay if k not in kinds]
        if unread:
            raise ValueError(f"{config}: {command} reads no key {unread[0]!r}")
    cfg.update(given)
    print(f"resolved config: {json.dumps(cfg, sort_keys=True, default=str)}",
          file=sys.stderr)
    return cfg


def _cmd_simulate(cfg):
    seen, unseen = ((simdata.DESK_SEEN_ROOMS, simdata.DESK_UNSEEN_ROOMS)
                    if cfg["rooms"] is None else simdata.load_rooms(cfg["rooms"]))
    manifest = simdata.build_dataset(seen, unseen, cfg["utts"], cfg["duration"],
                                     cfg["fs"], cfg["out"], cfg["seed"])
    print(json.dumps({"out": str(manifest.root), "entries": len(manifest.entries)}))
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
    if cfg["rir"]:
        coeffs = read_rir(cfg["rir"]).coefficients
    elif cfg["ckpt"] and cfg["las_source"]:
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
    if cfg["model"].suffix == ".rir":
        fixed_t60 = estimate_t60(read_rir(cfg["model"]))
        predict = lambda e: fixed_t60
    else:
        params = UtvEstimatorParams.from_dict(load_checkpoint(cfg["model"]), "utv.")

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
    if cfg["plot_csv"]:
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


_COMMANDS = {  # name: (run, help)
    "simulate": (_cmd_simulate, "build a synthetic dataset"),
    "train-gti": (_cmd_train_gti, "run train gti"),
    "train-utv": (_cmd_train_utv, "run train utv"),
    "train-mt": (_cmd_train_mt, "run train mt"),
    "apply": (_cmd_apply, "convolve a dry file with an RIR model"),
    "t60": (_cmd_t60, "print the T60 of an RIR file in seconds"),
    "evaluate": (_cmd_evaluate, "T60 error statistics on a manifest"),
    "gradcheck": (_cmd_gradcheck, "verify every analytic gradient path"),
}


def run(argv):
    """Parse argv (without the program name) and run; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
