"""reverbkit benchmark: one workload in one single-threaded process.

    python3 bench/run.py --workload gti_mrsd --seed 0 --seconds 25 --trace 0

Run from the repository root.  Prints each metric as `name value unit`,
then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics;
`--trace 1` wraps the package's public functions in spans and reports
the per-layer metrics instead.  Exits 0 when every check passed, 1 when
a check failed, 2 when the package cannot be found or the arguments
are wrong.
"""

import os
import sys
import time


def since_process_start():
    """Seconds from this process's start to now, from /proc; 0 elsewhere."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


T0 = time.perf_counter()
T0_AGE = since_process_start()  # interpreter start-up before this line
# One BLAS thread, fixed before numpy loads: the machine has two cores
# and other processes share them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def end_to_end(run, tail_pct):
    """The end-to-end metrics, with operation costs in reference units.

    An operation's cost is its process CPU time (user + system) divided
    by the CPU time of the reference (reference.py) paired with it by
    spans.StepClock.
    CPU time leaves out the waits for a core; the division takes out the
    host's slow and fast phases, which move CPU time as well.
    """
    cost = [c / r for c, r in zip(run.op_cpu, run.op_ref)]
    beyond = len(cost) - math.ceil(tail_pct / 100.0 * len(cost))
    if beyond < 10:
        raise RuntimeError(f"only {beyond} operations beyond p{tail_pct}")
    return {
        "setup_s": (T0_AGE + run.setup_end - T0, "s"),
        "op_ref_p50": (statistics.median(cost), "ref"),
        "op_ref_tail": (percentile(cost, tail_pct), "ref"),
        "audio_s_per_ref": (run.audio_s / sum(cost), "s/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(run):
    """Unnormalised figures, printed for reading; they gate nothing."""
    wall = [b - a for a, b in run.op_bounds]
    return (f"# raw: op_cpu_ms_p50 {1e3 * statistics.median(run.op_cpu):.4f}, "
            f"op_wall_ms_p50 {1e3 * statistics.median(wall):.4f}, "
            f"ref_cpu_ms_p50 {1e3 * statistics.median(run.op_ref):.4f}, "
            f"audio_s_per_wall_s {run.audio_s / sum(wall):.4f}")


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "reverbkit" / "__init__.py").is_file():
        print(f"error: no reverbkit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload, tail_pct = workloads.WORKLOADS[args.workload]

    tracer = spans.Tracer() if args.trace else None
    restores = [tracer.install()] if tracer else []
    clock = spans.StepClock()
    restores.append(clock.install())
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = workload(args.seed, args.seconds, clock, workdir)
        for restore in reversed(restores):
            restore()
        errors, failed = workloads.verify(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run still uses it

    e2e = end_to_end(run, tail_pct)
    if tracer:
        metrics = {name: (value, spans.LAYER_METRICS[name][0]) for name, value
                   in tracer.layer_metrics(run.op_bounds, run.setup_end).items()}
        print(f"# traced op_ref_p50 {e2e['op_ref_p50'][0]:.4f} ref (spans add "
              f"their overhead; compare with an untraced run)")
    else:
        metrics = e2e
    print(raw_times(run))
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(f"# {len(run.op_bounds)} operations, tail = p{tail_pct}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(run.op_bounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
