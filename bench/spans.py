"""Spans around the package's public functions, installed from outside.

The benchmark never edits the package.  `install` replaces a public
function by a wrapper in every `reverbkit` module namespace that holds
it (`fft` in `dsp`, `losses` and `convolve`; `convolve_fft` in
`training`, `vocoder`, `simdata` and `cli`; ...), so calls between
modules are seen as well as calls from the benchmark.  Spans are kept in
memory and aggregated when the run ends.
"""

import bisect
import math
import os
import statistics
import sys
import time

import numpy as np

import reference


def _fft_rows(args, kwargs, result):
    rows = math.prod(np.shape(args[0])[:-1])
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    return {"rows": rows, "points": rows * n}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, counter).  A counter turns a call's
# arguments and result into counts kept on its span.
TRACED = (
    ("reverbkit.dsp", "fft", "dsp.fft", _fft_rows),
    ("reverbkit.dsp", "las", "dsp.las", None),
    ("reverbkit.losses", "mrsd_loss", "losses.mrsd_loss", None),
    ("reverbkit.losses", "secondary_dry_loss", "losses.secondary_dry_loss", None),
    ("reverbkit.convolve", "convolve_fft", "convolve.convolve_fft", None),
    ("reverbkit.convolve", "convolve_grad", "convolve.convolve_grad", None),
    ("reverbkit.estimator", "gru_forward", "estimator.gru_forward", None),
    ("reverbkit.estimator", "gru_backward", "estimator.gru_backward", None),
    ("reverbkit.estimator", "estimator_forward", "estimator.estimator_forward", None),
    ("reverbkit.estimator", "estimator_backward", "estimator.estimator_backward", None),
    ("reverbkit.optim", "adam_step", "optim.adam_step", None),
    ("reverbkit.vocoder", "vocoder_forward", "vocoder.vocoder_forward", None),
    ("reverbkit.vocoder", "vocoder_backward", "vocoder.vocoder_backward", None),
    ("reverbkit.vocoder", "sine_source", "vocoder.sine_source", None),
    ("reverbkit.rir", "estimate_t60", "rir.estimate_t60", None),
    ("reverbkit.fileio", "read_wav", "fileio.read_wav", _file_bytes),
    ("reverbkit.fileio", "write_wav", "fileio.write_wav", _file_bytes),
    ("reverbkit.fileio", "save_checkpoint", "fileio.save_checkpoint", None),
    ("reverbkit.fileio", "load_checkpoint", "fileio.load_checkpoint", None),
    ("reverbkit.simdata", "build_dataset", "simdata.build_dataset", None),
    ("reverbkit.cli", "run", "cli.run", None),
)

# name -> (unit, better).  Times and counts are per operation, except
# SETUP_METRICS: those are the run's set-up total.
LAYER_METRICS = {
    "dsp.fft.self_ms": ("ms", "lower"),
    "dsp.fft.rows": ("count", "lower"),
    "dsp.fft.points": ("count", "lower"),
    "losses.mrsd_loss.total_ms": ("ms", "lower"),
    "losses.mrsd_loss.self_ms": ("ms", "lower"),
    "losses.fft_rows": ("count", "lower"),
    "losses.secondary_dry_loss.total_ms": ("ms", "lower"),
    "convolve.convolve_fft.total_ms": ("ms", "lower"),
    "convolve.convolve_grad.total_ms": ("ms", "lower"),
    "convolve.fft_rows": ("count", "lower"),
    "estimator.gru_forward.self_ms": ("ms", "lower"),
    "estimator.gru_backward.self_ms": ("ms", "lower"),
    "estimator.estimator_forward.total_ms": ("ms", "lower"),
    "estimator.estimator_backward.total_ms": ("ms", "lower"),
    "optim.adam_step.self_ms": ("ms", "lower"),
    "vocoder.vocoder_forward.total_ms": ("ms", "lower"),
    "vocoder.vocoder_backward.total_ms": ("ms", "lower"),
    "vocoder.sine_source.self_ms": ("ms", "lower"),
    "rir.estimate_t60.self_ms": ("ms", "lower"),
    "rir.estimate_t60.calls": ("count", "lower"),
    "dsp.las.total_ms": ("ms", "lower"),
    "fileio.read_wav.self_ms": ("ms", "lower"),
    "fileio.write_wav.self_ms": ("ms", "lower"),
    "fileio.bytes_read": ("B", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "fileio.checkpoint_ms": ("ms", "lower"),
    "simdata.build_dataset.total_ms": ("ms", "lower"),
    "cli.run.total_ms": ("ms", "lower"),
    "training.loop.self_ms": ("ms", "lower"),
}
SETUP_METRICS = {
    "simdata.build_dataset.total_ms": ("simdata.build_dataset",),
    "cli.run.total_ms": ("cli.run",),
    "fileio.checkpoint_ms": ("fileio.save_checkpoint", "fileio.load_checkpoint"),
}


def install(module_name, func_name, wrap):
    """Replace module.func by wrap(func) wherever a reverbkit module holds it.

    Returns a callable that puts the original back.
    """
    orig = getattr(sys.modules[module_name], func_name)
    wrapped = wrap(orig)
    patched = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "reverbkit" or name.startswith("reverbkit.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)
                patched.append((mod, attr))

    def restore():
        for mod, attr in patched:
            setattr(mod, attr, orig)
    return restore


class StepClock:
    """Operation boundaries, each paired with a reference run's CPU time.

    `lap()` ends an operation.  It stamps wall and CPU time, runs the
    reference (reference.py) when REF_EVERY_S of wall time has passed
    since the last run, and stamps again when the next operation starts,
    so the reference is never inside an operation.  An operation is
    paired with the median of the last REF_WINDOW reference runs, the
    one at its end included: about a second of the host's speed, with
    less of one run's jitter.  The training workloads call `lap()` from
    a wrapper on `adam_step`: every training loop ends a step with one
    Adam update.
    """

    REF_EVERY_S = 0.2
    REF_WINDOW = 5
    WARM_REFS = 20  # the first reference runs of a process are slower

    def __init__(self):
        self.laps = []
        self._refs, self._ref_at = [], -math.inf
        self._resume = (time.perf_counter(), time.process_time())

    def start(self):
        """Forget earlier laps; the next operation starts now."""
        self._refs = [reference.reference_cpu_s() for _ in range(self.WARM_REFS)]
        self._refs = self._refs[-self.REF_WINDOW:]
        self.laps.clear()
        self._ref_at = -math.inf
        self._resume = (time.perf_counter(), time.process_time())

    def lap(self):
        end = (time.perf_counter(), time.process_time())
        if end[0] - self._ref_at >= self.REF_EVERY_S:
            self._refs = self._refs[1 - self.REF_WINDOW:] + [reference.reference_cpu_s()]
            self._ref_at = end[0]
        self.laps.append((self._resume, end, statistics.median(self._refs)))
        self._resume = (time.perf_counter(), time.process_time())

    def ops(self):
        """(wall bounds, CPU seconds, reference CPU seconds) per operation."""
        return ([(s[0], e[0]) for s, e, _ in self.laps],
                [e[1] - s[1] for s, e, _ in self.laps],
                [r for _, _, r in self.laps])

    def wrap(self, fn):
        def clocked(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.lap()
            return out
        return clocked

    def install(self):
        return install("reverbkit.optim", "adam_step", self.wrap)


class Tracer:
    """In-memory spans: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap_as(self, name, counter):
        def wrap(fn):
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                span = [name, time.perf_counter(), None, parent, None]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                if counter is not None:
                    span[4] = counter(args, kwargs, out)
                return out
            return traced
        return wrap

    def install(self):
        restores = [install(mod, fn, self.wrap_as(name, counter))
                    for mod, fn, name, counter in TRACED]
        return lambda: [r() for r in reversed(restores)]

    def _under(self, i, names):
        p = self.spans[i][3]
        while p is not None:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def _op_counts(self, i):
        """The per-operation counts that span i contributes."""
        name, counts = self.spans[i][0], self.spans[i][4]
        if name == "dsp.fft":
            out = {"dsp.fft.rows": counts["rows"], "dsp.fft.points": counts["points"]}
            if self._under(i, ("losses.mrsd_loss", "losses.secondary_dry_loss")):
                out["losses.fft_rows"] = counts["rows"]
            if self._under(i, ("convolve.convolve_fft", "convolve.convolve_grad")):
                out["convolve.fft_rows"] = counts["rows"]
            return out
        if name == "rir.estimate_t60":
            return {"rir.estimate_t60.calls": 1}
        if name == "fileio.read_wav":
            return {"fileio.bytes_read": counts["bytes"]}
        if name == "fileio.write_wav":
            return {"fileio.bytes_written": counts["bytes"]}
        return {}

    def layer_metrics(self, op_bounds, setup_end):
        """Per-operation layer metrics over the timed operations.

        Times are the timed phase's totals divided by the operation
        count; counts are the median over operations, so they repeat
        exactly from run to run.  A layer the workload never calls reads 0.
        """
        spans = self.spans
        n_ops = len(op_bounds)
        starts = [a for a, _ in op_bounds]
        t_lo, t_hi = op_bounds[0][0], op_bounds[-1][1]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[i]

        total, self_t, setup_total = {}, {}, {}
        per_op = {}  # count name -> one value per operation
        top_level = 0.0
        for i, (name, a, b, parent, _) in enumerate(spans):
            if b <= setup_end:
                setup_total[name] = setup_total.get(name, 0.0) + dur[i]
                continue
            if not (t_lo <= a < t_hi):
                continue
            total[name] = total.get(name, 0.0) + dur[i]
            self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
            if parent is None:
                top_level += dur[i]
            op = bisect.bisect_right(starts, a) - 1
            if a < op_bounds[op][1]:
                for key, v in self._op_counts(i).items():
                    per_op.setdefault(key, [0] * n_ops)[op] += v

        op_s = sum(b - a for a, b in op_bounds)
        out = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if metric in SETUP_METRICS:
                out[metric] = 1e3 * sum(setup_total.get(n, 0.0)
                                        for n in SETUP_METRICS[metric])
            elif metric == "training.loop.self_ms":
                out[metric] = 1e3 * (op_s - top_level) / n_ops
            elif kind in ("self_ms", "total_ms"):
                src = self_t if kind == "self_ms" else total
                out[metric] = 1e3 * src.get(layer, 0.0) / n_ops
            else:
                out[metric] = float(statistics.median(per_op.get(metric, [0])))
        return out
