"""RIR representations, synthetic room generation, and T60 analysis.

An RIR always has a unit direct path: the first coefficient is 1 and is
never trainable, so only the L-1 tail values are free.  T60 estimation
uses Schroeder backward integration of the coefficient energies, then a
line fit over the [-5, -25] dB span or, on a shorter curve, a decay-model
fit that scores every T60 candidate in one array pass.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Rir:
    """Impulse response with a fixed unit direct path; tail holds h_2..h_L."""

    tail: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.tail = np.asarray(self.tail, dtype=np.float64)
        if not np.all(np.isfinite(self.tail)):
            raise ValueError("RIR tail contains non-finite values")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @classmethod
    def zeros(cls, length, sample_rate):
        """Identity RIR of the given length: a unit direct path, zero tail."""
        if length < 1:
            raise ValueError("RIR length must be >= 1")
        return cls(np.zeros(length - 1), sample_rate)

    @property
    def coefficients(self):
        return assemble(self.tail)


# The learned GTI tail is a plain Rir; the name stays for existing callers.
GtiRir = Rir


@dataclass(frozen=True)
class RoomSpec:
    """Ground-truth acoustic condition for one simulated room."""

    room_id: str
    t60: float
    direct_to_reverb_db: float
    onset_delay: int
    seed: int

    def __post_init__(self):
        if self.t60 <= 0:
            raise ValueError("t60 must be positive")
        if self.onset_delay < 1:
            raise ValueError("onset_delay must be >= 1")


def assemble(tail):
    """Full coefficients [1, tail...] along the last axis; position 0 is the
    direct path."""
    tail = np.asarray(tail, dtype=np.float64)
    return np.concatenate([np.ones(tail.shape[:-1] + (1,)), tail], axis=-1)


def decay_rate(t60, sample_rate):
    """Per-sample amplitude ratio giving 60 dB decay over t60 seconds."""
    return 10.0 ** (-3.0 / (sample_rate * t60))


def synth_rir(spec, length, sample_rate, min_decay_db=30.0):
    """Exponentially decaying Gaussian-noise RIR with known T60.

    h_1 = 1; for n >= onset_delay the tail is g * a^n * w_n with w_n
    standard normal from the seed and a set by the target T60.  g scales
    the tail so the direct-to-reverberant energy ratio matches the spec.
    min_decay_db guards against tails too short to measure; pass 0 to
    generate deliberately truncated RIRs.
    """
    envelope_db = 60.0 * (length / sample_rate) / spec.t60
    if envelope_db < min_decay_db:
        raise ValueError(
            f"RIR length {length} too short for t60={spec.t60}s at "
            f"{sample_rate} Hz: decay range {envelope_db:.1f} dB < {min_decay_db} dB"
        )
    rng = np.random.default_rng(spec.seed)
    a = decay_rate(spec.t60, sample_rate)
    n = np.arange(2, length + 1)  # tail positions, 1-based
    w = rng.standard_normal(length - 1)
    tail = np.where(n >= spec.onset_delay, a**n * w, 0.0)
    energy = np.sum(tail**2)
    if energy <= 0:
        raise ValueError("onset_delay leaves an empty tail")
    target = 10.0 ** (-spec.direct_to_reverb_db / 10.0)  # h1^2 == 1
    tail *= np.sqrt(target / energy)
    return Rir(tail, sample_rate)


def _decay(coeffs):
    """Tail energy from each sample on over the total (the Schroeder
    backward integral), as a fraction and in dB."""
    energy = np.asarray(coeffs, dtype=np.float64)**2
    remaining = np.cumsum(energy[::-1])[::-1]
    if not remaining.size or remaining[0] <= 0:
        raise ValueError("all-zero RIR has no decay curve")
    fraction = remaining / remaining[0]
    return fraction, 10.0 * np.log10(np.maximum(fraction, 1e-300))


def edc(coeffs):
    """Schroeder energy decay curve in dB: tail energy from each sample on,
    relative to the total (so the first value is 0)."""
    return _decay(coeffs)[1]


def _line_fit_t60(idx, db, sample_rate):
    slope_per_sample, _ = np.polyfit(idx.astype(np.float64), db, 1)
    slope = slope_per_sample * sample_rate  # dB/second
    if slope >= 0:
        raise ValueError("energy decay curve is not decaying")
    return -60.0 / slope


def estimate_t60(h, sample_rate=None):
    """Reverberation time of a Rir, or of coefficients at sample_rate.

    Fits a line to the Schroeder decay curve over the [-5, -25] dB window
    and extrapolates to -60 dB.  A bare impulse (decay below -25 dB within
    two samples) returns 0.  When the curve never reaches -25 dB before
    truncation effects take over, a decay model with a constant for the
    truncated energy is fitted instead; RIRs with almost no measurable
    decay, or whose best fit is the slowest decay searched, raise.
    """
    if isinstance(h, Rir):
        coeffs, fs = h.coefficients, h.sample_rate
    else:
        coeffs, fs = np.asarray(h, dtype=np.float64), sample_rate
    if fs is None:
        raise ValueError("sample rate required")
    fraction, db = _decay(coeffs)
    below = np.nonzero(db <= -25.0)[0]
    if len(db) <= 2 or (below.size and below[0] <= 1):
        return 0.0  # bare impulse convention
    start = int(np.argmax(db <= -5.0))
    # Keep clear of the steep truncation artifact near the last samples.
    safe_end = max(start + 2, int(0.9 * (len(db) - 1)))
    if below.size and below[0] <= safe_end:
        idx = np.arange(start, below[0] + 1)
        return _line_fit_t60(idx, db[idx], fs)
    return _truncated_decay_fit_t60(fraction, db, fs, start, safe_end)


# The truncated-decay fit searches T60 candidates in this range (seconds).
FIT_T60_MIN, FIT_T60_MAX = 0.01, 3.0


def _decay_misfits(t60s, n, y, ydb, fs):
    """Log-domain misfit of the best alpha * rho^n + beta for each T60 (rho
    its per-sample energy ratio): all 2 x 2 normal equations solved at once,
    centred so a rho near 1 loses no precision; inf where the model is not
    positive everywhere or the misfit is not finite."""
    x = (decay_rate(t60s[:, None], fs) ** 2) ** n
    dx = x - x.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = dx @ (y - y.mean()) / np.sum(dx**2, axis=1)
        model = alpha[:, None] * dx + y.mean()
        misfit = np.sum((10.0 * np.log10(model) - ydb) ** 2, axis=1)
    bad = np.any(model <= 0, axis=1) | ~np.isfinite(misfit)
    return np.where(bad, np.inf, misfit)


def _truncated_decay_fit_t60(fraction, db, fs, start, end):
    """Fit tail energies to alpha * rho^n + beta; robust to truncation.

    The additive beta absorbs the energy the truncated RIR never
    captured, so the fitted rho reflects the true decay even when the
    curve stops well short of -25 dB.  Coarse geometric grid over T60
    candidates, then 200 evenly spaced ones between the best's neighbours.
    """
    if db[end] > -10.0:
        raise ValueError(
            "RIR too short: energy decay curve never reaches a usable depth"
        )
    n = np.arange(start, end + 1).astype(np.float64)
    y = fraction[start : end + 1]
    ydb = db[start : end + 1]
    grid = np.geomspace(FIT_T60_MIN, FIT_T60_MAX, 200)
    i = int(np.argmin(_decay_misfits(grid, n, y, ydb, fs)))
    if i == len(grid) - 1:
        raise ValueError(f"decay too slow to measure: best fit at the "
                         f"{FIT_T60_MAX} s search ceiling")
    fine = np.linspace(grid[max(0, i - 1)], grid[i + 1], 200)
    return float(fine[np.argmin(_decay_misfits(fine, n, y, ydb, fs))])


def t60_error_stats(estimates, truths):
    """Mean/median/quartiles of the signed errors estimate - truth."""
    est = np.asarray(estimates, dtype=np.float64)
    tru = np.asarray(truths, dtype=np.float64)
    if est.shape != tru.shape or est.ndim != 1:
        raise ValueError("estimates and truths must be equal-length 1-D sequences")
    if est.size == 0:
        raise ValueError("no estimates to summarize")
    err = est - tru
    return {
        "mean": float(np.mean(err)),
        "median": float(np.median(err)),
        "q1": float(np.percentile(err, 25)),
        "q3": float(np.percentile(err, 75)),
        "n": int(err.size),
    }
