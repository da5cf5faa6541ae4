import numpy as np
import pytest

from reverbkit.convolve import convolve_fft
from reverbkit.rir import (FIT_T60_MAX, FIT_T60_MIN, GtiRir, Rir, RoomSpec,
                           _decay, _decay_misfits, assemble, decay_rate, edc,
                           estimate_t60, synth_rir, t60_error_stats)


def test_assemble_empty_tail():
    assert np.array_equal(assemble([]), [1.0])


def test_assemble_zero_tail_is_identity():
    h = assemble([0.0, 0.0, 0.0])
    assert np.array_equal(h, [1.0, 0.0, 0.0, 0.0])
    d = np.arange(1.0, 6.0)
    assert np.allclose(convolve_fft(d, h), d, atol=1e-12)


def test_assemble_direct_construction():
    assert np.array_equal(assemble([0.5, 0.25]), [1.0, 0.5, 0.25])


def test_gti_zero_init():
    g = GtiRir.zeros(8, 8000)
    assert np.all(g.tail == 0)
    assert g.coefficients[0] == 1.0


def test_rir_direct_path_always_one():
    r = Rir(np.array([0.3, -0.2]), 8000)
    assert r.coefficients[0] == 1.0
    assert len(r.coefficients) == 3


def test_room_spec_validation():
    with pytest.raises(ValueError):
        RoomSpec("x", -0.1, 0.0, 1, 0)
    with pytest.raises(ValueError):
        RoomSpec("x", 0.3, 0.0, 0, 0)


def test_synth_rir_deterministic():
    spec = RoomSpec("r1", 0.3, 3.0, 2, 42)
    a = synth_rir(spec, 4096, 8000)
    b = synth_rir(spec, 4096, 8000)
    assert np.array_equal(a.tail, b.tail)


def test_synth_rir_drr_normalization():
    spec = RoomSpec("r1", 0.3, 0.0, 1, 3)
    r = synth_rir(spec, 4096, 8000)
    assert abs(np.sum(r.tail**2) - 1.0) <= 1e-12


def test_synth_rir_onset_delay():
    spec = RoomSpec("r1", 0.3, 0.0, 10, 3)
    r = synth_rir(spec, 4096, 8000)
    # tail positions are 1-based 2..L; positions before the onset stay zero
    assert np.all(r.tail[:8] == 0)
    assert np.any(r.tail[8:] != 0)


def test_synth_rir_too_short_raises():
    with pytest.raises(ValueError):
        synth_rir(RoomSpec("r1", 0.5, 0.0, 1, 3), 256, 8000)


def test_synth_rir_schroeder_roundtrip():
    spec = RoomSpec("r1", 0.3, 0.0, 1, 5)
    r = synth_rir(spec, 4096, 8000)
    assert abs(estimate_t60(r) - 0.3) <= 0.1 * 0.3


def test_edc_single_sample():
    curve = edc(np.array([1.0]))
    assert np.allclose(curve, [0.0])


def test_edc_two_term():
    curve = edc(np.array([1.0, 1.0]))
    assert np.allclose(curve, [0.0, 10 * np.log10(0.5)], atol=1e-10)


def test_edc_pure_exponential_is_linear():
    a = 0.99
    L = 199
    h = a ** np.arange(1, L + 1)
    curve = edc(h)
    n = np.arange(1, L + 1)
    # exact finite geometric sum: EDC(n) = 10 log10((a^2n - a^2(L+1)) / (a^2 - a^2(L+1)))
    expected = 10.0 * np.log10((a ** (2 * n) - a ** (2 * (L + 1)))
                               / (a**2 - a ** (2 * (L + 1))))
    assert np.allclose(curve, expected, atol=1e-8)
    # away from the truncated end this matches the ideal line 20 (n-1) log10(a)
    early = n <= L // 4
    line = 20.0 * (n - 1) * np.log10(a)
    assert np.allclose(curve[early], line[early], atol=0.3)


def test_edc_monotone_nonincreasing():
    rng = np.random.default_rng(2)
    h = rng.standard_normal(500) * 0.99 ** np.arange(500)
    curve = edc(h)
    assert np.all(np.diff(curve) <= 1e-12)


def test_edc_all_zero_raises():
    with pytest.raises(ValueError):
        edc(np.zeros(10))


@pytest.mark.parametrize("t60", [0.1, 0.2, 0.3, 0.5])
@pytest.mark.parametrize("fs", [8000, 24000])
def test_estimate_t60_analytic(t60, fs):
    a = decay_rate(t60, fs)
    L = int(0.8 * t60 * fs)
    h = a ** np.arange(1, L + 1)
    assert abs(estimate_t60(h, fs) - t60) <= 0.02 * t60


def test_estimate_t60_fixture_03s():
    a = decay_rate(0.3, 8000)
    h = a ** np.arange(1, 3000)
    assert abs(estimate_t60(h, 8000) - 0.3) <= 0.02 * 0.3


def test_estimate_t60_bare_impulse():
    assert estimate_t60(np.array([1.0]), 8000) == 0.0
    assert estimate_t60(np.array([1.0, 0.0, 0.0, 0.0]), 8000) == 0.0


def test_estimate_t60_synth_self_consistency():
    r = synth_rir(RoomSpec("r", 0.15, 0.0, 1, 9), 2048, 8000)
    assert abs(estimate_t60(r) - 0.15) <= 0.1 * 0.15


def _truncated_rir():
    # only ~13 dB of envelope decay: the [-5,-25] window is unreachable
    return synth_rir(RoomSpec("r", 0.15, 2.0, 1, 12), 256, 8000, min_decay_db=0)


def _flat_noise_rir():
    rng = np.random.default_rng(0)
    return np.concatenate(([1.0], rng.standard_normal(255) / np.sqrt(255)))


def _fit_window(h):
    """The decay-fit inputs estimate_t60 passes for coefficients h."""
    fraction, db = _decay(h)
    start = int(np.argmax(db <= -5.0))
    end = max(start + 2, int(0.9 * (len(db) - 1)))
    n = np.arange(start, end + 1).astype(np.float64)
    return n, fraction[start : end + 1], db[start : end + 1]


def test_estimate_t60_truncated_rir_fallback():
    # the decay-model fallback still lands near the target
    assert abs(estimate_t60(_truncated_rir()) - 0.15) <= 0.2 * 0.15


def test_estimate_t60_no_decay_raises():
    h = np.ones(64)
    with pytest.raises(ValueError):
        estimate_t60(h, 8000)


def test_estimate_t60_flat_tail_raises_at_search_ceiling():
    # noise with a flat envelope: the decay fit's best candidate is the
    # largest T60 it searches, which is not a measurement
    with pytest.raises(ValueError, match="ceiling"):
        estimate_t60(_flat_noise_rir(), 8000)


@pytest.mark.parametrize("h", [_truncated_rir().coefficients, _flat_noise_rir()],
                         ids=["truncated", "flat_noise"])
def test_decay_misfits_match_lstsq(h):
    n, y, ydb = _fit_window(h)
    t60s = np.geomspace(FIT_T60_MIN, FIT_T60_MAX, 200)
    oracle = []
    for t60 in t60s:
        basis = np.stack([(decay_rate(t60, 8000) ** 2) ** n, np.ones_like(n)], 1)
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        model = basis @ coef
        oracle.append(np.inf if np.any(model <= 0)
                      else np.sum((10.0 * np.log10(model) - ydb) ** 2))
    oracle = np.array(oracle)
    got = _decay_misfits(t60s, n, y, ydb, 8000)
    assert np.array_equal(np.isinf(got), np.isinf(oracle))
    finite = np.isfinite(oracle)
    assert finite.any()
    np.testing.assert_allclose(got[finite], oracle[finite], rtol=1e-9, atol=0)


def test_truncated_fit_refines_to_the_misfit_minimum():
    r = _truncated_rir()
    t60 = estimate_t60(r)
    n, y, ydb = _fit_window(r.coefficients)
    best, lower, upper = _decay_misfits(np.array([t60, t60 * (1 - 1e-3),
                                                  t60 * (1 + 1e-3)]),
                                        n, y, ydb, 8000)
    assert best <= lower and best <= upper


def test_t60_error_stats_zero():
    s = t60_error_stats([0.1, 0.2], [0.1, 0.2])
    assert s["mean"] == 0 and s["median"] == 0 and s["q1"] == 0 and s["q3"] == 0


def test_t60_error_stats_fig2_constant():
    s = t60_error_stats([0.4, 0.3], [0.362, 0.362])
    assert abs(s["mean"] - (-0.012)) <= 1e-12
    assert abs(s["median"] - (-0.012)) <= 1e-12


def test_t60_error_stats_single_pair():
    s = t60_error_stats([0.5], [0.25])
    assert s["mean"] == 0.25 and s["median"] == 0.25 and s["n"] == 1


def test_t60_error_stats_errors():
    with pytest.raises(ValueError):
        t60_error_stats([0.1], [0.1, 0.2])
    with pytest.raises(ValueError):
        t60_error_stats([], [])
