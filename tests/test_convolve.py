import numpy as np
import pytest

from reverbkit.convolve import (convolve_direct, convolve_fft, convolve_grad,
                                linear_conv_fft)
from reverbkit.dsp import Waveform


def test_identity_rir():
    out = convolve_direct(np.array([1.0, 2.0, 3.0]), np.array([1.0]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


def test_hand_convolution():
    out = convolve_direct(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5]))
    assert np.allclose(out, [1.0, 2.5, 4.0])


def test_zero_dry():
    out = convolve_direct(np.zeros(10), np.array([1.0, 0.3, -0.2]))
    assert np.all(out == 0)


def test_fft_padded_identity():
    out = convolve_fft(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 2.0, 3.0], atol=1e-12)


def test_fft_matches_direct_large():
    rng = np.random.default_rng(0)
    d = rng.standard_normal(4800)
    h = rng.standard_normal(256)
    a = convolve_direct(d, h)
    b = convolve_fft(d, h)
    assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(a))


@pytest.mark.parametrize("T,L", [(1, 1), (5, 9), (100, 100), (2**16, 2**13)])
def test_fft_direct_equivalence_shapes(T, L):
    rng = np.random.default_rng(T + L)
    d = rng.standard_normal(T)
    h = rng.standard_normal(L)
    a = convolve_direct(d, h)
    b = convolve_fft(d, h)
    assert len(b) == T
    assert np.max(np.abs(a - b)) <= 1e-6 * max(np.max(np.abs(a)), 1e-12)


def test_linearity():
    rng = np.random.default_rng(1)
    d = rng.standard_normal(100)
    h = rng.standard_normal(16)
    assert np.allclose(convolve_fft(2 * d, h), 2 * convolve_fft(d, h))


def test_waveform_wrapper_preserves_rate():
    w = Waveform(np.ones(10), 8000)
    out = convolve_fft(w, np.array([1.0, 0.5]))
    assert isinstance(out, Waveform)
    assert out.sample_rate == 8000


def test_empty_inputs_raise():
    with pytest.raises(ValueError):
        convolve_direct(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        convolve_fft(np.array([1.0]), np.array([]))


def test_grad_zero_upstream():
    cg = convolve_grad(np.ones(5), np.ones(3), np.zeros(5))
    assert np.all(cg.grad_dry == 0) and np.all(cg.grad_rir == 0)


def test_grad_hand_example():
    cg = convolve_grad(np.array([3.0, 4.0]), np.array([1.0, 2.0]),
                       np.array([1.0, 1.0]))
    assert np.allclose(cg.grad_rir, [7.0, 3.0])
    assert np.allclose(cg.grad_dry, [3.0, 1.0])


def test_grad_without_dry_keeps_rir_gradient():
    rng = np.random.default_rng(12)
    d, h, g = rng.standard_normal(50), rng.standard_normal(7), rng.standard_normal(50)
    full = convolve_grad(d, h, g)
    rir_only = convolve_grad(d, h, g, wrt_dry=False)
    assert rir_only.grad_dry is None
    assert np.array_equal(rir_only.grad_rir, full.grad_rir)


def test_grad_length_mismatch():
    with pytest.raises(ValueError):
        convolve_grad(np.ones(5), np.ones(3), np.zeros(4))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    d = rng.standard_normal(200)
    h = rng.standard_normal(16)

    def loss(dv, hv):
        r = convolve_fft(dv, hv)
        return 0.5 * float(r @ r)

    r = convolve_fft(d, h)
    cg = convolve_grad(d, h, r)  # grad of 0.5||r||^2 w.r.t. r is r
    eps = 1e-6
    for k in range(16):
        hp = h.copy(); hp[k] += eps
        hm = h.copy(); hm[k] -= eps
        num = (loss(d, hp) - loss(d, hm)) / (2 * eps)
        assert abs(num - cg.grad_rir[k]) <= 1e-6 * max(abs(num), 1.0)
    for s in range(0, 200, 17):
        dp = d.copy(); dp[s] += eps
        dm = d.copy(); dm[s] -= eps
        num = (loss(dp, h) - loss(dm, h)) / (2 * eps)
        assert abs(num - cg.grad_dry[s]) <= 1e-6 * max(abs(num), 1.0)


def test_adjoint_identity():
    # <conv(d,h), g> == <d, grad_dry(g)> == <h, grad_rir(g)> by bilinearity
    rng = np.random.default_rng(9)
    d = rng.standard_normal(64)
    h = rng.standard_normal(12)
    g = rng.standard_normal(64)
    r = convolve_fft(d, h)
    cg = convolve_grad(d, h, g)
    lhs = float(r @ g)
    assert abs(lhs - float(d @ cg.grad_dry)) <= 1e-9 * max(abs(lhs), 1.0)
    assert abs(lhs - float(h @ cg.grad_rir)) <= 1e-9 * max(abs(lhs), 1.0)


def test_linear_conv_full_length():
    a = np.array([1.0, 1.0])
    b = np.array([1.0, -1.0, 2.0])
    assert np.allclose(linear_conv_fft(a, b), np.convolve(a, b))


@pytest.mark.parametrize("T,L", [(1, 1), (3, 9), (1, 4), (5, 12), (9, 8),
                                 (100, 29)])
def test_edge_sizes_match_numpy(T, L):
    # T = L = 1 transforms at n = 1; L > T leaves taps k >= T with no
    # signal; 5 + 12 - 1 and 9 + 8 - 1 are exactly 16
    rng = np.random.default_rng(10 * T + L)
    d, h, g = rng.standard_normal(T), rng.standard_normal(L), rng.standard_normal(T)
    assert np.max(np.abs(linear_conv_fft(d, h) - np.convolve(d, h))) <= 1e-12 * T
    cg = convolve_grad(d, h, g)
    want_rir = np.zeros(L)
    m = min(L, T)
    want_rir[:m] = np.correlate(g, d, "full")[T - 1 : T - 1 + m]
    want_dry = np.correlate(g, h, "full")[L - 1 : L - 1 + T]
    assert np.max(np.abs(cg.grad_rir - want_rir)) <= 1e-12 * T
    assert np.all(cg.grad_rir[T:] == 0.0)
    assert np.max(np.abs(cg.grad_dry - want_dry)) <= 1e-12 * T



def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("T,L", [(500, 40), (8000, 1024)])
def test_rows_equal_single_row_calls_bit_for_bit(T, L):
    rng = np.random.default_rng(T + L)
    d, g = rng.standard_normal((4, T)), rng.standard_normal((4, T))
    h = 0.1 * rng.standard_normal((4, L))
    h[2] = 0.0
    h[2, 0] = 0.8  # a pure direct path beside three FIR rows
    out = convolve_fft(d, h)
    cg = convolve_grad(d, h, g)
    for b in range(4):
        one = convolve_grad(d[b], h[b], g[b])
        assert _same_bits(out[b], convolve_fft(d[b], h[b]))
        assert _same_bits(cg.grad_rir[b], one.grad_rir)
        assert _same_bits(cg.grad_dry[b], one.grad_dry)
    assert _same_bits(out[2], 0.8 * d[2])


def test_one_rir_serves_every_row():
    rng = np.random.default_rng(31)
    d, g, h = (rng.standard_normal((3, 200)), rng.standard_normal((3, 200)),
               rng.standard_normal(16))
    rows = np.tile(h, (3, 1))
    assert _same_bits(convolve_fft(d, h), convolve_fft(d, rows))
    shared, per_row = convolve_grad(d, h, g), convolve_grad(d, rows, g)
    assert _same_bits(shared.grad_rir, per_row.grad_rir)
    assert _same_bits(shared.grad_dry, per_row.grad_dry)
