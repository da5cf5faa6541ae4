from dataclasses import fields

import numpy as np
import pytest

from reverbkit.checks import check_utv
from reverbkit.estimator import (UtvEstimatorParams, conv1d_backward, conv1d_forward,
                                 estimator_backward, estimator_forward,
                                 gru_backward, gru_forward, temporal_avg_pool,
                                 temporal_avg_pool_grad)


def tiny_params(seed=0):
    return UtvEstimatorParams.init(input_dim=8, hidden_dim=4, channels=4,
                                   kernel=3, tail_len=15, seed=seed)


def zero_params(input_dim=3, hidden=2, channels=2, kernel=3, tail_len=4):
    p = UtvEstimatorParams.init(input_dim, hidden, channels, kernel, tail_len)
    for name, arr in p.as_dict().items():
        arr[...] = 0.0
    return p


def test_gru_all_zero_params():
    p = zero_params()
    h, _ = gru_forward(p, np.ones((5, 3)))
    assert np.all(h == 0)


def test_gru_scalar_recurrence():
    p = zero_params(input_dim=1, hidden=1)
    p.b_c[:] = 1.0
    h, _ = gru_forward(p, np.zeros((2, 1)))
    h1 = 0.5 * np.tanh(1.0)
    h2 = 0.5 * np.tanh(1.0) + 0.5 * h1
    assert abs(h[0, 0] - h1) <= 1e-12
    assert abs(h[1, 0] - h2) <= 1e-12
    assert abs(h[0, 0] - 0.38079) <= 1e-5
    assert abs(h[1, 0] - 0.57119) <= 1e-5


def test_gru_dimension_mismatch():
    p = tiny_params()
    with pytest.raises(ValueError):
        gru_forward(p, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        gru_forward(p, np.zeros((0, 8)))


def test_gru_bptt_matches_finite_differences():
    # covered in depth by checks.check_utv; spot-check one weight here
    rep = check_utv()
    assert rep["passed"], rep


def test_gru_input_gradient_matches_finite_differences():
    p = tiny_params(seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 8))
    w = rng.standard_normal((5, 4))  # loss = sum(w * h)
    _, cache = gru_forward(p, x)
    _, gx = gru_backward(p, cache, w)
    eps = 1e-6
    num = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num[idx] = (np.sum(w * gru_forward(p, xp)[0])
                    - np.sum(w * gru_forward(p, xm)[0])) / (2 * eps)
    assert np.max(np.abs(gx - num)) <= 1e-6 * max(1.0, np.max(np.abs(num)))


def test_pool_mean():
    assert np.array_equal(temporal_avg_pool([[1.0, 3.0], [3.0, 5.0]]), [2.0, 4.0])


def test_pool_single_frame_identity():
    assert np.array_equal(temporal_avg_pool([[7.0, -2.0]]), [7.0, -2.0])


def test_pool_empty_raises():
    with pytest.raises(ValueError):
        temporal_avg_pool(np.zeros((0, 3)))


def test_pool_gradient_scatter():
    g = temporal_avg_pool_grad([1.0, 1.0], 2)
    assert np.array_equal(g, [[0.5, 0.5], [0.5, 0.5]])


def test_estimator_zero_output_layer_gives_identity():
    p = tiny_params()
    p.out_w[...] = 0.0
    p.out_b[...] = 0.0
    tail, _ = estimator_forward(p, np.random.default_rng(0).standard_normal((6, 8)))
    assert np.all(tail == 0)


def test_estimator_output_shape():
    p = UtvEstimatorParams.init(input_dim=257, hidden_dim=32, channels=32,
                                kernel=11, tail_len=255, seed=1)
    x = np.random.default_rng(1).standard_normal((9, 257))
    tail, _ = estimator_forward(p, x)
    assert tail.shape == (255,)


def test_estimator_equals_manual_composition():
    p = tiny_params(seed=3)
    x = np.random.default_rng(4).standard_normal((7, 8))
    tail, _ = estimator_forward(p, x)
    h, _ = gru_forward(p, x)
    act, _ = conv1d_forward(p, h)
    pooled = temporal_avg_pool(act)
    manual = p.out_w @ pooled + p.out_b
    assert np.array_equal(tail, manual)


def test_estimator_tail_length_frame_independent():
    p = tiny_params()
    for n in (1, 2, 5, 17):
        tail, _ = estimator_forward(p, np.zeros((n, 8)))
        assert tail.shape == (15,)


def test_backward_zero_grad():
    p = tiny_params()
    x = np.random.default_rng(5).standard_normal((4, 8))
    _, cache = estimator_forward(p, x)
    grads, gx = estimator_backward(p, cache, np.zeros(15))
    for arr in grads.as_dict().values():
        assert np.all(arr == 0)
    assert np.all(gx == 0)


def test_backward_deterministic():
    p = tiny_params()
    x = np.random.default_rng(6).standard_normal((4, 8))
    _, cache = estimator_forward(p, x)
    g = np.random.default_rng(7).standard_normal(15)
    a, _ = estimator_backward(p, cache, g)
    b, _ = estimator_backward(p, cache, g)
    for k, arr in a.as_dict().items():
        assert np.array_equal(arr, b.as_dict()[k])


def test_backward_shape_mismatch():
    p = tiny_params()
    _, cache = estimator_forward(p, np.zeros((3, 8)))
    with pytest.raises(ValueError):
        estimator_backward(p, cache, np.zeros(7))


def test_no_cross_utterance_state():
    p = tiny_params(seed=8)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 8))
    b = rng.standard_normal((6, 8))
    ta1, _ = estimator_forward(p, a)
    tb1, _ = estimator_forward(p, b)
    tb2, _ = estimator_forward(p, b)
    ta2, _ = estimator_forward(p, a)
    assert np.array_equal(ta1, ta2)
    assert np.array_equal(tb1, tb2)


def test_kernel_must_be_odd():
    with pytest.raises(ValueError):
        UtvEstimatorParams.init(input_dim=4, hidden_dim=2, channels=2,
                                kernel=4, tail_len=3)


@pytest.mark.parametrize("name,value",
                         [(f.name, None) for f in fields(UtvEstimatorParams)]
                         + [pytest.param("out_b", [0.5], id="out_b-[0.5]"),
                            pytest.param("b_z", [0.1], id="b_z-[0.1]")])
def test_mis_shaped_group_is_rejected(name, value):
    d = UtvEstimatorParams.init(257, 32, 32, 11, 255).as_dict()
    d[name] = d[name][None] if value is None else np.array(value)
    with pytest.raises(ValueError, match=f"group {name} "):
        UtvEstimatorParams.from_dict(d)


def test_init_near_identity():
    p = UtvEstimatorParams.init(input_dim=257, hidden_dim=32, channels=32,
                                kernel=11, tail_len=255, seed=0)
    x = np.random.default_rng(0).standard_normal((20, 257))
    tail, _ = estimator_forward(p, x)
    assert np.max(np.abs(tail)) < 0.05


def test_batched_pass_equals_sum_of_per_row_passes():
    p = tiny_params(seed=11)
    rng = np.random.default_rng(12)
    x, g = rng.standard_normal((3, 6, 8)), rng.standard_normal((3, 15))
    tail, cache = estimator_forward(p, x)
    grads, gx = estimator_backward(p, cache, g)
    assert tail.shape == (3, 15) and gx.shape == x.shape
    want = None
    for b in range(3):
        t1, c1 = estimator_forward(p, x[b])
        g1, gx1 = estimator_backward(p, c1, g[b])
        assert np.max(np.abs(tail[b] - t1)) <= 1e-12 * np.max(np.abs(t1))
        assert np.max(np.abs(gx[b] - gx1)) <= 1e-12 * np.max(np.abs(gx1))
        d = g1.as_dict()
        want = d if want is None else {k: want[k] + d[k] for k in d}
    for k, arr in grads.as_dict().items():
        assert np.max(np.abs(arr - want[k])) <= 1e-12 * np.max(np.abs(want[k])), k


def test_batch_of_one_is_bit_equal_to_the_2d_call():
    p = tiny_params(seed=13)
    rng = np.random.default_rng(14)
    x, g = rng.standard_normal((7, 8)), rng.standard_normal(15)
    tail, cache = estimator_forward(p, x)
    tail1, cache1 = estimator_forward(p, x[None])
    assert tail.shape == (15,) and tail1.shape == (1, 15)
    assert tail1[0].tobytes() == tail.tobytes()
    grads, gx = estimator_backward(p, cache, g)
    grads1, gx1 = estimator_backward(p, cache1, g[None])
    assert gx1[0].tobytes() == gx.tobytes()
    for k, arr in grads.as_dict().items():
        assert grads1.as_dict()[k].tobytes() == arr.tobytes(), k


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# The workload's shape: batch 4 x 80 frames, 257 bins, hidden 32, 32 channels,
# kernel 11.
def test_conv_layer_matches_per_tap_loop_at_workload_shape():
    p = UtvEstimatorParams.init(257, 32, 32, 11, 255, seed=15)
    rng = np.random.default_rng(16)
    h, grad_act = rng.standard_normal((2, 4, 80, 32))
    act, cache = conv1d_forward(p, h)
    g_w, g_b, g_h = conv1d_backward(p, cache, grad_act)
    padded = np.pad(h, ((0, 0), (5, 5), (0, 0)))
    pre = sum(padded[:, k : k + 80] @ p.conv_w[:, :, k].T for k in range(11))
    want_act = np.tanh(pre + p.conv_b)
    dpre = grad_act * (1.0 - want_act**2)
    want_w = np.zeros_like(p.conv_w)
    dpadded = np.zeros_like(padded)
    for k in range(11):
        want_w[:, :, k] = dpre.reshape(-1, 32).T @ padded[:, k : k + 80].reshape(-1, 32)
        dpadded[:, k : k + 80] += dpre @ p.conv_w[:, :, k]
    assert _close(act, want_act)
    assert _close(g_w, want_w)
    assert _close(g_b, dpre.sum(axis=(0, 1)))
    assert _close(g_h, dpadded[:, 5:85])


def test_gru_weight_gradients_match_per_frame_accumulation_at_workload_shape():
    p = UtvEstimatorParams.init(257, 32, 32, 11, 255, seed=17)
    rng = np.random.default_rng(18)
    x, w = rng.standard_normal((4, 80, 257)), rng.standard_normal((4, 80, 32))
    _, cache = gru_forward(p, x)
    gp, _ = gru_backward(p, cache, w)
    # the forward cache is frame-major: [frames (+1 for h), batch, width]
    xf, h, z, g, c, u = (cache[k] for k in ("x", "h", "z", "g", "c", "u"))
    want = {k: np.zeros_like(v) for k, v in gp.items()}
    dh = np.zeros((4, 32))
    for t in range(79, -1, -1):
        dh = dh + w[:, t]
        daz = dh * (h[t] - c[t]) * z[t] * (1.0 - z[t])
        dac = dh * (1.0 - z[t]) * (1.0 - c[t] ** 2)
        dag = dac * u[t] * g[t] * (1.0 - g[t])
        du = dac * g[t]
        for gate, da, dr in (("z", daz, daz), ("g", dag, dag), ("c", dac, du)):
            want[f"W_{gate}"] += da.T @ xf[t]
            want[f"U_{gate}"] += dr.T @ h[t]
            want[f"b_{gate}"] += da.sum(axis=0)
        dh = dh * z[t] + daz @ p.U_z + dag @ p.U_g + du @ p.U_c
    for k, arr in gp.items():
        assert _close(arr, want[k]), k
