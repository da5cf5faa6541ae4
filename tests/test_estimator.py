import numpy as np
import pytest

from reverbkit.checks import check_utv
from reverbkit.estimator import (UtvEstimatorParams, conv1d_forward,
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


def test_init_near_identity():
    p = UtvEstimatorParams.init(input_dim=257, hidden_dim=32, channels=32,
                                kernel=11, tail_len=255, seed=0)
    x = np.random.default_rng(0).standard_normal((20, 257))
    tail, _ = estimator_forward(p, x)
    assert np.max(np.abs(tail)) < 0.05
