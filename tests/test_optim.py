import numpy as np
import pytest

from reverbkit.optim import AdamState, adam_step, grad_check


def test_first_step_magnitude():
    # with a constant gradient the very first Adam step is ~lr in size
    p = {"w": np.array([0.0])}
    s = AdamState()
    adam_step(s, p, {"w": np.array([3.0])}, 0.1, 0.9, 0.999)
    assert abs(p["w"][0] + 0.1) <= 1e-8


def test_descends_quadratic():
    p = {"w": np.array([5.0, -3.0])}
    s = AdamState()
    for _ in range(2000):
        adam_step(s, p, {"w": 2.0 * p["w"]}, 0.05, 0.9, 0.999)
    assert np.max(np.abs(p["w"])) < 1e-3


def test_bias_correction_matches_reference():
    # hand-rolled reference implementation, one parameter, three steps
    g_seq = [np.array([1.0]), np.array([-2.0]), np.array([0.5])]
    p = {"w": np.array([0.3])}
    s = AdamState()
    w = 0.3
    m = v = 0.0
    for t, g in enumerate(g_seq, start=1):
        adam_step(s, p, {"w": g.copy()}, 0.01, 0.9, 0.999)
        m = 0.9 * m + 0.1 * g[0]
        v = 0.999 * v + 0.001 * g[0] ** 2
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        w -= 0.01 * mh / (np.sqrt(vh) + 1e-8)
        assert abs(p["w"][0] - w) <= 1e-12


def test_multiple_groups_independent():
    p = {"a": np.zeros(2), "b": np.zeros(3)}
    s = AdamState()
    adam_step(s, p, {"a": np.ones(2), "b": np.zeros(3)}, 0.1, 0.9, 0.999)
    assert np.all(p["a"] != 0)
    assert np.all(p["b"] == 0)


def test_nonfinite_gradient_raises_and_preserves_params():
    p = {"w": np.array([1.0])}
    s = AdamState()
    with pytest.raises(ValueError):
        adam_step(s, p, {"w": np.array([np.nan])}, 1e-3, 0.9, 0.999)
    assert p["w"][0] == 1.0
    assert s.step == 0


def test_state_dict_roundtrip():
    p = {"w": np.zeros(4)}
    s = AdamState()
    rng = np.random.default_rng(0)
    for _ in range(5):
        adam_step(s, p, {"w": rng.standard_normal(4)}, 0.01, 0.9, 0.999)
    d = s.state_dict()
    s2 = AdamState()
    # allocate slots
    adam_step(s2, {"w": np.zeros(4)}, {"w": np.zeros(4)}, 0.01, 0.9, 0.999)
    s2.load_state_dict(d)
    assert s2.step == s.step
    assert np.array_equal(s2.m["w"], s.m["w"])
    assert np.array_equal(s2.v["w"], s.v["w"])


def test_resume_trajectory_identical():
    rng_grads = [np.random.default_rng(i).standard_normal(3) for i in range(10)]
    pa = {"w": np.zeros(3)}
    sa = AdamState()
    for g in rng_grads:
        adam_step(sa, pa, {"w": g.copy()}, 0.02, 0.9, 0.999)
    # run 5 steps, snapshot, resume in a fresh state
    pb = {"w": np.zeros(3)}
    sb = AdamState()
    for g in rng_grads[:5]:
        adam_step(sb, pb, {"w": g.copy()}, 0.02, 0.9, 0.999)
    snap = {k: v.copy() for k, v in sb.state_dict().items()}
    pc = {"w": pb["w"].copy()}
    sc = AdamState()
    adam_step(sc, {"w": np.zeros(3)}, {"w": np.zeros(3)}, 0.02, 0.9, 0.999)
    sc.load_state_dict(snap)
    for g in rng_grads[5:]:
        adam_step(sc, pc, {"w": g.copy()}, 0.02, 0.9, 0.999)
    assert np.array_equal(pc["w"], pa["w"])


def test_grad_check_passes_on_correct_gradient():
    def loss(params):
        w = params["w"]
        return float(np.sum(w**2)), {"w": 2.0 * w}

    rep = grad_check(loss, {"w": np.array([0.3, -1.2, 0.7])}, tolerance=1e-6)
    assert rep["passed"]
    assert rep["max_rel_error"] <= 1e-6


def test_grad_check_fails_on_wrong_gradient():
    def loss(params):
        w = params["w"]
        return float(np.sum(w**2)), {"w": 3.0 * w}  # wrong factor

    rep = grad_check(loss, {"w": np.array([0.5, 1.0])}, tolerance=1e-5)
    assert not rep["passed"]
    assert rep["max_rel_error"] > 0.1


def test_grad_check_reports_per_group():
    def loss(params):
        a, b = params["a"], params["b"]
        return float(np.sum(a**2) + np.sum(b**2)), {"a": 2.0 * a, "b": 2.5 * b}

    rep = grad_check(loss, {"a": np.array([1.0]), "b": np.array([1.0])},
                     tolerance=1e-5)
    assert rep["groups"]["a"]["passed"]
    assert not rep["groups"]["b"]["passed"]
    assert not rep["passed"]


def test_grad_check_zero_gradient():
    def loss(params):
        return 1.0, {"w": np.zeros_like(params["w"])}

    rep = grad_check(loss, {"w": np.array([0.1, 0.2])}, tolerance=1e-6)
    assert rep["passed"]
