"""Per-utterance RIR predictor: GRU -> 1-D conv -> average pool -> linear.

Maps the log amplitude spectra of an utterance to one RIR tail.  Forward
and backward passes are written out by hand (full backpropagation
through time, no truncation) so every gradient can be checked against
finite differences.
"""

from dataclasses import dataclass, fields

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class UtvEstimatorParams:
    """All trainable weights of the RIR predictor."""

    # GRU gates: update z, gate g, candidate c
    W_z: np.ndarray
    U_z: np.ndarray
    b_z: np.ndarray
    W_g: np.ndarray
    U_g: np.ndarray
    b_g: np.ndarray
    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray
    # same-padded conv along frames, tanh activation
    conv_w: np.ndarray  # [channels, hidden, kernel]
    conv_b: np.ndarray
    # affine output producing the RIR tail
    out_w: np.ndarray  # [L-1, channels]
    out_b: np.ndarray

    def __post_init__(self):
        if self.conv_w.shape[2] % 2 == 0:
            raise ValueError("conv kernel width must be odd")
        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"non-finite values in parameter {f.name}")

    @property
    def input_dim(self):
        return self.W_z.shape[1]

    @property
    def hidden_dim(self):
        return self.W_z.shape[0]

    @property
    def tail_len(self):
        return self.out_w.shape[0]

    def as_dict(self, prefix=""):
        return {prefix + f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, prefix=""):
        for f in fields(cls):
            if prefix + f.name not in d:
                raise ValueError(f"missing estimator parameter group {prefix + f.name}")
        return cls(**{f.name: d[prefix + f.name] for f in fields(cls)})

    @classmethod
    def init(cls, input_dim, hidden_dim, channels, kernel, tail_len, seed=0):
        """Uniform fan-in init; output layer scaled down so the initial
        predicted tail is near zero (training starts at near-identity reverb)."""
        rng = np.random.default_rng(seed)

        def u(rows, cols, fan_in):
            return rng.uniform(-1.0, 1.0, (rows, cols)) / np.sqrt(fan_in)

        h, i = hidden_dim, input_dim
        return cls(
            W_z=u(h, i, i), U_z=u(h, h, h), b_z=np.zeros(h),
            W_g=u(h, i, i), U_g=u(h, h, h), b_g=np.zeros(h),
            W_c=u(h, i, i), U_c=u(h, h, h), b_c=np.zeros(h),
            conv_w=rng.uniform(-1.0, 1.0, (channels, h, kernel)) / np.sqrt(h * kernel),
            conv_b=np.zeros(channels),
            out_w=0.01 * rng.uniform(-1.0, 1.0, (tail_len, channels)) / np.sqrt(channels),
            out_b=np.zeros(tail_len),
        )


def gru_forward(params, x):
    """Unidirectional GRU over frames x [n, input]; returns ([n, hidden], cache).

    z_t = sigm(W_z x_t + U_z h_{t-1} + b_z)
    g_t = sigm(W_g x_t + U_g h_{t-1} + b_g)
    c_t = tanh(W_c x_t + g_t * (U_c h_{t-1}) + b_c)
    h_t = (1 - z_t) * c_t + z_t * h_{t-1}
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("input must be a non-empty [n, input] matrix")
    if x.shape[1] != params.input_dim:
        raise ValueError("input width does not match parameters")
    n = x.shape[0]
    hd = params.hidden_dim
    # Input projections for the whole sequence at once.
    xz = x @ params.W_z.T + params.b_z
    xg = x @ params.W_g.T + params.b_g
    xc = x @ params.W_c.T + params.b_c
    h = np.zeros((n + 1, hd))  # h[0] is the zero initial state
    z = np.empty((n, hd))
    g = np.empty((n, hd))
    c = np.empty((n, hd))
    u = np.empty((n, hd))
    for t in range(n):
        hp = h[t]
        z[t] = _sigmoid(xz[t] + params.U_z @ hp)
        g[t] = _sigmoid(xg[t] + params.U_g @ hp)
        u[t] = params.U_c @ hp
        c[t] = np.tanh(xc[t] + g[t] * u[t])
        h[t + 1] = (1.0 - z[t]) * c[t] + z[t] * hp
    cache = {"x": x, "h": h, "z": z, "g": g, "c": c, "u": u}
    return h[1:], cache


def gru_backward(params, cache, grad_h_seq):
    """Full BPTT; returns (param grads dict, grad w.r.t. input frames)."""
    x, h, z, g, c, u = (cache[k] for k in ("x", "h", "z", "g", "c", "u"))
    n = x.shape[0]
    hd = params.hidden_dim
    # Gate gradients stacked z, g, c: rows [0, hd), [hd, 2hd), [2hd, 3hd).
    d_pre = np.empty((n, 3 * hd))  # per frame: daz, dag, dac
    d_rec = np.empty(3 * hd)  # daz, dag, du (what reaches U_z, U_g, U_c)
    g_w = np.zeros((3 * hd, x.shape[1]))
    g_u = np.zeros((3 * hd, hd))
    g_b = np.zeros(3 * hd)
    dh = np.zeros(hd)
    for t in range(n - 1, -1, -1):
        dh = dh + grad_h_seq[t]
        hp = h[t]
        dz = dh * (hp - c[t])
        daz = dz * z[t] * (1.0 - z[t])
        dc = dh * (1.0 - z[t])
        dac = dc * (1.0 - c[t] ** 2)
        dg = dac * u[t]
        dag = dg * g[t] * (1.0 - g[t])
        du = dac * g[t]
        d = d_pre[t]
        d[:hd], d[hd : 2 * hd], d[2 * hd :] = daz, dag, dac
        d_rec[: 2 * hd], d_rec[2 * hd :] = d[: 2 * hd], du
        g_w += d[:, None] * x[t]
        g_u += d_rec[:, None] * hp
        g_b += d
        dh = dh * z[t] + params.U_z.T @ daz + params.U_g.T @ dag + params.U_c.T @ du
    gx = (d_pre[:, :hd] @ params.W_z + d_pre[:, hd : 2 * hd] @ params.W_g
          + d_pre[:, 2 * hd :] @ params.W_c)
    gp = {}
    for i, gate in enumerate("zgc"):
        rows = slice(i * hd, (i + 1) * hd)
        gp[f"W_{gate}"], gp[f"U_{gate}"], gp[f"b_{gate}"] = g_w[rows], g_u[rows], g_b[rows]
    return gp, gx


def conv1d_forward(params, h_seq):
    """Same-padded conv along frames with tanh; [n, hidden] -> [n, channels]."""
    kw = params.conv_w.shape[2]
    pad = (kw - 1) // 2
    n = h_seq.shape[0]
    padded = np.pad(h_seq, ((pad, pad), (0, 0)))
    # windows[t, j, k] = padded[t + k, j]
    windows = np.stack([padded[k : k + n] for k in range(kw)], axis=2)
    pre = np.einsum("njk,ojk->no", windows, params.conv_w) + params.conv_b
    act = np.tanh(pre)
    return act, {"windows": windows, "act": act, "pad": pad, "n": n}


def conv1d_backward(params, cache, grad_act):
    windows, act, pad, n = cache["windows"], cache["act"], cache["pad"], cache["n"]
    dpre = grad_act * (1.0 - act**2)
    g_w = np.einsum("no,njk->ojk", dpre, windows)
    g_b = dpre.sum(axis=0)
    # scatter back through the padded windows
    kw = params.conv_w.shape[2]
    dpadded = np.zeros((n + 2 * pad, params.conv_w.shape[1]))
    contrib = np.einsum("no,ojk->njk", dpre, params.conv_w)
    for k in range(kw):
        dpadded[k : k + n] += contrib[:, :, k]
    g_h = dpadded[pad : pad + n]
    return g_w, g_b, g_h


def temporal_avg_pool(seq):
    """Elementwise mean over frames; [n, dim] -> [dim]."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError("cannot pool an empty sequence")
    return seq.mean(axis=0)


def temporal_avg_pool_grad(grad_pooled, n):
    """Gradient scatters grad/n to every frame."""
    return np.tile(np.asarray(grad_pooled) / n, (n, 1))


def estimator_forward(params, las_values):
    """Predict an RIR tail from LAS frames; returns (tail [L-1], cache)."""
    h_seq, gru_cache = gru_forward(params, las_values)
    act, conv_cache = conv1d_forward(params, h_seq)
    pooled = temporal_avg_pool(act)
    tail = params.out_w @ pooled + params.out_b
    cache = {"gru": gru_cache, "conv": conv_cache, "pooled": pooled,
             "n": las_values.shape[0]}
    return tail, cache


def estimator_backward(params, cache, grad_tail):
    """Exact reverse-mode gradients; returns (UtvEstimatorParams grads, grad LAS)."""
    grad_tail = np.asarray(grad_tail, dtype=np.float64)
    if grad_tail.shape != (params.tail_len,):
        raise ValueError("grad_tail shape does not match the output layer")
    pooled, n = cache["pooled"], cache["n"]
    g_out_w = np.outer(grad_tail, pooled)
    g_out_b = grad_tail.copy()
    g_pooled = params.out_w.T @ grad_tail
    g_act = temporal_avg_pool_grad(g_pooled, n)
    g_conv_w, g_conv_b, g_hseq = conv1d_backward(params, cache["conv"], g_act)
    gru_grads, g_las = gru_backward(params, cache["gru"], g_hseq)
    grads = UtvEstimatorParams(
        **gru_grads, conv_w=g_conv_w, conv_b=g_conv_b, out_w=g_out_w, out_b=g_out_b
    )
    return grads, g_las
