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
        for name, rank in (("W_z", 2), ("conv_w", 3), ("out_w", 2)):
            if np.ndim(getattr(self, name)) != rank:
                raise ValueError(f"estimator parameter group {name} must have {rank} axes")
        (hd, i), (ch, _, kw), (tail, _) = self.W_z.shape, self.conv_w.shape, self.out_w.shape
        if kw % 2 == 0:
            raise ValueError("conv kernel width must be odd")
        want = {f"{k}_{gate}": s for gate in "zgc"
                for k, s in (("W", (hd, i)), ("U", (hd, hd)), ("b", (hd,)))}
        want.update(conv_w=(ch, hd, kw), conv_b=(ch,), out_w=(tail, ch), out_b=(tail,))
        for f in fields(self):
            arr = getattr(self, f.name)
            if np.shape(arr) != want[f.name]:
                raise ValueError(f"estimator parameter group {f.name} has shape "
                                 f"{np.shape(arr)}, expected {want[f.name]}")
            if not np.all(np.isfinite(arr)):
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
    """Unidirectional GRU over frames x [..., n, input]; returns
    ([..., n, hidden], cache).

    z_t = sigm(W_z x_t + U_z h_{t-1} + b_z)
    g_t = sigm(W_g x_t + U_g h_{t-1} + b_g)
    c_t = tanh(W_c x_t + g_t * (U_c h_{t-1}) + b_c)
    h_t = (1 - z_t) * c_t + z_t * h_{t-1}

    Leading axes are a batch of equal-length sequences, run in step.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ValueError("input must be non-empty [..., n, input] frames")
    if x.shape[-1] != params.input_dim:
        raise ValueError("input width does not match parameters")
    lead, (n, i) = x.shape[:-2], x.shape[-2:]
    hd = params.hidden_dim
    # Frame-major [n, B, input]: each frame's batch is one contiguous block.
    x = np.ascontiguousarray(x.reshape(-1, n, i).transpose(1, 0, 2))
    b = x.shape[1]
    # Input projections for every frame of every sequence at once.
    flat = x.reshape(n * b, i)
    xz = (flat @ params.W_z.T + params.b_z).reshape(n, b, hd)
    xg = (flat @ params.W_g.T + params.b_g).reshape(n, b, hd)
    xc = (flat @ params.W_c.T + params.b_c).reshape(n, b, hd)
    h = np.zeros((n + 1, b, hd))  # h[0] is the zero initial state
    z = np.empty((n, b, hd))
    g = np.empty((n, b, hd))
    c = np.empty((n, b, hd))
    u = np.empty((n, b, hd))
    uz, ug, uc = params.U_z.T, params.U_g.T, params.U_c.T
    for t in range(n):
        hp = h[t]
        z[t] = _sigmoid(xz[t] + hp @ uz)
        g[t] = _sigmoid(xg[t] + hp @ ug)
        u[t] = hp @ uc
        c[t] = np.tanh(xc[t] + g[t] * u[t])
        h[t + 1] = (1.0 - z[t]) * c[t] + z[t] * hp
    cache = {"x": x, "h": h, "z": z, "g": g, "c": c, "u": u, "lead": lead}
    return h[1:].transpose(1, 0, 2).reshape(lead + (n, hd)), cache


def gru_backward(params, cache, grad_h_seq):
    """Full BPTT; returns (param grads dict summed over the batch, grad w.r.t.
    input frames)."""
    x, h, z, g, c, u = (cache[k] for k in ("x", "h", "z", "g", "c", "u"))
    n, b, i = x.shape
    hd = params.hidden_dim
    gh = np.asarray(grad_h_seq, dtype=np.float64).reshape(b, n, hd).transpose(1, 0, 2)
    # Each frame's gate factors, all frames at once: dh_t times them gives
    # daz, dag, du (what reaches U_z, U_g, U_c) and dac.
    dc = (1.0 - z) * (1.0 - c**2)
    fac = np.stack([(h[:-1] - c) * z * (1.0 - z), dc * u * g * (1.0 - g), dc * g, dc], axis=2)
    d = np.empty_like(fac)  # [n, b, 4, hd]
    u_stack = np.concatenate([params.U_z, params.U_g, params.U_c])
    dh = np.zeros((b, hd))
    for t in range(n - 1, -1, -1):
        dh = dh + gh[t]
        np.multiply(dh[:, None], fac[t], out=d[t])
        dh = dh * z[t] + d[t, :, :3].reshape(b, 3 * hd) @ u_stack
    d = d.reshape(n * b, 4, hd)
    d_in = d[:, [0, 1, 3]].reshape(n * b, 3 * hd)  # daz, dag, dac
    g_w = d_in.T @ x.reshape(n * b, i)
    g_u = d[:, :3].reshape(n * b, 3 * hd).T @ h[:-1].reshape(n * b, hd)
    g_b = d_in.sum(axis=0)
    gx = d_in @ np.concatenate([params.W_z, params.W_g, params.W_c])
    gx = gx.reshape(n, b, i).transpose(1, 0, 2).reshape(cache["lead"] + (n, i))
    gp = {}
    for k, gate in enumerate("zgc"):
        rows = slice(k * hd, (k + 1) * hd)
        gp[f"W_{gate}"], gp[f"U_{gate}"], gp[f"b_{gate}"] = g_w[rows], g_u[rows], g_b[rows]
    return gp, gx


def conv1d_forward(params, h_seq):
    """Same-padded conv along frames with tanh; [..., n, hidden] ->
    [..., n, channels]."""
    kw = params.conv_w.shape[2]
    pad = (kw - 1) // 2
    lead, (n, hd) = h_seq.shape[:-2], h_seq.shape[-2:]
    padded = np.pad(h_seq.reshape(-1, n, hd), ((0, 0), (pad, pad), (0, 0)))
    # windows[b*n + t, j*kw + k] = padded[b, t + k, j]
    windows = np.lib.stride_tricks.sliding_window_view(padded, kw, axis=1)
    windows = windows.reshape(-1, hd * kw)
    pre = windows @ params.conv_w.reshape(len(params.conv_w), -1).T + params.conv_b
    act = np.tanh(pre).reshape(lead + (n, -1))
    return act, {"windows": windows, "act": act, "pad": pad, "n": n}


def conv1d_backward(params, cache, grad_act):
    """Returns (weight grad, bias grad) summed over the batch, and the grad
    w.r.t. the conv input."""
    windows, act, pad, n = cache["windows"], cache["act"], cache["pad"], cache["n"]
    _, hd, kw = params.conv_w.shape
    dpre = (grad_act * (1.0 - act**2)).reshape(-1, act.shape[-1])
    g_w = (dpre.T @ windows).reshape(params.conv_w.shape)
    g_b = dpre.sum(axis=0)
    # scatter back through the padded windows
    contrib = (dpre @ params.conv_w.reshape(len(params.conv_w), -1)).reshape(-1, n, hd, kw)
    dpadded = np.zeros((contrib.shape[0], n + 2 * pad, hd))
    for k in range(kw):
        dpadded[:, k : k + n] += contrib[..., k]
    g_h = dpadded[:, pad : pad + n].reshape(act.shape[:-1] + (hd,))
    return g_w, g_b, g_h


def temporal_avg_pool(seq):
    """Elementwise mean over frames; [..., n, dim] -> [..., dim]."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim < 2 or seq.shape[-2] < 1:
        raise ValueError("cannot pool an empty sequence")
    return seq.mean(axis=-2)


def temporal_avg_pool_grad(grad_pooled, n):
    """Gradient scatters grad/n to every frame; [..., dim] -> [..., n, dim]."""
    return np.repeat((np.asarray(grad_pooled) / n)[..., None, :], n, axis=-2)


def estimator_forward(params, las_values):
    """Predict an RIR tail from LAS frames [..., n, bins]; returns (tail
    [..., L-1], cache).  Leading axes are a batch of equal-length utterances."""
    h_seq, gru_cache = gru_forward(params, las_values)
    act, conv_cache = conv1d_forward(params, h_seq)
    pooled = temporal_avg_pool(act)
    tail = pooled @ params.out_w.T + params.out_b
    cache = {"gru": gru_cache, "conv": conv_cache, "pooled": pooled,
             "n": act.shape[-2]}
    return tail, cache


def estimator_backward(params, cache, grad_tail):
    """Exact reverse-mode gradients; returns (UtvEstimatorParams grads summed
    over the batch, grad LAS)."""
    grad_tail = np.asarray(grad_tail, dtype=np.float64)
    pooled, n = cache["pooled"], cache["n"]
    if grad_tail.shape != pooled.shape[:-1] + (params.tail_len,):
        raise ValueError("grad_tail shape does not match the output layer")
    rows = grad_tail.reshape(-1, params.tail_len)
    g_out_w = rows.T @ pooled.reshape(-1, pooled.shape[-1])
    g_out_b = rows.sum(axis=0)
    g_pooled = grad_tail @ params.out_w
    g_act = temporal_avg_pool_grad(g_pooled, n)
    g_conv_w, g_conv_b, g_hseq = conv1d_backward(params, cache["conv"], g_act)
    gru_grads, g_las = gru_backward(params, cache["gru"], g_hseq)
    grads = UtvEstimatorParams(
        **gru_grads, conv_w=g_conv_w, conv_b=g_conv_b, out_w=g_out_w, out_b=g_out_b
    )
    return grads, g_las
