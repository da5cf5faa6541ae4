"""Adam on named parameter dicts, plus a finite-difference gradient checker."""

from dataclasses import dataclass, field

import numpy as np

EPS = 1e-8  # Adam's denominator guard


@dataclass
class AdamState:
    """Step count and per-parameter moments, all that a checkpoint stores;
    the rates are the run's, passed to adam_step."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def state_dict(self):
        """Flat name->array view (for checkpointing)."""
        d = {"adam.step": np.array([float(self.step)])}
        for k, a in self.m.items():
            d[f"adam.m.{k}"] = a
        for k, a in self.v.items():
            d[f"adam.v.{k}"] = a
        return d

    def load_state_dict(self, d):
        """Replace the step and all moments by those in d (e.g. a checkpoint)."""
        self.step = int(d["adam.step"][0])
        self.m, self.v = {}, {}
        for key, a in d.items():
            for prefix, moments in (("adam.m.", self.m), ("adam.v.", self.v)):
                if key.startswith(prefix):
                    moments[key[len(prefix):]] = np.array(a, dtype=np.float64)


def adam_step(state, params, grads, lr, beta1, beta2):
    """One in-place Adam update over a dict of named arrays, at learning
    rate lr with moment decay rates beta1 and beta2.

    Raises on non-finite gradients without touching the parameters.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in sorted(params):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state


def grad_check(loss_fn, params, eps=1e-6, tolerance=1e-5):
    """Central finite differences vs analytic gradients, per component.

    loss_fn(params_dict) must return (loss, grads_dict).  Relative error
    uses max(|analytic|, |numeric|, 1e-8) as the denominator.  Returns a
    report with the max relative error overall and per parameter group.
    """
    _, grads = loss_fn(params)
    groups = {}
    for name in sorted(params):
        p = params[name]
        analytic = grads[name]
        num = np.zeros_like(p)
        flat_p = p.ravel()
        flat_n = num.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            lp, _ = loss_fn(params)
            flat_p[i] = orig - eps
            lm, _ = loss_fn(params)
            flat_p[i] = orig
            flat_n[i] = (lp - lm) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), 1e-8)
        rel = np.abs(analytic - num) / denom
        groups[name] = {
            "max_rel_error": float(rel.max()) if rel.size else 0.0,
            "passed": bool(rel.max() <= tolerance) if rel.size else True,
        }
    max_err = max(g["max_rel_error"] for g in groups.values())
    return {
        "max_rel_error": max_err,
        "passed": all(g["passed"] for g in groups.values()),
        "groups": groups,
        "tolerance": tolerance,
    }
