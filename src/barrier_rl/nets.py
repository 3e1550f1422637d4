"""Minimal dense-network stack: forward, reverse-mode grads, Adam, polyak.

Networks are rectifier MLPs with a linear output layer, stored as plain
lists of float64 arrays.  Parameters for the optimizer are the flat list
``[W0, b0, W1, b1, ...]`` produced by :meth:`DenseNet.params`; gradients use
the same layout.  No autodiff graph: backward passes are hand-rolled for
exactly this feed-forward shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DenseNet",
    "AdamState",
    "init_net",
    "net_forward",
    "net_value_and_grad",
    "adam_init",
    "adam_step",
    "polyak_update",
    "net_to_doc",
    "net_from_doc",
]

DEFAULT_HIDDEN = (256, 256)


@dataclass
class DenseNet:
    layer_sizes: list[int]
    weights: list[np.ndarray]  # each (fan_out, fan_in)
    biases: list[np.ndarray]  # each (fan_out,)

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "DenseNet":
        return DenseNet(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_net(layer_sizes, rng: np.random.Generator) -> DenseNet:
    """Uniform +-1/sqrt(fan_in) init for every weight and bias."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return DenseNet(sizes, weights, biases)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def net_forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Plain forward pass; accepts a single vector or a (batch, in) matrix."""
    h, single = _as_batch(x)
    if h.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input width {h.shape[1]} != {net.layer_sizes[0]}")
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h[0] if single else h


def _forward_cache(net: DenseNet, x: np.ndarray):
    """Forward pass keeping per-layer inputs and rectifier masks."""
    h = x
    inputs = []
    masks = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        h = h @ w.T
        h += b
        if i != last:
            mask = h > 0.0
            h *= mask
            masks.append(mask)
    return h, (inputs, masks)


def _backward(net: DenseNet, cache, upstream: np.ndarray, want_params: bool):
    """Reverse pass of dLoss/doutput ``upstream`` through a cached forward.

    Returns ``(grads, dx)``: parameter gradients in :meth:`DenseNet.params`
    layout (``None`` unless ``want_params``) and dLoss/dinput.
    """
    inputs, masks = cache
    delta = upstream
    grads = [None] * (2 * len(net.weights)) if want_params else None
    for i in range(len(net.weights) - 1, -1, -1):
        if want_params:
            grads[2 * i] = delta.T @ inputs[i]
            grads[2 * i + 1] = delta.sum(axis=0)
        dx = delta @ net.weights[i]
        if i > 0:
            dx *= masks[i - 1]
            delta = dx
    return grads, dx


def net_value_and_grad(net: DenseNet, x: np.ndarray, upstream: np.ndarray):
    """Outputs plus exact reverse-mode gradients.

    ``upstream`` is dLoss/doutput, same shape as the output batch; any batch
    averaging belongs in it.  Returns ``(y, grads, input_grad)`` where
    ``grads`` matches the :meth:`DenseNet.params` layout.
    """
    xb, single = _as_batch(x)
    if xb.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input width {xb.shape[1]} != {net.layer_sizes[0]}")
    ub, _ = _as_batch(upstream)
    y, cache = _forward_cache(net, xb)
    if ub.shape != y.shape:
        raise ValueError(f"upstream shape {ub.shape} != output shape {y.shape}")
    grads, dx = _backward(net, cache, ub, want_params=True)
    if single:
        return y[0], grads, dx[0]
    return y, grads, dx


@dataclass
class AdamState:
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def adam_init(params: list) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list, grads: list, lr: float):
    """Bias-corrected Adam update, in place on ``params``; returns them."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return params, state


def polyak_update(target_params: list, online_params: list, tau: float):
    """target <- tau*online + (1-tau)*target, elementwise, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    for t, o in zip(target_params, online_params, strict=True):
        if t.shape != o.shape:
            raise ValueError(f"shape mismatch {t.shape} vs {o.shape}")
        t *= 1.0 - tau
        t += tau * o
    return target_params


def net_to_doc(net: DenseNet) -> dict:
    """JSON-ready weight document; JSON's float repr keeps 64-bit values exact."""
    return {
        "layer_sizes": net.layer_sizes,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def net_from_doc(doc: dict) -> DenseNet:
    return DenseNet(
        [int(s) for s in doc["layer_sizes"]],
        [np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        [np.asarray(b, dtype=np.float64) for b in doc["biases"]],
    )
