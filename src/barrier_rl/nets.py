"""Minimal dense-network stack: forward, reverse-mode grads, Adam, polyak.

Networks are rectifier MLPs with a linear output layer.  Each owns one
float64 array ``flat`` holding ``[W0, b0, W1, b1, ...]`` row-major; its
``weights`` and ``biases`` are views into it.  The optimizer sees the
one-element list :meth:`DenseNet.params`, and parameter gradients come in
the same layout.  A network read from a checkpoint keeps its checked
base64 text until its parameters are first read.  No autodiff graph:
backward passes are hand-rolled for exactly this feed-forward shape.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DenseNet",
    "AdamState",
    "init_net",
    "net_forward",
    "adam_init",
    "adam_step",
    "polyak_update",
    "net_to_doc",
    "net_from_doc",
]

DEFAULT_HIDDEN = (256, 256)


def _layout(layer_sizes) -> tuple[list[int], list[tuple[int, int]], int]:
    """Checked sizes, each layer's ``(fan_out, fan_in)`` and the parameter count."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    shapes = list(zip(sizes[1:], sizes[:-1]))
    return sizes, shapes, sum(rows * (cols + 1) for rows, cols in shapes)


@dataclass
class DenseNet:
    """Layer sizes plus one flat parameter array; zeros when ``flat`` is omitted."""

    layer_sizes: list[int]
    flat: np.ndarray | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)  # each (fan_out, fan_in)
    biases: list[np.ndarray] = field(init=False, repr=False)  # each (fan_out,)

    def __post_init__(self) -> None:
        sizes, shapes, count = _layout(self.layer_sizes)
        self.layer_sizes = sizes
        if self.flat is None:
            self.flat = np.zeros(count)
        flat = self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if flat.shape != (count,):
            raise ValueError(
                f"flat has shape {flat.shape}; layer sizes {sizes} need {count} float64 values"
            )
        self.weights, self.biases = [], []
        offset = 0
        for rows, cols in shapes:
            self.weights.append(flat[offset : offset + rows * cols].reshape(rows, cols))
            offset += rows * cols
            self.biases.append(flat[offset : offset + rows])
            offset += rows

    def params(self) -> list[np.ndarray]:
        return [self.flat]

    def copy(self) -> "DenseNet":
        return DenseNet(list(self.layer_sizes), self.flat.copy())


def init_net(layer_sizes, rng: np.random.Generator) -> DenseNet:
    """Uniform +-1/sqrt(fan_in) init for every weight and bias.

    Each ``W`` and then its ``b`` is drawn in place, with the bits of
    ``rng.uniform(-bound, bound, size)``: ``-bound + (bound - -bound) * u``.
    """
    net = DenseNet(layer_sizes)
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(w.shape[1])
        for view in (w, b):
            rng.random(out=view)
            view *= bound - -bound
            view += -bound
    return net


def net_forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Plain forward pass of a single vector or a (batch, in) matrix."""
    return _forward_cache(net, x)[0]


def _forward_cache(net: DenseNet, x: np.ndarray):
    """Forward pass giving ``(out, inputs)``, each layer's input kept for :func:`_backward`.

    A vector stays a vector through every layer, with the bits of a one-row
    matrix.  A hidden input is positive exactly where its rectifier is on.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1] != net.layer_sizes[0]:
        raise ValueError(f"input width {h.shape[-1]} != {net.layer_sizes[0]}")
    inputs = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
    return h, inputs


def _backward(net: DenseNet, inputs, upstream: np.ndarray, want_params: bool):
    """Reverse pass of dLoss/doutput ``upstream`` through a forward's ``inputs``.

    Returns ``(grads, dx)``: parameter gradients in :meth:`DenseNet.params`
    layout (``None`` unless ``want_params``) and dLoss/dinput.  The
    gradient is written through the ``W``/``b`` views of a network-shaped
    array.
    """
    delta = upstream
    grad = DenseNet(net.layer_sizes, np.empty_like(net.flat)) if want_params else None
    for i in range(len(net.weights) - 1, -1, -1):
        if want_params:
            np.matmul(delta.T, inputs[i], out=grad.weights[i])
            delta.sum(axis=0, out=grad.biases[i])
        dx = delta @ net.weights[i]
        if i > 0:
            dx *= inputs[i] > 0.0
            delta = dx
    return ([grad.flat] if want_params else None), dx


_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8  # torch.optim.Adam's defaults, as in SB3


@dataclass
class AdamState:
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)
    step_count: int = 0


def adam_init(params: list) -> AdamState:
    # np.zeros takes calloc'd memory, left untouched until the first step;
    # np.zeros_like writes every page of a network-sized moment up front
    return AdamState(
        first_moment=[np.zeros(p.shape, p.dtype) for p in params],
        second_moment=[np.zeros(p.shape, p.dtype) for p in params],
    )


def adam_step(state: AdamState, params: list, grads: list, lr: float):
    """Bias-corrected Adam update, in place on ``params``; returns them."""
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + _EPSILON)
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


_PARAMS_FORMAT = (
    'a network document is {"layer_sizes": [...], "params": <base64 of '
    "DenseNet.flat, little-endian float64>}"
)
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


class _EncodedNet(DenseNet):
    """A network read from a checkpoint, holding its checked base64 ``payload``
    until the first read of ``flat``, ``weights`` or ``biases`` decodes it."""

    def __init__(self, layer_sizes, payload) -> None:
        self.layer_sizes, _, count = _layout(layer_sizes)
        if not isinstance(payload, str):
            raise ValueError(_PARAMS_FORMAT)
        text, padding = payload.encode("ascii", "replace"), b"=" * (-8 * count % 3)
        # the whole length, and no character but base64 digits and the padding at the end
        if (
            len(text) != -(-8 * count // 3) * 4
            or not text.endswith(padding)
            or text.translate(None, _BASE64_DIGITS) != padding
        ):
            raise ValueError(
                f"params is not base64 of layer sizes {self.layer_sizes}, "
                f"which need {count} float64 values"
            )
        self.payload = payload

    def _decoded(self, name: str):
        raw = base64.b64decode(vars(self).pop("payload"))
        DenseNet.__init__(self, self.layer_sizes, np.frombuffer(raw, "<f8").astype(np.float64))
        return vars(self)[name]

    flat = cached_property(lambda self: self._decoded("flat"))
    weights = cached_property(lambda self: self._decoded("weights"))
    biases = cached_property(lambda self: self._decoded("biases"))


def net_to_doc(net: DenseNet) -> dict:
    """JSON-ready weight document: ``flat`` as base64 of ``<f8`` bytes, bit-exact."""
    return {
        "layer_sizes": net.layer_sizes,
        "params": base64.b64encode(net.flat.astype("<f8", copy=False)).decode("ascii"),
    }


def net_from_doc(doc: dict) -> DenseNet:
    """Inverse of :func:`net_to_doc`; decodes into an owned ``flat`` on first read.

    Raises ``ValueError`` at once for a document without ``layer_sizes`` and
    ``params``, such as the older ``weights``/``biases`` list format, and for
    a payload that is not base64 or whose value count does not match
    ``layer_sizes``.
    """
    try:
        sizes, payload = doc["layer_sizes"], doc["params"]
    except (KeyError, TypeError):
        raise ValueError(_PARAMS_FORMAT) from None
    return _EncodedNet(sizes, payload)
