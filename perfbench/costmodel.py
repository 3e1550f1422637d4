"""Work counts computed from network shapes, not measured.

FLOPs count the matrix products (a multiply-add is 2 FLOPs) and the bias
adds / bias-gradient sums; the elementwise rectifier masks are not counted.
Adam bytes are the compulsory traffic of one update: read parameter,
gradient, first and second moment, write parameter and both moments, all
float64.  Temporaries an implementation makes on top are not counted, so a
kernel that makes fewer of them shows as a higher achieved rate, not as a
smaller byte count.
"""

from __future__ import annotations

FLOAT64_BYTES = 8
# read p, g, m, v; write p, m, v
ADAM_WORDS_PER_PARAM = 7


def _layers(layer_sizes):
    sizes = [int(s) for s in layer_sizes]
    return list(zip(sizes[:-1], sizes[1:]))


def forward_flops(layer_sizes, batch: int) -> int:
    """One forward pass: ``h @ W.T + b`` per layer."""
    return sum(2 * batch * fan_in * fan_out + batch * fan_out for fan_in, fan_out in _layers(layer_sizes))


def backward_flops(layer_sizes, batch: int, want_params: bool) -> int:
    """One backward pass as ``nets._backward`` runs it.

    Every layer back-propagates to its input (``delta @ W``, the first layer
    included); with ``want_params`` it also forms ``delta.T @ input`` and the
    bias sum.
    """
    total = 0
    for fan_in, fan_out in _layers(layer_sizes):
        total += 2 * batch * fan_out * fan_in
        if want_params:
            total += 2 * batch * fan_out * fan_in + batch * fan_out
    return total


def param_count(layer_sizes) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in _layers(layer_sizes))


def adam_bytes(n_params: int) -> int:
    """Compulsory bytes moved by one Adam step over ``n_params`` float64 values."""
    return ADAM_WORDS_PER_PARAM * FLOAT64_BYTES * int(n_params)
