"""Log barrier functions, their linear smoothed extension, and the gap bound.

Everything here is a pure scalar (or numpy-broadcast) function; safe to call
from anywhere.  ``mu`` is the barrier sharpness factor: larger values track
the infeasibility indicator more closely and cap the penalty slope at ``mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BarrierConfig",
    "log_barrier",
    "smoothed_log_barrier",
    "smoothed_log_barrier_grad",
    "shifted_barrier",
    "shifted_barrier_grad",
    "performance_bound",
]


@dataclass(frozen=True)
class BarrierConfig:
    """Barrier sharpness ``mu`` and the cost limit ``cost_limit``.

    ``mu`` must exceed 1 for the shifted (dead-zone) barrier; the plain and
    smoothed barriers only need ``mu > 0``.
    """

    mu: float = 3.0
    cost_limit: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost_limit):
            raise ValueError("cost_limit must be finite")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")


def log_barrier(x: float, mu: float) -> float:
    """Classic log barrier -(1/mu)*ln(-x); only defined for x < 0."""
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if x >= 0:
        raise ValueError(f"log_barrier requires x < 0, got {x}")
    return -math.log(-x) / mu


def smoothed_log_barrier(x, mu: float):
    """Linear smoothed log barrier: log branch for x <= -1/mu^2, linear after.

    Continuous and differentiable on all reals, with slope capped at ``mu``.
    Accepts scalars or numpy arrays.
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    knot = -1.0 / (mu * mu)
    offset = -math.log(1.0 / (mu * mu)) / mu + 1.0 / mu
    x_arr = np.asarray(x, dtype=np.float64)
    left = x_arr <= knot
    # clip keeps the log argument valid on the branch not selected
    out = np.where(
        left,
        -np.log(np.where(left, -x_arr, 1.0)) / mu,
        mu * x_arr + offset,
    )
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def smoothed_log_barrier_grad(x, mu: float):
    """Derivative of :func:`smoothed_log_barrier`: -1/(mu*x) then mu."""
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    knot = -1.0 / (mu * mu)
    x_arr = np.asarray(x, dtype=np.float64)
    left = x_arr <= knot
    out = np.where(left, -1.0 / (mu * np.where(left, x_arr, -1.0)), mu)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def _shifted_grad(x, mu: float, cost_limit: float):
    if isinstance(x, float):
        # the same three branches in float arithmetic, NaN landing on the slope
        # mu as it does below; ~50x cheaper than the array path on one value
        z = x - cost_limit
        if z <= 0:
            return 0.0
        if z <= 1.0 - 1.0 / (mu * mu):
            try:
                return 1.0 / (mu * (1.0 - z))
            except ZeroDivisionError:  # z == 1 gets here once 1 - 1/mu^2 rounds to 1
                return math.inf
        return float(mu)
    z = np.asarray(x, dtype=np.float64) - cost_limit
    mid_hi = 1.0 - 1.0 / (mu * mu)
    mid = (z > 0) & (z <= mid_hi)
    out = np.where(
        z <= 0,
        0.0,
        np.where(mid, 1.0 / (mu * np.where(mid, 1.0 - z, 1.0)), mu),
    )
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def _shifted_curvature(x: float, mu: float, cost_limit: float) -> float:
    """Second derivative of the shifted barrier at a float ``x``: 1/(mu(1-z)^2)
    on the log branch, 0 in the dead zone and on the linear branch (and so at
    NaN, whose slope is the linear branch's mu)."""
    z = x - cost_limit
    if z <= 0 or not z <= 1.0 - 1.0 / (mu * mu):
        return 0.0
    try:
        return 1.0 / (mu * (1.0 - z) ** 2)
    except ZeroDivisionError:  # z == 1, as in _shifted_grad
        return math.inf


def shifted_barrier(x, cfg: BarrierConfig):
    """Barrier with a dead zone: exactly 0 (value and slope) while x <= cost_limit.

    A rectifier plus unit shift is applied to the input, so the smoothed
    barrier's knot value 0 is reached exactly at the constraint boundary.
    """
    if cfg.mu <= 1:
        raise ValueError(f"shifted barrier requires mu > 1, got {cfg.mu}")
    arg = np.maximum(np.asarray(x, dtype=np.float64) - cfg.cost_limit, 0.0) - 1.0
    return smoothed_log_barrier(arg, cfg.mu)


def shifted_barrier_grad(x, cfg: BarrierConfig):
    """Derivative of :func:`shifted_barrier`; 0 in the dead zone (incl. the corner)."""
    if cfg.mu <= 1:
        raise ValueError(f"shifted barrier requires mu > 1, got {cfg.mu}")
    return _shifted_grad(x, cfg.mu, cfg.cost_limit)


def performance_bound(mu: float, m: int) -> float:
    """Worst-case objective gap of the barrier-penalized optimum: |1-mu^2|*m/mu,
    taken as |1/mu - mu|*m where the first form overflows (mu above ~1.3e154)."""
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    bound = abs(1.0 - mu * mu) * m / mu
    return bound if bound < math.inf else abs(1.0 / mu - mu) * m
