"""Log barrier functions, their linear smoothed extension, and the gap bound.

Everything here is a pure scalar (or numpy-broadcast) function; safe to call
from anywhere.  ``mu`` is the barrier sharpness factor.  For
:func:`smoothed_log_barrier`, larger values track the infeasibility
indicator more closely and cap the penalty slope at ``mu``.  That does not
carry over to :func:`shifted_barrier`, the penalty the agent uses: just past
the cost limit, at a violation z, its slope is 1/(mu(1 - z)), about 1/mu, and
it reaches ``mu`` only for z >= 1 - 1/mu^2.  So a larger mu pushes less on a
small violation, and the penalized optimum passes the limit by more.
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


def _check_mu(mu: float, square: bool = False) -> None:
    """Reject a mu not positive and finite, or with ``square`` one whose knot -1/mu^2 is -0.0."""
    if not 0 < mu < math.inf or square and mu * mu == math.inf:
        rule = ", with a finite square" if square else ""
        raise ValueError(f"mu must be positive and finite{rule}, got {mu}")


def _float_if_scalar(out: np.ndarray):
    """A 0-d result as a float (a scalar came in), any other as the array it is."""
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BarrierConfig:
    """Barrier sharpness ``mu`` and cost limit ``cost_limit``; the one owner of the
    shifted barrier's mu rule: above 1, with a finite square.  Every agent carries
    one, sac_lag and sac_rs for ``cost_limit`` (``d``) alone, so their mu obeys it
    too; the smoothed barriers take any positive mu with a finite square.
    """

    mu: float = 3.0
    cost_limit: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.cost_limit):
            raise ValueError("cost_limit must be finite")
        _check_mu(self.mu, square=True)
        if self.mu <= 1:
            raise ValueError(f"mu must exceed 1 for the shifted barrier, got {self.mu}")


def log_barrier(x: float, mu: float) -> float:
    """Classic log barrier -(1/mu)*ln(-x); only defined for x < 0."""
    _check_mu(mu)
    if x >= 0:
        raise ValueError(f"log_barrier requires x < 0, got {x}")
    return -math.log(-x) / mu


def smoothed_log_barrier(x, mu: float):
    """Linear smoothed log barrier: log branch for x <= -1/mu^2, linear after.

    Continuous and differentiable on all reals, with slope capped at ``mu``.
    Accepts scalars or numpy arrays.
    """
    _check_mu(mu, square=True)
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
    return _float_if_scalar(out)


def smoothed_log_barrier_grad(x, mu: float):
    """Derivative of :func:`smoothed_log_barrier`: -1/(mu*x) then mu."""
    _check_mu(mu, square=True)
    knot = -1.0 / (mu * mu)
    x_arr = np.asarray(x, dtype=np.float64)
    left = x_arr <= knot
    out = np.where(left, -1.0 / (mu * np.where(left, x_arr, -1.0)), mu)
    return _float_if_scalar(out)


def _shifted_grad(x: float, mu: float, cost_limit: float) -> float:
    """Slope of the shifted barrier at a float ``x``, split where its value is:
    0 while z = x - cost_limit <= 0, 1/(mu(1-z)) while arg = z - 1 <= -1/mu^2,
    else mu (NaN included).  ~50x cheaper than the array path on one value."""
    z = x - cost_limit
    if z <= 0:
        return 0.0
    if z - 1.0 <= -1.0 / (mu * mu):
        return 1.0 / (mu * (1.0 - z))
    return float(mu)


def _shifted_curvature(x: float, mu: float, cost_limit: float) -> float:
    """Second derivative of the shifted barrier at a float ``x``, split as in
    :func:`_shifted_grad`: 1/(mu(1-z)^2) for z > 0 with arg = z - 1 <= -1/mu^2,
    else 0 (the dead zone, the linear branch and NaN)."""
    z = x - cost_limit
    if z <= 0 or not z - 1.0 <= -1.0 / (mu * mu):
        return 0.0
    return 1.0 / (mu * (1.0 - z) ** 2)


def shifted_barrier(x, cfg: BarrierConfig):
    """Barrier with a dead zone: exactly 0 (value and slope) while x <= cost_limit.

    A rectifier plus unit shift is applied to the input, so the smoothed
    barrier's knot value 0 is reached exactly at the constraint boundary.
    """
    arg = np.maximum(np.asarray(x, dtype=np.float64) - cfg.cost_limit, 0.0) - 1.0
    return smoothed_log_barrier(arg, cfg.mu)


def shifted_barrier_grad(x, cfg: BarrierConfig):
    """Derivative of :func:`shifted_barrier`: 0 while z = x - cost_limit <= 0
    (corner included), else the smoothed slope at arg = z - 1, whose log branch
    is arg <= -1/mu^2, the value's split."""
    z = np.asarray(x, dtype=np.float64) - cfg.cost_limit
    return _float_if_scalar(np.where(z <= 0, 0.0, smoothed_log_barrier_grad(z - 1.0, cfg.mu)))


def performance_bound(mu: float, m: int) -> float:
    """Worst-case objective gap of the barrier-penalized optimum: |1-mu^2|*m/mu,
    taken as |1/mu - mu|*m where the first form overflows (mu above ~1.3e154)."""
    _check_mu(mu)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    bound = abs(1.0 - mu * mu) * m / mu
    return bound if bound < math.inf else abs(1.0 / mu - mu) * m
