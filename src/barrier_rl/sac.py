"""Shared SAC machinery: squashed Gaussian policy, double-Q critics,
critic targets, entropy temperature, replay buffer.

The policy trunk maps an observation to ``[mean, log_std]`` (width 2k).
Actions are ``tanh`` of the reparameterized Gaussian draw, so they stay
strictly inside (-1, 1)^k; the log-density carries the change-of-variables
correction with a 1e-6 stabilizer inside the logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from barrier_rl.nets import DenseNet, _as_batch, _backward, _forward_cache, net_forward

__all__ = [
    "GaussianPolicy",
    "DoubleQ",
    "EntropyTemperature",
    "Transition",
    "ReplayBuffer",
    "policy_sample",
    "policy_mean_action",
    "reward_critic_target",
    "cost_critic_target",
    "temperature_update",
]

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# largest double strictly below 1: keeps actions strictly inside (-1, 1)
# even where tanh rounds to exactly +-1
_ACTION_LIMIT = np.nextafter(1.0, 0.0)
# keeps alpha = exp(log_alpha) positive and finite under any update sequence
LOG_ALPHA_BOUND = 350.0


@dataclass
class GaussianPolicy:
    """Squashed Gaussian policy; ``trunk`` outputs mean and raw log-std."""

    trunk: DenseNet
    act_dim: int

    def __post_init__(self) -> None:
        if self.trunk.layer_sizes[-1] != 2 * self.act_dim:
            raise ValueError(
                f"trunk output {self.trunk.layer_sizes[-1]} != 2*act_dim {2 * self.act_dim}"
            )


@dataclass
class DoubleQ:
    """Two independently parameterized critics over concat(obs, action)."""

    q1: DenseNet
    q2: DenseNet

    def __post_init__(self) -> None:
        if self.q1.layer_sizes != self.q2.layer_sizes:
            raise ValueError("q1/q2 layer sizes differ")

    def copy(self) -> "DoubleQ":
        return DoubleQ(self.q1.copy(), self.q2.copy())


@dataclass
class EntropyTemperature:
    log_alpha: float = 0.0
    target_entropy: float = -1.0

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)


def _split_heads(policy: GaussianPolicy, out: np.ndarray):
    k = policy.act_dim
    mean = out[..., :k]
    raw = out[..., k:]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    clip_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
    return mean, log_std, clip_mask


def policy_sample(policy: GaussianPolicy, obs: np.ndarray, noise: np.ndarray):
    """Reparameterized action draw.

    Returns ``(action, logp)`` for a vector observation, or batch arrays for
    a matrix.  ``noise`` is a standard normal draw of action shape.
    """
    a, logp, _ = policy_sample_cache(policy, obs, noise)
    return a, logp


def policy_sample_cache(policy: GaussianPolicy, obs: np.ndarray, noise: np.ndarray):
    """Like :func:`policy_sample` but keeps the intermediates for backward."""
    xb, single = _as_batch(obs)
    nb, _ = _as_batch(noise)
    out, net_cache = _forward_cache(policy.trunk, xb)
    mean, log_std, clip_mask = _split_heads(policy, out)
    std = np.exp(log_std)
    u = mean + std * nb
    a = np.clip(np.tanh(u), -_ACTION_LIMIT, _ACTION_LIMIT)
    logp = (
        np.sum(-0.5 * nb * nb - log_std - _HALF_LOG_2PI, axis=1)
        - np.sum(np.log(1.0 - a * a + SQUASH_EPS), axis=1)
    )
    cache = {
        "net_cache": net_cache,
        "clip_mask": clip_mask,
        "std": std,
        "noise": nb,
        "a": a,
    }
    if single:
        return a[0], float(logp[0]), cache
    return a, logp, cache


def policy_backward(policy: GaussianPolicy, cache, dL_da: np.ndarray, logp_coeff: np.ndarray):
    """Trunk parameter gradients of a loss built on (action, logp).

    ``dL_da``: per-sample dLoss/daction, batch weighting included.
    ``logp_coeff``: per-sample weight on logp (e.g. alpha/n), shape (n,).
    Returns gradients in :meth:`DenseNet.params` layout.
    """
    a = cache["a"]
    std = cache["std"]
    noise = cache["noise"]
    sech2 = 1.0 - a * a
    # dlogp/du from the tanh change-of-variables term
    dlogp_du = 2.0 * a * sech2 / (sech2 + SQUASH_EPS)
    coeff = np.asarray(logp_coeff, dtype=np.float64)[:, None]
    g_u = coeff * dlogp_du + dL_da * sech2
    g_mean = g_u
    g_log_std = (g_u * std * noise - coeff) * cache["clip_mask"]
    upstream = np.concatenate([g_mean, g_log_std], axis=1)
    grads, _ = _backward(policy.trunk, cache["net_cache"], upstream, want_params=True)
    return grads


def policy_mean_action(policy: GaussianPolicy, obs: np.ndarray) -> np.ndarray:
    """Deterministic action tanh(mean); used by every evaluation episode."""
    out = net_forward(policy.trunk, obs)
    mean = out[..., : policy.act_dim]
    return np.tanh(mean)


def _critic_values(dq: DoubleQ, obs: np.ndarray, act: np.ndarray):
    x = np.concatenate([obs, act], axis=1)
    return net_forward(dq.q1, x)[:, 0], net_forward(dq.q2, x)[:, 0]


def reward_critic_target(
    batch: dict,
    target_reward_q: DoubleQ,
    policy: GaussianPolicy,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bootstrapped reward target: r + (1-done)*gamma*(min Q' - alpha*logp')."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    s_next = batch["s_next"]
    noise = rng.standard_normal((s_next.shape[0], policy.act_dim))
    a_next, logp, _ = policy_sample_cache(policy, s_next, noise)
    q1, q2 = _critic_values(target_reward_q, s_next, a_next)
    not_done = 1.0 - batch["done"]
    return batch["r"] + not_done * gamma * (np.minimum(q1, q2) - alpha * logp)


def cost_critic_target(
    batch: dict,
    target_cost_q: DoubleQ,
    policy: GaussianPolicy,
    gamma_c: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bootstrapped cost target: c + (1-done)*gamma_c*max Q'.

    No entropy term; the pessimistic max aggregation keeps the safety
    critic conservative.
    """
    if not 0.0 <= gamma_c < 1.0:
        raise ValueError(f"gamma_c must be in [0, 1), got {gamma_c}")
    s_next = batch["s_next"]
    noise = rng.standard_normal((s_next.shape[0], policy.act_dim))
    a_next, _, _ = policy_sample_cache(policy, s_next, noise)
    q1, q2 = _critic_values(target_cost_q, s_next, a_next)
    not_done = 1.0 - batch["done"]
    return batch["c"] + not_done * gamma_c * np.maximum(q1, q2)


def temperature_update(
    temp: EntropyTemperature,
    logp_batch: np.ndarray,
    lr: float,
    adam=None,
) -> EntropyTemperature:
    """Gradient step on -log_alpha * (mean logp + target_entropy).

    Plain gradient descent by default; pass an ``AdamState`` built over a
    single (1,)-shaped parameter to use Adam instead.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    grad = -(float(np.mean(logp_batch)) + temp.target_entropy)
    if adam is None:
        temp.log_alpha -= lr * grad
    else:
        from barrier_rl.nets import adam_step

        p = np.array([temp.log_alpha])
        adam_step(adam, [p], [np.array([grad])], lr)
        temp.log_alpha = float(p[0])
    temp.log_alpha = min(max(temp.log_alpha, -LOG_ALPHA_BOUND), LOG_ALPHA_BOUND)
    return temp


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    c: float
    s_next: np.ndarray
    done: bool


class ReplayBuffer:
    """Ring buffer of transitions with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.s = np.zeros((self.capacity, obs_dim))
        self.a = np.zeros((self.capacity, act_dim))
        self.r = np.zeros(self.capacity)
        self.c = np.zeros(self.capacity)
        self.s_next = np.zeros((self.capacity, obs_dim))
        self.done = np.zeros(self.capacity)
        self.ptr = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, t: Transition) -> None:
        i = self.ptr
        self.s[i] = t.s
        self.a[i] = t.a
        self.r[i] = t.r
        self.c[i] = t.c
        self.s_next[i] = t.s_next
        self.done[i] = float(t.done)
        self.ptr = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> dict:
        if n > self.size:
            raise ValueError(f"cannot sample {n} from buffer of size {self.size}")
        idx = rng.integers(0, self.size, size=n)
        return {
            "s": self.s[idx],
            "a": self.a[idx],
            "r": self.r[idx],
            "c": self.c[idx],
            "s_next": self.s_next[idx],
            "done": self.done[idx],
        }
