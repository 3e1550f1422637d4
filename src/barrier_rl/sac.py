"""Shared SAC machinery: squashed Gaussian policy, double-Q critics,
critic targets, entropy temperature, replay buffer.

The policy trunk maps an observation to ``[mean, log_std]`` (width 2k).
Actions are ``tanh`` of the reparameterized Gaussian draw, so they stay
strictly inside (-1, 1)^k; the log-density carries the change-of-variables
correction with a 1e-6 stabilizer inside the logarithm.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass

import numpy as np

from barrier_rl.nets import AdamState, DenseNet, _backward, _forward_cache, net_forward

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

    def pick(self, x: np.ndarray, cost: bool):
        """Both critics at the rows of ``x`` and their pessimistic value per row:
        the max of a cost pair, the min of a reward pair.

        Returns ``(value, took_q1, caches)``.  A NaN from either critic reaches
        ``value``; a row took ``q1`` where ``value`` equals it, so a tie takes
        ``q1`` and a NaN row ``q2``.
        """
        (q1, c1), (q2, c2) = _forward_cache(self.q1, x), _forward_cache(self.q2, x)
        value = (np.maximum if cost else np.minimum)(q1[:, 0], q2[:, 0])
        return value, value == q1[:, 0], (c1, c2)

    def input_grad(self, caches, took_q1: np.ndarray, upstream) -> np.ndarray:
        """dLoss/dx of dLoss/dvalue ``upstream`` (per row, or one for every row),
        through the critic each row took."""
        _, dx = _backward(self.q1, caches[0], (took_q1 * upstream)[:, None], want_params=False)
        _, dx2 = _backward(self.q2, caches[1], (~took_q1 * upstream)[:, None], want_params=False)
        return dx + dx2


@dataclass
class EntropyTemperature:
    log_alpha: float = 0.0
    target_entropy: float = -1.0

    def __post_init__(self) -> None:
        with contextlib.suppress(TypeError, OverflowError):  # not a number, or exp overflows
            if type(self.log_alpha) is not bool and 0 < math.exp(self.log_alpha) < math.inf:
                return  # alpha = exp(log_alpha) is positive and finite; NaN fails the test
        raise ValueError(f"log_alpha: exp must be positive and finite, got {self.log_alpha!r}")

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
    """Like :func:`policy_sample` but keeps the intermediates for backward.

    A vector observation runs as a vector, as in :func:`net_forward`.
    """
    noise = np.asarray(noise, dtype=np.float64)
    out, net_cache = _forward_cache(policy.trunk, np.asarray(obs, dtype=np.float64))
    mean, log_std, clip_mask = _split_heads(policy, out)
    std = np.exp(log_std)
    u = mean + std * noise
    a = np.clip(np.tanh(u), -_ACTION_LIMIT, _ACTION_LIMIT)
    logp = (
        np.sum(-0.5 * noise * noise - log_std - _HALF_LOG_2PI, axis=-1)
        - np.sum(np.log(1.0 - a * a + SQUASH_EPS), axis=-1)
    )
    cache = {
        "net_cache": net_cache,
        "clip_mask": clip_mask,
        "std": std,
        "noise": noise,
        "a": a,
    }
    return a, logp, cache


def policy_backward(policy: GaussianPolicy, cache, dL_da: np.ndarray, logp_coeff: float):
    """Trunk parameter gradients of a loss built on (action, logp).

    ``dL_da``: per-sample dLoss/daction, batch weighting included.
    ``logp_coeff``: the weight on every sample's logp (e.g. alpha/n).
    Returns gradients in :meth:`DenseNet.params` layout.
    """
    a = cache["a"]
    std = cache["std"]
    noise = cache["noise"]
    sech2 = 1.0 - a * a
    # dlogp/du from the tanh change-of-variables term
    dlogp_du = 2.0 * a * sech2 / (sech2 + SQUASH_EPS)
    g_u = logp_coeff * dlogp_du + dL_da * sech2
    g_mean = g_u
    g_log_std = (g_u * std * noise - logp_coeff) * cache["clip_mask"]
    upstream = np.concatenate([g_mean, g_log_std], axis=1)
    grads, _ = _backward(policy.trunk, cache["net_cache"], upstream, want_params=True)
    return grads


def policy_mean_action(policy: GaussianPolicy, obs: np.ndarray) -> np.ndarray:
    """Deterministic action tanh(mean); used by every evaluation episode."""
    out = net_forward(policy.trunk, obs)
    mean = out[..., : policy.act_dim]
    return np.tanh(mean)


def _next_state_values(batch, target_q: DoubleQ, policy: GaussianPolicy, gamma, rng, cost):
    """``(Q', logp')``: ``target_q``'s pessimistic value at ``s_next`` and a fresh policy draw."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    s_next = batch["s_next"]
    noise = rng.standard_normal((s_next.shape[0], policy.act_dim))
    a_next, logp, _ = policy_sample_cache(policy, s_next, noise)
    return target_q.pick(np.concatenate([s_next, a_next], axis=1), cost)[0], logp


def reward_critic_target(
    batch: dict,
    target_reward_q: DoubleQ,
    policy: GaussianPolicy,
    gamma: float,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bootstrapped reward target: r + (1-done)*gamma*(min Q' - alpha*logp')."""
    q, logp = _next_state_values(batch, target_reward_q, policy, gamma, rng, cost=False)
    not_done = 1.0 - batch["done"]
    return batch["r"] + not_done * gamma * (q - alpha * logp)


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
    q, _ = _next_state_values(batch, target_cost_q, policy, gamma_c, rng, cost=True)
    not_done = 1.0 - batch["done"]
    return batch["c"] + not_done * gamma_c * q


def temperature_update(
    temp: EntropyTemperature, logp_batch: np.ndarray, lr: float, adam: AdamState
) -> None:
    """Adam step on -log_alpha * (mean logp + target_entropy), clamped to +-LOG_ALPHA_BOUND.

    ``adam`` is an ``AdamState`` built over a single (1,)-shaped parameter.
    """
    # looked up at call time, so perfbench's tracer counts this Adam step
    from barrier_rl.nets import adam_step

    grad = -(float(np.mean(logp_batch)) + temp.target_entropy)
    p = np.array([temp.log_alpha])
    adam_step(adam, [p], [np.array([grad])], lr)
    temp.log_alpha = min(max(float(p[0]), -LOG_ALPHA_BOUND), LOG_ALPHA_BOUND)


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    c: float
    s_next: np.ndarray
    done: bool


class ReplayBuffer:
    """Ring buffer of transitions with uniform sampling.

    A transition is one float64 row of ``rows``; ``columns`` maps each field
    of :class:`Transition` to its slice (a vector) or index (a scalar).
    ``rows`` is one anonymous mapping, resident only as rows are written and
    unmapped when freed; from malloc, an array below glibc's rising mmap
    threshold would land in a heap that may never be trimmed again.
    ``push`` fills a one-row scratch array, each field checked against its
    column's shape, and copies it only once every field is written, so a
    rejected transition stores nothing.
    """

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        vectors = 2 * obs_dim + act_dim
        self.columns = {
            "s": slice(0, obs_dim),
            "a": slice(obs_dim, obs_dim + act_dim),
            "r": vectors,
            "c": vectors + 1,
            "s_next": slice(obs_dim + act_dim, vectors),
            "done": vectors + 2,
        }
        buf = mmap.mmap(-1, self.capacity * (vectors + 3) * 8)
        self.rows = np.frombuffer(buf, dtype=np.float64).reshape(self.capacity, vectors + 3)
        self._staged = np.zeros(vectors + 3)
        self.ptr = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, t: Transition) -> None:
        for name, col in self.columns.items():
            value, shape = getattr(t, name), self._staged[col].shape
            # a 1-wide vector would broadcast into a wider slice silently
            if np.shape(value) != shape:
                raise ValueError(f"{name}: shape {np.shape(value)}, expected {shape}")
            try:
                self._staged[col] = value
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from exc
        self.rows[self.ptr] = self._staged
        self.ptr = (self.ptr + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> dict:
        """``n`` uniform draws of the written rows; each field views one gathered array."""
        if n > self.size:
            raise ValueError(f"cannot sample {n} from buffer of size {self.size}")
        idx = rng.integers(0, self.size, size=n)
        batch = self.rows[idx]
        return {name: batch[:, col] for name, col in self.columns.items()}
