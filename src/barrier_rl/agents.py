"""The three agents and their per-step update.

All agents share the same skeleton: a squashed Gaussian policy, a reward
double-Q pair and a cost double-Q pair with polyak targets, and a learned
entropy temperature.  They differ only in the actor penalty:

* ``csac_lb``  - shifted log barrier on the pessimistic cost-critic value
* ``sac_lag``  - Lagrange multiplier beta times the cost-critic value,
  with beta adapted by dual gradient descent
* ``sac_rs``   - no penalty; safety comes from reward shaping at the
  environment boundary (see :func:`rs_shape`)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from barrier_rl.barriers import BarrierConfig, shifted_barrier, shifted_barrier_grad
from barrier_rl.nets import (
    DEFAULT_HIDDEN,
    AdamState,
    DenseNet,
    _backward,
    _forward_cache,
    adam_init,
    adam_step,
    init_net,
    net_from_doc,
    polyak_update,
)
from barrier_rl.sac import (
    DoubleQ,
    EntropyTemperature,
    GaussianPolicy,
    ReplayBuffer,
    Transition,
    cost_critic_target,
    policy_backward,
    policy_sample_cache,
    reward_critic_target,
)

__all__ = [
    "SacLagState",
    "RsConfig",
    "Agent",
    "make_agent",
    "csaclb_actor_loss",
    "saclag_actor_loss",
    "sac_actor_loss",
    "saclag_beta_update",
    "rs_shape",
    "log_scalars",
    "agent_update_step",
    "agent_to_doc",
    "agent_from_doc",
    "agent_from_json",
]

ALGOS = ("csac_lb", "sac_lag", "sac_rs")

# checkpoint key of each network -> (Agent attribute, member) that holds it
_NETWORK_KEYS = {
    "policy": ("policy", "trunk"),
    "qr1": ("reward_q", "q1"),
    "qr2": ("reward_q", "q2"),
    "qc1": ("cost_q", "q1"),
    "qc2": ("cost_q", "q2"),
    "qr1_target": ("reward_q_target", "q1"),
    "qr2_target": ("reward_q_target", "q2"),
    "qc1_target": ("cost_q_target", "q1"),
    "qc2_target": ("cost_q_target", "q2"),
}
_CRITICS = ("qr1", "qr2", "qc1", "qc2")


@dataclass
class SacLagState:
    """Nonnegative Lagrange multiplier and its dual-descent step size."""

    beta: float = 0.0
    beta_lr: float = 3e-4

    def __post_init__(self) -> None:
        if not 0 <= self.beta < math.inf:  # NaN fails
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")
        if not 0 < self.beta_lr < math.inf:
            raise ValueError(f"beta_lr must be positive and finite, got {self.beta_lr}")


@dataclass
class RsConfig:
    """Terminal penalty added to the reward on any constraint violation."""

    penalty: float = -30.0

    def __post_init__(self) -> None:
        if not -math.inf < self.penalty < 0:  # NaN fails
            raise ValueError(f"rs_penalty must be negative and finite, got {self.penalty}")


def _actor_loss(batch, policy, reward_q, cost_q, alpha, noise, penalty):
    """Shared actor loss core.

    ``penalty`` maps the pessimistic cost-critic value to the constraint
    penalty and its slope, as ``(value, slope)``; pass ``None`` for plain SAC.
    Returns ``(loss, policy grads, aux)`` with ``aux`` carrying the sampled
    logp batch and the mean cost-critic value.
    """
    s = batch["s"]
    n = s.shape[0]
    a, logp, cache = policy_sample_cache(policy, s, noise)
    x = np.concatenate([s, a], axis=1)
    q_min, took_r1, caches_r = reward_q.pick(x, cost=False)
    q_max, took_c1, caches_c = cost_q.pick(x, cost=True)
    pen, slope = penalty(q_max) if penalty is not None else (0.0, None)
    loss = float(np.mean(alpha * logp - q_min + pen))

    # dLoss/dx, summed over reward q1, q2, then cost q1, q2
    dL_dx = reward_q.input_grad(caches_r, took_r1, np.full(n, -1.0 / n))
    if penalty is not None:
        dL_dx += cost_q.input_grad(caches_c, took_c1, slope / n)
    dL_da = dL_dx[:, s.shape[1]:]

    grads = policy_backward(policy, cache, dL_da, np.full(n, alpha / n))
    aux = {"logp": logp, "mean_qc": float(np.mean(q_max))}
    return loss, grads, aux


def csaclb_actor_loss(batch, policy, reward_q, cost_q, alpha, cfg: BarrierConfig, noise):
    """Barrier actor loss: alpha*logp - min Q_r + barrier(max Q_c)."""
    return _actor_loss(
        batch, policy, reward_q, cost_q, alpha, noise,
        lambda q: (shifted_barrier(q, cfg), shifted_barrier_grad(q, cfg)),
    )


def saclag_actor_loss(batch, policy, reward_q, cost_q, alpha, beta, noise):
    """Lagrangian actor loss: alpha*logp - min Q_r + beta*max Q_c."""
    if not 0 <= beta < math.inf:  # NaN fails
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")
    return _actor_loss(
        batch, policy, reward_q, cost_q, alpha, noise,
        lambda q: (beta * q, np.full_like(q, beta)),
    )


def sac_actor_loss(batch, policy, reward_q, cost_q, alpha, noise):
    """Plain SAC actor loss; the cost critic does not enter."""
    return _actor_loss(batch, policy, reward_q, cost_q, alpha, noise, None)


def saclag_beta_update(state: SacLagState, mean_qc: float, d: float) -> SacLagState:
    """Dual gradient step: beta grows while the critic predicts cost above d."""
    state.beta = max(0.0, state.beta + state.beta_lr * (mean_qc - d))
    return state


def rs_shape(transition: Transition, agent: Agent) -> Transition:
    """sac_rs's reward shaping: a violating step gets the terminal penalty and
    ends the episode.  Other algos' transitions come back unchanged."""
    if agent.algo == "sac_rs" and transition.c > 0:
        return replace(transition, r=transition.r + agent.rs.penalty, done=True)
    return transition


@dataclass(eq=False)  # compared and hashed by identity, as one run's state
class Agent:
    """One run's mutable state: networks, targets and Adam states (made at the first update)."""

    algo: str
    policy: GaussianPolicy
    reward_q: DoubleQ
    cost_q: DoubleQ
    reward_q_target: DoubleQ
    cost_q_target: DoubleQ
    temp: EntropyTemperature
    barrier: BarrierConfig
    lag: SacLagState
    rs: RsConfig

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algo {self.algo!r}")

    def networks(self) -> dict:
        """The nine networks, keyed as the checkpoint keys them."""
        return {
            key: getattr(getattr(self, owner), member)
            for key, (owner, member) in _NETWORK_KEYS.items()
        }

    @cached_property
    def opt(self) -> dict:
        """The Adam state of each trained network and of ``log_alpha``, keyed as
        the checkpoint keys them; each state's ``step_count`` counts the updates."""
        nets = self.networks()
        opt = {key: adam_init(nets[key].params()) for key in ("policy", *_CRITICS)}
        opt["log_alpha"] = adam_init([np.zeros(1)])
        return opt


def _assemble(algo: str, act_dim: int, nets: dict, scalars: dict) -> Agent:
    """The one builder of an ``Agent``, from ``nets`` keyed as ``_NETWORK_KEYS``
    and ``scalars`` named as a checkpoint's."""
    parts: dict = {}
    for key, (owner, member) in _NETWORK_KEYS.items():
        parts.setdefault(owner, {})[member] = nets[key]
    return Agent(
        algo,
        GaussianPolicy(act_dim=act_dim, **parts.pop("policy")),
        **{owner: DoubleQ(**members) for owner, members in parts.items()},
        temp=EntropyTemperature(scalars["log_alpha"], target_entropy=-float(act_dim)),
        barrier=BarrierConfig(mu=scalars["mu"], cost_limit=scalars["d"]),
        lag=SacLagState(beta=scalars["beta"], beta_lr=scalars["beta_lr"]),
        rs=RsConfig(penalty=scalars["rs_penalty"]),
    )


def make_agent(
    algo: str,
    obs_dim: int,
    act_dim: int,
    rng: np.random.Generator,
    hidden=DEFAULT_HIDDEN,
    mu: float = 3.0,
    cost_limit: float = 0.0,
    init_temperature: float = 1.0,
    beta_lr: float = 3e-4,
    rs_penalty: float = -30.0,
) -> Agent:
    """A fresh agent; each target network starts as a copy of its critic."""
    hidden = list(hidden)
    nets = {"policy": init_net([obs_dim, *hidden, 2 * act_dim], rng)}
    for key in _CRITICS:
        nets[key] = init_net([obs_dim + act_dim, *hidden, 1], rng)
    for key in _CRITICS:
        nets[f"{key}_target"] = nets[key].copy()
    scalars = dict(
        log_alpha=math.log(init_temperature), beta=0.0, mu=mu, d=cost_limit,
        beta_lr=beta_lr, rs_penalty=rs_penalty,
    )
    return _assemble(algo, act_dim, nets, scalars)


def log_scalars(agent: Agent) -> dict:
    """The logged ``alpha``, ``beta`` and ``mu``; NaN where the algo has none."""
    return {
        "alpha": agent.temp.alpha,
        "beta": agent.lag.beta if agent.algo == "sac_lag" else math.nan,
        "mu": agent.barrier.mu if agent.algo == "csac_lb" else math.nan,
    }


def _critic_step(net: DenseNet, opt: AdamState, x, y, lr) -> float:
    out, cache = _forward_cache(net, x)
    q = out[:, 0]
    err = q - y
    n = x.shape[0]
    grads, _ = _backward(net, cache, (2.0 * err / n)[:, None], want_params=True)
    adam_step(opt, net.params(), grads, lr)
    return float(np.mean(err * err))


def agent_update_step(
    agent: Agent,
    buffer: ReplayBuffer,
    config,
    rng: np.random.Generator,
    batch_transform,
) -> dict:
    """One full gradient update (critics, actor and dual, temperature, targets).

    ``config`` needs: batch_size, gamma, gamma_cost, critic_lr, actor_lr,
    temp_lr, tau, target_update_every.  ``batch_transform`` maps a raw
    sampled batch to a normalized one before any gradient math.
    Returns ``updated`` (1.0) and the three losses, or only ``updated`` (0.0)
    when the buffer is still under-filled and nothing moved.
    """
    if len(buffer) < config.batch_size:
        return {"updated": 0.0}

    opt = agent.opt
    batch = batch_transform(buffer.sample(config.batch_size, rng))
    s, a = batch["s"], batch["a"]
    x = np.concatenate([s, a], axis=1)

    # 1) both critic targets first (no critic step draws from rng or moves what a
    # target reads), then one Adam step per critic on its pair's target
    y = {
        "qr": reward_critic_target(
            batch, agent.reward_q_target, agent.policy, config.gamma, agent.temp.alpha, rng
        ),
        "qc": cost_critic_target(batch, agent.cost_q_target, agent.policy, config.gamma_cost, rng),
    }
    nets, losses = agent.networks(), {"qr": 0.0, "qc": 0.0}
    for key in _CRITICS:
        losses[key[:2]] += _critic_step(nets[key], opt[key], x, y[key[:2]], config.critic_lr)

    # 2) actor, then sac_lag's dual step on the beta the actor used
    noise = rng.standard_normal((config.batch_size, agent.policy.act_dim))
    alpha = agent.temp.alpha
    if agent.algo == "csac_lb":
        actor_loss, grads, aux = csaclb_actor_loss(
            batch, agent.policy, agent.reward_q, agent.cost_q, alpha, agent.barrier, noise
        )
    elif agent.algo == "sac_lag":
        actor_loss, grads, aux = saclag_actor_loss(
            batch, agent.policy, agent.reward_q, agent.cost_q, alpha, agent.lag.beta, noise
        )
        saclag_beta_update(agent.lag, aux["mean_qc"], agent.barrier.cost_limit)
    else:
        actor_loss, grads, aux = sac_actor_loss(
            batch, agent.policy, agent.reward_q, agent.cost_q, alpha, noise
        )
    adam_step(opt["policy"], agent.policy.trunk.params(), grads, config.actor_lr)

    # 3) temperature
    from barrier_rl.sac import temperature_update

    temperature_update(agent.temp, aux["logp"], config.temp_lr, adam=opt["log_alpha"])

    # 4) target networks, on the critics' Adam step count
    if opt["qr1"].step_count % config.target_update_every == 0:
        for key in _CRITICS:
            polyak_update(nets[f"{key}_target"].params(), nets[key].params(), config.tau)

    return {
        "updated": 1.0,
        "critic_loss_r": losses["qr"],
        "critic_loss_c": losses["qc"],
        "actor_loss": actor_loss,
    }


def agent_to_doc(agent: Agent, step: int = 0) -> dict:
    """Checkpoint document with each network kept as its ``DenseNet``.

    Encode it with ``json.dumps(doc, default=net_to_doc)``: the encoder then
    builds, writes and frees one network's base64 text before the next, as
    :func:`barrier_rl.harness.checkpoint_to_json` does.
    """
    return {
        "algo": agent.algo,
        "networks": agent.networks(),
        "scalars": {
            "log_alpha": agent.temp.log_alpha,
            "beta": agent.lag.beta,
            "mu": agent.barrier.mu,
            "d": agent.barrier.cost_limit,
            "step": step,
            "beta_lr": agent.lag.beta_lr,
            "rs_penalty": agent.rs.penalty,
        },
        "act_dim": agent.policy.act_dim,
    }


def agent_from_doc(doc: dict) -> tuple[Agent, int]:
    """Agent and step from a parsed checkpoint, whose networks are weight documents.

    Reads what :func:`barrier_rl.harness.checkpoint_to_json` writes, after
    ``json.loads``.
    """
    nets = {key: net_from_doc(doc["networks"][key]) for key in _NETWORK_KEYS}
    act_dim, step = doc["act_dim"], doc["scalars"]["step"]
    if type(act_dim) is not int or type(step) is not int:  # int() would truncate 7.9 and true
        raise ValueError(f"act_dim and step must be integers, got {act_dim!r} and {step!r}")
    return _assemble(doc["algo"], act_dim, nets, doc["scalars"]), step


def agent_from_json(text: str) -> tuple[Agent, int]:
    """Inverse of :func:`barrier_rl.harness.checkpoint_to_json`."""
    return agent_from_doc(json.loads(text))
