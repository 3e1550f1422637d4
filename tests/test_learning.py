"""The agent against an exact answer on a one-step task.

Every transition ends its episode (``done = 1``), so the critics' targets
are the reward ``r = -(a - 0.8)^2`` and the cost ``c = a - 0.3`` themselves,
with limit ``d = 0``.  The best policy is then the tanh-Gaussian that
minimizes ``E[alpha*logp - r + penalty(c)]``, which quadrature finds.  One
number per cell checks the critics' fit, the penalty's gradient through the
picked cost critic, ``policy_backward`` and the temperature together.
The barrier's mean actions must rise with mu and stay below plain SAC's, and
SAC-Lag's dual step must raise beta and so lower the action too.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from barrier_rl.agents import agent_update_step, make_agent
from barrier_rl.barriers import BarrierConfig, shifted_barrier
from barrier_rl.sac import ReplayBuffer, Transition, policy_mean_action

ROWS, UPDATES = 20_000, 6000
CONFIG = SimpleNamespace(
    batch_size=64, gamma=0.99, gamma_cost=0.99, critic_lr=1e-3, actor_lr=3e-4,
    temp_lr=3e-4, tau=0.005, target_update_every=2,
)
NET_SEED, DATA_SEED, UPDATE_SEED = 0, 1, 2
# measured gaps were 0.008-0.013 at 6000 updates (OpenBLAS 0.3.31, one thread);
# the bits differ across BLAS builds
TOL = 0.02
# ordered by mean action: a smaller mu is the stiffer barrier, plain SAC the highest
CELLS = [("csac_lb", 1.5), ("csac_lb", 3.0), ("csac_lb", 10.0), ("sac_rs", 3.0)]


def reward(a):
    return -((a - 0.8) ** 2)


def cost(a):
    return a - 0.3


@functools.cache
def trained(algo, mu):
    """The agent after UPDATES updates on one fixed buffer of one-step transitions."""
    data = np.random.default_rng(DATA_SEED)
    buffer = ReplayBuffer(ROWS, 1, 1)
    for s, a in data.uniform(-1.0, 1.0, size=(ROWS, 2, 1)):
        buffer.push(Transition(s, a, float(reward(a[0])), float(cost(a[0])), s, True))
    agent = make_agent(algo, 1, 1, np.random.default_rng(NET_SEED), hidden=(64, 64), mu=mu)
    rng = np.random.default_rng(UPDATE_SEED)
    for _ in range(UPDATES):
        agent_update_step(agent, buffer, CONFIG, rng, lambda batch: batch)
    return agent


def mean_action(agent):
    """tanh of the policy's mean, averaged over the states the buffer holds."""
    return float(np.mean(policy_mean_action(agent.policy, np.linspace(-1, 1, 201)[:, None])))


def quadrature_optimum(alpha, penalty):
    """tanh of the mean of the best tanh-Gaussian, by Gauss-Hermite quadrature
    over the pre-squash draw and a grid over (mean, log std), zoomed thrice."""
    x, w = np.polynomial.hermite.hermgauss(48)
    w = w / math.sqrt(math.pi)
    lo, hi = np.array([-1.5, -6.0]), np.array([2.5, 1.0])
    for _ in range(3):
        means, log_stds = np.linspace(lo[0], hi[0], 61), np.linspace(lo[1], hi[1], 61)
        u = means[:, None, None] + math.sqrt(2) * np.exp(log_stds)[None, :, None] * x
        a = np.tanh(u)
        # E[logp]: the Gaussian part is exact, the squash correction by quadrature
        logp = -0.5 - log_stds[None, :] - 0.5 * math.log(2 * math.pi)
        logp = logp - np.log(1.0 - a * a + 1e-6) @ w
        objective = alpha * logp + (penalty(cost(a)) - reward(a)) @ w
        i, j = np.unravel_index(np.argmin(objective), objective.shape)
        step = np.array([means[1] - means[0], log_stds[1] - log_stds[0]])
        best = np.array([means[i], log_stds[j]])
        lo, hi = best - 2 * step, best + 2 * step
    return math.tanh(means[i])


def penalty_of(algo, mu):
    if algo == "csac_lb":
        cfg = BarrierConfig(mu=mu, cost_limit=0.0)
        return lambda c: shifted_barrier(c, cfg)
    return lambda c: np.zeros_like(c)  # sac_rs: no actor penalty


@pytest.mark.parametrize("algo, mu", CELLS)
def test_mean_action_meets_the_quadrature_optimum(algo, mu):
    agent = trained(algo, mu)
    optimum = quadrature_optimum(agent.temp.alpha, penalty_of(algo, mu))
    assert abs(mean_action(agent) - optimum) < TOL, (mean_action(agent), optimum)


def test_barrier_keeps_the_action_below_plain_sac():
    actions = [mean_action(trained(algo, mu)) for algo, mu in CELLS]
    assert all(lo < hi for lo, hi in zip(actions, actions[1:])), actions


def test_lagrangian_raises_beta_and_keeps_the_action_below_plain_sac():
    agent = trained("sac_lag", 3.0)  # mu is unused by sac_lag
    assert agent.lag.beta > 0.0
    assert mean_action(agent) < mean_action(trained("sac_rs", 3.0))
