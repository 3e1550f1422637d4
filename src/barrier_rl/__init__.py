"""Constrained soft actor-critic with a linear smoothed log barrier safety critic.

Modules
-------
barriers   closed-form barrier functions, derivatives, and the optimality-gap bound
nets       minimal dense-network stack (forward, reverse-mode grads, Adam, polyak)
sac        shared SAC machinery: squashed Gaussian policy, double-Q critics,
           entropy temperature, replay buffer
agents     the three agents (log-barrier, Lagrangian, reward-shaped) and their
           per-step update
envs       self-contained pendulum / cart-pole / 2-D point-goal tasks
harness    training loop, normalization pipeline, evaluation, CSV logging
optbench   convex test problems verifying the barrier optimality-gap bound
"""

__version__ = "0.1.0"
