"""Self-contained control tasks: pendulum (tilt, upright), cart-pole
(move, swing), and a 2-D point-goal navigation stand-in.

All environments expose the same surface: ``reset(rng) -> obs`` and
``step(action) -> StepResult`` with actions in (-1, 1)^k rescaled to the
native actuation range.  Costs are binary violation indicators; no task
terminates early on a violation: only the reward-shaping baseline cuts
an episode, when ``agents.rs_shape`` marks a violating transition done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StepResult",
    "PendulumState",
    "CartpoleState",
    "PointNavState",
    "PendulumEnv",
    "CartpoleEnv",
    "PointNavEnv",
    "make_env",
    "pendulum_dynamics",
    "pendulum_reward_cost",
    "cartpole_dynamics",
    "cartpole_reward_cost",
    "wrap_angle",
    "ENV_NAMES",
]

# pendulum: g=10, m=1, l=1, dt=0.05, torque +-2, |omega| <= 8
PEND_G, PEND_M, PEND_L, PEND_DT = 10.0, 1.0, 1.0, 0.05
PEND_MAX_TORQUE, PEND_MAX_SPEED = 2.0, 8.0
UPRIGHT_THETA_LIM = -0.41151684
# pendulum task -> the angle its reward -(target - theta)^2 pulls theta toward
PEND_TASKS = {"tilt": 0.0, "upright": UPRIGHT_THETA_LIM}
PEND_COST_THETA = 1.5  # every pendulum task costs 1 past |theta| > 1.5

# cart-pole: frictionless, semi-implicit Euler
CART_M, POLE_M, POLE_HALF_L = 1.0, 0.1, 0.5
CART_G, CART_DT, CART_MAX_FORCE = 9.8, 0.02, 10.0
# cart-pole task -> (its |theta| cost limit, whether theta^2 is the reward rather than x^2)
CART_TASKS = {"move": (0.2, False), "swing": (1.5, True)}
CART_COST_X = 0.9  # every cart-pole task costs 1 past |x| > 0.9

ENV_NAMES = (*PEND_TASKS, *CART_TASKS, "pointnav")

NAV_DT = 0.1
NAV_MAX_SPEED = 2.0
NAV_GOAL_RADIUS = 0.3
NAV_HAZARD_RADIUS = 0.2
NAV_ARENA = 2.0  # half-width of the 4 m x 4 m arena
NAV_SENSOR_RANGE = 3.0
NAV_N_HAZARDS = 4


@dataclass
class StepResult:
    obs: np.ndarray
    reward: float
    cost: float
    done: bool


@dataclass
class PendulumState:
    theta: float  # angle from vertical, wrapped to (-pi, pi]
    omega: float  # rad/s, clipped to [-8, 8]


@dataclass
class CartpoleState:
    x: float
    theta: float
    x_dot: float
    theta_dot: float


@dataclass
class PointNavState:
    """Python floats, not arrays: numpy's per-call cost dwarfs 2-element math."""

    pos: tuple[float, float]
    vel: tuple[float, float]
    goal: tuple[float, float]
    hazards: list[tuple[float, float]] = field(default_factory=list)


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (theta + math.pi) % (2.0 * math.pi) - math.pi
    if w == -math.pi:
        return math.pi
    return w


def _task_row(table: dict, task: str):
    """``table[task]``; an unknown task is a ValueError that lists the known ones."""
    try:
        return table[task]
    except (KeyError, TypeError):
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(table)}") from None


def pendulum_dynamics(state: PendulumState, torque: float) -> PendulumState:
    """One semi-implicit Euler step of the torque-limited pendulum."""
    if abs(torque) > PEND_MAX_TORQUE + 1e-12:
        raise ValueError(f"|torque| must be <= {PEND_MAX_TORQUE}, got {torque}")
    g, m, length, dt = PEND_G, PEND_M, PEND_L, PEND_DT
    omega = state.omega + (
        3.0 * g / (2.0 * length) * math.sin(state.theta)
        + 3.0 / (m * length * length) * torque
    ) * dt
    omega = min(max(omega, -PEND_MAX_SPEED), PEND_MAX_SPEED)
    theta = wrap_angle(state.theta + omega * dt)
    return PendulumState(theta, omega)


def pendulum_reward_cost(task: str, theta: float) -> tuple[float, float]:
    """r = -(target - theta)^2, with the task's target from ``PEND_TASKS``;
    the cost is 1 past |theta| > ``PEND_COST_THETA``."""
    diff = _task_row(PEND_TASKS, task) - theta
    return -diff * diff, 1.0 if abs(theta) > PEND_COST_THETA else 0.0


def cartpole_dynamics(state: CartpoleState, force: float) -> CartpoleState:
    """Standard frictionless cart-pole step; velocities update first."""
    if abs(force) > CART_MAX_FORCE + 1e-12:
        raise ValueError(f"|force| must be <= {CART_MAX_FORCE}, got {force}")
    total_m, dt = CART_M + POLE_M, CART_DT
    sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
    temp = (force + POLE_M * POLE_HALF_L * state.theta_dot**2 * sin_t) / total_m
    theta_acc = (CART_G * sin_t - cos_t * temp) / (
        POLE_HALF_L * (4.0 / 3.0 - POLE_M * cos_t * cos_t / total_m)
    )
    x_acc = temp - POLE_M * POLE_HALF_L * theta_acc * cos_t / total_m
    x_dot = state.x_dot + x_acc * dt
    theta_dot = state.theta_dot + theta_acc * dt
    return CartpoleState(
        state.x + x_dot * dt, state.theta + theta_dot * dt, x_dot, theta_dot
    )


def cartpole_reward_cost(task: str, x: float, theta: float) -> tuple[float, float]:
    """r = x^2 or theta^2, as ``CART_TASKS`` says for the task; the cost is 1
    past the task's |theta| limit or past |x| > ``CART_COST_X``.  Both read
    theta wrapped to (-pi, pi], so a spinning pole earns at most pi^2 a step."""
    theta_lim, theta_rewarded = _task_row(CART_TASKS, task)
    if not -math.pi < theta <= math.pi:  # an angle inside keeps its bits
        theta = wrap_angle(theta)
    v = theta if theta_rewarded else x
    return v * v, 1.0 if (abs(theta) > theta_lim or abs(x) > CART_COST_X) else 0.0


class _EnvBase:
    obs_dim: int
    act_dim: int
    horizon: int
    _done = True  # until ``reset`` starts an episode, a step raises

    def _start(self, obs: np.ndarray) -> np.ndarray:
        """Begin an episode whose first observation is ``obs``."""
        self._t = 0
        self._done = False
        return obs

    def _check_step(self, action) -> np.ndarray:
        if self._done:
            raise RuntimeError("stepping a finished episode; call reset first")
        a = np.asarray(action, dtype=np.float64).reshape(-1)
        if a.shape[0] != self.act_dim:
            raise ValueError(f"action width {a.shape[0]} != {self.act_dim}")
        # same values as np.clip, NaN and -0.0 included, at under half its call cost
        return np.minimum(np.maximum(a, -1.0), 1.0)

    def _finish(self, obs, reward, cost, terminal=False) -> StepResult:
        self._t += 1
        self._done = done = terminal or self._t >= self.horizon
        return StepResult(obs, reward, cost, done)


class PendulumEnv(_EnvBase):
    """Tilt / Upright: torque-limited pendulum, horizon 200."""

    obs_dim = 3
    act_dim = 1
    horizon = 200

    def __init__(self, task: str):
        _task_row(PEND_TASKS, task)
        self.task = task

    def _obs(self) -> np.ndarray:
        s = self.state
        return np.array([math.cos(s.theta), math.sin(s.theta), s.omega])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        theta = wrap_angle(rng.uniform(-math.pi, math.pi))
        self.state = PendulumState(theta, rng.uniform(-1.0, 1.0))
        return self._start(self._obs())

    def step(self, action) -> StepResult:
        a = self._check_step(action)
        torque = float(a[0]) * PEND_MAX_TORQUE
        self.state = pendulum_dynamics(self.state, torque)
        reward, cost = pendulum_reward_cost(self.task, self.state.theta)
        return self._finish(self._obs(), reward, cost)


class CartpoleEnv(_EnvBase):
    """Move / Swing: force-limited cart-pole, horizon 1000, soft constraints."""

    obs_dim = 4
    act_dim = 1
    horizon = 1000

    def __init__(self, task: str):
        _task_row(CART_TASKS, task)
        self.task = task

    def _obs(self) -> np.ndarray:
        s = self.state
        return np.array([s.x, s.theta, s.x_dot, s.theta_dot])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        # Python floats, not numpy scalars: the dynamics give the same bits at about half the cost
        self.state = CartpoleState(*rng.uniform(-0.05, 0.05, size=4).tolist())
        return self._start(self._obs())

    def step(self, action) -> StepResult:
        a = self._check_step(action)
        force = float(a[0]) * CART_MAX_FORCE
        self.state = cartpole_dynamics(self.state, force)
        reward, cost = cartpole_reward_cost(self.task, self.state.x, self.state.theta)
        return self._finish(self._obs(), reward, cost)


class PointNavEnv(_EnvBase):
    """2-D point navigation: reach the goal circle, avoid hazard circles.

    Observation: goal offset (2) plus 8 sector range readings in [0, 1]
    (1 = touching a hazard, 0 = nothing within the sensor range).
    Reward is per-step progress toward the goal plus a 1.0 bonus while
    inside the goal radius; cost is 1 inside any hazard.
    """

    obs_dim = 10
    act_dim = 2
    horizon = 1000

    def _sense(self, px: float, py: float):
        """Observation at ``(px, py)``, its goal distance and hazard distances.

        Distances come from one ``np.hypot`` call, which gives the bits of
        one call per pair; ``math.hypot`` does not.
        """
        gx, gy = self.state.goal
        dxs = [gx - px]
        dys = [gy - py]
        for hx, hy in self.state.hazards:
            dxs.append(hx - px)
            dys.append(hy - py)
        goal_dist, *hazard_dists = np.hypot(dxs, dys).tolist()
        readings = [0.0] * 8
        for dx, dy, dist in zip(dxs[1:], dys[1:], hazard_dists):
            if math.isnan(dist):  # a NaN position, from a NaN action, has no sector
                readings = [math.nan] * 8
                break
            sector = int(round(math.atan2(dy, dx) / (math.pi / 4.0))) % 8
            strength = max(0.0, 1.0 - max(dist - NAV_HAZARD_RADIUS, 0.0) / NAV_SENSOR_RANGE)
            readings[sector] = max(readings[sector], strength)
        return np.array([dxs[0], dys[0], *readings]), goal_dist, hazard_dists

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        while True:
            gx, gy = rng.uniform(-NAV_ARENA, NAV_ARENA, size=2).tolist()
            if np.hypot(gx, gy) > 2.0 * NAV_GOAL_RADIUS:
                break
        hazards: list[tuple[float, float]] = []
        while len(hazards) < NAV_N_HAZARDS:
            hx, hy = rng.uniform(-NAV_ARENA, NAV_ARENA, size=2).tolist()
            if (
                np.hypot(hx - gx, hy - gy) > NAV_GOAL_RADIUS + NAV_HAZARD_RADIUS
                and np.hypot(hx, hy) > 2.0 * NAV_HAZARD_RADIUS
                and all(np.hypot(hx - ox, hy - oy) > 2.0 * NAV_HAZARD_RADIUS for ox, oy in hazards)
            ):
                hazards.append((hx, hy))
        self.state = PointNavState((0.0, 0.0), (0.0, 0.0), (gx, gy), hazards)
        return self._start(self._sense(0.0, 0.0)[0])

    def step(self, action) -> StepResult:
        ax, ay = self._check_step(action).tolist()  # accel in m/s^2, already +-1
        st = self.state
        px, py = st.pos
        vx, vy = st.vel
        gx, gy = st.goal
        vx += ax * NAV_DT
        vy += ay * NAV_DT
        prev_dist, speed = np.hypot([gx - px, vx], [gy - py, vy]).tolist()
        if speed > NAV_MAX_SPEED:
            shrink = NAV_MAX_SPEED / speed
            vx *= shrink
            vy *= shrink
        px += vx * NAV_DT
        py += vy * NAV_DT
        self.state = PointNavState((px, py), (vx, vy), st.goal, st.hazards)
        obs, new_dist, hazard_dists = self._sense(px, py)
        at_goal = new_dist < NAV_GOAL_RADIUS
        reward = (prev_dist - new_dist) + (1.0 if at_goal else 0.0)
        cost = 1.0 if any(d < NAV_HAZARD_RADIUS for d in hazard_dists) else 0.0
        return self._finish(obs, reward, cost, terminal=at_goal)


def make_env(name: str):
    if name not in ENV_NAMES:
        raise ValueError(f"unknown env {name!r}; expected one of {ENV_NAMES}")
    if name in PEND_TASKS:
        return PendulumEnv(name)
    return CartpoleEnv(name) if name in CART_TASKS else PointNavEnv()
