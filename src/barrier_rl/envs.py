"""Self-contained control tasks: pendulum (tilt, upright), cart-pole
(move, swing), and a 2-D point-goal navigation stand-in.

All environments expose the same surface: ``reset(rng) -> obs`` and
``step(action) -> StepResult`` with actions in (-1, 1)^k rescaled to the
native actuation range.  Costs are binary violation indicators; no task
terminates early on a violation (only the reward-shaping baseline cuts
episodes, and it does so in the harness).
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

ENV_NAMES = ("tilt", "upright", "move", "swing", "pointnav")

# pendulum: g=10, m=1, l=1, dt=0.05, torque +-2, |omega| <= 8
PEND_G, PEND_M, PEND_L, PEND_DT = 10.0, 1.0, 1.0, 0.05
PEND_MAX_TORQUE, PEND_MAX_SPEED = 2.0, 8.0
UPRIGHT_THETA_LIM = -0.41151684

# cart-pole: frictionless, semi-implicit Euler
CART_M, POLE_M, POLE_HALF_L = 1.0, 0.1, 0.5
CART_G, CART_DT, CART_MAX_FORCE = 9.8, 0.02, 10.0

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
    pos: np.ndarray
    vel: np.ndarray
    goal: np.ndarray
    hazards: list = field(default_factory=list)  # list of 2-D centers


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (theta + math.pi) % (2.0 * math.pi) - math.pi
    if w == -math.pi:
        return math.pi
    return w


def pendulum_dynamics(state: PendulumState, torque: float, dt: float = PEND_DT) -> PendulumState:
    """One semi-implicit Euler step of the torque-limited pendulum."""
    if abs(torque) > PEND_MAX_TORQUE + 1e-12:
        raise ValueError(f"|torque| must be <= {PEND_MAX_TORQUE}, got {torque}")
    g, m, length = PEND_G, PEND_M, PEND_L
    omega = state.omega + (
        3.0 * g / (2.0 * length) * math.sin(state.theta)
        + 3.0 / (m * length * length) * torque
    ) * dt
    omega = min(max(omega, -PEND_MAX_SPEED), PEND_MAX_SPEED)
    theta = wrap_angle(state.theta + omega * dt)
    return PendulumState(theta, omega)


def pendulum_reward_cost(task: str, theta: float) -> tuple[float, float]:
    """Tilt: r = -theta^2.  Upright: r = -(theta_lim - theta)^2.
    Both cost 1 past |theta| > 1.5."""
    if task == "tilt":
        reward = -theta * theta
    elif task == "upright":
        diff = UPRIGHT_THETA_LIM - theta
        reward = -diff * diff
    else:
        raise ValueError(f"unknown pendulum task {task!r}")
    cost = 1.0 if abs(theta) > 1.5 else 0.0
    return reward, cost


def cartpole_dynamics(state: CartpoleState, force: float, dt: float = CART_DT) -> CartpoleState:
    """Standard frictionless cart-pole step; velocities update first."""
    if abs(force) > CART_MAX_FORCE + 1e-12:
        raise ValueError(f"|force| must be <= {CART_MAX_FORCE}, got {force}")
    total_m = CART_M + POLE_M
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
    """Move: r = x^2 under |theta| <= 0.2, |x| <= 0.9.
    Swing: r = theta^2 under |theta| <= 1.5, |x| <= 0.9."""
    if task == "move":
        reward = x * x
        cost = 1.0 if (abs(theta) > 0.2 or abs(x) > 0.9) else 0.0
    elif task == "swing":
        reward = theta * theta
        cost = 1.0 if (abs(theta) > 1.5 or abs(x) > 0.9) else 0.0
    else:
        raise ValueError(f"unknown cartpole task {task!r}")
    return reward, cost


class _EnvBase:
    obs_dim: int
    act_dim: int
    horizon: int

    def __init__(self):
        self._t = 0
        self._done = True

    def _check_step(self, action) -> np.ndarray:
        if self._done:
            raise RuntimeError("stepping a finished episode; call reset first")
        a = np.asarray(action, dtype=np.float64).reshape(-1)
        if a.shape[0] != self.act_dim:
            raise ValueError(f"action width {a.shape[0]} != {self.act_dim}")
        return np.clip(a, -1.0, 1.0)

    def _finish(self, obs, reward, cost) -> StepResult:
        self._t += 1
        done = self._t >= self.horizon
        self._done = done
        return StepResult(obs, reward, cost, done)


class PendulumEnv(_EnvBase):
    """Tilt / Upright: torque-limited pendulum, horizon 200."""

    obs_dim = 3
    act_dim = 1
    horizon = 200

    def __init__(self, task: str):
        super().__init__()
        if task not in ("tilt", "upright"):
            raise ValueError(f"unknown pendulum task {task!r}")
        self.task = task
        self.state = PendulumState(0.0, 0.0)

    def _obs(self) -> np.ndarray:
        return np.array(
            [math.cos(self.state.theta), math.sin(self.state.theta), self.state.omega]
        )

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        theta = wrap_angle(rng.uniform(-math.pi, math.pi))
        omega = rng.uniform(-1.0, 1.0)
        self.state = PendulumState(theta, omega)
        self._t = 0
        self._done = False
        return self._obs()

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
        super().__init__()
        if task not in ("move", "swing"):
            raise ValueError(f"unknown cartpole task {task!r}")
        self.task = task
        self.state = CartpoleState(0.0, 0.0, 0.0, 0.0)

    def _obs(self) -> np.ndarray:
        s = self.state
        return np.array([s.x, s.theta, s.x_dot, s.theta_dot])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        vals = rng.uniform(-0.05, 0.05, size=4)
        self.state = CartpoleState(*vals)
        self._t = 0
        self._done = False
        return self._obs()

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

    def __init__(self, task: str = "pointnav"):
        super().__init__()
        if task != "pointnav":
            raise ValueError(f"unknown nav task {task!r}")
        self.task = task
        self.state = PointNavState(np.zeros(2), np.zeros(2), np.ones(2), [])

    def _sensor(self) -> np.ndarray:
        readings = np.zeros(8)
        pos = self.state.pos
        for hz in self.state.hazards:
            delta = hz - pos
            dist = float(np.hypot(*delta))
            sector = int(round(math.atan2(delta[1], delta[0]) / (math.pi / 4.0))) % 8
            strength = max(0.0, 1.0 - max(dist - NAV_HAZARD_RADIUS, 0.0) / NAV_SENSOR_RANGE)
            readings[sector] = max(readings[sector], strength)
        return readings

    def _obs(self) -> np.ndarray:
        return np.concatenate([self.state.goal - self.state.pos, self._sensor()])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        while True:
            goal = rng.uniform(-NAV_ARENA, NAV_ARENA, size=2)
            if np.hypot(*goal) > 2.0 * NAV_GOAL_RADIUS:
                break
        hazards: list[np.ndarray] = []
        while len(hazards) < NAV_N_HAZARDS:
            hz = rng.uniform(-NAV_ARENA, NAV_ARENA, size=2)
            clear_goal = np.hypot(*(hz - goal)) > NAV_GOAL_RADIUS + NAV_HAZARD_RADIUS
            clear_start = np.hypot(*hz) > 2.0 * NAV_HAZARD_RADIUS
            clear_others = all(
                np.hypot(*(hz - other)) > 2.0 * NAV_HAZARD_RADIUS for other in hazards
            )
            if clear_goal and clear_start and clear_others:
                hazards.append(hz)
        self.state = PointNavState(np.zeros(2), np.zeros(2), goal, hazards)
        self._t = 0
        self._done = False
        return self._obs()

    def step(self, action) -> StepResult:
        a = self._check_step(action)  # accel in m/s^2, already +-1
        st = self.state
        prev_dist = float(np.hypot(*(st.goal - st.pos)))
        vel = st.vel + a * NAV_DT
        speed = float(np.hypot(*vel))
        if speed > NAV_MAX_SPEED:
            vel = vel * (NAV_MAX_SPEED / speed)
        pos = st.pos + vel * NAV_DT
        self.state = PointNavState(pos, vel, st.goal, st.hazards)
        new_dist = float(np.hypot(*(st.goal - pos)))
        at_goal = new_dist < NAV_GOAL_RADIUS
        reward = (prev_dist - new_dist) + (1.0 if at_goal else 0.0)
        cost = (
            1.0
            if any(np.hypot(*(hz - pos)) < NAV_HAZARD_RADIUS for hz in st.hazards)
            else 0.0
        )
        result = self._finish(self._obs(), reward, cost)
        if at_goal:
            result.done = True
            self._done = True
        return result


def make_env(name: str):
    if name in ("tilt", "upright"):
        return PendulumEnv(name)
    if name in ("move", "swing"):
        return CartpoleEnv(name)
    if name == "pointnav":
        return PointNavEnv()
    raise ValueError(f"unknown env {name!r}; expected one of {ENV_NAMES}")
