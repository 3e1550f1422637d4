import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from barrier_rl import harness
from barrier_rl.envs import PendulumEnv, make_env
from barrier_rl.harness import (
    LOG_COLUMNS,
    LogRow,
    RunningScale,
    ScaleSet,
    TrainConfig,
    TrainingDiverged,
    checkpoint_to_json,
    evaluate,
    log_to_csv,
    normalize_pipeline,
    parse_config,
    train,
)
from barrier_rl.sac import GaussianPolicy, policy_mean_action
from barrier_rl.nets import DenseNet

SMALL = dict(total_steps=300, random_steps=50, batch_size=32, eval_interval=100, eval_episodes=2)


class TestTrainConfig:
    def test_defaults_match_paper_tables(self):
        c = TrainConfig()
        assert c.batch_size == 256
        assert c.gamma == 0.99
        assert c.buffer_capacity == 1_000_000
        assert c.random_steps == 100
        assert c.actor_lr == c.critic_lr == c.temp_lr == c.beta_lr == 3e-4
        assert c.tau == 0.005
        assert c.init_temperature == 1.0
        assert c.mu == 3.0
        assert c.cost_limit == 0.0
        assert c.rs_penalty == -30.0
        assert c.clip_reward == (-10.0, 10.0)
        assert c.clip_cost == (-10.0, 10.0)
        assert c.target_update_every == 2

    def test_round_trip_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        from barrier_rl.harness import config_to_json

        path.write_text(config_to_json(TrainConfig()))
        assert parse_config(path) == TrainConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        assert parse_config(path) == TrainConfig()

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1e-3}))
        with pytest.raises(ValueError, match="learning_rate"):
            parse_config(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"total_steps": "100"},
            {"clip_reward": 5},
            {"seed": 1.5},
            {"batch_size": 32.5},
            {"normalize_obs": "no"},
            {"eval_interval": True},
            {"tau": True},
            {"clip_cost": [-1.0, 2.0, 3.0]},
            {"algo": 1},
            # json writes and reads NaN and Infinity; the range checks alone let them through
            {"mu": math.nan},
            {"actor_lr": math.nan},
            {"cost_limit": math.inf},
            {"clip_reward": [-math.inf, 10]},
            # a buffer that never holds a batch would never update
            {"buffer_capacity": 10},
        ],
    )
    def test_wrong_value_type_rejected_by_name(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=next(iter(doc))):
            parse_config(path)

    def test_ints_accepted_for_float_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mu": 2, "tau": 1, "clip_cost": [-5, 5]}))
        cfg = parse_config(path)
        assert (cfg.mu, cfg.tau, cfg.clip_cost) == (2.0, 1.0, (-5.0, 5.0))

    def test_validate_stores_each_value_as_its_fields_type(self):
        cfg = TrainConfig(mu=2, clip_reward=(-5, 5), clip_cost=[-1, 1]).validate()
        assert cfg.clip_reward == (-5.0, 5.0) and cfg.clip_cost == (-1.0, 1.0)
        assert all(type(v) is float for v in (cfg.mu, *cfg.clip_reward, *cfg.clip_cost))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            parse_config(path)

    def test_mu_one_with_csaclb_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"algo": "csac_lb", "mu": 1.0}))
        with pytest.raises(ValueError, match="mu"):
            parse_config(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("algo", "ddpg"),
            ("env", "humanoid"),
            ("gamma", 1.0),
            ("gamma_cost", -0.1),
            ("actor_lr", 0.0),
            ("tau", 1.5),
            ("batch_size", 0),
            ("rs_penalty", 1.0),
            ("clip_reward", (10.0, -10.0)),
            ("seed", -1),
        ],
    )
    def test_out_of_range_rejected_with_key_name(self, field, value):
        cfg = dataclasses.replace(TrainConfig(), **{field: value})
        with pytest.raises(ValueError, match=field):
            cfg.validate()


class TestRunningScale:
    def test_mean_and_std_match_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal(500) * 3 + 2
        rs = RunningScale()
        for x in xs:
            rs.update(x)
        assert rs.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert rs.divisor() == pytest.approx(xs.std(), rel=1e-10)

    def test_vector_mode(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((200, 3))
        rs = RunningScale()
        for x in xs:
            rs.update(x)
        np.testing.assert_allclose(rs.mean, xs.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(rs.divisor(), xs.std(axis=0), rtol=1e-10)

    def test_std_floor(self):
        rs = RunningScale()
        for _ in range(10):
            rs.update(5.0)
        assert rs.divisor() == 1e-8

    def test_divisor_is_one_before_two_samples(self):
        rs = RunningScale()
        assert rs.divisor() == 1.0
        rs.update(7.0)
        assert rs.divisor() == 1.0
        rs.update(9.0)
        assert rs.divisor() == 1.0  # std of {7, 9}
        rs.update(11.0)
        assert rs.divisor() == pytest.approx(np.std([7.0, 9.0, 11.0]), rel=1e-12)

    def test_state_round_trip(self):
        rs = RunningScale()
        for x in (1.0, 4.0, -2.0):
            rs.update(x)
        back = RunningScale.from_state(rs.state())
        assert back.count == rs.count
        assert back.mean == rs.mean
        assert back.divisor() == rs.divisor()

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"count": -3, "mean": 0.0, "m2": 0.0}, "count"),
            ({"count": 2.0, "mean": 0.0, "m2": 0.0}, "count"),
            ({"count": True, "mean": 0.0, "m2": 0.0}, "count"),
            ({"count": 2, "mean": [0.0, 1.0], "m2": 1.0}, "shapes"),
            ({"count": 2, "mean": math.nan, "m2": 1.0}, "finite"),
            ({"count": 2, "mean": 0.0, "m2": math.inf}, "finite"),
            ({"count": 2, "mean": [0.0, 1.0], "m2": [1.0, -1.0]}, "nonnegative"),
        ],
    )
    def test_state_update_cannot_reach_is_rejected(self, state, message):
        with pytest.raises(ValueError, match=message):
            RunningScale.from_state(state)

    def test_state_before_any_observation_loads(self):
        assert RunningScale.from_state(RunningScale().state()).divisor() == 1.0


class TestNormalizePipeline:
    def test_disabled_is_identity(self):
        cfg = TrainConfig(
            normalize_obs=False, normalize_return=False, normalize_cost=False
        )
        scales = ScaleSet()
        obs = np.array([1.0, 2.0])
        o, r, c = normalize_pipeline(obs, 3.0, 1.0, scales, cfg)
        np.testing.assert_array_equal(o, obs)
        assert r == 3.0
        assert c == 1.0

    def test_constant_obs_normalizes_to_zero(self):
        cfg = TrainConfig()
        scales = ScaleSet()
        for _ in range(5):
            scales.obs.update(np.array([4.0, -1.0]))
        o, _, _ = normalize_pipeline(np.array([4.0, -1.0]), None, None, scales, cfg)
        np.testing.assert_array_equal(o, np.zeros(2))

    def test_huge_reward_clipped_to_ten(self):
        cfg = TrainConfig()
        scales = ScaleSet()
        scales.episodic_return.update(1.0)
        scales.episodic_return.update(2.0)
        _, r, _ = normalize_pipeline(None, 1e6, None, scales, cfg)
        assert r == 10.0

    def test_obs_standardized(self):
        cfg = TrainConfig()
        scales = ScaleSet()
        for x in (0.0, 2.0, 4.0):
            scales.obs.update(np.array([x]))
        o, _, _ = normalize_pipeline(np.array([4.0]), None, None, scales, cfg)
        assert o[0] == pytest.approx((4.0 - 2.0) / np.std([0.0, 2.0, 4.0]))

    def test_obs_after_one_sample_only_centered(self):
        # one sample has zero spread: the obs divisor stays 1, as for returns
        cfg = TrainConfig()
        scales = ScaleSet()
        scales.obs.update(np.array([1.0, 0.0, 0.5]))
        o, _, _ = normalize_pipeline(np.array([0.9, 0.1, 0.4]), None, None, scales, cfg)
        np.testing.assert_allclose(o, [-0.1, 0.1, -0.1], atol=1e-12)

    def test_obs_before_any_sample_unchanged(self):
        o, _, _ = normalize_pipeline(np.array([0.9, -2.0]), None, None, ScaleSet(), TrainConfig())
        np.testing.assert_array_equal(o, [0.9, -2.0])

    def test_scales_not_updated_by_pipeline(self):
        cfg = TrainConfig()
        scales = ScaleSet()
        scales.obs.update(np.array([1.0]))
        count = scales.obs.count
        normalize_pipeline(np.array([9.0]), 1.0, 1.0, scales, cfg)
        assert scales.obs.count == count
        assert scales.episodic_return.count == 0


class TestLogCsv:
    def row(self, **kw):
        base = dict(
            step=2000,
            algo="csac_lb",
            env="tilt",
            seed=0,
            eval_return_mean=-1.5,
            eval_return_std=0.25,
            eval_cost_mean=3.0,
            eval_cost_std=0.0,
            alpha=1.0,
            beta=math.nan,
            mu=3.0,
            actor_loss=0.125,
            critic_loss_r=0.5,
            critic_loss_c=0.5,
        )
        base.update(kw)
        return LogRow(**base)

    def test_header_only_for_empty_rows(self):
        assert log_to_csv([]) == ",".join(LOG_COLUMNS) + "\n"

    def test_header_golden(self):
        header = log_to_csv([]).strip()
        assert header == (
            "step,algo,env,seed,eval_return_mean,eval_return_std,"
            "eval_cost_mean,eval_cost_std,alpha,beta,mu,actor_loss,"
            "critic_loss_r,critic_loss_c"
        )

    def test_nan_renders_empty(self):
        text = log_to_csv([self.row()])
        line = text.splitlines()[1]
        fields = line.split(",")
        assert fields[LOG_COLUMNS.index("beta")] == ""
        assert fields[LOG_COLUMNS.index("mu")] == "3.0"

    def test_floats_render_repr_exact(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = log_to_csv([self.row(actor_loss=value)])
        assert repr(value) in text
        parsed = float(text.splitlines()[1].split(",")[LOG_COLUMNS.index("actor_loss")])
        assert parsed == value


def pin_policy(obs_dim, act_dim):
    """Policy whose mean action is exactly 0 (zero trunk)."""
    out = 2 * act_dim
    return GaussianPolicy(DenseNet([obs_dim, out], np.zeros(out * (obs_dim + 1))), act_dim)


class FrozenPendulum(PendulumEnv):
    """Tilt variant pinned at theta=0 regardless of dynamics, for the
    best-possible-return example."""

    def reset(self, rng):
        obs = super().reset(rng)
        self.state.theta = 0.0
        self.state.omega = 0.0
        return self._obs()

    def step(self, action):
        res = super().step(action)
        self.state.theta = 0.0
        self.state.omega = 0.0
        res.obs = self._obs()
        res.reward, res.cost = 0.0, 0.0
        return res


class TestEvaluate:
    def make_agent(self, env):
        from barrier_rl.agents import make_agent

        return make_agent("csac_lb", env.obs_dim, env.act_dim, np.random.default_rng(0), hidden=(8,))

    def test_pinned_theta_gives_zero_return_and_cost(self):
        env = FrozenPendulum("tilt")
        agent = self.make_agent(env)
        agent.policy = pin_policy(env.obs_dim, env.act_dim)
        r_mean, r_std, c_mean, c_std = evaluate(agent, env, 3, np.random.default_rng(0))
        assert (r_mean, r_std, c_mean, c_std) == (0.0, 0.0, 0.0, 0.0)

    def test_random_policy_tilt_return_near_oracle(self):
        # Untrained (near-random) deterministic policy on Tilt: theta does a
        # slow wrap around the circle, E[theta^2] between the uniform-wrap
        # oracle pi^2/3 (return -660) and worst case pi^2.  Generous band.
        env = make_env("tilt")
        agent = self.make_agent(env)
        r_mean, _, c_mean, _ = evaluate(agent, env, 20, np.random.default_rng(5))
        assert -200.0 * math.pi**2 <= r_mean <= -200.0
        assert 0.0 <= c_mean <= 200.0

    def test_purity_checkpoint_unchanged(self):
        env = make_env("tilt")
        agent = self.make_agent(env)
        scales = ScaleSet()
        cfg = TrainConfig()
        before = checkpoint_to_json(agent, scales, cfg, 0)
        evaluate(agent, env, 2, np.random.default_rng(1), scales, cfg)
        assert checkpoint_to_json(agent, scales, cfg, 0) == before
        assert scales.obs.count == 0

    @pytest.mark.parametrize("normalized", [False, True])
    def test_one_rollout_summed_is_a_one_episode_evaluation(self, normalized):
        env = make_env("tilt")
        agent = self.make_agent(env)
        scales, cfg = None, None
        if normalized:
            scales, cfg = ScaleSet(), TrainConfig()
            for x in np.random.default_rng(2).normal(0.0, 2.0, size=(20, env.obs_dim)):
                scales.obs.update(x)
        steps = list(harness.rollout(agent, env, np.random.default_rng(4), scales, cfg))
        ep_r = ep_c = 0.0
        for _, _, result in steps:
            ep_r += result.reward
            ep_c += result.cost
        stats = evaluate(agent, env, 1, np.random.default_rng(4), scales, cfg)
        assert stats == (ep_r, 0.0, ep_c, 0.0)
        assert len(steps) == env.horizon and steps[-1][2].done
        # yields the raw observation; the policy saw the normalized one
        obs, action, _ = steps[0]
        np.testing.assert_array_equal(obs, make_env("tilt").reset(np.random.default_rng(4)))
        seen = normalize_pipeline(obs, None, None, scales, cfg)[0] if normalized else obs
        np.testing.assert_array_equal(action, policy_mean_action(agent.policy, seen))

    def test_requires_at_least_one_episode(self):
        env = make_env("tilt")
        with pytest.raises(ValueError):
            evaluate(self.make_agent(env), env, 0, np.random.default_rng(0))


class TestTrain:
    def test_zero_steps_empty_log_untouched_weights(self):
        cfg = TrainConfig(total_steps=0, **{k: v for k, v in SMALL.items() if k != "total_steps"})
        run = train(cfg)
        assert run.rows == []
        # weights identical to a fresh agent from the same seed substream
        ss = np.random.SeedSequence(cfg.seed)
        net_rng = np.random.default_rng(ss.spawn(5)[0])
        from barrier_rl.agents import make_agent

        env = make_env(cfg.env)
        fresh = make_agent(
            cfg.algo, env.obs_dim, env.act_dim, net_rng,
            mu=cfg.mu, cost_limit=cfg.cost_limit,
            init_temperature=cfg.init_temperature,
            beta_lr=cfg.beta_lr, rs_penalty=cfg.rs_penalty,
        )
        for a, b in zip(run.agent.policy.trunk.params(), fresh.policy.trunk.params()):
            np.testing.assert_array_equal(a, b)

    def test_below_random_threshold_no_updates(self):
        cfg = TrainConfig(
            total_steps=50, random_steps=100, batch_size=32,
            eval_interval=25, eval_episodes=1,
        )
        run = train(cfg)
        assert "opt" not in vars(run.agent)
        assert all(row.actor_loss == 0.0 for row in run.rows)

    def test_step_accounting(self):
        cfg = TrainConfig(**SMALL)
        run = train(cfg)
        # one update attempt per post-random step; each Adam step count counts
        # the ones with a full batch available
        assert run.agent.opt["qr1"].step_count == cfg.total_steps - cfg.random_steps - max(
            0, cfg.batch_size - cfg.random_steps
        )

    def test_eval_rows_at_interval(self):
        cfg = TrainConfig(**SMALL)
        run = train(cfg)
        assert [row.step for row in run.rows] == [100, 200, 300]
        for row in run.rows:
            assert row.algo == cfg.algo
            assert row.seed == cfg.seed
            assert math.isfinite(row.eval_return_mean)

    def test_bitwise_identical_csv(self, tmp_path):
        cfg = TrainConfig(**SMALL)
        train(dataclasses.replace(cfg), tmp_path / "a")
        train(dataclasses.replace(cfg), tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_bytes() == (
            tmp_path / "b" / "log.csv"
        ).read_bytes()

    def test_seed_changes_csv(self, tmp_path):
        cfg = TrainConfig(**SMALL)
        train(dataclasses.replace(cfg, seed=0), tmp_path / "a")
        train(dataclasses.replace(cfg, seed=1), tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_text() != (
            tmp_path / "b" / "log.csv"
        ).read_text()

    def test_outputs_written(self, tmp_path):
        cfg = TrainConfig(**SMALL)
        out = tmp_path / "run"
        train(cfg, out)
        assert (out / "log.csv").exists()
        assert parse_config(out / "config.json") == cfg
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["env"] == "tilt"
        assert doc["scalars"]["step"] == cfg.total_steps
        assert "obs_scale" in doc

    def test_diverged_run_writes_outputs_and_diagnostic_row(self, tmp_path, monkeypatch):
        real_update = harness.agent_update_step
        calls = []

        def update_that_diverges(*args, **kwargs):
            metrics = real_update(*args, **kwargs)
            calls.append(metrics)
            if len(calls) == 5:
                metrics["critic_loss_c"] = math.inf
            return metrics

        monkeypatch.setattr(harness, "agent_update_step", update_that_diverges)
        # the buffer holds a full batch from the first update call on
        cfg = TrainConfig(
            algo="sac_lag", total_steps=100, random_steps=40, batch_size=32,
            eval_interval=20, eval_episodes=1,
        )
        out = tmp_path / "run"
        with pytest.raises(TrainingDiverged, match="critic_loss_c at step 45"):
            train(cfg, out)
        assert all(m["updated"] == 1.0 for m in calls)
        assert parse_config(out / "config.json") == cfg
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["scalars"]["step"] == 45
        with open(out / "log.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["step"] for row in rows] == ["20", "40", "45"]
        last = rows[-1]
        for col in ("eval_return_mean", "eval_return_std", "eval_cost_mean", "eval_cost_std"):
            assert last[col] == ""
        assert math.isfinite(float(last["beta"]))
        assert last["mu"] == ""
        assert last["critic_loss_c"] == "inf"
        assert math.isfinite(float(last["actor_loss"]))

    def test_nan_actions_on_pointnav_end_in_training_diverged(self, tmp_path, monkeypatch):
        # a policy gone NaN: the env steps on, and the next losses are NaN
        def nan_policy_sample(policy, obs, noise):
            return np.full(policy.act_dim, math.nan), math.nan

        monkeypatch.setattr(harness, "policy_sample", nan_policy_sample)
        cfg = TrainConfig(
            algo="sac_rs", env="pointnav", total_steps=100, random_steps=40, batch_size=32,
            eval_interval=20, eval_episodes=1,
        )
        out = tmp_path / "run"
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(cfg, out)
        doc = json.loads((out / "checkpoint.json").read_text())
        with open(out / "log.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[-1]["step"] == str(doc["scalars"]["step"])
        assert int(rows[-1]["step"]) > cfg.random_steps

    def test_invalid_config_rejected_before_work(self):
        with pytest.raises(ValueError):
            train(TrainConfig(algo="csac_lb", mu=0.5, **SMALL))

    @pytest.mark.parametrize(
        "field,value",
        # only a config file was type-checked: total_steps and seed failed unnamed once the
        # output directory existed, and normalize_obs=1 and eval_interval=2.5 ran
        [("total_steps", 40.0), ("seed", "3"), ("normalize_obs", 1), ("eval_interval", 2.5)],
    )
    def test_mistyped_value_in_code_rejected_by_name_first(self, tmp_path, field, value):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=f"^{field}: expected"):
            train(TrainConfig(**{**SMALL, field: value}), out)
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["sac_lag", "sac_rs"])
    def test_other_algos_run(self, algo):
        cfg = TrainConfig(algo=algo, **SMALL)
        run = train(cfg)
        assert len(run.rows) == 3
        if algo == "sac_lag":
            assert all(math.isfinite(row.beta) for row in run.rows)
            assert all(math.isnan(row.mu) for row in run.rows)
        else:
            assert all(math.isnan(row.beta) for row in run.rows)

    def test_checkpoint_round_trip_through_harness(self):
        from barrier_rl.agents import agent_from_json

        cfg = TrainConfig(**SMALL)
        run = train(cfg)
        text = checkpoint_to_json(run.agent, run.scales, cfg, cfg.total_steps)
        agent, step = agent_from_json(text)
        assert step == cfg.total_steps
        for a, b in zip(
            run.agent.policy.trunk.params(), agent.policy.trunk.params()
        ):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_encoding_peak_memory(self):
        # one network's weights at a time: the peak is the text and its
        # encoder chunks (~2x), not all nine networks at once; base64 of
        # float64 is 10.7 bytes a value, decimal text ~22
        from barrier_rl.agents import agent_to_doc, make_agent

        cfg = TrainConfig(algo="csac_lb", env="tilt")
        env = make_env(cfg.env)
        agent = make_agent(cfg.algo, env.obs_dim, env.act_dim, np.random.default_rng(0))
        tracemalloc.start()
        try:
            text = checkpoint_to_json(agent, ScaleSet(), cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)
        n_params = sum(
            p.size for net in agent_to_doc(agent)["networks"].values() for p in net.params()
        )
        assert len(text) < 1.4 * 8 * n_params


class TestHeapSettings:
    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: object())
        harness._keep_freed_heap()
