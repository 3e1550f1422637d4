import copy
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from barrier_rl.agents import (
    ALGOS,
    RsConfig,
    SacLagState,
    agent_from_json,
    agent_to_doc,
    agent_update_step,
    csaclb_actor_loss,
    log_scalars,
    make_agent,
    rs_shape,
    sac_actor_loss,
    saclag_actor_loss,
    saclag_beta_update,
)
from barrier_rl.barriers import BarrierConfig
from barrier_rl.envs import make_env
from barrier_rl.harness import RunningScale, ScaleSet, TrainConfig, checkpoint_to_json, evaluate
from barrier_rl.nets import DenseNet, init_net
from barrier_rl.sac import (
    DoubleQ,
    GaussianPolicy,
    ReplayBuffer,
    Transition,
    policy_sample,
)


def same_batch(batch):
    """The identity ``batch_transform``: updates on the raw sampled batch."""
    return batch


def constant_critic(obs_dim, act_dim, value):
    width = obs_dim + act_dim
    return DenseNet([width, 1], np.append(np.zeros(width), float(value)))


def bias_policy(obs_dim, act_dim, mean, log_std):
    out = 2 * act_dim
    bias = np.concatenate([np.full(act_dim, mean), np.full(act_dim, log_std)])
    trunk = DenseNet([obs_dim, out], np.append(np.zeros(out * obs_dim), bias))
    return GaussianPolicy(trunk, act_dim)


def stub_setup(qr, qc):
    """Zero-std policy plus constant critics; returns everything the actor
    losses need along with the (shared) per-sample logp value."""
    obs_dim, act_dim = 3, 1
    policy = bias_policy(obs_dim, act_dim, mean=0.0, log_std=-20.0)
    reward_q = DoubleQ(constant_critic(obs_dim, act_dim, qr), constant_critic(obs_dim, act_dim, qr))
    cost_q = DoubleQ(constant_critic(obs_dim, act_dim, qc), constant_critic(obs_dim, act_dim, qc))
    batch = {"s": np.zeros((4, obs_dim))}
    noise = np.zeros((4, act_dim))
    _, logp = policy_sample(policy, np.zeros(obs_dim), np.zeros(act_dim))
    return batch, policy, reward_q, cost_q, noise, float(logp)


def synthetic_buffer(obs_dim, act_dim, n, rng):
    buf = ReplayBuffer(n, obs_dim, act_dim)
    for _ in range(n):
        buf.push(
            Transition(
                rng.standard_normal(obs_dim),
                np.tanh(rng.standard_normal(act_dim)),
                float(rng.standard_normal()),
                float(rng.integers(0, 2)),
                rng.standard_normal(obs_dim),
                bool(rng.integers(0, 2)),
            )
        )
    return buf


UPDATE_CONFIG = SimpleNamespace(
    batch_size=16,
    gamma=0.99,
    gamma_cost=0.99,
    critic_lr=3e-4,
    actor_lr=3e-4,
    temp_lr=3e-4,
    tau=0.005,
    target_update_every=2,
)


class TestCsacLbActorLoss:
    def test_dead_zone_stub(self):
        # Q_c = -1 sits in the barrier dead zone: loss = alpha*logp - Q_r
        batch, policy, reward_q, cost_q, noise, logp = stub_setup(qr=2.0, qc=-1.0)
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        loss, _, aux = csaclb_actor_loss(batch, policy, reward_q, cost_q, 1.0, cfg, noise)
        assert loss - logp == pytest.approx(-2.0, abs=1e-12)
        assert aux["mean_qc"] == -1.0

    def test_active_barrier_stub(self):
        batch, policy, reward_q, cost_q, noise, logp = stub_setup(qr=2.0, qc=0.5)
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        loss, _, _ = csaclb_actor_loss(batch, policy, reward_q, cost_q, 1.0, cfg, noise)
        # shifted barrier at 0.5 with mu=2: -(1/2)*ln(0.5) = 0.346574
        assert loss - logp == pytest.approx(-2.0 + 0.346574, abs=1e-6)


class TestSacLagActorLoss:
    def test_beta_zero_matches_plain_sac(self):
        rng = np.random.default_rng(3)
        policy = GaussianPolicy(init_net([3, 4, 2], rng), 1)
        reward_q = DoubleQ(init_net([4, 4, 1], rng), init_net([4, 4, 1], rng))
        cost_q = DoubleQ(init_net([4, 4, 1], rng), init_net([4, 4, 1], rng))
        batch = {"s": rng.standard_normal((8, 3))}
        noise = rng.standard_normal((8, 1))
        l_lag, g_lag, _ = saclag_actor_loss(batch, policy, reward_q, cost_q, 0.2, 0.0, noise)
        l_sac, g_sac, _ = sac_actor_loss(batch, policy, reward_q, cost_q, 0.2, noise)
        assert l_lag == l_sac
        for ga, gb in zip(g_lag, g_sac):
            np.testing.assert_array_equal(ga, gb)

    def test_stub_value(self):
        batch, policy, reward_q, cost_q, noise, logp = stub_setup(qr=2.0, qc=1.0)
        loss, _, _ = saclag_actor_loss(batch, policy, reward_q, cost_q, 1.0, 0.5, noise)
        assert loss - logp == pytest.approx(-1.5, abs=1e-12)

    def test_negative_beta_rejected(self):
        batch, policy, reward_q, cost_q, noise, _ = stub_setup(qr=0.0, qc=0.0)
        with pytest.raises(ValueError):
            saclag_actor_loss(batch, policy, reward_q, cost_q, 1.0, -0.1, noise)


def flat_params(net):
    return np.concatenate([p.ravel() for p in net.params()])


@pytest.mark.parametrize("which", ["csac_lb", "sac_lag", "sac"])
def test_actor_gradients_match_finite_differences(which):
    rng = np.random.default_rng(11)
    obs_dim, act_dim = 3, 1
    policy = GaussianPolicy(init_net([obs_dim, 2, 2 * act_dim], rng), act_dim)
    reward_q = DoubleQ(init_net([4, 4, 1], rng), init_net([4, 4, 1], rng))
    cost_q = DoubleQ(init_net([4, 4, 1], rng), init_net([4, 4, 1], rng))
    # shift cost critics up so the barrier is active for some samples
    cost_q.q1.biases[-1] += 0.6
    cost_q.q2.biases[-1] += 0.4
    batch = {"s": rng.standard_normal((16, obs_dim))}
    noise = rng.standard_normal((16, act_dim))
    alpha = 0.3
    cfg = BarrierConfig(mu=2.0, cost_limit=0.0)

    def loss_fn():
        if which == "csac_lb":
            return csaclb_actor_loss(batch, policy, reward_q, cost_q, alpha, cfg, noise)
        if which == "sac_lag":
            return saclag_actor_loss(batch, policy, reward_q, cost_q, alpha, 0.7, noise)
        return sac_actor_loss(batch, policy, reward_q, cost_q, alpha, noise)

    _, grads, _ = loss_fn()
    eps = 1e-6
    params = policy.trunk.params()
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + eps
            hi = loss_fn()[0]
            p[i] = orig - eps
            lo = loss_fn()[0]
            p[i] = orig
            fd = (hi - lo) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestBetaUpdate:
    def test_violation_grows_beta(self):
        st = saclag_beta_update(SacLagState(beta=0.0, beta_lr=3e-4), mean_qc=2.0, d=0.0)
        assert st.beta == pytest.approx(6e-4)

    def test_clamped_at_zero(self):
        st = saclag_beta_update(SacLagState(beta=1e-4, beta_lr=3e-4), mean_qc=-5.0, d=0.0)
        assert st.beta == 0.0

    def test_fixed_point(self):
        st = saclag_beta_update(SacLagState(beta=0.25, beta_lr=3e-4), mean_qc=1.5, d=1.5)
        assert st.beta == 0.25

    def test_monotone_while_violating(self):
        st = SacLagState(beta=0.0, beta_lr=3e-4)
        prev = st.beta
        for _ in range(50):
            saclag_beta_update(st, mean_qc=0.8, d=0.0)
            assert st.beta > prev
            prev = st.beta

    def test_nonincreasing_and_floored_while_safe(self):
        st = SacLagState(beta=2e-3, beta_lr=3e-4)
        prev = st.beta
        for _ in range(50):
            saclag_beta_update(st, mean_qc=-1.0, d=0.0)
            assert st.beta <= prev
            assert st.beta >= 0.0
            prev = st.beta

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            SacLagState(beta=-1.0)

    @pytest.mark.parametrize(
        "name,value",
        # each once passed: NaN compares false, and beta_lr was not checked at all
        [("beta", math.nan), ("beta_lr", math.nan), ("beta_lr", -1.0), ("beta_lr", 0.0)],
    )
    def test_nan_beta_or_bad_rate_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SacLagState(**{name: value})


class TestRsShape:
    def make(self, r, c, done=False):
        return Transition(np.zeros(2), np.zeros(1), r, c, np.zeros(2), done)

    def test_safe_step_unchanged(self):
        t = rs_shape(self.make(r=1.0, c=0.0), RsConfig())
        assert t.r == 1.0
        assert t.done is False

    def test_violation_penalized_and_terminal(self):
        before = self.make(r=1.0, c=1.0)
        t = rs_shape(before, RsConfig())
        assert t.r == -29.0
        assert t.done is True
        # every other field is the same object; the input is left as it was
        for name in ("s", "a", "c", "s_next"):
            assert getattr(t, name) is getattr(before, name)
        assert (before.r, before.done) == (1.0, False)

    def test_single_violation_per_episode(self):
        # The first violation terminates, so a shaped episode can contain at
        # most one penalized step: verify by simulating the episode loop.
        rng = np.random.default_rng(0)
        penalized = 0
        for _ in range(1000):
            t = rs_shape(self.make(r=0.0, c=float(rng.integers(0, 2))), RsConfig())
            if t.c > 0:
                penalized += 1
                assert t.done is True
                break
        assert penalized <= 1

    def test_nonnegative_penalty_rejected(self):
        with pytest.raises(ValueError):
            RsConfig(penalty=0.0)

    @pytest.mark.parametrize("penalty", [math.nan, -math.inf])
    def test_non_finite_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="^rs_penalty must be negative and finite"):
            RsConfig(penalty=penalty)


class TestBarrierProperties:
    def test_dead_zone_reduces_to_plain_sac_gradient(self):
        # Cost critic frozen at values <= d everywhere: CSAC-LB gradient
        # equals the plain SAC gradient exactly.
        rng = np.random.default_rng(7)
        policy = GaussianPolicy(init_net([3, 4, 2], rng), 1)
        reward_q = DoubleQ(init_net([4, 4, 1], rng), init_net([4, 4, 1], rng))
        cost_q = DoubleQ(constant_critic(3, 1, -0.5), constant_critic(3, 1, -2.0))
        batch = {"s": rng.standard_normal((8, 3))}
        noise = rng.standard_normal((8, 1))
        cfg = BarrierConfig(mu=3.0, cost_limit=0.0)
        l_b, g_b, _ = csaclb_actor_loss(batch, policy, reward_q, cost_q, 0.4, cfg, noise)
        l_s, g_s, _ = sac_actor_loss(batch, policy, reward_q, cost_q, 0.4, noise)
        assert l_b == l_s
        for ga, gb in zip(g_b, g_s):
            np.testing.assert_array_equal(ga, gb)

    def test_penalty_nondecreasing_with_slope_capped_at_mu(self):
        batch, policy, reward_q, _, noise, _ = stub_setup(qr=0.0, qc=0.0)
        cfg = BarrierConfig(mu=3.0, cost_limit=0.0)
        qcs = np.linspace(-2.0, 4.0, 61)
        losses = []
        for qc in qcs:
            cost_q = DoubleQ(constant_critic(3, 1, qc), constant_critic(3, 1, qc))
            loss, _, _ = csaclb_actor_loss(batch, policy, reward_q, cost_q, 0.0, cfg, noise)
            losses.append(loss)
        losses = np.asarray(losses)
        diffs = np.diff(losses)
        h = qcs[1] - qcs[0]
        assert np.all(diffs >= 0.0)
        assert np.all(diffs / h <= cfg.mu + 1e-9)


def agent_param_arrays(agent):
    return [p for net in agent.networks().values() for p in net.params()]


class TestUpdateStep:
    def test_underfilled_buffer_is_noop(self):
        rng = np.random.default_rng(0)
        agent = make_agent("csac_lb", 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, UPDATE_CONFIG.batch_size - 1, rng)
        before = [p.copy() for p in agent_param_arrays(agent)]
        metrics = agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        assert metrics == {"updated": 0.0}
        for b, p in zip(before, agent_param_arrays(agent)):
            np.testing.assert_array_equal(b, p)

    def test_polyak_moves_targets_by_tau_fraction(self):
        rng = np.random.default_rng(1)
        agent = make_agent("sac_rs", 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        cfg = copy.copy(UPDATE_CONFIG)
        cfg.target_update_every = 1
        t_before = [p.copy() for p in agent.reward_q_target.q1.params()]
        agent_update_step(agent, buf, cfg, rng, same_batch)
        online = agent.reward_q.q1.params()
        for tb, ta, on in zip(t_before, agent.reward_q_target.q1.params(), online):
            np.testing.assert_allclose(ta, tb + cfg.tau * (on - tb), rtol=0, atol=1e-15)

    def test_target_update_cadence(self):
        rng = np.random.default_rng(2)
        agent = make_agent("sac_rs", 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        t0 = [p.copy() for p in agent.reward_q_target.q1.params()]
        agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)  # step 1: no target move
        for a, b in zip(t0, agent.reward_q_target.q1.params()):
            np.testing.assert_array_equal(a, b)
        agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)  # step 2: targets move
        moved = any(
            not np.array_equal(a, b)
            for a, b in zip(t0, agent.reward_q_target.q1.params())
        )
        assert moved

    @pytest.mark.parametrize("algo", ALGOS)
    def test_bitwise_deterministic(self, algo):
        def run():
            rng = np.random.default_rng(42)
            agent = make_agent(algo, 3, 1, rng, hidden=(8,))
            buf = synthetic_buffer(3, 1, 64, rng)
            metrics = [
                agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch) for _ in range(3)
            ]
            return metrics, [p.copy() for p in agent_param_arrays(agent)]

        m1, p1 = run()
        m2, p2 = run()
        assert m1 == m2
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_shapes_preserved_and_finite(self, algo):
        rng = np.random.default_rng(5)
        agent = make_agent(algo, 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        shapes = [p.shape for p in agent_param_arrays(agent)]
        for _ in range(5):
            metrics = agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
            assert metrics["updated"] == 1.0
            for k in ("critic_loss_r", "critic_loss_c", "actor_loss"):
                assert math.isfinite(metrics[k]), k
            assert math.isfinite(log_scalars(agent)["alpha"])
        assert [p.shape for p in agent_param_arrays(agent)] == shapes
        for p in agent_param_arrays(agent):
            assert np.all(np.isfinite(p))

    def test_saclag_reports_beta(self):
        rng = np.random.default_rng(6)
        agent = make_agent("sac_lag", 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        scalars = log_scalars(agent)
        assert math.isfinite(scalars["beta"])
        assert math.isnan(scalars["mu"])

    def test_csaclb_reports_mu(self):
        rng = np.random.default_rng(6)
        agent = make_agent("csac_lb", 3, 1, rng, hidden=(8,), mu=3.0)
        buf = synthetic_buffer(3, 1, 64, rng)
        agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        scalars = log_scalars(agent)
        assert scalars["mu"] == 3.0
        assert math.isnan(scalars["beta"])


class TestAgentConstruction:
    def test_mu_at_most_one_rejected_for_csaclb(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_agent("csac_lb", 3, 1, rng, hidden=(8,), mu=1.0)

    def test_unknown_algo_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_agent("ppo", 3, 1, rng, hidden=(8,))

    @pytest.mark.parametrize("algo", ALGOS)
    def test_checkpoint_round_trip(self, algo):
        rng = np.random.default_rng(9)
        agent = make_agent(algo, 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        text = checkpoint_to_json(agent, ScaleSet(), TrainConfig(algo=algo), 123)
        restored, step = agent_from_json(text)
        assert step == 123
        assert restored.algo == algo
        assert restored.temp.log_alpha == agent.temp.log_alpha
        assert restored.lag.beta == agent.lag.beta
        assert restored.barrier.mu == agent.barrier.mu
        for a, b in zip(
            agent_param_arrays(agent), agent_param_arrays(restored)
        ):
            np.testing.assert_array_equal(a, b)

    def test_loading_decodes_the_targets_and_copies_no_network(self, monkeypatch):
        agent = make_agent("csac_lb", 3, 1, np.random.default_rng(11), hidden=(8,))
        agent.cost_q_target.q2.flat[:] += 1.0  # a target that is not its critic's copy
        text = checkpoint_to_json(agent, ScaleSet(), TrainConfig(), 0)

        def no_copy(net):
            raise AssertionError("a network was copied")

        monkeypatch.setattr(DenseNet, "copy", no_copy)
        restored, _ = agent_from_json(text)
        for a, b in zip(agent_param_arrays(agent), agent_param_arrays(restored)):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_keeps_rs_penalty_and_beta_lr(self):
        rng = np.random.default_rng(10)
        agent = make_agent(
            "sac_rs", 3, 1, rng, hidden=(8,), rs_penalty=-5.0, beta_lr=1e-2
        )
        restored, _ = agent_from_json(checkpoint_to_json(agent, ScaleSet(), TrainConfig(), 0))
        assert restored.rs.penalty == -5.0
        assert restored.lag.beta_lr == 1e-2


def decoded_keys(agent):
    """Keys of the networks whose parameters have been read (so decoded, if loaded)."""
    return [key for key, net in agent.networks().items() if "payload" not in vars(net)]


class TestLoadOnFirstRead:
    def test_building_an_agent_reads_no_network_and_makes_no_network_adam_state(self):
        agent = make_agent("csac_lb", 3, 1, np.random.default_rng(12), hidden=(8,))
        assert "opt" not in vars(agent)
        restored, _ = agent_from_json(checkpoint_to_json(agent, ScaleSet(), TrainConfig(), 0))
        assert "opt" not in vars(restored)
        assert decoded_keys(restored) == []

    @pytest.mark.parametrize("algo", ALGOS)
    def test_first_update_equals_one_with_adam_states_made_up_front(self, algo):
        lazy, eager = (
            make_agent(algo, 3, 1, np.random.default_rng(13), hidden=(8,)) for _ in range(2)
        )
        eager.opt  # the reference: every state made before any update
        metrics = []
        for agent in (lazy, eager):
            rng = np.random.default_rng(14)
            buf = synthetic_buffer(3, 1, 64, rng)
            metrics.append(repr(agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)))
        assert metrics[0] == metrics[1]
        for a, b in zip(agent_param_arrays(lazy), agent_param_arrays(eager)):
            assert a.tobytes() == b.tobytes()
        assert list(lazy.opt) == list(eager.opt)
        for name in lazy.opt:
            got, want = lazy.opt[name], eager.opt[name]
            assert got.step_count == want.step_count == 1
            for m, n in zip(
                got.first_moment + got.second_moment, want.first_moment + want.second_moment
            ):
                assert m.tobytes() == n.tobytes()

    @pytest.mark.parametrize("env_name", ["tilt", "pointnav"])
    def test_evaluate_of_a_loaded_agent_decodes_only_the_policy(self, env_name):
        env = make_env(env_name)
        rng = np.random.default_rng(15)
        agent = make_agent("csac_lb", env.obs_dim, env.act_dim, rng, hidden=(8,))
        text = checkpoint_to_json(agent, ScaleSet(), TrainConfig(env=env_name), 0)
        restored, _ = agent_from_json(text)
        got = evaluate(restored, env, 1, np.random.default_rng(16))
        assert decoded_keys(restored) == ["policy"]
        assert repr(got) == repr(evaluate(agent, env, 1, np.random.default_rng(16)))

    @pytest.mark.parametrize("algo", ALGOS)
    def test_resaving_a_loaded_agent_gives_its_text_byte_for_byte(self, algo):
        env = make_env("swing")
        rng = np.random.default_rng(17)
        agent = make_agent(algo, env.obs_dim, env.act_dim, rng, hidden=(8,))
        buf = synthetic_buffer(env.obs_dim, env.act_dim, 64, rng)
        for _ in range(3):
            agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        scales = ScaleSet()
        for obs in rng.normal(size=(20, env.obs_dim)):
            scales.obs.update(obs)
        config = TrainConfig(algo=algo, env="swing")
        text = checkpoint_to_json(agent, scales, config, 77)

        restored, step = agent_from_json(text)
        loaded = ScaleSet(obs=RunningScale.from_state(json.loads(text)["obs_scale"]))
        evaluate(restored, env, 1, rng, loaded, config)
        assert checkpoint_to_json(restored, loaded, config, step) == text


TRAINED = ("policy", "qr1", "qr2", "qc1", "qc2", "log_alpha")


class TestTrainingStateRoster:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_one_adam_state_per_trained_checkpoint_name(self, algo):
        rng = np.random.default_rng(18)
        agent = make_agent(algo, 3, 1, rng, hidden=(8,))
        agent_update_step(agent, synthetic_buffer(3, 1, 64, rng), UPDATE_CONFIG, rng, same_batch)
        assert list(agent.opt) == list(TRAINED)
        doc = agent_to_doc(agent)
        for name in agent.opt:
            assert name in doc["networks"] or name in doc["scalars"], name

    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_step_count_is_the_number_of_real_updates(self, algo):
        rng = np.random.default_rng(19)
        agent = make_agent(algo, 3, 1, rng, hidden=(8,))
        short = synthetic_buffer(3, 1, UPDATE_CONFIG.batch_size - 1, rng)
        full = synthetic_buffer(3, 1, 64, rng)
        updates = 0
        for buf in (full, short, full, short, full):
            metrics = agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
            updates += metrics["updated"] == 1.0
        assert updates == 3
        assert {name: state.step_count for name, state in agent.opt.items()} == dict.fromkeys(
            TRAINED, updates
        )

    def test_a_loaded_agent_counts_its_updates_from_zero(self):
        rng = np.random.default_rng(20)
        agent = make_agent("csac_lb", 3, 1, rng, hidden=(8,))
        buf = synthetic_buffer(3, 1, 64, rng)
        for _ in range(3):
            agent_update_step(agent, buf, UPDATE_CONFIG, rng, same_batch)
        restored, _ = agent_from_json(checkpoint_to_json(agent, ScaleSet(), TrainConfig(), 3))
        agent_update_step(restored, buf, UPDATE_CONFIG, rng, same_batch)
        assert {state.step_count for state in restored.opt.values()} == {1}
