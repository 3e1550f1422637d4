import math
import mmap

import numpy as np
import pytest

from barrier_rl.envs import ENV_NAMES, make_env
from barrier_rl.nets import DenseNet, adam_init, init_net
from barrier_rl.sac import (
    LOG_ALPHA_BOUND,
    DoubleQ,
    EntropyTemperature,
    GaussianPolicy,
    ReplayBuffer,
    Transition,
    cost_critic_target,
    policy_mean_action,
    policy_sample,
    reward_critic_target,
    temperature_update,
)


def constant_critic(obs_dim, act_dim, value):
    """Single linear layer with zero weights: constant output, zero input grad."""
    width = obs_dim + act_dim
    return DenseNet([width, 1], np.append(np.zeros(width), float(value)))


def bias_policy(obs_dim, act_dim, mean, log_std):
    """Zero-weight trunk emitting fixed mean / log_std regardless of input."""
    out = 2 * act_dim
    bias = np.concatenate([np.full(act_dim, mean), np.full(act_dim, log_std)])
    trunk = DenseNet([obs_dim, out], np.append(np.zeros(out * obs_dim), bias))
    return GaussianPolicy(trunk, act_dim)


class TestPolicySample:
    def test_zero_mean_zero_noise(self):
        policy = bias_policy(3, 1, mean=0.0, log_std=0.0)
        a, logp = policy_sample(policy, np.zeros(3), np.zeros(1))
        assert a[0] == 0.0
        # squash correction at a=0 is log(1 + 1e-6), essentially zero
        assert logp == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-5)

    def test_tiny_std_is_deterministic(self):
        policy = bias_policy(3, 1, mean=0.7, log_std=-20.0)
        a, _ = policy_sample(policy, np.zeros(3), np.array([5.0]))
        assert a[0] == pytest.approx(math.tanh(0.7), abs=1e-7)

    def test_log_std_clamped(self):
        policy = bias_policy(2, 1, mean=0.0, log_std=50.0)
        # raw log_std 50 clamps to 2, so u = e^2 * noise
        a, _ = policy_sample(policy, np.zeros(2), np.array([1.0]))
        assert a[0] == pytest.approx(math.tanh(math.exp(2.0)))

    def test_actions_strictly_inside_unit_box(self):
        rng = np.random.default_rng(0)
        policy = GaussianPolicy(init_net([4, 16, 4], rng), 2)
        for _ in range(200):
            a, _ = policy_sample(policy, rng.standard_normal(4) * 10, rng.standard_normal(2) * 3)
            assert np.all(np.abs(a) < 1.0)

    def test_density_integrates_to_one(self):
        # k=1: exp(logp) as a density over a in (-1, 1) via the u-grid
        policy = bias_policy(2, 1, mean=0.3, log_std=-0.5)
        std = math.exp(-0.5)
        us = np.linspace(0.3 - 8 * std, 0.3 + 8 * std, 200_001)
        noises = (us - 0.3) / std
        total = 0.0
        du = us[1] - us[0]
        for noise in noises:
            a, logp = policy_sample(policy, np.zeros(2), np.array([noise]))
            # convert density over a to density over u: da = (1 - a^2) du
            total += math.exp(logp) * (1.0 - a[0] ** 2) * du
        assert total == pytest.approx(1.0, abs=1e-3)


class TestMeanAction:
    def test_zero_trunk(self):
        policy = bias_policy(3, 2, mean=0.0, log_std=0.0)
        assert np.all(policy_mean_action(policy, np.zeros(3)) == 0.0)

    def test_limit_of_sampling(self):
        policy = bias_policy(3, 1, mean=-0.4, log_std=0.0)
        a, _ = policy_sample(policy, np.zeros(3), np.zeros(1))
        assert policy_mean_action(policy, np.zeros(3))[0] == pytest.approx(a[0], abs=1e-12)

    def test_golden_snapshot(self):
        rng = np.random.default_rng(123)
        policy = GaussianPolicy(init_net([3, 8, 2], rng), 1)
        a = policy_mean_action(policy, np.array([0.5, -0.2, 1.0]))
        # frozen from the first run of this construction
        assert a[0] == pytest.approx(0.23737928632651487, abs=1e-12)


def _batch(r=1.0, c=1.0, done=0.0, obs_dim=3, act_dim=1, n=4):
    rng = np.random.default_rng(0)
    return {
        "s": rng.standard_normal((n, obs_dim)),
        "a": rng.uniform(-1, 1, (n, act_dim)),
        "r": np.full(n, r),
        "c": np.full(n, c),
        "s_next": rng.standard_normal((n, obs_dim)),
        "done": np.full(n, done),
    }


def column_pair():
    """q1(x) = x[0] and q2(x) = x[1]: each critic's input gradient is one column."""
    q1 = DenseNet([2, 1], np.array([1.0, 0.0, 0.0]))
    return DoubleQ(q1, DenseNet([2, 1], np.array([0.0, 1.0, 0.0])))


class TestPick:
    # rows where q1 is below, above, tied with and below q2
    X = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [-3.0, 4.0]])

    def test_value_is_the_per_row_min_or_max(self):
        assert column_pair().pick(self.X, cost=False)[0].tolist() == [0.0, -1.0, 0.5, -3.0]
        assert column_pair().pick(self.X, cost=True)[0].tolist() == [1.0, 2.0, 0.5, 4.0]

    def test_a_tie_takes_q1(self):
        assert column_pair().pick(self.X, cost=False)[1].tolist() == [True, False, True, True]
        assert column_pair().pick(self.X, cost=True)[1].tolist() == [False, True, True, False]

    @pytest.mark.parametrize("cost", [False, True])
    def test_a_nan_from_either_critic_reaches_the_value(self, cost):
        nan, q = constant_critic(1, 1, math.nan), column_pair().q1
        for pair in (DoubleQ(nan, q), DoubleQ(q, nan)):
            assert np.isnan(pair.pick(self.X, cost)[0]).all()

    @pytest.mark.parametrize("cost", [False, True])
    def test_each_row_gets_its_gradient_from_the_critic_it_took_only(self, cost):
        pair = column_pair()
        _, took_q1, caches = pair.pick(self.X, cost)
        upstream = np.array([1.0, -2.0, 3.0, 0.5])
        # the critic a row did not take adds exactly 0 to that row's column
        expected = np.zeros((4, 2))
        expected[took_q1, 0] = upstream[took_q1]
        expected[~took_q1, 1] = upstream[~took_q1]
        assert pair.input_grad(caches, took_q1, upstream).tolist() == expected.tolist()


class TestCriticTargets:
    def setup_method(self):
        self.policy = bias_policy(3, 1, mean=0.0, log_std=0.0)
        self.stubs = DoubleQ(constant_critic(3, 1, 1.0), constant_critic(3, 1, 2.0))

    def test_done_masks_bootstrap(self):
        batch = _batch(r=3.0, done=1.0)
        y = reward_critic_target(batch, self.stubs, self.policy, 0.99, 0.0, np.random.default_rng(0))
        assert np.all(y == 3.0)

    def test_gamma_zero(self):
        batch = _batch(r=3.0)
        y = reward_critic_target(batch, self.stubs, self.policy, 0.0, 0.5, np.random.default_rng(0))
        assert np.all(y == 3.0)

    def test_min_aggregation(self):
        batch = _batch(r=1.0, done=0.0)
        y = reward_critic_target(batch, self.stubs, self.policy, 0.99, 0.0, np.random.default_rng(0))
        assert np.all(y == pytest.approx(1.0 + 0.99 * 1.0))

    def test_cost_max_aggregation(self):
        batch = _batch(c=0.0, done=0.0)
        y = cost_critic_target(batch, self.stubs, self.policy, 0.99, np.random.default_rng(0))
        assert np.all(y == pytest.approx(1.98))

    def test_cost_done_and_gamma_zero(self):
        batch = _batch(c=2.0, done=1.0)
        y = cost_critic_target(batch, self.stubs, self.policy, 0.99, np.random.default_rng(0))
        assert np.all(y == 2.0)
        batch = _batch(c=2.0, done=0.0)
        y = cost_critic_target(batch, self.stubs, self.policy, 0.0, np.random.default_rng(0))
        assert np.all(y == 2.0)

    def test_entropy_term_in_reward_target(self):
        batch = _batch(r=0.0, done=0.0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        y0 = reward_critic_target(batch, self.stubs, self.policy, 1.0 - 1e-12, 0.0, rng_a)
        y1 = reward_critic_target(batch, self.stubs, self.policy, 1.0 - 1e-12, 1.0, rng_b)
        # alpha > 0 subtracts logp; with a fairly tight policy logp > 0 here is
        # possible, so just require the targets to differ
        assert not np.allclose(y0, y1)

    def test_order_invariance(self):
        # with a (near) deterministic policy the target is a pure function of
        # each row, so permuting the batch permutes the targets
        det_policy = bias_policy(3, 1, mean=0.2, log_std=-20.0)
        batch = _batch(done=0.0)
        perm = [2, 0, 3, 1]
        shuffled = {k: v[perm] for k, v in batch.items()}
        y = reward_critic_target(batch, self.stubs, det_policy, 0.5, 0.0, np.random.default_rng(1))
        y_s = reward_critic_target(
            shuffled, self.stubs, det_policy, 0.5, 0.0, np.random.default_rng(2)
        )
        assert y_s == pytest.approx(y[perm], abs=1e-9)


class TestTemperature:
    def test_zero_gradient_fixed_point(self):
        temp = EntropyTemperature(log_alpha=0.3, target_entropy=-1.0)
        temperature_update(temp, np.array([1.0, 1.0]), 3e-4, adam_init([np.zeros(1)]))
        assert temp.log_alpha == 0.3

    def test_alpha_increases_when_entropy_low(self):
        temp = EntropyTemperature(log_alpha=0.0, target_entropy=-1.0)
        temperature_update(temp, np.array([2.0]), 3e-4, adam_init([np.zeros(1)]))  # logp > -target
        assert temp.log_alpha > 0.0

    def test_adam_variant_matches_recurrence(self):
        temp = EntropyTemperature(log_alpha=0.0, target_entropy=-1.0)
        adam = adam_init([np.zeros(1)])
        temperature_update(temp, np.array([2.0]), 3e-4, adam=adam)
        # first bias-corrected Adam step moves by lr*sign(grad)
        assert temp.log_alpha == pytest.approx(3e-4, rel=1e-6)

    def test_alpha_stays_positive(self):
        # Adam moves log_alpha by about lr a step, so only a large lr reaches the clamp
        for logp, bound in ((-50.0, -LOG_ALPHA_BOUND), (50.0, LOG_ALPHA_BOUND)):
            temp = EntropyTemperature(log_alpha=0.0, target_entropy=-1.0)
            adam = adam_init([np.zeros(1)])
            for _ in range(10):
                temperature_update(temp, np.array([logp]), 100.0, adam)
            assert temp.log_alpha == bound
            assert 0.0 < temp.alpha < math.inf


class TestReplayBuffer:
    def _t(self, i):
        return Transition(np.array([float(i)]), np.array([0.0]), float(i), 0.0, np.array([0.0]), False)

    def test_ring_eviction(self):
        buf = ReplayBuffer(5, 1, 1)
        for i in range(6):
            buf.push(self._t(i))
        rewards = buf.rows[:, buf.columns["r"]]
        assert len(buf) == 5
        assert 0.0 not in rewards[: len(buf)]  # first reward evicted
        assert 5.0 in rewards

    def test_seeded_sampling_reproducible(self):
        buf = ReplayBuffer(100, 1, 1)
        for i in range(50):
            buf.push(self._t(i))
        b1 = buf.sample(10, np.random.default_rng(3))
        b2 = buf.sample(10, np.random.default_rng(3))
        assert np.array_equal(b1["r"], b2["r"])

    def test_unwritten_rows_never_sampled(self):
        # NaN stands in for whatever an unwritten row holds
        buf = ReplayBuffer(100, 1, 1)
        buf.rows.fill(np.nan)
        rng = np.random.default_rng(0)
        pushed = []

        def push(i):
            row = (i + 0.1, i + 0.2, i + 0.3, i + 0.4, i + 0.5, float(i % 2))
            s, a, r, c, s_next, done = row
            buf.push(Transition(np.array([s]), np.array([a]), r, c, np.array([s_next]), done))
            pushed.append(row)

        def sample_rows():
            b = buf.sample(64, rng)
            assert all(np.all(np.isfinite(col)) for col in b.values())
            cols = (b["s"][:, 0], b["a"][:, 0], b["r"], b["c"], b["s_next"][:, 0], b["done"])
            return set(zip(*cols))

        for i in range(70):
            push(i)
        assert sample_rows() <= set(pushed)
        for i in range(70, 130):
            push(i)
        assert sample_rows() <= set(pushed[-100:])

    def test_each_array_owns_its_mapping(self):
        # malloc would put arrays below its (rising) mmap threshold in the heap
        def mapping(arr):
            while isinstance(arr, np.ndarray):
                arr = arr.base
            return arr.obj if isinstance(arr, memoryview) else arr

        buf = ReplayBuffer(1000, 3, 2)
        rows = mapping(buf.rows)
        assert isinstance(rows, mmap.mmap)
        assert buf.rows.shape == (1000, 2 * 3 + 2 + 3)
        assert len(rows) == buf.rows.nbytes == 1000 * 11 * 8
        assert buf.rows.flags.writeable and not buf.rows.any()

    @pytest.mark.parametrize("env_name", ENV_NAMES)
    def test_pushed_transition_samples_back_byte_for_byte(self, env_name):
        env = make_env(env_name)
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(3, env.obs_dim, env.act_dim)
        t = Transition(
            rng.standard_normal(env.obs_dim),
            rng.uniform(-1.0, 1.0, env.act_dim),
            float(rng.standard_normal()),
            0.5,
            rng.standard_normal(env.obs_dim),
            True,
        )
        buf.push(t)
        batch = buf.sample(1, rng)
        for name in ("s", "a", "s_next"):
            assert batch[name].shape == (1, len(getattr(t, name)))
            assert batch[name][0].tobytes() == getattr(t, name).tobytes()
        for name in ("r", "c", "done"):
            assert batch[name].shape == (1,)
            assert batch[name].tobytes() == np.float64(getattr(t, name)).tobytes()

    def test_push_rejects_a_field_of_the_wrong_width(self):
        buf = ReplayBuffer(4, 3, 1)
        one, three = np.array([5.0]), np.zeros(3)
        for t, message in (
            (Transition(one, one, 0.0, 0.0, three, False), "s: shape (1,), expected (3,)"),
            (Transition(three, np.zeros(2), 0.0, 0.0, three, False), "a: shape (2,), expected (1,)"),
            (
                Transition(three, one, 0.0, 0.0, np.zeros((1, 3)), False),
                "s_next: shape (1, 3), expected (3,)",
            ),
        ):
            with pytest.raises(ValueError) as info:
                buf.push(t)
            assert str(info.value) == message
        assert len(buf) == 0 and buf.ptr == 0 and not buf.rows.any()

    def test_rejected_push_keeps_the_oldest_row(self):
        buf = ReplayBuffer(1, 1, 1)
        buf.push(Transition(np.array([1.0]), np.array([2.0]), 3.0, 4.0, np.array([5.0]), True))
        kept = buf.rows.copy()
        one = np.array([9.0])
        for name in ("r", "c", "done"):
            fields = {"r": 0.0, "c": 0.0, "done": False, name: np.array([7.0, 7.0])}
            with pytest.raises(ValueError, match=f"^{name}: "):
                buf.push(Transition(one, one, fields["r"], fields["c"], one, fields["done"]))
            assert buf.rows.tobytes() == kept.tobytes()
            assert (buf.ptr, buf.size) == (0, 1)

    def test_underfilled_sampling_rejected(self):
        buf = ReplayBuffer(100, 1, 1)
        buf.push(self._t(0))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_uniform_histogram(self):
        buf = ReplayBuffer(10, 1, 1)
        for i in range(10):
            buf.push(self._t(i))
        rng = np.random.default_rng(0)
        n = 100_000
        draws = np.concatenate(
            [buf.sample(10, rng)["r"] for _ in range(n // 10)]
        )
        counts = np.bincount(draws.astype(int), minlength=10)
        expected = n / 10
        sigma = math.sqrt(n * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) < 3 * sigma)
