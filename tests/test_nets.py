import json

import numpy as np
import pytest

from barrier_rl.nets import (
    AdamState,
    DenseNet,
    adam_init,
    adam_step,
    init_net,
    net_forward,
    net_from_doc,
    net_to_doc,
    net_value_and_grad,
    polyak_update,
)


def straight_line_forward(net, x):
    """Independent oracle: explicit loops, no shared code path."""
    h = np.array(x, dtype=np.float64)
    for i in range(len(net.weights)):
        out = np.empty(net.layer_sizes[i + 1])
        for j in range(net.layer_sizes[i + 1]):
            out[j] = float(np.dot(net.weights[i][j], h)) + net.biases[i][j]
        if i != len(net.weights) - 1:
            out = np.where(out > 0, out, 0.0)
        h = out
    return h


class TestForward:
    def test_zero_weights_give_bias(self):
        net = DenseNet([3, 2], [np.zeros((2, 3))], [np.array([1.5, -0.5])])
        assert np.array_equal(net_forward(net, np.zeros(3)), [1.5, -0.5])

    def test_identity_layer(self):
        net = DenseNet([3, 3], [np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(net_forward(net, x), x)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        net = init_net([4, 8, 8, 2], rng)
        x = rng.standard_normal(4)
        assert net_forward(net, x) == pytest.approx(straight_line_forward(net, x), abs=1e-12)

    def test_batch_shapes(self):
        rng = np.random.default_rng(0)
        net = init_net([4, 8, 2], rng)
        y = net_forward(net, rng.standard_normal((5, 4)))
        assert y.shape == (5, 2)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        net = init_net([4, 8, 2], rng)
        with pytest.raises(ValueError):
            net_forward(net, np.zeros(3))


class TestValueAndGrad:
    def test_linear_at_minimum_zero_grads(self):
        # y = wx, loss (y - t)^2 with w such that y == t
        net = DenseNet([1, 1], [np.array([[2.0]])], [np.array([0.0])])
        x = np.array([[3.0]])
        target = 6.0
        y, grads, _ = net_value_and_grad(net, x, 2.0 * (net_forward(net, x) - target))
        assert all(np.all(g == 0) for g in grads)

    def test_linear_analytic_gradient(self):
        w, x, t = 1.5, 2.0, 1.0
        net = DenseNet([1, 1], [np.array([[w]])], [np.array([0.0])])
        y, grads, _ = net_value_and_grad(
            net, np.array([[x]]), 2.0 * (net_forward(net, np.array([[x]])) - t)
        )
        assert grads[0][0, 0] == pytest.approx(2.0 * (w * x - t) * x, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = init_net([3, 16, 16, 2], rng)
        x = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 2))

        def loss(n):
            return float(np.mean((net_forward(n, x) - target) ** 2))

        y = net_forward(net, x)
        upstream = 2.0 * (y - target) / y.size
        _, grads, _ = net_value_and_grad(net, x, upstream)
        h = 1e-5
        params = net.params()
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for idx in range(0, flat_p.size, max(1, flat_p.size // 10)):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = loss(net)
                flat_p[idx] = orig - h
                down = loss(net)
                flat_p[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - flat_g[idx]) <= 1e-4 * max(1.0, abs(fd))

    def test_input_gradient(self):
        rng = np.random.default_rng(3)
        net = init_net([4, 8, 1], rng)
        x = rng.standard_normal(4)
        _, _, dx = net_value_and_grad(net, x, np.ones(1))
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (net_forward(net, xp)[0] - net_forward(net, xm)[0]) / (2 * h)
            assert dx[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_upstream_shape_mismatch(self):
        rng = np.random.default_rng(0)
        net = init_net([4, 8, 2], rng)
        with pytest.raises(ValueError):
            net_value_and_grad(net, np.zeros((3, 4)), np.zeros((3, 1)))


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = [np.array([1.0, 2.0])]
        state = adam_init(p)
        adam_step(state, p, [np.zeros(2)], 1e-3)
        assert np.array_equal(p[0], [1.0, 2.0])
        assert state.step_count == 1

    def test_first_step_magnitude_is_lr(self):
        for g in [0.01, -3.0, 1e4]:
            p = [np.array([0.0])]
            state = adam_init(p)
            adam_step(state, p, [np.array([g])], 1e-3)
            assert abs(abs(p[0][0]) - 1e-3) <= 1e-3 * 1e-6
            assert np.sign(p[0][0]) == -np.sign(g)

    def test_two_steps_match_hand_unrolled_recurrence(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        grads = [0.7, -0.3]
        # independent scalar recurrence
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = [np.array([1.0])]
        state = adam_init(p)
        for g in grads:
            adam_step(state, p, [np.array([g])], lr)
        assert p[0][0] == pytest.approx(theta, abs=1e-15)

    def test_shape_mismatch(self):
        p = [np.zeros(2)]
        state = adam_init(p)
        with pytest.raises(ValueError):
            adam_step(state, p, [np.zeros(3)], 1e-3)


class TestPolyak:
    def test_tau_one_copies(self):
        t, o = [np.zeros(3)], [np.array([1.0, 2.0, 3.0])]
        polyak_update(t, o, 1.0)
        assert np.array_equal(t[0], o[0])

    def test_tau_zero_freezes(self):
        t, o = [np.array([5.0])], [np.array([1.0])]
        polyak_update(t, o, 0.0)
        assert t[0][0] == 5.0

    def test_paper_factor(self):
        t, o = [np.array([0.0])], [np.array([1.0])]
        polyak_update(t, o, 0.005)
        assert t[0][0] == pytest.approx(0.005, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 0.005, 0.3, 1.0])
    def test_fixed_point(self, tau):
        o = [np.array([1.2, -0.4])]
        t = [o[0].copy()]
        polyak_update(t, o, tau)
        assert t[0] == pytest.approx(o[0], abs=1e-15)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            polyak_update([np.zeros(1)], [np.zeros(1)], 1.5)


class TestSerialization:
    def test_round_trip_value_exact(self):
        rng = np.random.default_rng(11)
        net = init_net([3, 16, 2], rng)
        restored = net_from_doc(json.loads(json.dumps(net_to_doc(net))))
        assert restored.layer_sizes == net.layer_sizes
        for a, b in zip(net.params(), restored.params()):
            assert np.array_equal(a, b)

    def test_schema(self):
        rng = np.random.default_rng(0)
        doc = net_to_doc(init_net([2, 4, 1], rng))
        assert set(doc) == {"layer_sizes", "weights", "biases"}
        assert doc["layer_sizes"] == [2, 4, 1]
        assert len(doc["weights"][0]) == 4  # row-major: fan_out rows


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        n1 = init_net([3, 32, 1], np.random.default_rng(99))
        n2 = init_net([3, 32, 1], np.random.default_rng(99))
        for a, b in zip(n1.params(), n2.params()):
            assert np.array_equal(a, b)
        x = np.random.default_rng(5).standard_normal((4, 3))
        assert np.array_equal(net_forward(n1, x), net_forward(n2, x))

    def test_init_bound(self):
        net = init_net([4, 64, 1], np.random.default_rng(0))
        assert np.max(np.abs(net.weights[0])) <= 0.5  # 1/sqrt(4)
