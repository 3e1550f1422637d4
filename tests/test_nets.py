import base64
import json
import math

import numpy as np
import pytest

from barrier_rl.agents import make_agent
from barrier_rl.envs import ENV_NAMES, make_env
from barrier_rl.nets import (
    AdamState,
    DenseNet,
    _backward,
    _forward_cache,
    adam_init,
    adam_step,
    init_net,
    net_forward,
    net_from_doc,
    net_to_doc,
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
        net = DenseNet([3, 2], np.append(np.zeros(6), [1.5, -0.5]))
        assert np.array_equal(net_forward(net, np.zeros(3)), [1.5, -0.5])

    def test_identity_layer(self):
        net = DenseNet([3, 3], np.append(np.eye(3), np.zeros(3)))
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

    @pytest.mark.parametrize("x", [np.zeros(5), np.zeros((2, 3)), np.zeros((1, 5))])
    def test_width_mismatch_raises_for_vectors_and_matrices(self, x):
        net = init_net([4, 8, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="input width"):
            net_forward(net, x)

    @pytest.mark.parametrize("env_name", ENV_NAMES)
    def test_vector_forward_equals_one_row_forward_bit_for_bit(self, env_name):
        env = make_env(env_name)
        rng = np.random.default_rng(5)
        agent = make_agent("csac_lb", env.obs_dim, env.act_dim, rng)
        for net in (agent.policy.trunk, agent.reward_q.q1):
            for _ in range(100):
                x = rng.standard_normal(net.layer_sizes[0]) * rng.uniform(0.1, 10.0)
                one = net_forward(net, x)
                row = net_forward(net, x[None])
                assert one.shape == (net.layer_sizes[-1],)
                assert one.tobytes() == row[0].tobytes()


def value_and_grad(net, x, upstream):
    """Outputs, parameter grads and input grads of one cached forward/backward pair."""
    y, inputs = _forward_cache(net, x)
    grads, dx = _backward(net, inputs, upstream, want_params=True)
    return y, grads, dx


class TestSingleForwardPass:
    @pytest.mark.parametrize("env_name", ENV_NAMES)
    def test_plain_forward_is_the_training_forward_bit_for_bit(self, env_name):
        env = make_env(env_name)
        rng = np.random.default_rng(11)
        agent = make_agent("csac_lb", env.obs_dim, env.act_dim, rng)
        for net in (agent.policy.trunk, agent.cost_q.q1):
            width = net.layer_sizes[0]
            for x in (rng.standard_normal(width), rng.standard_normal((256, width)) * 3.0):
                out, inputs = _forward_cache(net, x)
                assert net_forward(net, x).tobytes() == out.tobytes()
                assert len(inputs) == len(net.weights)
                assert inputs[0].tobytes() == x.tobytes()
                assert all(np.all(h >= 0.0) for h in inputs[1:])

    def test_minus_inf_pre_activation_gives_zero_and_nan_propagates(self):
        # x * 10 overflows to -inf in the first unit; the output is then b1
        net = DenseNet([1, 2, 1], np.array([10.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.5]))
        x = np.array([[-1e308], [np.nan], [2.0]])
        with np.errstate(over="ignore"):
            for rows in (x, x[0], x[1]):
                out, inputs = _forward_cache(net, rows)
                assert net_forward(net, rows).tobytes() == out.tobytes()
            out, inputs = _forward_cache(net, x)
        assert out[0, 0] == 0.5 and np.array_equal(inputs[1][0], [0.0, 0.0])
        assert np.isnan(out[1, 0]) and np.isnan(inputs[1][1]).all()
        assert out[2, 0] == 20.0 + 2.0 + 0.5
        _, dx = _backward(net, inputs, np.ones((3, 1)), want_params=False)
        assert dx[0, 0] == 0.0 and dx[2, 0] == 11.0


class TestValueAndGrad:
    def test_linear_at_minimum_zero_grads(self):
        # y = wx, loss (y - t)^2 with w such that y == t
        net = DenseNet([1, 1], np.array([2.0, 0.0]))
        x = np.array([[3.0]])
        target = 6.0
        y, grads, _ = value_and_grad(net, x, 2.0 * (net_forward(net, x) - target))
        assert all(np.all(g == 0) for g in grads)

    def test_linear_analytic_gradient(self):
        w, x, t = 1.5, 2.0, 1.0
        net = DenseNet([1, 1], np.array([w, 0.0]))
        y, grads, _ = value_and_grad(
            net, np.array([[x]]), 2.0 * (net_forward(net, np.array([[x]])) - t)
        )
        assert grads[0][0] == pytest.approx(2.0 * (w * x - t) * x, abs=1e-12)

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
        _, grads, _ = value_and_grad(net, x, upstream)
        h = 1e-5
        # sample each W and b on its own, through views of the flat arrays
        grad_net = DenseNet(net.layer_sizes, grads[0])
        for p, g in zip(net.weights + net.biases, grad_net.weights + grad_net.biases):
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
        _, _, dx = value_and_grad(net, x[None, :], np.ones((1, 1)))
        h = 1e-6
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (net_forward(net, xp)[0] - net_forward(net, xm)[0]) / (2 * h)
            assert dx[0, i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


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

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan])
    def test_non_positive_or_nan_rate_rejected(self, lr):
        p = [np.ones(2)]
        state = adam_init(p)
        with pytest.raises(ValueError, match="lr"):
            adam_step(state, p, [np.ones(2)], lr)
        assert state.step_count == 0 and np.array_equal(p[0], [1.0, 1.0])


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

    def test_special_values_round_trip_bit_exact(self):
        net = init_net([2, 3, 1], np.random.default_rng(1))
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]
        net.weights[0].flat[: len(special)] = special
        restored = net_from_doc(json.loads(json.dumps(net_to_doc(net))))
        for a, b in zip(net.params(), restored.params()):
            assert a.tobytes() == b.tobytes()

    def test_decoded_arrays_writable_and_contiguous(self):
        net = init_net([3, 5, 4, 2], np.random.default_rng(2))
        restored = net_from_doc(json.loads(json.dumps(net_to_doc(net))))
        for p in restored.params():
            assert p.flags.writeable and p.flags.c_contiguous
        # in-place optimizer steps work on the decoded arrays
        polyak_update(restored.params(), net.params(), 0.5)

    def test_schema(self):
        rng = np.random.default_rng(0)
        net = init_net([2, 4, 1], rng)
        doc = net_to_doc(net)
        assert set(doc) == {"layer_sizes", "params"}
        assert doc["layer_sizes"] == [2, 4, 1]
        # params() order, row-major, little-endian float64
        raw = base64.b64decode(doc["params"])
        expected = np.concatenate([p.ravel() for p in net.params()])
        assert raw == expected.astype("<f8").tobytes()

    def test_short_payload_rejected(self):
        net = init_net([2, 4, 1], np.random.default_rng(3))
        raw = np.concatenate([p.ravel() for p in net.params()])[:-1].astype("<f8")
        doc = {"layer_sizes": [2, 4, 1], "params": base64.b64encode(raw).decode()}
        with pytest.raises(ValueError, match="need 17 float64 values"):
            net_from_doc(doc)

    def test_payload_of_partial_value_rejected(self):
        net = init_net([2, 4, 1], np.random.default_rng(3))
        raw = net.flat.astype("<f8").tobytes() + b"\x00\x00\x00"
        doc = {"layer_sizes": [2, 4, 1], "params": base64.b64encode(raw).decode()}
        with pytest.raises(ValueError):
            net_from_doc(doc)

    def test_non_base64_payload_rejected(self):
        doc = net_to_doc(init_net([2, 4, 1], np.random.default_rng(4)))
        # a lenient decoder would skip the "*" and return the right weights
        doc["params"] = doc["params"][:8] + "*" + doc["params"][8:]
        with pytest.raises(ValueError):
            net_from_doc(doc)

    def test_list_format_rejected(self):
        net = init_net([2, 4, 1], np.random.default_rng(5))
        doc = {
            "layer_sizes": net.layer_sizes,
            "weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases],
        }
        with pytest.raises(ValueError, match="little-endian float64"):
            net_from_doc(doc)


def decoded(net):
    """Whether a network read by ``net_from_doc`` has decoded its payload."""
    return "payload" not in vars(net)


def strict_decode(payload, count):
    """The decoder ``net_from_doc`` used before decoding became lazy: strict
    base64, then exactly ``count`` float64 values, else ``None``."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except (TypeError, ValueError):
        return None
    return np.frombuffer(raw, "<f8") if len(raw) == 8 * count else None


class TestDecodeOnFirstRead:
    def loaded(self, seed=0, sizes=(3, 5, 2)):
        net = init_net(list(sizes), np.random.default_rng(seed))
        return net, net_from_doc(json.loads(json.dumps(net_to_doc(net))))

    def test_loading_decodes_nothing(self):
        _, restored = self.loaded()
        assert isinstance(restored, DenseNet) and restored.layer_sizes == [3, 5, 2]
        assert not decoded(restored)

    @pytest.mark.parametrize("read", ["flat", "weights", "biases", "params", "copy", "forward"])
    def test_first_read_decodes_every_view_bit_for_bit(self, read):
        net, restored = self.loaded(1)
        {
            "flat": lambda: restored.flat,
            "weights": lambda: restored.weights,
            "biases": lambda: restored.biases,
            "params": restored.params,
            "copy": restored.copy,
            "forward": lambda: net_forward(restored, np.ones(3)),
        }[read]()
        assert decoded(restored)
        assert restored.flat.tobytes() == net.flat.tobytes()
        assert restored.params() == [restored.flat]
        for view in restored.weights + restored.biases:
            assert view.base is restored.flat
        assert joined(per_array(restored)).tobytes() == net.flat.tobytes()

    def test_loaded_net_writes_back_its_payload(self):
        net = init_net([3, 5, 2], np.random.default_rng(2))
        doc = json.loads(json.dumps(net_to_doc(net)))
        restored = net_from_doc(doc)
        assert net_to_doc(restored) == doc
        restored.flat[0] += 1.0  # a decoded net encodes what it holds now
        assert net_to_doc(restored)["params"] != doc["params"]
        net.flat[0] += 1.0
        assert net_to_doc(restored) == net_to_doc(net)

    @pytest.mark.parametrize("sizes", [[2, 4, 1], [1, 1], [2, 1]], ids=["pad2", "pad1", "pad0"])
    def test_load_time_check_refuses_all_the_strict_decoder_refused(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        net = init_net(sizes, rng)
        payload = net_to_doc(net)["params"]
        count = net.flat.size
        chars = "AZaz09+/=*-_ \n\u00e9"
        cases = [payload, payload.rstrip("="), payload + "=", payload + "====", "=" + payload]
        for _ in range(300):
            i = int(rng.integers(len(payload)))
            c = chars[int(rng.integers(len(chars)))]
            cases += [payload[:i] + c + payload[i + 1 :], payload[:i] + c + payload[i:]]
            cases.append(payload[:i] + payload[i + 1 :])
        accepted = 0
        for case in cases:
            expected = strict_decode(case, count)
            # Python's strict mode also lets '=' past a whole last 4-digit group
            # through ("AAAA="); the load-time check refuses that one form too
            if expected is None or len(case) > len(payload):
                with pytest.raises(ValueError, match="params is not base64 of layer sizes"):
                    net_from_doc({"layer_sizes": sizes, "params": case})
            else:
                accepted += 1
                got = net_from_doc({"layer_sizes": sizes, "params": case}).flat
                assert got.tobytes() == expected.tobytes()
        assert 0 < accepted < len(cases)

    @pytest.mark.parametrize("payload", [None, 17, ["AAAA"], {"a": 1}])
    def test_payload_that_is_not_text_rejected(self, payload):
        with pytest.raises(ValueError, match="little-endian float64"):
            net_from_doc({"layer_sizes": [2, 4, 1], "params": payload})

    def test_bad_layer_sizes_rejected_at_load(self):
        with pytest.raises(ValueError, match="bad layer sizes"):
            net_from_doc({"layer_sizes": [2, 0, 1], "params": ""})


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


def per_array(net):
    """Copies of ``[W0, b0, W1, b1, ...]``, the layout ``flat`` is laid out in."""
    return [a.copy() for pair in zip(net.weights, net.biases) for a in pair]


def joined(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatLayout:
    @pytest.mark.parametrize("make", ["init_net", "net_from_doc", "copy"])
    def test_weights_and_biases_are_views_of_one_owned_flat(self, make):
        net = init_net([3, 5, 4, 2], np.random.default_rng(8))
        if make == "net_from_doc":
            net = net_from_doc(json.loads(json.dumps(net_to_doc(net))))
        elif make == "copy":
            source = net
            net = net.copy()
            assert not np.shares_memory(net.flat, source.flat)
        flat = net.flat
        assert flat.dtype == np.float64 and flat.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
        assert flat.flags.owndata and flat.flags.writeable and flat.flags.c_contiguous
        assert net.params() == [flat] and net.params()[0] is flat
        for view in net.weights + net.biases:
            assert view.base is flat
            assert view.flags.writeable and view.flags.c_contiguous
        assert [w.shape for w in net.weights] == [(5, 3), (4, 5), (2, 4)]
        assert [b.shape for b in net.biases] == [(5,), (4,), (2,)]
        # the views tile flat in order, and a write through one lands in flat
        assert joined(per_array(net)).tobytes() == flat.tobytes()
        net.biases[1][2] = 7.5
        assert flat[3 * 5 + 5 + 5 * 4 + 2] == 7.5

    @pytest.mark.parametrize("flat", [np.zeros(16), np.zeros(18), np.zeros((17, 1)), np.zeros(0)])
    def test_wrong_flat_length_raises(self, flat):
        with pytest.raises(ValueError, match="need 17 float64 values"):
            DenseNet([2, 4, 1], flat)

    def test_omitted_flat_is_zeros(self):
        net = DenseNet([2, 4, 1])
        assert net.flat.shape == (17,) and not net.flat.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adam_and_polyak_on_flat_equal_per_array_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [5, 16, 16, 3]
        net = init_net(sizes, rng)
        target = init_net(sizes, rng)
        ref, ref_target = per_array(net), per_array(target)
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        state = adam_init(net.params())
        assert len(state.first_moment) == len(state.second_moment) == 1
        lr, tau, b1, b2, eps = 3e-4, 0.005, 0.9, 0.999, 1e-8
        for t in range(1, 4):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-3, 3) for p in ref]
            adam_step(state, net.params(), [joined(grads)], lr)
            c1, c2 = 1.0 - b1**t, 1.0 - b2**t
            for p, g, m, v in zip(ref, grads, ref_m, ref_v):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            polyak_update(target.params(), net.params(), tau)
            for p_t, p in zip(ref_target, ref):
                p_t *= 1.0 - tau
                p_t += tau * p
            assert net.flat.tobytes() == joined(ref).tobytes()
            assert state.first_moment[0].tobytes() == joined(ref_m).tobytes()
            assert state.second_moment[0].tobytes() == joined(ref_v).tobytes()
            assert target.flat.tobytes() == joined(ref_target).tobytes()

    @pytest.mark.parametrize("sizes", [[3, 16, 16, 2], [10, 256, 256, 4], [1, 1]])
    def test_init_equals_uniform_per_w_and_b(self, sizes):
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            net = init_net(sizes, rng)
            ref = []
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
                bound = 1.0 / np.sqrt(fan_in)
                ref.append(ref_rng.uniform(-bound, bound, size=(fan_out, fan_in)))
                ref.append(ref_rng.uniform(-bound, bound, size=fan_out))
            assert net.flat.tobytes() == joined(ref).tobytes()
            # both consumed the same stream
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_grads_equal_per_layer_products_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        net = init_net([7, 32, 32, 3], rng)
        x = rng.standard_normal((64, 7))
        upstream = rng.standard_normal((64, 3))
        _, inputs = _forward_cache(net, x)
        grads, dx = _backward(net, inputs, upstream, want_params=True)
        delta, ref = upstream, []
        for i in range(len(net.weights) - 1, -1, -1):
            ref[:0] = [delta.T @ inputs[i], delta.sum(axis=0)]
            ref_dx = delta @ net.weights[i]
            if i > 0:
                ref_dx *= inputs[i] > 0.0
                delta = ref_dx
        assert len(grads) == 1 and grads[0].shape == net.flat.shape
        assert grads[0].tobytes() == joined(ref).tobytes()
        assert dx.tobytes() == ref_dx.tobytes()
