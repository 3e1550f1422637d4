"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

import json
from pathlib import Path

import numpy as np
import pytest

import costmodel
import run
import tracing
from barrier_rl import harness, optbench
from workloads import WORKLOADS, Unit, run_segment, unit_count

SMALL_TRAIN = dict(
    total_steps=40,
    random_steps=10,
    batch_size=32,
    buffer_capacity=100,
    eval_interval=20,
    eval_episodes=1,
)


class TestSelfTimes:
    def test_subtracts_the_union_of_children_clipped_to_the_parent(self):
        # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past the end
        start = [0.0, 1.0, 2.0, 8.0]
        end = [10.0, 3.0, 5.0, 12.0]
        parent = [-1, 0, 0, 0]
        # covered = [1, 5] + [8, 10] = 6
        assert tracing.self_times(start, end, parent) == [4.0, 2.0, 3.0, 4.0]

    def test_grandchildren_only_reduce_their_own_parent(self):
        start = [0.0, 1.0, 2.0, 6.0]
        end = [10.0, 5.0, 4.0, 7.0]
        parent = [-1, 0, 1, 0]
        assert tracing.self_times(start, end, parent) == [5.0, 2.0, 2.0, 1.0]

    def test_order_of_recording_does_not_matter(self):
        start = [0.0, 8.0, 1.0]
        end = [10.0, 9.0, 4.0]
        parent = [-1, 0, 0]
        assert tracing.self_times(start, end, parent) == [6.0, 1.0, 3.0]

    def test_tracer_records_nesting_and_durations(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        traced_leaf = tracer.wrap("nets.forward", leaf)

        def middle():
            return traced_leaf() + traced_leaf()

        traced_middle = tracer.wrap("agents.update", middle)
        with tracer.span(tracing.ROOT):
            assert traced_middle() == 2
        assert list(tracer.parent) == [-1, 0, 1, 1]
        # clock ticks: root 0..7, middle 1..6, leaves 2..3 and 4..5
        assert list(tracer.start) == [0.0, 1.0, 2.0, 4.0]
        assert list(tracer.end) == [7.0, 6.0, 3.0, 5.0]
        assert tracing.self_times(tracer.start, tracer.end, tracer.parent) == [2.0, 3.0, 1.0, 1.0]


class TestCostModel:
    def test_hand_count_of_a_small_net(self):
        sizes = [2, 3, 1]
        # forward, batch 4: (2*4*2*3 + 4*3) + (2*4*3*1 + 4*1) = 60 + 28
        assert costmodel.forward_flops(sizes, 4) == 88
        # backward to the input only: 2*4*3*1 + 2*4*2*3 = 24 + 48
        assert costmodel.backward_flops(sizes, 4, want_params=False) == 72
        # plus dW (same as dx) and the bias sums 4*1 + 4*3
        assert costmodel.backward_flops(sizes, 4, want_params=True) == 72 + 72 + 16
        assert costmodel.param_count(sizes) == 2 * 3 + 3 + 3 * 1 + 1
        assert costmodel.adam_bytes(13) == 13 * 7 * 8


def _current():
    out = {}
    for module, path, _, _ in tracing.PATCHES:
        owner, attr = tracing.patch_target(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def _traced_small_train(algo, out_dir=None):
    tracer = tracing.Tracer()
    config = harness.TrainConfig(algo=algo, env="tilt", **SMALL_TRAIN)
    with tracing.patched(tracer):
        with tracer.span(tracing.ROOT) as root:
            harness.train(config, out_dir)
    return tracer, root, config


class TestPatching:
    def test_every_patched_global_is_restored(self):
        before = _current()
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            inside = _current()
            with tracer.span(tracing.ROOT):
                harness.train(harness.TrainConfig(algo="csac_lb", env="tilt", **SMALL_TRAIN))
                optbench.run_bench([2.0], ["p1"], iters=50)
        assert all(inside[k] is not before[k] for k in before)
        after = _current()
        assert all(after[k] is before[k] for k in before)
        assert {"agents.update", "nets.forward", "envs.step", "optbench.solve"} <= set(tracer.names)

    def test_restored_when_the_traced_code_raises(self):
        before = _current()
        with pytest.raises(ValueError):
            with tracing.patched(tracing.Tracer()):
                harness.evaluate(None, None, 0, None)
        after = _current()
        assert all(after[k] is before[k] for k in before)

    def test_tracing_does_not_change_the_log(self, tmp_path):
        config = harness.TrainConfig(algo="csac_lb", env="tilt", **SMALL_TRAIN)
        harness.train(config, tmp_path / "plain")
        with tracing.patched(tracing.Tracer()):
            harness.train(config, tmp_path / "traced")
        assert (tmp_path / "plain" / "log.csv").read_bytes() == (tmp_path / "traced" / "log.csv").read_bytes()


class TestLayerMetrics:
    @pytest.mark.parametrize("algo, backward_calls", [("csac_lb", 9), ("sac_rs", 7)])
    def test_pass_counts_per_update(self, algo, backward_calls, tmp_path):
        tracer, root, config = _traced_small_train(algo, tmp_path)
        m = tracing.layer_metrics(tracer, root, 1, 0.0)
        assert m["agents.updates"]["value"] == config.total_steps - config.batch_size + 1
        assert m["nets.forward_calls"]["value"] == 15
        assert m["nets.backward_calls"]["value"] == backward_calls
        assert m["nets.adam_calls"]["value"] == 6
        assert 0.0 < m["agents.phase_sum_share"]["value"] <= 1.0
        shares = [m[f"harness.{k}_share"]["value"] for k in ("update", "warmup", "checkpoint")]
        assert all(v > 0.0 for v in shares) and sum(shares) < 1.0
        assert set(m) == {name for name, _, _ in tracing.PER_LAYER}

    def test_shares_of_the_train_call(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        update = tracer.wrap(tracing.UPDATE, lambda real: {"updated": real}, tracing._update_hook)
        checkpoint = tracer.wrap("harness.checkpoint", lambda: None)

        def train():
            update(0.0)  # buffer under-filled: 2..3, not an update
            update(1.0)  # 4..5
            update(1.0)  # 6..7
            checkpoint()  # 8..9

        with tracer.span(tracing.ROOT) as root:
            tracer.wrap("harness.train", train)()  # 1..10
        m = tracing.layer_metrics(tracer, root, 1, 0.0)
        assert m["harness.update_share"]["value"] == pytest.approx(2 / 9)
        assert m["harness.warmup_share"]["value"] == pytest.approx(3 / 9)
        assert m["harness.checkpoint_share"]["value"] == pytest.approx(1 / 9)

    def test_computed_work_matches_the_update_structure(self):
        tracer, root, config = _traced_small_train("csac_lb")
        m = tracing.layer_metrics(tracer, root, 1, 0.0)
        b = config.batch_size
        policy, critic = [3, 256, 256, 2], [4, 256, 256, 1]
        # 2 target samples + actor sample; 4 target, 4 critic-step and 4 actor critic passes
        forward = 3 * costmodel.forward_flops(policy, b) + 12 * costmodel.forward_flops(critic, b)
        backward = (
            4 * costmodel.backward_flops(critic, b, True)
            + 4 * costmodel.backward_flops(critic, b, False)
            + costmodel.backward_flops(policy, b, True)
        )
        assert m["nets.gflop_per_update"]["value"] == pytest.approx((forward + backward) / 1e9)
        params = costmodel.param_count(policy) + 4 * costmodel.param_count(critic) + 1
        assert m["nets.adam_mb_per_update"]["value"] == pytest.approx(costmodel.adam_bytes(params) / 1e6)
        # target 2 + critic steps 2 fwd 2 bwd + actor 2 fwd 2 bwd, of 15 + 9 passes
        assert m["nets.cost_critic_pass_share"]["value"] == pytest.approx(10 / 24)


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        workload = WORKLOADS[name]
        assert workload.inputs(7) == workload.inputs(7)

    @pytest.mark.parametrize("name", ["train-csac-tilt", "train-rs-pointnav", "eval-swing"])
    def test_seed_changes_inputs(self, name):
        workload = WORKLOADS[name]
        assert workload.inputs(7) != workload.inputs(8)

    def test_bound_seed_only_reorders_the_grid(self):
        workload = WORKLOADS["bound"]
        for seed in range(5):
            grid = workload.inputs(seed)
            assert sorted(grid["mus"]) == sorted(workload.MUS)
            assert sorted(grid["problems"]) == sorted(workload.PROBLEMS)


class FakeWorkload:
    unit_seconds = 0.5
    unit_attempts = 1

    def __init__(self):
        self.setups = 0
        self.log = []

    def setup(self, inputs, prepared):
        self.setups += 1
        self.log.append("setup")
        return self.setups

    def unit(self, inputs, state, work_dir):
        self.log.append(state)
        return Unit(1, 1.0, 1, 0, "")


class TestSegments:
    def test_unit_count_follows_the_seconds_only(self):
        assert unit_count(FakeWorkload(), 20) == 40
        assert unit_count(FakeWorkload(), 0.1) == 1

    def test_setups_spread_evenly_and_units_use_the_latest(self, tmp_path):
        w = FakeWorkload()
        setup_s, units, state = run_segment(w, None, None, tmp_path, 6, 3)
        assert len(setup_s) == 3 and len(units) == 6 and state == 3
        assert w.log == ["setup", 1, 1, "setup", 2, 2, "setup", 3, 3]

    def test_more_setups_than_units(self, tmp_path):
        w = FakeWorkload()
        _, units, _ = run_segment(w, None, None, tmp_path, 2, 5)
        assert w.log == ["setup"] * 3 + [3] + ["setup"] * 2 + [5]

    def test_no_setups_keeps_the_given_state(self, tmp_path):
        w = FakeWorkload()
        setup_s, _, state = run_segment(w, None, None, tmp_path, 2, 0, "s")
        assert setup_s == [] and state == "s" and w.log == ["s", "s"]


class TestFingerprints:
    def test_a_unit_that_differs_from_an_earlier_run_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT", tmp_path)
        first = [Unit(10, 1.0, 1, 0, "a")]
        assert run.check_fingerprints(first, "k") == "a"
        later = [Unit(10, 1.0, 1, 0, "a"), Unit(10, 1.0, 1, 0, "b")]
        run.check_fingerprints(later, "k")
        assert [u.failed for u in later] == [0, 1]
        assert json.loads((tmp_path / "fingerprints.json").read_text()) == {"k": "a"}


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert np.all([m["bound"] <= 0.25 for m in doc["end_to_end"]])
