"""Span tracing of barrier_rl's module boundaries, installed at run time.

Nothing under ``src/`` knows about tracing.  :func:`patched` replaces, for the
length of a ``with`` block, the names one module imports from another (for
example ``agents._forward_cache`` or ``harness.agent_update_step``) by
wrappers that record a span, and puts every original back on exit.  Spans
live in flat in-memory arrays and are written out once, after the run.

A span is named ``<module>.<what>`` after the module whose code it times, so
``agents._backward`` and ``sac._backward`` both record ``nets.backward``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

import costmodel

MODULES = ("harness", "agents", "sac", "nets", "envs", "barriers", "optbench")
ROOT = "bench.segment"
UPDATE = "agents.update"


class Tracer:
    """In-memory span store: one row per span in parallel flat arrays.

    ``tag`` and ``work`` are per-span slots that hooks fill: ``tag`` marks a
    real update or a pass on a cost-critic net, ``work`` holds the computed
    FLOPs of a pass or bytes of an Adam step.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self.work = array("d")
        self.counters: dict[str, float] = {}
        self.cost_nets: set[int] = set()
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.tag.append(0)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self.name_index(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, out)
            return out

        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            tag=np.asarray(self.tag),
            work=np.asarray(self.work),
        )


def _forward_hook(tracer, idx, args, kwargs, out):
    net, x = args[0], args[1]
    batch = 1 if np.ndim(x) == 1 else len(x)
    tracer.work[idx] = costmodel.forward_flops(net.layer_sizes, batch)
    tracer.tag[idx] = id(net) in tracer.cost_nets


def _backward_hook(tracer, idx, args, kwargs, out):
    net, upstream = args[0], args[2]
    want = kwargs["want_params"] if "want_params" in kwargs else args[3]
    tracer.work[idx] = costmodel.backward_flops(net.layer_sizes, len(upstream), want)
    tracer.tag[idx] = id(net) in tracer.cost_nets


def _adam_hook(tracer, idx, args, kwargs, out):
    tracer.work[idx] = costmodel.adam_bytes(sum(p.size for p in args[1]))


def _update_hook(tracer, idx, args, kwargs, out):
    tracer.tag[idx] = out["updated"] == 1.0


def _agent_hook(tracer, idx, args, kwargs, agent):
    tracer.cost_nets = {
        id(net)
        for net in (agent.cost_q.q1, agent.cost_q.q2, agent.cost_q_target.q1, agent.cost_q_target.q2)
    }


def _dead_zone_hook(tracer, idx, args, kwargs, grad):
    grad = np.asarray(grad)
    tracer.count("dead_zone_rows", int(np.count_nonzero(grad == 0.0)))
    tracer.count("barrier_rows", grad.size)


def _checkpoint_hook(tracer, idx, args, kwargs, text):
    tracer.count("checkpoint_bytes", len(text))


# (module, attribute looked up at call time, span name, hook)
PATCHES = (
    ("barrier_rl.harness", "train", "harness.train", None),
    ("barrier_rl.harness", "evaluate", "harness.evaluate", None),
    ("barrier_rl.harness", "normalize_pipeline", "harness.normalize", None),
    ("barrier_rl.harness", "_write_outputs", "harness.write_outputs", None),
    ("barrier_rl.harness", "write_log", "harness.log_write", None),
    ("barrier_rl.harness", "checkpoint_to_json", "harness.checkpoint", _checkpoint_hook),
    ("barrier_rl.harness", "agent_update_step", UPDATE, _update_hook),
    ("barrier_rl.harness", "make_agent", "agents.make_agent", _agent_hook),
    ("barrier_rl.harness", "make_env", "envs.make_env", None),
    ("barrier_rl.harness", "policy_sample", "sac.act", None),
    ("barrier_rl.harness", "policy_mean_action", "sac.mean_action", None),
    ("barrier_rl.agents", "_forward_cache", "nets.forward", _forward_hook),
    ("barrier_rl.agents", "_backward", "nets.backward", _backward_hook),
    ("barrier_rl.agents", "adam_step", "nets.adam", _adam_hook),
    ("barrier_rl.agents", "polyak_update", "nets.polyak", None),
    ("barrier_rl.agents", "_critic_step", "agents.critic_step", None),
    ("barrier_rl.agents", "csaclb_actor_loss", "agents.actor", None),
    ("barrier_rl.agents", "saclag_actor_loss", "agents.actor", None),
    ("barrier_rl.agents", "sac_actor_loss", "agents.actor", None),
    ("barrier_rl.agents", "saclag_beta_update", "agents.dual", None),
    ("barrier_rl.agents", "reward_critic_target", "sac.critic_target", None),
    ("barrier_rl.agents", "cost_critic_target", "sac.critic_target", None),
    ("barrier_rl.agents", "policy_sample_cache", "sac.policy_sample", None),
    ("barrier_rl.agents", "policy_backward", "sac.policy_backward", None),
    ("barrier_rl.agents", "shifted_barrier", "barriers.shifted", None),
    ("barrier_rl.agents", "shifted_barrier_grad", "barriers.shifted", _dead_zone_hook),
    ("barrier_rl.sac", "_forward_cache", "nets.forward", _forward_hook),
    ("barrier_rl.sac", "net_forward", "nets.forward", _forward_hook),
    ("barrier_rl.sac", "_backward", "nets.backward", _backward_hook),
    ("barrier_rl.sac", "policy_sample_cache", "sac.policy_sample", None),
    # agents imports temperature_update, and sac imports adam_step, inside
    # the calling function, so both are looked up on the defining module
    ("barrier_rl.sac", "temperature_update", "sac.temperature", None),
    ("barrier_rl.nets", "adam_step", "nets.adam", _adam_hook),
    ("barrier_rl.sac", "ReplayBuffer.push", "sac.buffer_push", None),
    ("barrier_rl.sac", "ReplayBuffer.sample", "sac.buffer_sample", None),
    ("barrier_rl.envs", "PendulumEnv.step", "envs.step", None),
    ("barrier_rl.envs", "CartpoleEnv.step", "envs.step", None),
    ("barrier_rl.envs", "PointNavEnv.step", "envs.step", None),
    ("barrier_rl.envs", "PendulumEnv.reset", "envs.reset", None),
    ("barrier_rl.envs", "CartpoleEnv.reset", "envs.reset", None),
    ("barrier_rl.envs", "PointNavEnv.reset", "envs.reset", None),
    ("barrier_rl.optbench", "run_bench", "optbench.run_bench", None),
    ("barrier_rl.optbench", "solve_smoothed_barrier", "optbench.solve", None),
    ("barrier_rl.optbench", "kkt_residual", "optbench.kkt", None),
    ("barrier_rl.optbench", "verify_bound", "optbench.verify", None),
    ("barrier_rl.optbench", "_shifted_grad", "barriers.shifted", None),
)


def patch_target(module_name: str, path: str):
    """``(owner, attribute)`` for a PATCHES entry; owner is a module or class."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install a tracing wrapper for every entry of PATCHES; restore on exit."""
    saved = []
    try:
        for module_name, path, span_name, hook in PATCHES:
            owner, attr = patch_target(module_name, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span_name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap one another or reach past their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


# name, unit, better
PER_LAYER = (
    ("agents.update_ms.p50", "ms", "lower"),
    ("agents.update_ms.p99", "ms", "lower"),
    ("agents.updates", "count", "higher"),
    ("agents.critic_step_ms", "ms", "lower"),
    ("agents.actor_ms", "ms", "lower"),
    ("sac.critic_target_ms", "ms", "lower"),
    ("sac.temperature_us", "us", "lower"),
    ("nets.polyak_ms", "ms", "lower"),
    ("agents.phase_sum_share", "share", "higher"),
    ("nets.forward_ms", "ms", "lower"),
    ("nets.backward_ms", "ms", "lower"),
    ("nets.adam_ms", "ms", "lower"),
    ("nets.forward_calls", "count", "lower"),
    ("nets.backward_calls", "count", "lower"),
    ("nets.adam_calls", "count", "lower"),
    ("nets.gflop_per_update", "GFLOP", "lower"),
    ("nets.adam_mb_per_update", "MB", "lower"),
    ("nets.gflops", "GFLOP/s", "higher"),
    ("nets.adam_gbps", "GB/s", "higher"),
    ("agents.dead_zone_row_share", "share", "lower"),
    ("nets.cost_critic_pass_share", "share", "lower"),
    ("sac.buffer_sample_us", "us", "lower"),
    ("sac.buffer_push_us", "us", "lower"),
    ("sac.policy_sample_ms", "ms", "lower"),
    ("sac.policy_backward_ms", "ms", "lower"),
    ("sac.act_us", "us", "lower"),
    ("harness.normalize_us", "us", "lower"),
    ("envs.step_us", "us", "lower"),
    ("envs.reset_us", "us", "lower"),
    ("envs.steps", "count", "higher"),
    ("sac.mean_action_us", "us", "lower"),
    ("harness.evaluate_s", "s", "lower"),
    ("harness.checkpoint_s", "s", "lower"),
    ("harness.checkpoint_mb", "MB", "lower"),
    ("harness.log_write_ms", "ms", "lower"),
    ("harness.update_share", "share", "higher"),
    ("harness.warmup_share", "share", "lower"),
    ("harness.checkpoint_share", "share", "lower"),
    ("barriers.shifted_us", "us", "lower"),
    ("optbench.solve_ms", "ms", "lower"),
    ("optbench.kkt_ms", "ms", "lower"),
    ("optbench.grad_evals", "count", "lower"),
    *((f"{module}.self_share", "share", "lower") for module in MODULES),
    ("trace.overhead_share", "share", "lower"),
)


def layer_metrics(tracer: Tracer, root: int, units: int, overhead_share: float) -> dict:
    """Per-layer numbers from the spans under ``root``.

    ``*_ms``/``*_us`` of update phases and the ``nets`` pass counts are per
    real update (an update call that found the buffer under-filled is not
    one); the other times are per call.  A layer the workload never reaches
    reads 0.  ``units`` is the number of workload units traced (train calls,
    eval passes or bound grids).
    """
    nid = np.asarray(tracer.name_id)
    parent = np.asarray(tracer.parent)
    start = np.asarray(tracer.start)
    end = np.asarray(tracer.end)
    tag = np.asarray(tracer.tag).astype(bool)
    work = np.asarray(tracer.work)
    dur = end - start
    n = len(nid)

    def named(name):
        return nid == tracer._ids.get(name, -1)

    is_update = named(UPDATE) & tag
    # nearest real-update ancestor; parents are recorded before children
    owner = [-1] * n
    for i, (upd, p) in enumerate(zip(is_update.tolist(), parent.tolist())):
        if upd:
            owner[i] = i
        elif p >= 0:
            owner[i] = owner[p]
    owner = np.asarray(owner, dtype=np.int64)
    under = (owner >= 0) & ~is_update
    has_parent = parent >= 0
    direct = under & has_parent & is_update[np.where(has_parent, parent, 0)]
    n_upd = int(is_update.sum())
    update_time = float(dur[is_update].sum())

    def per_update(mask, scale=1.0):
        return float(dur[mask].sum()) / n_upd * scale if n_upd else 0.0

    def count_per_update(mask):
        return int(mask.sum()) / n_upd if n_upd else 0.0

    def per_call(mask, scale=1.0):
        return float(dur[mask].mean()) * scale if mask.any() else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fwd = named("nets.forward") & under
    bwd = named("nets.backward") & under
    adam = named("nets.adam") & under
    passes = fwd | bwd
    upd_ms = dur[is_update] * 1e3
    checkpoints = int(named("harness.checkpoint").sum())

    selfs = np.asarray(self_times(tracer.start, tracer.end, tracer.parent))
    module_of = np.array([name.split(".")[0] for name in tracer.names] or [""])
    span_module = module_of[nid] if n else np.array([], dtype=str)
    root_time = float(dur[root])
    solve_ids = np.flatnonzero(named("optbench.solve"))
    grad_in_solve = named("barriers.shifted") & np.isin(parent, solve_ids)
    trains = np.flatnonzero(named("harness.train"))
    train_time = float(dur[trains].sum())
    # from the start of each train() call to its first update
    warmup_time = sum(
        start[is_update & (start >= start[t]) & (end <= end[t])].min(initial=end[t]) - start[t]
        for t in trains
    )

    m = {
        "agents.update_ms.p50": float(np.percentile(upd_ms, 50)) if n_upd else 0.0,
        "agents.update_ms.p99": float(np.percentile(upd_ms, 99)) if n_upd else 0.0,
        "agents.updates": n_upd,
        "agents.critic_step_ms": per_update(named("agents.critic_step") & under, 1e3),
        "agents.actor_ms": per_update((named("agents.actor") | named("nets.adam")) & direct, 1e3),
        "sac.critic_target_ms": per_update(named("sac.critic_target") & under, 1e3),
        "sac.temperature_us": per_update(named("sac.temperature") & under, 1e6),
        "nets.polyak_ms": per_update(named("nets.polyak") & under, 1e3),
        "agents.phase_sum_share": ratio(float(dur[direct].sum()), update_time),
        "nets.forward_ms": per_update(fwd, 1e3),
        "nets.backward_ms": per_update(bwd, 1e3),
        "nets.adam_ms": per_update(adam, 1e3),
        "nets.forward_calls": count_per_update(fwd),
        "nets.backward_calls": count_per_update(bwd),
        "nets.adam_calls": count_per_update(adam),
        "nets.gflop_per_update": ratio(float(work[passes].sum()), n_upd) / 1e9,
        "nets.adam_mb_per_update": ratio(float(work[adam].sum()), n_upd) / 1e6,
        "nets.gflops": ratio(float(work[passes].sum()), float(dur[passes].sum())) / 1e9,
        "nets.adam_gbps": ratio(float(work[adam].sum()), float(dur[adam].sum())) / 1e9,
        "agents.dead_zone_row_share": ratio(
            tracer.counters.get("dead_zone_rows", 0.0), tracer.counters.get("barrier_rows", 0.0)
        ),
        "nets.cost_critic_pass_share": ratio(int((passes & tag).sum()), int(passes.sum())),
        "sac.buffer_sample_us": per_call(named("sac.buffer_sample"), 1e6),
        "sac.buffer_push_us": per_call(named("sac.buffer_push"), 1e6),
        "sac.policy_sample_ms": per_call(named("sac.policy_sample") & under, 1e3),
        "sac.policy_backward_ms": per_call(named("sac.policy_backward") & under, 1e3),
        "sac.act_us": per_call(named("sac.act"), 1e6),
        "harness.normalize_us": per_call(named("harness.normalize"), 1e6),
        "envs.step_us": per_call(named("envs.step"), 1e6),
        "envs.reset_us": per_call(named("envs.reset"), 1e6),
        "envs.steps": int(named("envs.step").sum()),
        "sac.mean_action_us": per_call(named("sac.mean_action"), 1e6),
        "harness.evaluate_s": per_call(named("harness.evaluate")),
        "harness.checkpoint_s": per_call(named("harness.checkpoint")),
        "harness.checkpoint_mb": ratio(tracer.counters.get("checkpoint_bytes", 0.0), checkpoints) / 1e6,
        "harness.log_write_ms": per_call(named("harness.log_write"), 1e3),
        "harness.update_share": ratio(update_time, train_time),
        "harness.warmup_share": ratio(float(warmup_time), train_time),
        "harness.checkpoint_share": ratio(float(dur[named("harness.checkpoint")].sum()), train_time),
        "barriers.shifted_us": per_call(named("barriers.shifted"), 1e6),
        "optbench.solve_ms": per_call(named("optbench.solve"), 1e3),
        "optbench.kkt_ms": per_call(named("optbench.kkt"), 1e3),
        "optbench.grad_evals": ratio(int(grad_in_solve.sum()), units),
    }
    for module in MODULES:
        m[f"{module}.self_share"] = ratio(float(selfs[span_module == module].sum()), root_time)
    m["trace.overhead_share"] = overhead_share
    units_of = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": value, "unit": units_of[name]} for name, value in m.items()}
