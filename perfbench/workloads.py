"""The benchmark's workloads: input generators, set-up and one timed unit.

Each workload turns ``--seed`` into inputs (:meth:`inputs`, a pure function
of the seed), then runs a fixed number of units of work (:meth:`unit`)
through barrier_rl's public entry points, with its timed set-up calls
(:meth:`setup`) spread between the units.  Every call
into barrier_rl goes through a module attribute (``harness.train``, not a
name bound at import), so the tracer's wrappers see it.

Why these four, and what each one leaves out, is in README.md next to this
file.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from barrier_rl import agents, envs, harness, sac


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    work: int  # env steps, or (problem, mu) cells
    seconds: float
    attempted: int
    failed: int
    fingerprint: str  # output digest, compared across units and runs
    detail: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # of the whole process, when the unit ended


def unit_count(workload, seconds: float) -> int:
    """Units that fill about ``seconds`` at the workload's nominal unit time.

    The count depends only on ``seconds`` and the workload, never on how
    fast the program runs, so a faster program does not get more tries at
    a fast unit than a slower one.
    """
    return max(1, int(seconds / workload.unit_seconds))


def run_unit(workload, inputs, state, work_dir: Path) -> Unit:
    t0 = time.perf_counter()
    try:
        unit = workload.unit(inputs, state, work_dir)
    except Exception:  # a unit that raises counts as failed; the run goes on
        n = workload.unit_attempts
        unit = Unit(0, time.perf_counter() - t0, n, n, "", {"error": traceback.format_exc()})
    unit.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return unit


def run_segment(workload, inputs, prepared, work_dir: Path, count: int, setups: int, state=None):
    """Run ``count`` units with ``setups`` timed set-ups spread evenly between them.

    Spreading the set-ups over the segment lets their median see the whole
    segment rather than only its first seconds.  Each unit runs on the state
    of the latest set-up, or on ``state`` when no set-up ran before it.
    Returns the set-up times, the units and the last state.
    """
    setups_before = [j * count // setups for j in range(setups)]
    setup_s, units = [], []
    for i in range(count):
        for _ in range(setups_before.count(i)):
            t0 = time.perf_counter()
            state = workload.setup(inputs, prepared)
            setup_s.append(time.perf_counter() - t0)
        units.append(run_unit(workload, inputs, state, work_dir))
    return setup_s, units, state


def best_rate(units: list[Unit]) -> float:
    """The fastest unit's rate; 0 when no unit did any work.

    Every unit of a run does the same work, so slower units measure
    contention from outside the process, not the program.  On a shared
    2-vCPU virtual machine, throughput was seen to switch between a fast
    phase and one up to ~2x slower, each lasting from about a second to over
    a minute; a run's median moved with the phase it landed in, its fastest
    unit less so.
    """
    return max((u.work / u.seconds for u in units if u.work > 0), default=0.0)


class TrainWorkload:
    """One ``harness.train`` call per unit, at the default nets and batch.

    Updates start once the buffer holds a batch (step 256), so a call of
    ``TOTAL_STEPS`` steps runs ``TOTAL_STEPS - 255`` updates and writes two
    eval rows, the last after every update.  A call this short spends a far
    larger share of its time on the final checkpoint write than a
    default-length run; the traced run reports that share.
    """

    rate_name = "train_steps_per_s"
    fingerprint_name = "log_sha256"
    setup_reps = 40
    unit_seconds = 8.0  # about one call on a 2-vCPU Xeon VM
    TOTAL_STEPS = 406
    EVAL_INTERVAL = 203
    EVAL_EPISODES = 4

    def __init__(self, name: str, algo: str, env: str):
        self.name = name
        self.algo = algo
        self.env = env
        self.unit_attempts = 1

    def inputs(self, seed: int) -> harness.TrainConfig:
        return harness.TrainConfig(
            algo=self.algo,
            env=self.env,
            seed=seed,
            total_steps=self.TOTAL_STEPS,
            eval_interval=self.EVAL_INTERVAL,
            eval_episodes=self.EVAL_EPISODES,
        ).validate()

    def prepare(self, config, work_dir: Path):
        return None

    def setup(self, config, prepared):
        """The set-up calls ``train()`` makes, with the same arguments."""
        net_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(5)[0])
        env = envs.make_env(config.env)
        envs.make_env(config.env)
        agents.make_agent(
            config.algo,
            env.obs_dim,
            env.act_dim,
            net_rng,
            mu=config.mu,
            cost_limit=config.cost_limit,
            init_temperature=config.init_temperature,
            beta_lr=config.beta_lr,
            rs_penalty=config.rs_penalty,
        )
        sac.ReplayBuffer(config.buffer_capacity, env.obs_dim, env.act_dim)
        return None

    def unit(self, config, state, work_dir: Path) -> Unit:
        out = Path(tempfile.mkdtemp(prefix="train-", dir=work_dir))
        try:
            t0 = time.perf_counter()
            try:
                log = harness.train(config, out)
            except harness.TrainingDiverged as exc:
                return Unit(0, time.perf_counter() - t0, 1, 1, "", {"error": str(exc)})
            seconds = time.perf_counter() - t0
            digest = hashlib.sha256((out / "log.csv").read_bytes()).hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        evals = [
            [r.eval_return_mean, r.eval_return_std, r.eval_cost_mean, r.eval_cost_std]
            for r in log.rows
        ]
        finite = all(math.isfinite(v) for row in evals for v in row)
        return Unit(config.total_steps, seconds, 1, int(not finite), digest, {"eval_rows": evals})

    def describe(self, config) -> dict:
        return dict(vars(config))


@dataclass(frozen=True)
class EvalInputs:
    checkpoint: str  # checkpoint JSON text, as harness writes it
    eval_seed: int


class EvalWorkload:
    """``harness.evaluate`` of a generated cart-pole swing checkpoint.

    The checkpoint holds freshly initialised default-size nets and an
    observation scale fed with seeded samples, so normalisation is active.
    Swing episodes always run the full 1000-step horizon, so the step count
    of a unit is exact.
    """

    name = "eval-swing"
    rate_name = "eval_steps_per_s"
    fingerprint_name = "eval_return_cost"
    setup_reps = 7
    unit_seconds = 0.25
    ENV = "swing"
    EPISODES = 5
    SCALE_SAMPLES = 256

    def __init__(self):
        self.unit_attempts = self.EPISODES

    def inputs(self, seed: int) -> EvalInputs:
        rng = np.random.default_rng(seed)
        env = envs.make_env(self.ENV)
        agent = agents.make_agent("csac_lb", env.obs_dim, env.act_dim, rng)
        scales = harness.ScaleSet()
        spread = np.array([0.5, 0.3, 1.0, 1.5])
        for obs in rng.normal(0.0, spread, size=(self.SCALE_SAMPLES, env.obs_dim)):
            scales.obs.update(obs)
        text = harness.checkpoint_to_json(agent, scales, harness.TrainConfig(env=self.ENV), 0)
        return EvalInputs(text, int(rng.integers(2**31)))

    def prepare(self, inputs: EvalInputs, work_dir: Path) -> Path:
        path = work_dir / "checkpoint.json"
        path.write_text(inputs.checkpoint)
        return path

    def setup(self, inputs: EvalInputs, path: Path):
        """Load the checkpoint as the ``eval`` command does."""
        text = path.read_text()
        agent, _ = agents.agent_from_json(text)
        scales = harness.ScaleSet(obs=harness.RunningScale.from_state(json.loads(text)["obs_scale"]))
        config = harness.TrainConfig(algo=agent.algo, env=self.ENV)
        return agent, scales, envs.make_env(self.ENV), config

    def unit(self, inputs: EvalInputs, state, work_dir: Path) -> Unit:
        agent, scales, env, config = state
        rng = np.random.default_rng(inputs.eval_seed)
        t0 = time.perf_counter()
        out = harness.evaluate(agent, env, self.EPISODES, rng, scales, config)
        seconds = time.perf_counter() - t0
        failed = 0 if all(math.isfinite(v) for v in out) else self.EPISODES
        fingerprint = json.dumps([repr(v) for v in out])
        return Unit(self.EPISODES * env.horizon, seconds, self.EPISODES, failed, fingerprint)

    def describe(self, inputs: EvalInputs) -> dict:
        return {
            "checkpoint_sha256": hashlib.sha256(inputs.checkpoint.encode()).hexdigest(),
            "checkpoint_mb": len(inputs.checkpoint) / 1e6,
            "eval_seed": inputs.eval_seed,
            "episodes_per_unit": self.EPISODES,
        }


class BoundWorkload:
    """``optbench.run_bench`` over P1-P3 and the CLI's default mu grid.

    The seed only orders the grid; every unit solves the same 15 cells, so
    the work per unit is fixed and each cell's result must not depend on it.
    """

    name = "bound"
    rate_name = "bound_cells_per_s"
    fingerprint_name = "cells_sha256"
    setup_reps = 40
    unit_seconds = 0.4
    MUS = (1.0, 1.5, 2.0, 3.0, 5.0)
    PROBLEMS = ("p1", "p2", "p3")

    def __init__(self):
        self.unit_attempts = len(self.MUS) * len(self.PROBLEMS)

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "mus": [self.MUS[i] for i in rng.permutation(len(self.MUS))],
            "problems": [self.PROBLEMS[i] for i in rng.permutation(len(self.PROBLEMS))],
        }

    def prepare(self, inputs, work_dir: Path):
        return None

    def setup(self, inputs, prepared):
        """A fresh import of ``barrier_rl.optbench`` (numpy stays loaded)."""
        for name in [m for m in sys.modules if m == "barrier_rl" or m.startswith("barrier_rl.")]:
            del sys.modules[name]
        return importlib.import_module("barrier_rl.optbench")

    def unit(self, inputs, optbench, work_dir: Path) -> Unit:
        t0 = time.perf_counter()
        results = optbench.run_bench(inputs["mus"], inputs["problems"])
        seconds = time.perf_counter() - t0
        cells = sorted(
            (r["problem"], r["mu"], repr(float(r["f_value"])), repr(float(r["gap"])), bool(r["ok"]))
            for r in results
        )
        failed = sum(1 for r in results if not (r["ok"] and math.isfinite(r["gap"])))
        fingerprint = hashlib.sha256(json.dumps(cells).encode()).hexdigest()
        return Unit(len(results), seconds, len(results), failed, fingerprint)

    def describe(self, inputs) -> dict:
        return dict(inputs)


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train-csac-tilt", "csac_lb", "tilt"),
        TrainWorkload("train-rs-pointnav", "sac_rs", "pointnav"),
        EvalWorkload(),
        BoundWorkload(),
    )
}
