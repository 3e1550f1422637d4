"""Training loop, normalization pipeline, periodic evaluation, CSV logging.

One call to :func:`train` is one fully deterministic run: the seed is split
into named substreams (network init, environment init, policy noise, update
sampling, evaluation), so identical ``(config, seed)`` produce an identical
``log.csv`` byte for byte.  The bytes hold per host CPU kernel, per numpy/BLAS
build and per BLAS thread count: BLAS picks its matrix kernels for the CPU it
runs on, and a kernel or thread count that sums in another order rounds
differently.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from barrier_rl.agents import (
    ALGOS,
    Agent,
    RsConfig,
    SacLagState,
    Transition,
    agent_to_doc,
    agent_update_step,
    log_scalars,
    make_agent,
    rs_shape,
)
from barrier_rl.barriers import BarrierConfig
from barrier_rl.envs import ENV_NAMES, make_env
from barrier_rl.nets import net_to_doc
from barrier_rl.sac import ReplayBuffer, policy_mean_action, policy_sample

__all__ = [
    "TrainConfig",
    "RunningScale",
    "ScaleSet",
    "LogRow",
    "RunLog",
    "TrainingDiverged",
    "train",
    "evaluate",
    "rollout",
    "normalize_pipeline",
    "write_log",
    "log_to_csv",
    "parse_config",
    "LOG_COLUMNS",
]

STD_FLOOR = 1e-8


@dataclass
class LogRow:
    """One ``log.csv`` row; the field order is the column order."""

    step: int
    algo: str
    env: str
    seed: int
    eval_return_mean: float
    eval_return_std: float
    eval_cost_mean: float
    eval_cost_std: float
    alpha: float
    beta: float  # nan renders as empty (non-Lagrangian)
    mu: float  # nan renders as empty (non-barrier)
    actor_loss: float
    critic_loss_r: float
    critic_loss_c: float


LOG_COLUMNS = [f.name for f in fields(LogRow)]
LOSS_COLUMNS = ("actor_loss", "critic_loss_r", "critic_loss_c")


class TrainingDiverged(RuntimeError):
    """A loss went non-finite; the run is aborted with a diagnostic row."""


@dataclass
class TrainConfig:
    algo: str = "csac_lb"
    env: str = "tilt"
    seed: int = 0
    total_steps: int = 100_000
    batch_size: int = 256
    gamma: float = 0.99
    gamma_cost: float = 0.99
    buffer_capacity: int = 1_000_000
    random_steps: int = 100
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    temp_lr: float = 3e-4
    beta_lr: float = 3e-4
    tau: float = 0.005
    init_temperature: float = 1.0
    mu: float = 3.0
    cost_limit: float = 0.0
    rs_penalty: float = -30.0
    normalize_obs: bool = True
    normalize_return: bool = True
    normalize_cost: bool = True
    clip_reward: tuple = (-10.0, 10.0)
    clip_cost: tuple = (-10.0, 10.0)
    eval_interval: int = 2000
    eval_episodes: int = 10
    target_update_every: int = 2

    def validate(self) -> "TrainConfig":
        """Check every field and store each value as its field's type, in place; returns self."""
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if not _has_type(value, kind):
                expected = "two numbers" if kind is tuple else kind.__name__
                raise ValueError(f"{f.name}: expected {expected}, got {value!r}")
            try:  # an int in a float field is stored, so written, as a float
                value = tuple(map(float, value)) if kind is tuple else kind(value)
            except OverflowError:
                raise ValueError(f"{f.name}: an integer too large for a float") from None
            # NaN compares false, so a range check written as `x <= bound` would pass it
            if kind in (float, tuple) and not np.isfinite(value).all():
                raise ValueError(f"{f.name}: must be finite, got {value}")
            setattr(self, f.name, value)
        if self.algo not in ALGOS:
            raise ValueError(f"algo: unknown value {self.algo!r}, expected one of {ALGOS}")
        if self.env not in ENV_NAMES:
            raise ValueError(f"env: unknown value {self.env!r}, expected one of {ENV_NAMES}")
        for name in ("gamma", "gamma_cost"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: must be in [0, 1), got {getattr(self, name)}")
        BarrierConfig(self.mu, self.cost_limit)  # each owner's messages start with the field's name
        RsConfig(self.rs_penalty)
        SacLagState(beta_lr=self.beta_lr)
        for name in ("actor_lr", "critic_lr", "temp_lr", "init_temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau: must be in [0, 1], got {self.tau}")
        for name in ("seed", "total_steps", "random_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be nonnegative")
        for name in (
            "batch_size",
            "buffer_capacity",
            "eval_interval",
            "eval_episodes",
            "target_update_every",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be positive")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(f"buffer_capacity: must hold a batch of {self.batch_size}")
        for name in ("clip_reward", "clip_cost"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name}: lower bound must be below upper bound")
        return self


def _has_type(value, kind) -> bool:
    """Whether ``value`` fits a field whose default is a ``kind``: ints pass for float
    fields, bools only for bool fields, and ``clip_*`` take two numbers."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and len(value) == 2 and all(
            _has_type(v, float) for v in value
        )
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def parse_config(path) -> TrainConfig:
    """Read a JSON config whose keys mirror TrainConfig; absent keys default,
    and :meth:`TrainConfig.validate` checks and converts the values."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("a config file holds one JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return TrainConfig(**doc).validate()


def config_to_json(config: TrainConfig) -> str:
    return json.dumps(asdict(config), indent=2)


class RunningScale:
    """Welford accumulator for a running mean/std with a 1e-8 std floor."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, x) -> None:
        x = np.asarray(x, dtype=np.float64)
        self.count += 1
        delta = x - self.mean
        self.mean = self.mean + delta / self.count
        self.m2 = self.m2 + delta * (x - self.mean)

    def divisor(self):
        """Scale divisor: 1 until two samples exist, the floored std after."""
        if self.count < 2:
            return 1.0
        return np.maximum(np.sqrt(self.m2 / self.count), STD_FLOOR)

    def state(self) -> dict:
        return {
            "count": self.count,
            "mean": np.asarray(self.mean).tolist(),
            "m2": np.asarray(self.m2).tolist(),
        }

    @classmethod
    def from_state(cls, doc: dict) -> "RunningScale":
        """Rebuild a scale from :meth:`state`, rejecting states :meth:`update` cannot reach:
        a count not a nonnegative int, moments of two shapes or not finite, a negative m2."""
        rs = cls()
        rs.count = doc["count"]
        rs.mean = np.asarray(doc["mean"], dtype=np.float64)
        rs.m2 = np.asarray(doc["m2"], dtype=np.float64)
        if type(rs.count) is not int or rs.count < 0:
            raise ValueError(f"count must be a nonnegative int, got {rs.count!r}")
        if rs.mean.shape != rs.m2.shape:
            raise ValueError(f"mean and m2 have shapes {rs.mean.shape} and {rs.m2.shape}")
        if not (np.isfinite(rs.mean).all() and np.isfinite(rs.m2).all() and (rs.m2 >= 0).all()):
            raise ValueError("mean and m2 must be finite and m2 nonnegative")
        return rs


@dataclass
class ScaleSet:
    obs: RunningScale = field(default_factory=RunningScale)
    episodic_return: RunningScale = field(default_factory=RunningScale)
    episodic_cost: RunningScale = field(default_factory=RunningScale)


def normalize_pipeline(obs, reward, cost, scales: ScaleSet, config: TrainConfig):
    """Apply the configured normalizations; any of obs/reward/cost may be None.

    Observations: (x - mean) / divisor elementwise.  Rewards and costs: divide
    by the divisor of the episodic totals, then clip.  Each divisor is 1 until
    its scale has seen two samples.  Scales are read, never updated, here.
    """
    obs_n = obs
    if obs is not None and config.normalize_obs:
        obs_n = (np.asarray(obs) - scales.obs.mean) / scales.obs.divisor()
    r_n = reward
    if reward is not None and config.normalize_return:
        r_n = np.clip(np.asarray(reward) / scales.episodic_return.divisor(), *config.clip_reward)
    c_n = cost
    if cost is not None and config.normalize_cost:
        c_n = np.clip(np.asarray(cost) / scales.episodic_cost.divisor(), *config.clip_cost)
    return obs_n, r_n, c_n


@dataclass
class RunLog:
    rows: list
    agent: Agent
    config: TrainConfig
    scales: ScaleSet


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def log_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LOG_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in LOG_COLUMNS])
    return buf.getvalue()


def write_log(rows, path) -> None:
    Path(path).write_text(log_to_csv(rows))


def rollout(agent: Agent, env, rng: np.random.Generator,
            scales: ScaleSet | None, config: TrainConfig | None):
    """One episode of the mean action; yields ``(raw obs, action, StepResult)`` per step.

    The policy sees observations normalized as :func:`normalize_pipeline`
    does when both ``scales`` and ``config`` are given, the raw ones
    otherwise; the frozen mean and divisor are read once per episode.
    Touches no agent parameter, normalizer, or buffer; ``rng`` is used only
    by ``env.reset``.
    """
    normalize = scales is not None and config is not None and config.normalize_obs
    if normalize:
        mean, divisor = scales.obs.mean, scales.obs.divisor()
    obs = env.reset(rng)
    done = False
    while not done:
        obs_n = (obs - mean) / divisor if normalize else obs
        action = policy_mean_action(agent.policy, obs_n)
        result = env.step(action)
        yield obs, action, result
        obs = result.obs
        done = result.done


def evaluate(agent: Agent, env, n_episodes: int, rng: np.random.Generator,
             scales: ScaleSet | None = None, config: TrainConfig | None = None):
    """Deterministic-policy evaluation on raw (pre-normalization) signals.

    Sums the reward and cost of ``n_episodes`` :func:`rollout` episodes.
    Returns ``(return_mean, return_std, cost_mean, cost_std)``.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    returns, costs = [], []
    for _ in range(n_episodes):
        ep_r = 0.0
        ep_c = 0.0
        for _, _, result in rollout(agent, env, rng, scales, config):
            ep_r += result.reward
            ep_c += result.cost
        returns.append(ep_r)
        costs.append(ep_c)
    returns = np.asarray(returns)
    costs = np.asarray(costs)
    return (
        float(returns.mean()),
        float(returns.std()),
        float(costs.mean()),
        float(costs.std()),
    )


# glibc mallopt parameters and the values train() gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_NEVER_TRIM = 2**31 - 1
# above an update's largest temporary (256x256 float64, 512 KB), below the
# ~6.5 MB checkpoint text; the replay buffer maps its own pages at any size
_MMAP_THRESHOLD = 4 * 1024 * 1024


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process instead of returning it to the OS.

    A fresh glibc process starts with low mmap and trim thresholds and raises
    them only once it frees an mmapped block, which a run does not do
    before its first update.  Until then each update's ~26 MB of 512 KB
    temporaries goes back to the OS and is faulted in again by the next one.
    Setting either parameter turns glibc's adjustment off, so both are fixed
    here, for the whole process and for good.  Does nothing where the C
    library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_TRIM_THRESHOLD, _NEVER_TRIM)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def train(config: TrainConfig, out_dir=None) -> RunLog:
    """Run Algorithm-1-style training for ``config.total_steps`` env steps.

    The first ``random_steps`` actions are uniform; one agent update happens
    after every later step (a no-op until the buffer holds a full batch).
    Every ``eval_interval`` steps a deterministic evaluation row is logged.
    ``out_dir``, when given, is created before any work, so a path that
    cannot be a directory fails at once.  On glibc it fixes malloc's trim and
    mmap thresholds for the whole process (:func:`_keep_freed_heap`).
    """
    config.validate()
    _keep_freed_heap()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence(config.seed)
    net_rng, env_rng, noise_rng, update_rng, eval_rng = (
        np.random.default_rng(child) for child in ss.spawn(5)
    )

    env = make_env(config.env)
    eval_env = make_env(config.env)
    agent = make_agent(
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
    buffer = ReplayBuffer(config.buffer_capacity, env.obs_dim, env.act_dim)
    scales = ScaleSet()
    rows: list[LogRow] = []
    last_losses = dict.fromkeys(LOSS_COLUMNS, 0.0)

    def batch_transform(batch: dict) -> dict:
        b = dict(batch)
        b["s"], b["r"], b["c"] = normalize_pipeline(b["s"], b["r"], b["c"], scales, config)
        b["s_next"], _, _ = normalize_pipeline(b["s_next"], None, None, scales, config)
        return b

    def log_row(step: int, eval_stats=(math.nan,) * 4) -> LogRow:
        """One log row; a diagnostic row leaves the eval stats NaN (empty)."""
        return LogRow(
            step,
            config.algo,
            config.env,
            config.seed,
            *eval_stats,
            **log_scalars(agent),
            **last_losses,
        )

    obs = env.reset(env_rng) if config.total_steps > 0 else None
    ep_return = 0.0
    ep_cost = 0.0

    for step in range(1, config.total_steps + 1):
        if config.normalize_obs:
            scales.obs.update(obs)
        if step <= config.random_steps:
            action = noise_rng.uniform(-1.0, 1.0, size=env.act_dim)
        else:
            obs_n, _, _ = normalize_pipeline(obs, None, None, scales, config)
            noise = noise_rng.standard_normal(env.act_dim)
            action, _ = policy_sample(agent.policy, obs_n, noise)

        result = env.step(action)
        ep_return += result.reward
        ep_cost += result.cost
        transition = Transition(obs, action, result.reward, result.cost, result.obs, result.done)
        if config.algo == "sac_rs":
            transition = rs_shape(transition, agent.rs)
        buffer.push(transition)

        if step > config.random_steps:
            metrics = agent_update_step(agent, buffer, config, update_rng, batch_transform)
            if metrics["updated"]:
                for key in LOSS_COLUMNS:
                    last_losses[key] = float(metrics[key])
                bad = [key for key in LOSS_COLUMNS if not math.isfinite(metrics[key])]
                if bad:
                    rows.append(log_row(step))
                    _write_outputs(out_dir, rows, config, agent, scales, step)
                    raise TrainingDiverged(f"non-finite {', '.join(bad)} at step {step}")

        if transition.done:
            scales.episodic_return.update(ep_return)
            scales.episodic_cost.update(ep_cost)
            ep_return = 0.0
            ep_cost = 0.0
            obs = env.reset(env_rng)
        else:
            obs = result.obs

        if step % config.eval_interval == 0:
            stats = evaluate(agent, eval_env, config.eval_episodes, eval_rng, scales, config)
            rows.append(log_row(step, stats))

    _write_outputs(out_dir, rows, config, agent, scales, config.total_steps)
    return RunLog(rows, agent, config, scales)


def checkpoint_to_json(agent: Agent, scales: ScaleSet, config: TrainConfig, step: int) -> str:
    doc = agent_to_doc(agent, step)
    doc["env"] = config.env
    doc["obs_scale"] = scales.obs.state()
    return json.dumps(doc, default=net_to_doc)


def _write_outputs(out_dir, rows, config, agent, scales, step) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    write_log(rows, out / "log.csv")
    (out / "config.json").write_text(config_to_json(config))
    (out / "checkpoint.json").write_text(checkpoint_to_json(agent, scales, config, step))
