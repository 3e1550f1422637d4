"""Command-line entry points: ``train``, ``eval``, ``bench-bound``."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from barrier_rl.agents import ALGOS
from barrier_rl.envs import ENV_NAMES, make_env
from barrier_rl.harness import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    parse_config,
    read_checkpoint,
    rollout,
    train,
)
from barrier_rl.optbench import PROBLEMS, bench_to_csv, run_bench


def _cmd_train(args) -> int:
    config = parse_config(args.config) if args.config else TrainConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(TrainConfig)
        if getattr(args, f.name, None) is not None
    }
    if "algo" in overrides:
        overrides["algo"] = overrides["algo"].replace("-", "_")
    config = replace(config, **overrides)
    try:
        train(config, out_dir=args.out)
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 2
    return 0


def _dump_trajectory(env, agent, scales, config, rng, path) -> None:
    header = (
        ["step"]
        + [f"obs{i}" for i in range(env.obs_dim)]
        + [f"action{i}" for i in range(env.act_dim)]
        + ["reward", "cost", "done"]
    )
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for step, (obs, action, result) in enumerate(rollout(agent, env, rng, scales, config)):
            row = [*obs.tolist(), *action.tolist(), result.reward, result.cost, int(result.done)]
            writer.writerow([step, *row])


def _cmd_eval(args) -> int:
    if args.seed < 0:
        raise ValueError("seed: must be nonnegative")
    if args.episodes < 1:
        raise ValueError("episodes: must be positive")
    try:
        agent, step, recorded_env, scales = read_checkpoint(args.checkpoint)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    env_name = args.env or recorded_env
    env = make_env(env_name)
    widths = (agent.policy.trunk.layer_sizes[0], agent.policy.act_dim)  # decodes nothing
    if (env.obs_dim, env.act_dim) != widths:
        raise ValueError(
            f"env {env_name} has obs/act widths {env.obs_dim}/{env.act_dim}, "
            f"the checkpoint's policy {widths[0]}/{widths[1]}"
        )
    config = TrainConfig(algo=agent.algo, env=env_name)
    rng = np.random.default_rng(args.seed)
    r_mean, r_std, c_mean, c_std = evaluate(agent, env, args.episodes, rng, scales, config)
    print(
        f"checkpoint step {step}: return {r_mean:.3f} +- {r_std:.3f}, "
        f"cost {c_mean:.3f} +- {c_std:.3f} over {args.episodes} episodes"
    )
    if args.dump_trajectory:
        _dump_trajectory(env, agent, scales, config, rng, args.dump_trajectory)
    return 0


def _cmd_bench(args) -> int:
    mus = args.mu or [1.0, 1.5, 2.0, 3.0, 5.0]
    names = list(PROBLEMS) if args.problem == "all" else [args.problem]
    results = run_bench(mus, names)
    Path(args.out).write_text(bench_to_csv(results))
    bad = [r for r in results if not r["ok"]]
    for r in results:
        print(
            f"{r['problem']} mu={r['mu']}: gap={r['gap']:.6f} violation={r['violation']:.6f} "
            f"bound={r['bound']:.6f} "
            f"kkt={r['kkt_residual']:.2e} ok={r['ok']}"
        )
    if bad:
        print(f"{len(bad)} cells violate the bound", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barrier-rl",
        description="Constrained SAC with a log barrier safety critic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    p_train.add_argument("--algo", choices=[algo.replace("_", "-") for algo in ALGOS])
    p_train.add_argument("--env", choices=list(ENV_NAMES))
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", type=int, dest="total_steps")
    p_train.add_argument("--mu", type=float)
    p_train.add_argument("--cost-limit", type=float)
    p_train.add_argument("--config", help="JSON config file; CLI flags override it")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--env", choices=list(ENV_NAMES))
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--dump-trajectory", help="write one episode as CSV")
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench-bound", help="verify the optimality-gap bound")
    p_bench.add_argument("--mu", type=float, action="append")
    p_bench.add_argument("--problem", choices=[*PROBLEMS, "all"], default="all")
    p_bench.add_argument("--out", required=True, help="output CSV file")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
