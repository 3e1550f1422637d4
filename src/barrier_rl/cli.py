"""Command-line entry points: ``train``, ``eval``, ``bench-bound``."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from barrier_rl.agents import agent_from_doc
from barrier_rl.envs import ENV_NAMES, make_env
from barrier_rl.harness import (
    RunningScale,
    ScaleSet,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    normalize_pipeline,
    parse_config,
    train,
)
from barrier_rl.optbench import PROBLEMS, run_bench, write_bench
from barrier_rl.sac import policy_mean_action


def _cmd_train(args) -> int:
    if args.config:
        config = parse_config(args.config)
    else:
        config = TrainConfig()
    overrides = {}
    if args.algo:
        overrides["algo"] = args.algo.replace("-", "_")
    if args.env:
        overrides["env"] = args.env
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.steps is not None:
        overrides["total_steps"] = args.steps
    if args.mu is not None:
        overrides["mu"] = args.mu
    if args.cost_limit is not None:
        overrides["cost_limit"] = args.cost_limit
    config = replace(config, **overrides).validate()
    try:
        train(config, out_dir=args.out)
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 2
    return 0


def _dump_trajectory(env, agent, scales, config, rng, path) -> None:
    rows = []
    obs = env.reset(rng)
    done = False
    step = 0
    while not done:
        obs_n, _, _ = normalize_pipeline(obs, None, None, scales, config)
        action = np.atleast_1d(policy_mean_action(agent.policy, obs_n))
        result = env.step(action)
        rows.append(
            [step, *obs.tolist(), *action.tolist(), result.reward, result.cost, int(result.done)]
        )
        obs = result.obs
        done = result.done
        step += 1
    header = (
        ["step"]
        + [f"obs{i}" for i in range(env.obs_dim)]
        + [f"action{i}" for i in range(env.act_dim)]
        + ["reward", "cost", "done"]
    )
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_eval(args) -> int:
    doc = json.loads(Path(args.checkpoint).read_text())
    agent, step = agent_from_doc(doc)
    env_name = args.env or doc.get("env")
    if env_name not in ENV_NAMES:
        print(f"unknown env {env_name!r}", file=sys.stderr)
        return 2
    env = make_env(env_name)
    scales = ScaleSet()
    if "obs_scale" in doc:
        scales.obs = RunningScale.from_state(doc["obs_scale"])
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
    write_bench(results, args.out)
    bad = [r for r in results if not r["ok"]]
    for r in results:
        print(
            f"{r['problem']} mu={r['mu']}: gap={r['gap']:.6f} bound={r['bound']:.6f} "
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
    p_train.add_argument("--algo", choices=["csac-lb", "sac-lag", "sac-rs"])
    p_train.add_argument("--env", choices=list(ENV_NAMES))
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", type=int)
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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
