"""Pinned output digests: a refactor that keeps behaviour keeps these bytes.

Each case is a short run (seed 3, 60 steps, default 256x256 nets) of one
algorithm on one environment.  The digests hold for one numpy/BLAS build and
BLAS thread count; they were recorded with numpy 2.4 on OpenBLAS and agree at
one and two BLAS threads.  A change that alters them changes learning and
must say so.
"""

import hashlib

import pytest

from barrier_rl.harness import TrainConfig, checkpoint_to_json, log_to_csv, train

STEPS = 60

# (algo, env, sha256 of log.csv, sha256 of checkpoint.json)
GOLDEN = [
    (
        "csac_lb",
        "tilt",
        "410f90aaed189dbf7a1123aaaf37ea99c2c630c0731aaec79b250e76f0504e34",
        "6c109d9f8e4e6f22a1ccf3bc49b33aa929a2656791faeff8cd51a32e33359333",
    ),
    (
        "sac_lag",
        "move",
        "9cf68ab79657c6fc3ef67544ad033ce8aff50f283fcae25111362be8d22dc67b",
        "03a6d9f2b6284bfd7db474d08fc7db03c6da0893e51d2c290dba265152ca0226",
    ),
    (
        "sac_rs",
        "pointnav",
        "7270af1e4490300f0be5abe38ae00c535dfada04687264bb6dd985630a265b90",
        "b52ef63d0ab1a1ed0bcdabb663305ebf5217cf6a2e129da96f057ea48a553c6a",
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("algo,env,log_digest,checkpoint_digest", GOLDEN)
def test_log_and_checkpoint_digests(algo, env, log_digest, checkpoint_digest):
    cfg = TrainConfig(
        algo=algo,
        env=env,
        seed=3,
        total_steps=STEPS,
        random_steps=10,
        batch_size=32,
        eval_interval=30,
        eval_episodes=1,
    )
    run = train(cfg)
    assert _sha256(log_to_csv(run.rows)) == log_digest
    assert _sha256(checkpoint_to_json(run.agent, run.scales, cfg, STEPS)) == checkpoint_digest
