"""Pinned output digests: a refactor that keeps behaviour keeps these bytes.

Each case is a short run (seed 3, 60 steps, default 256x256 nets) of one
algorithm on one environment.  The digests hold for one numpy/BLAS build and
BLAS thread count; they were recorded with numpy 2.4 on OpenBLAS and agree at
one and two BLAS threads.  A change that alters them changes learning and
must say so.

The evaluation path is pinned by the ``eval --dump-trajectory`` CSV of the
checkpoint of a short seed-4 run with observation normalization on, one
case per environment family.  Those digests predate the vector forward
pass and the once-per-episode normalization of ``rollout``.

One more run pins the shapes that real runs take: default nets at batch
256, so the update's matrix products have 256 rows.  Its digests were
recorded at one and at two BLAS threads and agree.

The bound bench is pinned by its CSV over the CLI's default mu grid and
over a denser one (20 mus in (1, 1.5], 20 in (1.5, 10]).  Both moved once,
when ``solve_smoothed_barrier`` went from fixed-step gradient descent to
bracketed Newton per coordinate and the ``violation`` column was added:
against the gradient-descent digests every cell kept its ``ok``, ``bound``,
``p_star`` and ``m``, and ``x~`` moved by at most 5.0e-9 (both solvers stop
once the penalized gradient norm is below 1e-8).

The checkpoint is pinned twice: as written (base64 ``<f8`` weights) and as
re-emitted in the earlier decimal-list format, whose digests predate the
base64 encoding.  The second shows that the stored weights and scalars are
still bit-identical to what that format held.
"""

import hashlib
import json

import numpy as np
import pytest

from barrier_rl.cli import main
from barrier_rl.harness import TrainConfig, checkpoint_to_json, log_to_csv, train
from barrier_rl.nets import net_from_doc
from barrier_rl.optbench import bench_to_csv, run_bench

STEPS = 60

# (algo, env, sha256 of log.csv, sha256 of checkpoint.json,
#  sha256 of checkpoint.json re-emitted in the decimal-list format)
GOLDEN = [
    (
        "csac_lb",
        "tilt",
        "410f90aaed189dbf7a1123aaaf37ea99c2c630c0731aaec79b250e76f0504e34",
        "ec2cc39fb76b6cfbdfbfbae0f7c8fb3c53a97ea278eeec2bddf2d65234c1fb63",
        "6c109d9f8e4e6f22a1ccf3bc49b33aa929a2656791faeff8cd51a32e33359333",
    ),
    (
        "sac_lag",
        "move",
        "9cf68ab79657c6fc3ef67544ad033ce8aff50f283fcae25111362be8d22dc67b",
        "08784be92cb6d1e675290d0ae64edab3b51b1068396eb6f0bb1f81f03d87a720",
        "03a6d9f2b6284bfd7db474d08fc7db03c6da0893e51d2c290dba265152ca0226",
    ),
    (
        "sac_rs",
        "pointnav",
        "7270af1e4490300f0be5abe38ae00c535dfada04687264bb6dd985630a265b90",
        "a656365e43d4e781e356a808221115e9554fb02a4731f5a02d130b92ceae1421",
        "b52ef63d0ab1a1ed0bcdabb663305ebf5217cf6a2e129da96f057ea48a553c6a",
    ),
]


# (algo, env, sha256 of the ``eval --dump-trajectory`` CSV at eval seed 7)
TRAJECTORY_GOLDEN = [
    ("csac_lb", "tilt", "e5f49c3273fa96827ef75aad5a18552e613c6088f169bf3eeffd2478cccc9871"),
    ("sac_lag", "swing", "ab9122406fae860334e0cf656db80149afa502204befd93a62d3bf2520730f71"),
    ("sac_rs", "pointnav", "b384f489d31d8121a64d70cbd799ca1c29c47caa55bdc7352fb8a5ae43b90fca"),
]


# csac_lb/tilt at batch 256: (sha256 of log.csv, sha256 of checkpoint.json)
BATCH_256_GOLDEN = (
    "d120cc269a86a59d746241b4dcbc191d481163bdfa2a6d02362e0373e9eaa4c2",
    "ad5053025f3bba3c0d2d267dfb2be8d89e2169463d82a589b9e137d1a2fee913",
)

DENSE_MUS = [*np.linspace(1.0, 1.5, 21)[1:].tolist(), *np.linspace(1.5, 10.0, 21)[1:].tolist()]

# (mu grid, sha256 of bench_to_csv(run_bench(mus)) over P1-P3)
BOUND_GOLDEN = [
    ([1.0, 1.5, 2.0, 3.0, 5.0], "edcfb4b7ae768aaad67365065f3e582a82cb437fb9c19e7d4f3137804bd511f0"),
    (DENSE_MUS, "4e9dff47df57489c39fb0cf46c90491698819e401ad5ec9a484ef04657797e27"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _legacy_text(text: str) -> str:
    """The checkpoint as the decimal-list format wrote it, from the same values."""
    doc = json.loads(text)
    for key, net_doc in doc["networks"].items():
        net = net_from_doc(net_doc)
        doc["networks"][key] = {
            "layer_sizes": net.layer_sizes,
            "weights": [w.tolist() for w in net.weights],
            "biases": [b.tolist() for b in net.biases],
        }
    del doc["scalars"]["beta_lr"], doc["scalars"]["rs_penalty"]
    return json.dumps(doc)


@pytest.mark.parametrize("algo,env,log_digest,checkpoint_digest,legacy_digest", GOLDEN)
def test_log_and_checkpoint_digests(algo, env, log_digest, checkpoint_digest, legacy_digest):
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
    text = checkpoint_to_json(run.agent, run.scales, cfg, STEPS)
    assert _sha256(text) == checkpoint_digest
    assert _sha256(_legacy_text(text)) == legacy_digest


@pytest.mark.parametrize("algo,env,digest", TRAJECTORY_GOLDEN, ids=lambda v: v[:8])
def test_trajectory_dump_digests(algo, env, digest, tmp_path):
    cfg = TrainConfig(
        algo=algo,
        env=env,
        seed=4,
        total_steps=120,
        random_steps=40,
        batch_size=32,
        eval_interval=60,
        eval_episodes=1,
    )
    train(cfg, tmp_path / "run")
    path = tmp_path / "trajectory.csv"
    checkpoint = str(tmp_path / "run" / "checkpoint.json")
    args = ["eval", "--checkpoint", checkpoint, "--episodes", "1", "--seed", "7"]
    assert main([*args, "--dump-trajectory", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_batch_256_log_and_checkpoint_digests():
    cfg = TrainConfig(
        algo="csac_lb",
        env="tilt",
        seed=3,
        total_steps=300,
        batch_size=256,
        eval_interval=150,
        eval_episodes=1,
    )
    run = train(cfg)  # 45 updates: the buffer holds 256 transitions from step 256
    assert _sha256(log_to_csv(run.rows)) == BATCH_256_GOLDEN[0]
    assert _sha256(checkpoint_to_json(run.agent, run.scales, cfg, 300)) == BATCH_256_GOLDEN[1]


@pytest.mark.parametrize("mus,digest", BOUND_GOLDEN, ids=["default", "dense"])
def test_bound_bench_csv_digests(mus, digest):
    assert _sha256(bench_to_csv(run_bench(mus))) == digest
