"""Acceptance suite: the eight scaled-down verification criteria.

Criteria 1-4, 7, 8 run inline in seconds.  Criteria 5 and 6 evaluate
multi-hour training runs; they read precomputed run directories under
``acceptance_runs/``, which only ``acceptance_runs/run_all.sh`` produces,
and are skipped when those are absent.
"""

import csv
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barrier_rl import optbench
from barrier_rl.agents import (
    SacLagState,
    csaclb_actor_loss,
    sac_actor_loss,
    saclag_actor_loss,
    saclag_beta_update,
)
from barrier_rl.barriers import (
    BarrierConfig,
    _shifted_grad,
    shifted_barrier,
    shifted_barrier_grad,
)
from barrier_rl.harness import LOG_COLUMNS, TrainConfig, config_to_json, train
from barrier_rl.nets import DenseNet, init_net
from barrier_rl.optbench import run_bench
from barrier_rl.sac import DoubleQ, GaussianPolicy
from test_golden import BATCH_256_GOLDEN, GOLDEN

RUNS_DIR = Path(__file__).resolve().parent.parent / "acceptance_runs"


class TestCriterion1BarrierAnalytics:
    MUS = [1.1, 1.5, 2.0, 3.0, 10.0]

    @pytest.mark.parametrize("mu", MUS)
    def test_knot_values_and_slopes_agree(self, mu):
        knot = -1.0 / (mu * mu)
        left_value = -math.log(-knot) / mu
        right_value = mu * knot - math.log(1.0 / (mu * mu)) / mu + 1.0 / mu
        left_slope = -1.0 / (mu * knot)
        right_slope = mu
        assert abs(left_value - right_value) <= 1e-9
        assert abs(left_slope - right_slope) <= 1e-9

    @pytest.mark.parametrize("mu", MUS)
    def test_shifted_grad_matches_finite_differences(self, mu):
        cfg = BarrierConfig(mu=mu, cost_limit=0.0)
        # nonsmooth points of the shifted barrier: x = d (rectifier) and
        # x = d + 1 - 1/mu^2 (barrier knot); exclude a 1e-6 band around each
        knots = (cfg.cost_limit, cfg.cost_limit + 1.0 - 1.0 / (mu * mu))
        rng = np.random.default_rng(int(mu * 100))
        h = 1e-6
        count = 0
        while count < 100:
            x = float(rng.uniform(-2.0, 3.0))
            if any(abs(x - k) <= 1e-6 + h for k in knots):
                continue
            count += 1
            fd = (shifted_barrier(x + h, cfg) - shifted_barrier(x - h, cfg)) / (2 * h)
            g = shifted_barrier_grad(x, cfg)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-12)

    @pytest.mark.parametrize("mu", MUS)
    def test_dead_zone_exact_zero_on_grid(self, mu):
        cfg = BarrierConfig(mu=mu, cost_limit=0.0)
        xs = np.linspace(-50.0, cfg.cost_limit, 1000)
        values = shifted_barrier(xs, cfg)
        grads = shifted_barrier_grad(xs, cfg)
        assert np.all(values == 0.0)
        assert np.all(grads == 0.0)


BENCH_MUS = [1.0, 1.5, 2.0, 3.0, 5.0]


def bench_results():
    return run_bench(BENCH_MUS, ["p1", "p2", "p3"])


@pytest.fixture(scope="module")
def results():
    return bench_results()


# Each criterion-2 check returns the (problem, mu) cells that fail it.


def gap_failures(results):
    return [(r["problem"], r["mu"]) for r in results if not (r["gap"] <= r["bound"] + 1e-6)]


def bound_failures(results):
    # README's statement of the bound, written out here rather than imported
    return [
        (r["problem"], r["mu"])
        for r in results
        if r["bound"] != pytest.approx(abs(1 - r["mu"] ** 2) * r["m"] / r["mu"], rel=1e-12)
    ]


def kkt_failures(results):
    return [
        (r["problem"], r["mu"]) for r in results if r["mu"] > 1.0 and r["kkt_residual"] > 1e-4
    ]


def solution_failures(results):
    # p1 and each coordinate of p3 solve 2x = barrier'(1 - x): slope mu on the
    # linear piece while mu**3 < 2, else 1/(mu*x) on the log piece; p2's optimum is inside
    failed = []
    for r in results:
        mu = r["mu"]
        active = mu / 2.0 if mu**3 < 2.0 else 1.0 / math.sqrt(2.0 * mu)
        expected = {"p1": [active], "p2": [2.0], "p3": [active, active]}[r["problem"]]
        if list(r["x_tilde"]) != pytest.approx(expected, abs=1e-4):
            failed.append((r["problem"], mu))
    return failed


CRITERION2_CHECKS = (gap_failures, bound_failures, kkt_failures, solution_failures)


class TestCriterion2BoundVerification:

    def test_gap_within_bound_every_cell(self, results):
        assert len(results) == 15
        assert gap_failures(results) == []
        assert all(r["ok"] for r in results)

    def test_bound_is_the_stated_formula(self, results):
        assert bound_failures(results) == []

    def test_kkt_residual_small_for_mu_above_one(self, results):
        assert kkt_failures(results) == []

    def test_solutions_match_analytic(self, results):
        assert solution_failures(results) == []

    @pytest.mark.parametrize(
        "name, mutant",
        [
            ("_shifted_grad", lambda x, mu, limit: 0.0),
            ("_shifted_grad", lambda x, mu, limit: 0.1 * _shifted_grad(x, mu, limit)),
            ("performance_bound", lambda mu, m: abs(1 - mu) * m / mu),
        ],
        ids=["zero-penalty", "slope-x0.1", "bound-without-square"],
    )
    def test_a_broken_barrier_or_bound_fails_a_check(self, monkeypatch, name, mutant):
        monkeypatch.setattr(optbench, name, mutant)
        mutated = bench_results()
        assert any(check(mutated) for check in CRITERION2_CHECKS)


class TestCriterion3NetworkGradients:
    def test_actor_loss_gradients_match_fd(self):
        obs_dim, act_dim, batch_n = 3, 1, 8
        hidden = (16, 16)
        cfg = BarrierConfig(mu=2.0, cost_limit=0.0)
        eps = 1e-6
        for draw in range(20):
            rng = np.random.default_rng(1000 + draw)
            policy = GaussianPolicy(
                init_net([obs_dim, *hidden, 2 * act_dim], rng), act_dim
            )
            q_sizes = [obs_dim + act_dim, *hidden, 1]
            reward_q = DoubleQ(init_net(q_sizes, rng), init_net(q_sizes, rng))
            cost_q = DoubleQ(init_net(q_sizes, rng), init_net(q_sizes, rng))
            cost_q.q1.biases[-1] += 0.5  # keep the barrier active sometimes
            batch = {"s": rng.standard_normal((batch_n, obs_dim))}
            noise = rng.standard_normal((batch_n, act_dim))
            which = "csac_lb" if draw % 2 == 0 else "sac_lag"

            def loss_fn():
                if which == "csac_lb":
                    return csaclb_actor_loss(
                        batch, policy, reward_q, cost_q, 0.3, cfg, noise
                    )
                return saclag_actor_loss(
                    batch, policy, reward_q, cost_q, 0.3, 0.5, noise
                )

            _, grads, _ = loss_fn()
            for p, g in zip(policy.trunk.params(), grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    orig = p[i]
                    p[i] = orig + eps
                    hi = loss_fn()[0]
                    p[i] = orig - eps
                    lo = loss_fn()[0]
                    p[i] = orig
                    fd = (hi - lo) / (2 * eps)
                    assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestCriterion4DualDynamics:
    def test_one_step_from_zero(self):
        st = saclag_beta_update(SacLagState(beta=0.0, beta_lr=3e-4), mean_qc=2.0, d=0.0)
        assert st.beta == pytest.approx(6e-4)

    def test_strictly_increasing_above_limit(self):
        st = SacLagState(beta=0.0, beta_lr=3e-4)
        prev = st.beta
        for _ in range(100):
            saclag_beta_update(st, mean_qc=1.3, d=0.0)
            assert st.beta > prev
            prev = st.beta

    def test_nonincreasing_clamped_below_limit(self):
        st = SacLagState(beta=5e-3, beta_lr=3e-4)
        prev = st.beta
        for _ in range(100):
            saclag_beta_update(st, mean_qc=-0.7, d=0.0)
            assert st.beta <= prev
            assert st.beta >= 0.0
            prev = st.beta
        assert st.beta == 0.0


class TestCriterion7BarrierSacReduction:
    def test_frozen_cost_critic_gives_identical_gradients(self):
        rng = np.random.default_rng(21)
        obs_dim, act_dim = 3, 1
        policy = GaussianPolicy(init_net([obs_dim, 16, 2 * act_dim], rng), act_dim)
        reward_q = DoubleQ(init_net([4, 16, 1], rng), init_net([4, 16, 1], rng))
        frozen = DenseNet([obs_dim + act_dim, 1], np.append(np.zeros(obs_dim + act_dim), -1.0))
        cost_q = DoubleQ(frozen, frozen.copy())
        batch = {"s": rng.standard_normal((32, obs_dim))}
        noise = rng.standard_normal((32, act_dim))
        cfg = BarrierConfig(mu=3.0, cost_limit=0.0)
        l_b, g_b, _ = csaclb_actor_loss(batch, policy, reward_q, cost_q, 0.5, cfg, noise)
        l_s, g_s, _ = sac_actor_loss(batch, policy, reward_q, cost_q, 0.5, noise)
        assert l_b == l_s
        for a, b in zip(g_b, g_s):
            np.testing.assert_array_equal(a, b)


class TestCriterion8Reproducibility:
    CFG = dict(
        total_steps=300, random_steps=50, batch_size=32,
        eval_interval=100, eval_episodes=2,
    )

    def test_identical_config_seed_bitwise_log(self, tmp_path):
        cfg = TrainConfig(**self.CFG)
        train(dataclasses.replace(cfg), tmp_path / "a")
        train(dataclasses.replace(cfg), tmp_path / "b")
        assert (tmp_path / "a" / "log.csv").read_bytes() == (
            tmp_path / "b" / "log.csv"
        ).read_bytes()

    def test_csv_header_matches_schema_golden(self, tmp_path):
        cfg = TrainConfig(**self.CFG)
        train(cfg, tmp_path / "run")
        header = (tmp_path / "run" / "log.csv").read_text().splitlines()[0]
        assert header.split(",") == LOG_COLUMNS
        assert header == (
            "step,algo,env,seed,eval_return_mean,eval_return_std,"
            "eval_cost_mean,eval_cost_std,alpha,beta,mu,actor_loss,"
            "critic_loss_r,critic_loss_c"
        )

    def test_config_round_trip_equals_defaults(self, tmp_path):
        from barrier_rl.harness import config_to_json, parse_config

        path = tmp_path / "config.json"
        path.write_text(config_to_json(TrainConfig()))
        assert parse_config(path) == TrainConfig()


def load_eval_rows(run_dir: Path, steps: int):
    """Eval rows (step, return, cost) of a precomputed run up to ``steps``.

    Skips when the run is absent; fails unless its last row up to ``steps``
    is at ``steps``, so a cut-short run cannot pass as a finished one.
    """
    log = run_dir / "log.csv"
    if not log.exists():
        pytest.skip(f"precomputed run {run_dir.name} absent; run acceptance_runs/run_all.sh")
    with open(log) as f:
        rows = [
            (int(r["step"]), float(r["eval_return_mean"]), float(r["eval_cost_mean"]))
            for r in csv.DictReader(f)
            if int(r["step"]) <= steps
        ]
    assert rows and rows[-1][0] == steps, f"{run_dir.name}: no eval row at step {steps}"
    return rows


RUN_ALL = RUNS_DIR / "run_all.sh"
# output directory -> (seed, steps, mu) of each cell run_all.sh trains
RUN_ALL_CELLS = {
    **{f"c5_mu3_seed{seed}": (seed, 100_000, "3.0") for seed in range(3)},
    **{f"c6_mu{mu}_seed{seed}": (seed, 60_000, mu) for mu in ("1.01", "1.5") for seed in range(3)},
}


class TestRunAll:
    def test_script_parses(self):
        subprocess.run(["sh", "-n", str(RUN_ALL)], check=True)

    def test_each_missing_cell_trains_once_on_one_blas_thread(self, tmp_path):
        # a stand-in python3 records its BLAS settings and arguments instead of training
        stub, calls = tmp_path / "python3", tmp_path / "calls"
        stub.write_text(
            '#!/bin/sh\necho "$OPENBLAS_NUM_THREADS $OMP_NUM_THREADS $MKL_NUM_THREADS $*"'
            ' >> "$CALLS"\n'
        )
        stub.chmod(0o755)
        env = {
            **os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
            "CALLS": str(calls), "OPENBLAS_NUM_THREADS": "2",
        }
        out = subprocess.run(
            ["sh", str(RUN_ALL)], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        missing = [cell for cell in RUN_ALL_CELLS if not (RUNS_DIR / cell / "log.csv").exists()]
        expected = [
            f"1 1 1 -m barrier_rl.cli train --algo csac-lb --env tilt --seed {seed}"
            f" --steps {steps} --mu {mu} --out acceptance_runs/{cell}"
            for cell, (seed, steps, mu) in RUN_ALL_CELLS.items()
            if cell in missing
        ]
        assert sorted(calls.read_text().splitlines() if missing else []) == sorted(expected)
        assert sorted(out[:-1]) == sorted(f"done acceptance_runs/{cell}" for cell in RUN_ALL_CELLS)
        assert out[-1] == "ALL DONE"


class TestProvenance:
    """A committed cell is a cache of one code's learning: ``PROVENANCE.json``
    names, per cell, the golden log digests of the code that ran it, so a cell
    run before a change that re-pins a digest fails here until it is re-run."""

    def test_each_committed_cell_ran_on_todays_golden_digests(self):
        committed = [cell for cell in RUN_ALL_CELLS if (RUNS_DIR / cell / "log.csv").exists()]
        if not committed:
            pytest.skip("no precomputed run committed")
        provenance = json.loads((RUNS_DIR / "PROVENANCE.json").read_text())
        digests = {f"{algo}/{env}": log for algo, env, log, _, _ in GOLDEN}
        digests["csac_lb/tilt/batch_256"] = BATCH_256_GOLDEN[0]
        assert sorted(provenance) == sorted(committed)
        for cell in committed:
            assert provenance[cell]["golden_log_digests"] == digests, cell

    def test_writer_gives_back_the_committed_entries(self, tmp_path):
        # on a git copy of the cells and the golden digests, so the committed file stays
        provenance = json.loads((RUNS_DIR / "PROVENANCE.json").read_text())
        shutil.copytree(RUNS_DIR, tmp_path / "acceptance_runs")
        (tmp_path / "tests").mkdir()
        shutil.copy(Path(__file__).parent / "test_golden.py", tmp_path / "tests")
        git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "--no-gpg-sign", "-m", "x"]):
            subprocess.run([*git, *args], check=True)
        head = subprocess.run(
            [*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        writer = tmp_path / "acceptance_runs" / "provenance.py"
        subprocess.run([sys.executable, str(writer), *provenance], check=True)
        written = json.loads((tmp_path / "acceptance_runs" / "PROVENANCE.json").read_text())
        assert sorted(written) == sorted(provenance)
        for cell, entry in provenance.items():
            assert sorted(written[cell]) == sorted(entry), cell
            assert written[cell]["commit"] == head
            for key in ("command", "golden_log_digests"):
                assert written[cell][key] == entry[key], (cell, key)

    def test_each_committed_config_is_its_run_all_cell(self):
        for cell, (seed, steps, mu) in RUN_ALL_CELLS.items():
            path = RUNS_DIR / cell / "config.json"
            if path.exists():
                config = TrainConfig(
                    algo="csac_lb", env="tilt", seed=seed, total_steps=steps, mu=float(mu)
                )
                assert path.read_text() == config_to_json(config), cell


class TestCriterion5DeskScaleLearning:
    """CSAC-LB mu=3 on Tilt, 3 seeds x 100k steps: final-10-eval mean cost
    <= 5 and mean return >= -300 for at least 2 of 3 seeds."""

    def test_learning_thresholds(self):
        passing = 0
        summary = []
        for seed in range(3):
            rows = load_eval_rows(RUNS_DIR / f"c5_mu3_seed{seed}", 100_000)
            tail = rows[-10:]
            ret = statistics.mean(r for _, r, _ in tail)
            cost = statistics.mean(c for _, _, c in tail)
            summary.append((seed, ret, cost))
            if cost <= 5.0 and ret >= -300.0:
                passing += 1
        assert passing >= 2, f"(seed, final-10 return, cost): {summary}"


class TestCriterion6MuAblation:
    """Tilt at 60k x 3 seeds: mu in {1.5, 3} each beat mu=1.01's median
    final return by >= 100, and lie within 150 of each other."""

    def median_final_return(self, dir_prefix: str):
        finals = [
            load_eval_rows(RUNS_DIR / f"{dir_prefix}_seed{seed}", 60_000)[-1][1]
            for seed in range(3)
        ]
        return statistics.median(finals)

    def test_ordering(self):
        low = self.median_final_return("c6_mu1.01")
        mid = self.median_final_return("c6_mu1.5")
        # mu=3 cells reuse the criterion-5 runs truncated at 60k (verified
        # bitwise log-prefix property for identical config+seed)
        high = self.median_final_return("c5_mu3")
        assert mid >= low + 100.0, (low, mid, high)
        assert high >= low + 100.0, (low, mid, high)
        assert abs(mid - high) <= 150.0, (low, mid, high)
