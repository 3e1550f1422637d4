import csv
import ctypes
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from barrier_rl import cli, harness
from barrier_rl.cli import main
from barrier_rl.envs import ENV_NAMES
from barrier_rl.harness import parse_config

MU_RULE = "mu must be positive and finite, with a finite square"

TRAIN_ARGS = [
    "train",
    "--algo",
    "csac-lb",
    "--env",
    "tilt",
    "--seed",
    "0",
    "--steps",
    "150",
]

SMALL_CONFIG = {
    "random_steps": 50,
    "batch_size": 32,
    "eval_interval": 50,
    "eval_episodes": 1,
}


def write_config(tmp_path, extra=None):
    doc = dict(SMALL_CONFIG)
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(TRAIN_ARGS + ["--config", write_config(tmp_path), "--out", str(out)])
        assert code == 0
        assert (out / "log.csv").exists()
        assert (out / "checkpoint.json").exists()
        cfg = parse_config(out / "config.json")
        assert cfg.algo == "csac_lb"
        assert cfg.total_steps == 150

    def test_cli_flags_override_config_file(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {"seed": 99, "mu": 2.0})
        code = main(
            TRAIN_ARGS + ["--mu", "4.0", "--config", config, "--out", str(out)]
        )
        assert code == 0
        cfg = parse_config(out / "config.json")
        assert cfg.seed == 0  # flag wins
        assert cfg.mu == 4.0

    def test_invalid_mu_exits_nonzero(self, tmp_path, capsys):
        code = main(TRAIN_ARGS + ["--mu", "0.5", "--out", str(tmp_path / "x")])
        assert code != 0
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algo,mu",
        # 1e200 once made the directory and ended at the first update in "math domain error";
        # sac_lag reads only the cost limit of its BarrierConfig, yet takes its mu rule too
        [("csac-lb", "1e200"), ("sac-lag", "0.5"), ("sac-rs", "1.0")],
    )
    def test_mu_outside_the_barrier_rule_exits_2_first(self, algo, mu, tmp_path, capsys):
        out = tmp_path / "run"
        config = write_config(tmp_path)
        code = main(["train", "--algo", algo, "--mu", mu, "--steps", "150", "--config", config,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: mu") and err.count("\n") == 1
        assert not out.exists()

    def test_int_and_float_config_values_give_the_same_bytes(self, tmp_path):
        # an int once kept its text: log.csv's mu read 2, the checkpoint "mu": 2, "d": 0;
        # after config files were converted, a TrainConfig built in code still kept it
        names = ("log.csv", "config.json", "checkpoint.json")
        outputs = []
        for extra in ({"mu": 2, "cost_limit": 0}, {"mu": 2.0, "cost_limit": 0.0}):
            out = tmp_path / f"run{len(outputs)}"
            config = tmp_path / f"config{len(outputs)}.json"
            config.write_text(json.dumps({**SMALL_CONFIG, **extra}))
            assert main(TRAIN_ARGS + ["--config", str(config), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in names])
        out = tmp_path / "in_code"
        config = harness.TrainConfig(algo="csac_lb", env="tilt", seed=0, total_steps=150,
                                     mu=2, cost_limit=0, **SMALL_CONFIG)
        harness.train(config, out)
        outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1] == outputs[2]
        assert b",2.0," in outputs[0][0]

    def test_int_too_large_for_a_float_exits_2_naming_it(self, tmp_path, capsys):
        # once a TypeError traceback from np.isfinite, with exit 1
        path = tmp_path / "config.json"
        path.write_text('{"mu": ' + "1" * 401 + "}")
        out = tmp_path / "run"
        code = main(["train", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: mu") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"nope": 1}))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code != 0
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"total_steps": "100"},
            {"clip_reward": 5},
            {"seed": 1.5},
            {"batch_size": 32.5},
            {"normalize_obs": "no"},
            {"eval_interval": True},
            # json writes and reads NaN and Infinity; the range checks alone let them through
            {"mu": math.nan},
            {"actor_lr": math.nan},
            {"cost_limit": math.inf},
            {"clip_reward": [-math.inf, 10]},
            # a buffer that never holds a batch would never update
            {"buffer_capacity": 10},
            # SeedSequence would reject it too, but only after the output directory exists
            {"seed": -1},
        ],
    )
    def test_mistyped_config_value_exits_2_with_one_line(self, tmp_path, capsys, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(["train", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and next(iter(doc)) in err
        assert not out.exists()

    def test_algo_flag_takes_hyphenated_names_only(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--algo", "csac_lb", "--out", str(tmp_path / "x")])

    def test_out_path_that_is_a_file_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(harness, "make_env", no_training)
        out = tmp_path / "taken"
        out.write_text("keep")
        code = main(TRAIN_ARGS + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and str(out) in err
        assert out.read_text() == "keep"

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        code = main(
            ["train", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")]
        )
        assert code != 0


class TestEvalCommand:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("trained")
        out = tmp_path / "run"
        assert (
            main(TRAIN_ARGS + ["--config", write_config(tmp_path), "--out", str(out)])
            == 0
        )
        return out / "checkpoint.json"

    @pytest.fixture()
    def checkpoint(self, trained, tmp_path):
        # one training run per class; each test gets its own copy, as some edit it in place
        path = tmp_path / "run" / "checkpoint.json"
        path.parent.mkdir()
        shutil.copyfile(trained, path)
        return path

    def test_eval_prints_stats(self, checkpoint, capsys):
        code = main(
            ["eval", "--checkpoint", str(checkpoint), "--episodes", "2", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "return" in out and "cost" in out

    def test_eval_env_from_checkpoint(self, checkpoint, capsys):
        for env_flag, error in (
            # no --env flag: env name restored from the checkpoint itself
            ([], None),
            (["--env", "upright"], None),
            (["--env", "pointnav"], "env pointnav has obs/act widths 10/2"),
            (["--env", "move"], "env move has obs/act widths 4/1"),
        ):
            code = main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1", *env_flag])
            out, err = capsys.readouterr()
            if error is None:
                assert code == 0 and "return" in out
            else:
                # rejected before any episode runs
                assert code == 2 and out == ""
                assert err == f"error: {error}, the checkpoint's policy 3/1\n"

    def test_checkpoint_that_names_no_env_exits_2(self, checkpoint, capsys):
        doc = json.loads(checkpoint.read_text())
        del doc["env"]
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unknown env None; expected one of {ENV_NAMES}\n"

    def test_eval_deterministic_given_seed(self, checkpoint, capsys):
        main(["eval", "--checkpoint", str(checkpoint), "--episodes", "3", "--seed", "7"])
        first = capsys.readouterr().out
        main(["eval", "--checkpoint", str(checkpoint), "--episodes", "3", "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_trajectory_dump(self, checkpoint, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(checkpoint),
                "--episodes",
                "1",
                "--dump-trajectory",
                str(path),
            ]
        )
        assert code == 0
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == [
            "step", "obs0", "obs1", "obs2", "action0", "reward", "cost", "done",
        ]
        assert len(rows) == 201  # header + horizon
        assert rows[-1][-1] == "1"

    def test_old_format_or_corrupt_checkpoint_exits_2(self, checkpoint, tmp_path, capsys):
        text = checkpoint.read_text()

        def edited(edit):
            doc = json.loads(text)
            edit(doc["networks"])
            return json.dumps(doc)

        def to_lists(networks):
            for net_doc in networks.values():
                net_doc["weights"] = net_doc["biases"] = []
                del net_doc["params"]

        def bad_char(networks, key="policy", char="!"):
            networks[key]["params"] = char + networks[key]["params"][1:]

        for bad in (
            edited(to_lists),
            edited(bad_char),
            # a network that eval never reads is still checked at load
            edited(lambda networks: bad_char(networks, "qc2")),
            edited(lambda networks: bad_char(networks, char="\u00e9")),
            edited(lambda networks: networks.pop("qc1")),
            json.dumps({k: v for k, v in json.loads(text).items() if k != "obs_scale"}),
            text[: len(text) // 2],
            "[]",
        ):
            path = tmp_path / "bad.json"
            path.write_text(bad)
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(path), "--episodes", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("bad checkpoint") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "obs_scale",
        [
            # a negative m2 made `return nan +- nan` with exit 0
            {"count": 10, "mean": [0.0, 0.0, 0.0], "m2": [1.0, -1.0, 1.0]},
            # a negative count silently dropped the std scaling
            {"count": -3, "mean": [0.1, 0.2, 0.3], "m2": [5.0, 5.0, 5.0]},
            # a 5-wide scale on a 3-input policy failed at the first step, unnamed
            {"count": 10, "mean": [0.0] * 5, "m2": [1.0] * 5},
            # a mean before any sample shifted every observation, with exit 0
            {"count": 0, "mean": [5.0, 5.0, 5.0], "m2": [0.0, 0.0, 0.0]},
            # update leaves m2 exactly 0 after one sample
            {"count": 1, "mean": [0.1, 0.2, 0.3], "m2": [1.0, 0.0, 0.0]},
            # a 0-d mean after samples subtracted 5 from every observation, with exit 0
            {"count": 1, "mean": 5.0, "m2": 0.0},
        ],
        ids=[
            "negative-m2", "negative-count", "wrong-width", "mean-at-count-0", "m2-at-count-1",
            "0-d-mean-with-samples",
        ],
    )
    def test_bad_obs_scale_exits_2_naming_it(self, checkpoint, capsys, obs_scale):
        doc = json.loads(checkpoint.read_text())
        doc["obs_scale"] = obs_scale
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad checkpoint") and err.count("\n") == 1 and "obs_scale" in err

    def test_checkpoint_mu_outside_the_barrier_rule_exits_2(self, checkpoint, capsys):
        # a mu whose square overflows once loaded and evaluated with exit 0
        doc = json.loads(checkpoint.read_text())
        doc["scalars"]["mu"] = 1e200
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad checkpoint") and err.count("\n") == 1 and "mu" in err

    @pytest.mark.parametrize(
        "key,value",
        [
            # each once loaded and evaluated with exit 0: NaN passed the range checks,
            # beta_lr was not checked, and int() truncated the integer fields
            ("beta", math.nan),
            ("rs_penalty", math.nan),
            ("beta_lr", math.nan),
            ("beta_lr", -1.0),
            ("step", 7.9),
            ("step", True),
            ("step", "7"),
            ("act_dim", 1.5),
            ("act_dim", True),
            # alpha = exp(log_alpha) read NaN, overflowed or raised TypeError
            ("log_alpha", math.nan),
            ("log_alpha", 1e6),
            ("log_alpha", "x"),
        ],
    )
    def test_checkpoint_value_outside_its_rule_exits_2_naming_it(self, checkpoint, capsys,
                                                                 key, value):
        doc = json.loads(checkpoint.read_text())
        (doc if key == "act_dim" else doc["scalars"])[key] = value
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad checkpoint") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("size", [3.9, 3.0])
    def test_layer_sizes_that_are_not_integers_exit_2(self, checkpoint, capsys, size):
        # int() made [3.9, 256, 256, 2] the policy's [3, 256, 256, 2], with exit 0
        doc = json.loads(checkpoint.read_text())
        doc["networks"]["policy"]["layer_sizes"][0] = size
        checkpoint.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bad checkpoint") and err.count("\n") == 1 and "layer_sizes" in err

    def test_obs_scale_that_saw_no_observation_loads(self, checkpoint, capsys):
        doc = json.loads(checkpoint.read_text())
        doc["obs_scale"] = {"count": 0, "mean": 0.0, "m2": 0.0}
        checkpoint.write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(checkpoint), "--episodes", "1"]) == 0
        assert "return" in capsys.readouterr().out

    def test_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.json")])
        assert code != 0

    def test_checkpoint_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        # a bad flag is named before the checkpoint is read
        for flag, message in (
            (["--seed", "-1"], "seed: must be nonnegative"),
            (["--episodes", "0"], "episodes: must be positive"),
        ):
            code = main(["eval", "--checkpoint", str(tmp_path), *flag])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestBenchCommand:
    def test_bench_all_ok(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench-bound", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "ok=True" in text
        with open(out) as f:
            rows = list(csv.reader(f))
        # header + 3 problems x 5 default mus
        assert len(rows) == 16

    def test_bench_single_problem_and_mu(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench-bound", "--problem", "p1", "--mu", "2.0", "--out", str(out)])
        assert code == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_exits_2_with_one_line(self, mu, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench-bound", "--problem", "p1", "--mu", "2.0", "--mu", mu, "--out", str(out)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {MU_RULE}")
        assert captured.err.count("\n") == 1

    def test_mu_past_the_pole_of_the_old_rule_solves(self, tmp_path, capsys):
        # from mu = 2^27, 1 - 1/mu^2 rounds to 1; the slope once put z = 1 on the
        # log branch, so Newton's first step out of the dead zone hit the pole
        out = tmp_path / "bench.csv"
        code = main(["bench-bound", "--mu", "134217728", "--mu", "1e10", "--out", str(out)])
        assert code == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6 and all(row["ok"] == "1" for row in rows)
        for row in rows:
            if row["problem"] != "p2":
                expected = 1.0 / math.sqrt(2.0 * float(row["mu"]))
                xs = [float(row[k]) for k in ("x0", "x1") if row[k]]
                assert xs == pytest.approx([expected] * len(xs), rel=1e-3)

    def test_mu_whose_square_overflows_exits_2_with_one_line(self, tmp_path, capsys):
        # -1/mu^2 underflows to -0.0, which would put the pole z = 1 on the log branch
        out = tmp_path / "bench.csv"
        code = main(["bench-bound", "--mu", "1e200", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: {MU_RULE}") and "1e+200" in captured.err
        assert captured.err.count("\n") == 1

    def test_a_cell_that_did_not_converge_exits_1(self, tmp_path, capsys):
        # at mu = 1e50, p3 uses up every iteration far from stationarity with its
        # gap within the bound; the cell is written, but it fails the check
        out = tmp_path / "bench.csv"
        code = main(["bench-bound", "--problem", "p3", "--mu", "1e50", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == "1 cells fail the check\n"
        with open(out) as f:
            (row,) = csv.DictReader(f)
        assert float(row["kkt_residual"]) > 1e49 and row["ok"] == "0"


def child_minor_faults(args):
    """Minor page faults of one fresh Python process run with ``src`` on its path."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, *args], env=env, check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc mallopt")
class TestHeapSettings:
    def test_cold_train_does_not_refault_heap(self, tmp_path):
        # without fixed thresholds a fresh process hands each update's
        # temporaries back to the OS: ~390k minor faults here, ~17k with them
        faults = child_minor_faults(
            ["-m", "barrier_rl.cli", "train", "--algo", "csac-lb", "--env", "tilt",
             "--seed", "0", "--steps", "300", "--out", str(tmp_path / "run")]
        )
        assert faults < 100_000

    def test_library_train_does_not_refault_heap(self, tmp_path):
        # the same run as a library call: train() fixes the thresholds itself
        faults = child_minor_faults(
            ["-c", "import sys; from barrier_rl import harness; harness.train("
             "harness.TrainConfig(algo='csac_lb', env='tilt', seed=0, total_steps=300),"
             " sys.argv[1])", str(tmp_path / "run")]
        )
        assert faults < 100_000
