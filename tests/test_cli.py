"""End-to-end command line flows on a tiny synthetic scene."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import edgereid
from edgereid import config, transition
from edgereid.cli import main
from edgereid.scene import GeneratorSpec
from edgereid.transition import TransitionNetConfig, load_checkpoint

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
BUNDLE = ("report.json", "report.txt", "pairs.csv", "history.json",
          "checkpoint.json")

RING = {
    "num_cameras": 3,
    "edges": [
        {"from": 0, "to": 1, "prob": 1.0, "delay": {"fixed": 10}},
        {"from": 1, "to": 2, "prob": 1.0,
         "delay": {"lognormal": {"mu": 3.0, "sigma": 0.3}}},
        {"from": 2, "to": 0, "prob": 1.0, "delay": {"fixed": 25}},
    ],
    "num_identities": 24,
    "visits": 4,
    "feature_dim": 6,
    "feature_noise": 0.2,
    "start_spread": 20,
}


def base_config():
    return {
        "scene": {"generator": dict(RING), "seed": 3},
        "model": {"embed_dim": 8, "num_blocks": 1, "seed": 4},
        "train": {"epochs": 2, "pairs_per_epoch": 128, "batch_size": 64,
                  "holdout_pairs": 200, "seed": 5},
        "simulate": {"strategies": ["centralized", "visual", "combined"],
                     "max_queries": 12, "rank_ks": [1, 5], "seed": 6},
    }


@pytest.fixture
def config_path(tmp_path):
    def write(doc, name="run.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_module_entry_point_reports_version():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(edgereid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "edgereid.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("edgereid ")


def test_the_command_line_imports_no_scipy():
    # numpy is the one runtime dependency; scipy is a test-only import
    src = os.path.dirname(os.path.dirname(edgereid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, edgereid.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_gen_writes_scene_and_spec(tmp_path, config_path, capsys):
    cfg = config_path(base_config())
    out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    header = (out / "scene.csv").read_text().splitlines()[0]
    assert header.startswith("identity,camera,timestamp")
    spec = json.loads((out / "generator.json").read_text())
    assert spec["num_cameras"] == 3


def test_gen_requires_a_generator(tmp_path, config_path, capsys):
    doc = base_config()
    csv = tmp_path / "scene.csv"
    csv.write_text("identity,camera,timestamp\n0,0,1\n0,1,5\n")
    doc["scene"] = {"ingest": str(csv)}
    assert main(["gen", "--config", config_path(doc)]) == 1
    assert "requires scene.generator" in capsys.readouterr().err


def test_unknown_config_key_exits_1(config_path, capsys):
    assert main(["gen", "--config", config_path({"extra": {}})]) == 1
    assert "unknown keys: extra" in capsys.readouterr().err


def test_missing_ingest_file_exits_1(config_path, capsys):
    doc = {"scene": {"ingest": "nowhere/scene.csv"}}
    assert main(["simulate", "--config", config_path(doc)]) == 1
    assert "no such file" in capsys.readouterr().err


def test_bad_flags_exit_1(config_path):
    cfg = config_path(base_config())
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 1


def test_train_writes_loadable_checkpoint(tmp_path, config_path, capsys):
    cfg = config_path(base_config())
    out = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert "hold-out accuracy" in capsys.readouterr().out
    model = load_checkpoint(out / "checkpoint.json")
    assert model.config.num_cameras == 3 and model.config.embed_dim == 8
    history = json.loads((out / "history.json").read_text())
    assert [row["epoch"] for row in history] == [0, 1]
    assert all("loss" in row and "holdout_accuracy" in row for row in history)


def test_gradcheck_passes_and_flags_faults(config_path, capsys):
    cfg = config_path(base_config())
    assert main(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("max relative error") == 3
    assert "gradient check passed" in out
    assert main(["gradcheck", "--config", cfg, "--inject-fault"]) == 3
    captured = capsys.readouterr()
    assert "gradient check failed" in captured.err
    assert "FAIL" in captured.out


def test_dry_run_writes_nothing(tmp_path, config_path, capsys):
    cfg = config_path(base_config())
    out = tmp_path / "dry"
    for command in ("gen", "train", "gradcheck", "simulate", "eval-central"):
        assert main([command, "--config", cfg, "--out", str(out),
                     "--dry-run"]) == 0
        assert "would" in capsys.readouterr().out
    assert not out.exists()


def test_simulate_outputs_are_deterministic(tmp_path, config_path):
    cfg = config_path(base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    for name in BUNDLE:
        assert read(out_a / name) == read(out_b / name), name
    report = json.loads((out_a / "report.json").read_text())
    assert set(report["strategies"]) == {"centralized", "visual", "combined"}
    assert report["num_queries"] == 12
    assert "output" not in report["config"]
    body = (out_a / "pairs.csv").read_text().splitlines()
    assert body[0] == "strategy,query_index,target_index,device,rank,budget,tn"
    assert len(body) > 1


def test_simulate_bundle_is_the_same_on_one_or_two_eval_workers(
        tmp_path, config_path, eval_workers):
    # the shipped cycle config, with appearance features so that every
    # strategy runs
    doc = json.loads(read(os.path.join(CONFIG_DIR, "cycle.json")))
    doc["scene"]["generator"]["feature_dim"] = 8
    cfg = config_path(doc)
    run_in_threads = transition._run_in_threads
    outs = []
    for workers in (1, 2):
        counts = []

        def recorded(task, count):
            counts.append(count)
            run_in_threads(task, count)

        outs.append(tmp_path / f"w{workers}")
        with eval_workers(workers), pytest.MonkeyPatch.context() as mp:
            mp.setattr(transition, "_run_in_threads", recorded)
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert counts and set(counts) == {workers}
    for name in BUNDLE:
        assert read(outs[0] / name) == read(outs[1] / name), name


def test_simulate_from_checkpoint_skips_training(tmp_path, config_path):
    cfg = config_path(base_config())
    ckpt_dir = tmp_path / "ckpt"
    assert main(["train", "--config", cfg, "--out", str(ckpt_dir)]) == 0
    doc = base_config()
    doc["simulate"]["checkpoint"] = str(ckpt_dir / "checkpoint.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config_path(doc, "ckpt.json"),
                 "--out", str(out)]) == 0
    assert json.loads((out / "history.json").read_text()) == []
    assert not (out / "checkpoint.json").exists()
    # the inline-trained run and the checkpoint-driven run agree pair by pair
    inline = tmp_path / "inline"
    assert main(["simulate", "--config", cfg, "--out", str(inline)]) == 0
    assert read(out / "pairs.csv") == read(inline / "pairs.csv")


def test_gen_then_ingest_matches_inline_generation(tmp_path, config_path):
    cfg = config_path(base_config())
    gen_out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--out", str(gen_out)]) == 0
    doc = base_config()
    doc["scene"] = {"ingest": str(gen_out / "scene.csv"), "seed": 3}
    out_i = tmp_path / "ingested"
    out_g = tmp_path / "generated"
    assert main(["simulate", "--config", config_path(doc, "ingest.json"),
                 "--out", str(out_i)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_g)]) == 0
    assert read(out_i / "pairs.csv") == read(out_g / "pairs.csv")
    assert read(out_i / "checkpoint.json") == read(out_g / "checkpoint.json")


def test_simulate_rejects_featureless_visual_strategies(config_path, capsys):
    doc = base_config()
    doc["scene"]["generator"]["feature_dim"] = 0
    doc["scene"]["generator"]["feature_noise"] = 0.0
    assert main(["simulate", "--config", config_path(doc)]) == 1
    assert "appearance features" in capsys.readouterr().err


def test_simulate_rejects_starved_bandwidth(config_path, capsys):
    doc = base_config()
    doc["inference"] = {"total_bandwidth": 2}
    assert main(["simulate", "--config", config_path(doc)]) == 1
    assert "one slot each" in capsys.readouterr().err


@pytest.mark.parametrize("feature_dim, bandwidth, message", [
    (0, None, "appearance features"),
    (6, 2, "one slot each"),
])
def test_simulate_checks_an_ingested_scene_before_training(
        tmp_path, config_path, capsys, monkeypatch, feature_dim, bandwidth,
        message):
    doc = base_config()
    doc["scene"]["generator"]["feature_dim"] = feature_dim
    gen_out = tmp_path / "gen"
    assert main(["gen", "--config", config_path(doc, "gen.json"),
                 "--out", str(gen_out)]) == 0
    doc["scene"] = {"ingest": str(gen_out / "scene.csv"), "seed": 3}
    if bandwidth is not None:
        doc["inference"] = {"total_bandwidth": bandwidth}

    def no_training(*args):
        raise AssertionError("the model was built before the scene was checked")

    monkeypatch.setattr("edgereid.cli._obtain_model", no_training)
    capsys.readouterr()
    assert main(["simulate", "--config", config_path(doc),
                 "--out", str(tmp_path / "sim")]) == 1
    assert message in capsys.readouterr().err


def test_per_node_heads_with_one_pair_batches_exit_1(tmp_path, config_path,
                                                     capsys):
    doc = base_config()
    doc["model"]["per_node_classifier"] = True
    doc["train"]["batch_size"] = 1
    out = tmp_path / "train"
    assert main(["train", "--config", config_path(doc), "--out", str(out)]) == 1
    assert "train.batch_size" in capsys.readouterr().err
    assert not out.exists()


def test_eval_central_writes_rankings(tmp_path, config_path, capsys):
    cfg = config_path(base_config())
    out = tmp_path / "central"
    assert main(["eval-central", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "visual:" in printed and "joint:" in printed
    doc = json.loads((out / "central.json").read_text())
    for name in ("visual", "joint"):
        block = doc["rankings"][name]
        assert set(block["cmc"]) == {"1", "5"}
        assert 0.0 <= block["mean_ap"] <= 1.0
        assert block["evaluated"] > 0
    assert "output" not in doc["config"]
    assert (out / "central.txt").read_text().count("\n") == 2


def test_eval_central_rejects_a_featureless_scene_before_training(
        tmp_path, config_path, capsys, monkeypatch):
    doc = base_config()
    doc["scene"]["generator"]["feature_dim"] = 0
    doc["scene"]["generator"]["feature_noise"] = 0.0

    def no_training(*args):
        raise AssertionError("the model was trained before the scene was checked")

    monkeypatch.setattr("edgereid.cli.train", no_training)
    assert main(["eval-central", "--config", config_path(doc),
                 "--out", str(tmp_path / "central")]) == 1
    assert "appearance features" in capsys.readouterr().err


def test_eval_central_dry_run_rejects_a_featureless_scene(config_path, capsys):
    doc = base_config()
    doc["scene"]["generator"]["feature_dim"] = 0
    doc["scene"]["generator"]["feature_noise"] = 0.0
    assert main(["eval-central", "--config", config_path(doc), "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert "appearance features" in captured.err
    assert "would" not in captured.out


@pytest.mark.parametrize("command", ["simulate", "eval-central"])
def test_a_rejected_scene_leaves_no_out_directory(tmp_path, config_path,
                                                  capsys, command):
    # an ingested scene passes the config checks and fails once it is read
    doc = base_config()
    doc["scene"]["generator"]["feature_dim"] = 0
    gen_out = tmp_path / "gen"
    assert main(["gen", "--config", config_path(doc, "gen.json"),
                 "--out", str(gen_out)]) == 0
    doc["scene"] = {"ingest": str(gen_out / "scene.csv"), "seed": 3}
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", config_path(doc), "--out", str(out)]) == 1
    assert "appearance features" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["sigma_bins", "floor"])
@pytest.mark.parametrize("command", ["simulate", "eval-central"])
def test_an_infinite_frequency_setting_exits_1_and_leaves_no_out_directory(
        tmp_path, config_path, capsys, command, key):
    # the file holds the JSON extension Infinity, which json reads as inf
    doc = base_config()
    doc["inference"] = {"frequency": {"enabled": True, key: math.inf}}
    path = config_path(doc)
    out = tmp_path / "out"
    for flags in (["--dry-run"], ["--out", str(out)]):
        assert main([command, "--config", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: inference.frequency.{key}: "
                                "value inf out of range\n")
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", [1e-320, math.inf])
@pytest.mark.parametrize("command", ["simulate", "eval-central"])
def test_a_subnormal_or_infinite_gamma1_exits_1_and_leaves_no_out_directory(
        tmp_path, config_path, capsys, command, value):
    # both passed the config check, and simulate then exited 2 from inside
    # the allocation ("every camera needs a budget of at least 1")
    doc = base_config()
    doc["inference"] = {"gamma1": value}
    path = config_path(doc)
    out = tmp_path / "out"
    for flags in (["--dry-run"], ["--out", str(out)]):
        assert main([command, "--config", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: inference.gamma1: "
                                f"value {value!r} out of range\n")
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    *[("feature_noise", value, f"value {value!r} out of range")
      for value in (math.nan, math.inf, 1e308)],
    *[(key, value, "expected an integer" if value is True else "expected int")
      for key in ("num_identities", "visits", "start_spread")
      for value in (2.5, "4", True)],
])
def test_a_bad_generator_setting_exits_1_and_leaves_no_out_directory(
        tmp_path, config_path, capsys, key, value, message):
    # each passed --dry-run: the noise ones then failed the run with exit 2,
    # and the others were silently truncated (2.5 to 2, true to 1)
    doc = base_config()
    doc["scene"]["generator"][key] = value
    path = config_path(doc)
    out = tmp_path / "out"
    for flags in (["--dry-run"], ["--out", str(out)]):
        assert main(["simulate", "--config", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: scene.generator.{key}: {message}\n"
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_last_step_exits_2_with_one_line_and_no_out(tmp_path, config_path,
                                                               capsys):
    # one step at base_lr 1e308: no loss saw its update, and the hold-out
    # evaluation ran on it, failing with six RuntimeWarnings and no rollback
    doc = base_config()
    doc["train"].update(base_lr=1e308, epochs=1, pairs_per_epoch=64, batch_size=64)
    out = tmp_path / "out"
    assert main(["train", "--config", config_path(doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: non-finite hold-out logits in epoch 0; "
                                       "rolled back to epoch -1\n")
    assert not out.exists()


@pytest.mark.parametrize("train", [{"base_lr": 5e-324}, {"lr_decay": 1e-300},
                                   {"lr_decay": 5e-324}])
def test_a_learning_rate_that_underflows_fails_validation(tmp_path, config_path,
                                                          capsys, train):
    # the last epoch's rate 0.0 passed --dry-run (exit 0), and adam_step then
    # stopped the run at epoch 1 ("learning rate must be positive")
    with open(os.path.join(CONFIG_DIR, "cycle.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["train"].update(epochs=3, lr_step_epochs=1, **train)
    path = config_path(doc)
    out = tmp_path / "out"
    for flags in (["--dry-run"], ["--out", str(out)]):
        assert main(["train", "--config", path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: train: learning rate 0.0 at epoch 2 is below the "
            "smallest normal float 2.2250738585072014e-308; raise base_lr or "
            "lr_decay\n")
    assert not out.exists()
    # a decay whose last rate (0.01 * 1e-300) is still normal trains
    doc["train"].update(base_lr=0.01, lr_decay=1e-150)
    assert main(["train", "--config", config_path(doc), "--out", str(out)]) == 0


def test_a_tiny_gamma0_keeps_the_allocation_finite(tmp_path, config_path):
    # y / gamma0 overflowed to inf and the shares to NaN, and the run exited 2
    with open(os.path.join(CONFIG_DIR, "benchmark.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["inference"]["gamma0"] = 1e-320
    doc["simulate"].update(max_queries=20, checkpoint=os.path.join(
        CONFIG_DIR, os.pardir, "bench", "checkpoint.json"))
    assert main(["simulate", "--config", config_path(doc),
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["simulate", "eval-central"])
def test_a_tiny_beta_keeps_the_joint_similarity_finite(tmp_path, config_path,
                                                      command):
    # -o / beta would overflow, and the softmax turn NaN ("sort keys must
    # not be NaN", exit 2)
    doc = base_config()
    doc["inference"] = {"beta": 1e-320}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", config_path(doc),
                     "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("source", ["inline", "checkpoint"])
def test_a_time_scale_that_overflows_the_scene_span_exits_2_before_training(
        tmp_path, config_path, capsys, monkeypatch, source):
    # tick deltas / 1e-320 overflow to inf: the model would fail at its first
    # forward pass with "delta_t must be finite"
    run = base_config()
    if source == "inline":
        run["model"]["time_scale"] = 1e-320
    else:
        ckpt_dir = tmp_path / "ckpt"
        assert main(["train", "--config", config_path(base_config()),
                     "--out", str(ckpt_dir)]) == 0
        path = ckpt_dir / "checkpoint.json"
        doc = json.loads(path.read_text())
        doc["config"]["time_scale"] = 1e-320
        path.write_text(json.dumps(doc))
        run["simulate"]["checkpoint"] = str(path)

    def no_pairs(*args):
        raise AssertionError("a pair pool was built before the scene check")
    monkeypatch.setattr(transition, "_cross_camera_pairs", no_pairs)
    out = tmp_path / "sim"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", config_path(run, "sim.json"),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: time_scale 1e-320") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "simulate", "eval-central"])
def test_a_run_that_training_rejects_leaves_no_out_directory(
        tmp_path, config_path, capsys, command):
    # one visit per identity: the config and scene checks pass, training fails
    doc = base_config()
    doc["scene"]["generator"]["visits"] = 1
    out = tmp_path / "out"
    assert main([command, "--config", config_path(doc), "--out", str(out)]) == 2
    assert "no cross-camera observation pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ["nan_bias", "negative_variance",
                                     "small_max_period", "float_embed_dim",
                                     "int_per_node_classifier"])
def test_a_corrupt_checkpoint_exits_2_and_leaves_no_out_directory(
        tmp_path, config_path, capsys, corrupt):
    ckpt_dir = tmp_path / "ckpt"
    assert main(["train", "--config", config_path(base_config()),
                 "--out", str(ckpt_dir)]) == 0
    path = ckpt_dir / "checkpoint.json"
    doc = json.loads(path.read_text())
    if corrupt == "nan_bias":
        doc["params"]["spatial_bias"]["data"][0] = float("nan")
        entry = "spatial_bias"
    elif corrupt == "negative_variance":
        doc["batch_norm"]["head"]["running_var"][0] = -1.0
        entry = "head.running_var"
    elif corrupt == "small_max_period":
        doc["config"]["max_period"] = 0.5
        entry = "max_period"
    elif corrupt == "float_embed_dim":
        # loaded, then failed with a TypeError traceback
        doc["config"]["embed_dim"] = float(doc["config"]["embed_dim"])
        entry = "embed_dim: expected int"
    else:
        doc["config"]["per_node_classifier"] = 0
        entry = "per_node_classifier: expected bool"
    path.write_text(json.dumps(doc))
    run = base_config()
    run["simulate"]["checkpoint"] = str(path)
    out = tmp_path / "sim"
    capsys.readouterr()
    assert main(["simulate", "--config", config_path(run, "ckpt.json"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert entry in err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def ring_config(**laws):
    """base_config with the given delay laws on the ring's edges, by index."""
    doc = base_config()
    doc["scene"]["generator"] = copy.deepcopy(RING)
    for index, law in laws.items():
        doc["scene"]["generator"]["edges"][int(index[1:])]["delay"] = law
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["gen", "train"])
@pytest.mark.parametrize("laws", [
    {"e0": {"fixed": 2 ** 62}, "e2": {"fixed": 2 ** 62}},
    {"e1": {"lognormal": {"mu": 50.0, "sigma": 0.3}}},
    {"e1": {"lognormal": {"mu": 1e300, "sigma": 0.3}}},
    {"e1": {"lognormal": {"mu": 3.0, "sigma": 1e300}}},
], ids=["fixed-2**62", "mu-50", "mu-1e300", "sigma-1e300"])
def test_a_walk_past_int64_ticks_exits_2_and_leaves_no_out_directory(
        tmp_path, config_path, capsys, command, laws):
    # each passed --dry-run, then raised OverflowError with a traceback, and
    # gen left its --out behind
    path = config_path(ring_config(**laws))
    assert main([command, "--config", path, "--dry-run"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: identity ") and err.count("\n") == 1, err
    assert "int64 limit" in err
    assert not out.exists()


# -- extreme generator values, with and without --dry-run ------------------------

EXTREME_FLOATS = (5e-324, sys.float_info.min, 1e-300, 1e300, sys.float_info.max)
EXTREME_TICKS = (1, 2 ** 62, 2 ** 63 - 1)
EXTREMES = [
    *[("mu", v) for v in EXTREME_FLOATS + tuple(-v for v in EXTREME_FLOATS)],
    *[(key, v) for key in ("sigma", "feature_noise") for v in EXTREME_FLOATS],
    *[(key, v) for key in ("fixed", "start_spread") for v in EXTREME_TICKS],
]


def extreme_config(key, value):
    """base_config with one extreme value: on the ring's log-normal edge, on
    both its fixed edges, or on the generator."""
    if key in ("mu", "sigma"):
        law = copy.deepcopy(RING["edges"][1]["delay"])
        law["lognormal"][key] = value
        return ring_config(e1=law)
    if key == "fixed":
        return ring_config(e0={"fixed": value}, e2={"fixed": value})
    doc = ring_config()
    doc["scene"]["generator"][key] = value
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["gen", "simulate"])
@pytest.mark.parametrize("key, value", EXTREMES)
def test_an_extreme_generator_value_fails_cleanly_and_alike_with_and_without_dry_run(
        tmp_path, config_path, capsys, command, key, value):
    path = config_path(extreme_config(key, value))
    out = tmp_path / "out"
    codes = []
    for flags in (["--dry-run"], ["--out", str(out)]):
        code = main([command, "--config", path, *flags])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, err
        codes.append(code)
    assert (codes[0] == 1) == (codes[1] == 1), codes
    if codes[1]:
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "simulate"])
def test_a_start_spread_past_int64_exits_1_with_and_without_dry_run(
        tmp_path, config_path, capsys, command):
    # passed the check, then the start draw raised "high is out of bounds"
    # with a traceback
    path = config_path(extreme_config("start_spread", 2 ** 63))
    out = tmp_path / "out"
    for flags in (["--dry-run"], ["--out", str(out)]):
        assert main([command, "--config", path, *flags]) == 1
        assert capsys.readouterr().err == (
            "config error: scene.generator.start_spread: "
            "value 9223372036854775808 out of range\n")
    assert not out.exists()


# -- one bad setting, with and without --dry-run ---------------------------------

# Every setting a simulate run reads, by where it sits: a config section, the
# generator, or the config stored in the checkpoint it serves.
SETTINGS_READ = {"scene": config.SceneSection, "scene.generator": GeneratorSpec,
                 "model": config.ModelSection, "train": config.TrainSection,
                 "inference": config.InferenceSection,
                 "inference.frequency": config.FrequencySection,
                 "simulate": config.SimulateSection,
                 "output": config.OutputSection, "checkpoint": TransitionNetConfig}
TARGETS = [(where, f.name) for where, kind in SETTINGS_READ.items()
           for f in dataclasses.fields(kind) if "check" in f.metadata]
# wrong types (2.0 for an integer), values out of most ranges, NaN and null
FAULTS = ["1", [2], True, 2.0, None, math.nan, math.inf, -math.inf, -1, 0,
          -0.5, 1e-320, 1e308]


@pytest.fixture(scope="module")
def stored_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    path = out / "run.json"
    path.write_text(json.dumps(base_config()))
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    return json.loads((out / "checkpoint.json").read_text())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(TARGETS), st.sampled_from(FAULTS))
def test_one_bad_setting_fails_cleanly_and_alike_with_and_without_dry_run(
        tmp_path, capsys, stored_checkpoint, target, value):
    where, key = target
    run_dir = tempfile.mkdtemp(dir=tmp_path)
    doc = base_config()
    if where == "checkpoint":
        stored = copy.deepcopy(stored_checkpoint)
        stored["config"][key] = value
        doc["simulate"]["checkpoint"] = os.path.join(run_dir, "checkpoint.json")
        with open(doc["simulate"]["checkpoint"], "w", encoding="utf-8") as fh:
            json.dump(stored, fh)
    else:
        section = doc
        for part in where.split("."):
            section = section.setdefault(part, {})
        section[key] = value
    path = os.path.join(run_dir, "run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = os.path.join(run_dir, "out")
    capsys.readouterr()
    codes = []
    for flags in (["--dry-run"], ["--out", out]):
        code = main(["simulate", "--config", path, *flags])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if code:
            assert err.count("\n") == 1 and "Traceback" not in err, err
        codes.append(code)
    assert (codes[0] == 1) == (codes[1] == 1), codes
    if codes[1]:
        assert not os.path.exists(out)
