"""Strict config parsing: defaults, coercions, and field-path errors."""

import dataclasses
import json
import math
import os
import re
import sys

import numpy as np
import pytest

from edgereid import config, scene, simulate, transition
from edgereid import strategy as sg
from edgereid.config import (FrequencySection, InferenceSection, ModelSection,
                             OutputSection, RunConfig, SceneSection,
                             SimulateSection, TrainSection, check_paths,
                             load_config, parse_config)
from edgereid.errors import ConfigError
from edgereid.scene import GeneratorSpec, Observation, spec_from_dict
from edgereid.settings import Settings
from edgereid.simulate import InferenceParams, QuerySpec
from edgereid.transition import TrainSchedule, TransitionNetConfig
from scene_references import scene_of

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

GENERATOR = {
    "num_cameras": 2,
    "edges": [
        {"from": 0, "to": 1, "prob": 1.0, "delay": {"fixed": 5}},
        {"from": 1, "to": 0, "prob": 1.0, "delay": {"fixed": 5}},
    ],
    "num_identities": 4,
    "visits": 3,
}


def test_empty_document_gives_all_defaults():
    cfg = parse_config({})
    assert cfg.scene.generator is None and cfg.scene.ingest is None
    assert cfg.scene.train_fraction == 0.5
    assert cfg.model.embed_dim == 32 and cfg.model.num_blocks == 2
    assert cfg.model.max_period == 10000.0
    assert cfg.train.epochs == 90 and cfg.train.base_lr == 0.01
    assert cfg.train.lr_decay == 0.1 and cfg.train.lr_step_epochs == 30
    assert cfg.train.batch_size == 128
    assert cfg.inference.alpha == 0.1 and cfg.inference.beta == 0.1
    assert cfg.inference.gamma0 == 0.01 and cfg.inference.gamma1 == 0.01
    assert cfg.inference.orientation == "consistent"
    assert not cfg.inference.time_targeted
    assert cfg.simulate.strategies == ("centralized", "visual", "bandwidth",
                                       "rerank", "combined")
    assert cfg.simulate.rank_ks == (1, 5, 10, 20)
    assert cfg.output.dir == "out"


def test_documented_defaults_are_the_declared_defaults():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Configuration", 1)[1]
    block = section.split("```jsonc", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    del doc["scene"]["generator"]  # an example, not a default
    assert parse_config(doc).to_dict() == RunConfig().to_dict()
    assert parse_config({}) == RunConfig()


def test_default_bandwidth_is_three_per_camera():
    cfg = parse_config({})
    assert cfg.inference.bandwidth(8) == 24
    cfg = parse_config({"inference": {"total_bandwidth": 10}})
    assert cfg.inference.bandwidth(8) == 10


def test_generator_section_roundtrip():
    cfg = parse_config({"scene": {"generator": GENERATOR}})
    spec = cfg.scene.generator
    assert spec.num_cameras == 2 and spec.num_identities == 4
    echo = cfg.to_dict()
    assert echo["scene"]["generator"]["edges"][0]["delay"] == {"fixed": 5}
    again = parse_config(echo)
    assert again == cfg


def test_generator_and_ingest_are_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config({"scene": {"generator": GENERATOR, "ingest": "x.csv"}})


# Every scalar setting: (section path, key, a wrong-typed value, the type its
# message names, an out-of-range value or None when any value of the type
# is allowed, whether null is allowed).
SETTINGS = [
    ("scene", "ingest", ["x.csv"], "str", None, True),
    ("scene", "train_fraction", "0.5", "float", 0.0, False),
    ("scene", "seed", 1.5, "int", -1, False),
    ("model", "num_cameras", 2.5, "int", 1, True),
    ("model", "embed_dim", 32.0, "int", 0, False),
    ("model", "num_blocks", 1.5, "int", -1, False),
    ("model", "max_period", "1e4", "float", 1.0, False),
    ("model", "time_scale", "1", "float", 0.0, False),
    ("model", "denominator_floor", [0.1], "float", 0.0, False),
    ("model", "per_node_classifier", "true", "bool", True, False),
    ("model", "seed", "7", "int", -1, False),
    ("train", "epochs", 2.5, "int", -1, False),
    ("train", "base_lr", "0.01", "float", 0.0, False),
    ("train", "lr_decay", "0.1", "float", 1.5, False),
    ("train", "lr_step_epochs", 3.0, "int", 0, False),
    ("train", "batch_size", "8", "int", 0, False),
    ("train", "pairs_per_epoch", 64.5, "int", 0, True),
    ("train", "holdout_pairs", [1], "int", -1, False),
    ("train", "seed", 0.5, "int", -2, False),
    ("inference", "alpha", "0.1", "float", 0.0, False),
    ("inference", "beta", {}, "float", -0.1, False),
    ("inference", "gamma0", "1", "float", 0.0, False),
    ("inference", "gamma1", [], "float", -1.0, False),
    ("inference", "mu", "0.5", "float", -0.1, False),
    ("inference", "orientation", 1, "str", "Consistent", False),
    ("inference", "time_targeted", 0, "bool", None, False),
    ("inference", "total_bandwidth", 10.5, "int", 0, True),
    ("inference.frequency", "enabled", "yes", "bool", None, False),
    ("inference.frequency", "bin_width", 100.0, "int", -5, False),
    ("inference.frequency", "sigma_bins", "2", "float", -0.5, False),
    ("inference.frequency", "floor", "1e-6", "float", 0.0, False),
    ("simulate", "max_queries", 3.5, "int", 0, True),
    ("simulate", "seed", "2", "int", -1, False),
    ("simulate", "checkpoint", 5, "str", None, True),
    ("output", "dir", ["out"], "str", None, False),
]


def _nested(path, key, value):
    doc = {key: value}
    for part in reversed(path.split(".")):
        doc = {part: doc}
    return doc


def _setting_cases():
    for path, key, wrong, kind, bad, nullable in SETTINGS:
        yield _nested(path, key, wrong), f"{path}.{key}: expected {kind}"
        if bad is not None:
            yield (_nested(path, key, bad),
                   f"{path}.{key}: value {bad!r} out of range")
        if not nullable:
            yield _nested(path, key, None), f"{path}.{key}: must not be null"


@pytest.mark.parametrize("doc, fragment", [
    ({"scene": {"bogus": 1}}, "scene: unknown keys: bogus"),
    ({"tuning": {}}, "config: unknown keys: tuning"),
    ({"model": {"embed_dim": 7}}, "model.embed_dim"),
    ({"model": {"embed_dim": "8"}}, "model.embed_dim: expected int"),
    ({"model": {"num_blocks": 0}}, "model.num_blocks"),
    ({"model": {"per_node_classifier": 1}}, "model.per_node_classifier"),
    ({"train": {"base_lr": -0.1}}, "train.base_lr"),
    ({"train": {"epochs": True}}, "train.epochs: expected an integer"),
    ({"scene": {"train_fraction": 1.0}}, "scene.train_fraction"),
    ({"inference": {"mu": 1.5}}, "inference.mu"),
    ({"inference": {"orientation": "sideways"}}, "inference.orientation"),
    ({"inference": {"frequency": {"bin_width": 0}}},
     "inference.frequency.bin_width"),
    ({"inference": {"alpha": None}}, "inference.alpha: must not be null"),
    ({"simulate": {"strategies": []}}, "simulate.strategies"),
    ({"simulate": {"strategies": ["visual", "visual"]}}, "duplicate"),
    ({"simulate": {"strategies": ["warp"]}}, "unknown strategy"),
    ({"simulate": {"rank_ks": [0]}}, "simulate.rank_ks"),
    ({"simulate": {"rank_ks": [True]}}, "simulate.rank_ks"),
    ({"output": {"dir": 3}}, "output.dir"),
    ([1, 2], "config: expected a mapping"),
    *_setting_cases(),
])
def test_bad_values_report_field_paths(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc)


# Every settings class, with the config path its settings are read at and a
# valid instance to vary one setting of: the runtime classes that a run
# builds, then the config sections.
SETTINGS_CLASSES = {
    TransitionNetConfig: ("model", TransitionNetConfig(2)),
    TrainSchedule: ("train", TrainSchedule()),
    InferenceParams: ("inference", InferenceParams()),
    QuerySpec: ("simulate", QuerySpec()),
    GeneratorSpec: ("scene.generator", spec_from_dict(GENERATOR)),
    SceneSection: ("scene", SceneSection()),
    ModelSection: ("model", ModelSection()),
    TrainSection: ("train", TrainSection()),
    InferenceSection: ("inference", InferenceSection()),
    FrequencySection: ("inference.frequency", FrequencySection()),
    SimulateSection: ("simulate", SimulateSection()),
    OutputSection: ("output", OutputSection()),
}
RUNTIME_CLASSES = (TransitionNetConfig, TrainSchedule, InferenceParams,
                   QuerySpec, GeneratorSpec)


def _varied(base, name):
    return lambda x: dataclasses.replace(base, **{name: x})


# Each setting's check on its class, named by its config path (and, for a
# section, the class), and for the scoring and allocation weights the check
# of the kernel that takes them.
CLASS_CHECKS = {
    f"{path}.{f.name}" + ("" if kind in RUNTIME_CLASSES else f"-{kind.__name__}"):
        _varied(base, f.name)
    for kind, (path, base) in SETTINGS_CLASSES.items()
    for f in dataclasses.fields(kind) if "check" in f.metadata
}
KERNEL_CHECKS = {
    "inference.alpha-joint_similarity":
        lambda x: sg.joint_similarity([0.5], [0.5], alpha=x),
    "inference.beta-joint_similarity":
        lambda x: sg.joint_similarity([0.5], [0.5], beta=x),
    "inference.gamma0-allocate_bandwidth_rows": lambda x: sg.allocate_bandwidth_rows(
        np.zeros((1, 2)), np.ones((1, 2)), 2, gamma0=x),
    "inference.gamma1-allocate_bandwidth_rows": lambda x: sg.allocate_bandwidth_rows(
        np.zeros((1, 2)), np.ones((1, 2)), 2, gamma1=x),
}
CLASS_CHECKS.update(KERNEL_CHECKS)
# gamma1's bounds, the smallest normal float and inf, are here with the
# largest subnormal below it, a subnormal far below, and the largest float
BOUNDARIES = [math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-320,
              math.nextafter(sys.float_info.min, 0.0), sys.float_info.min, 0.5,
              1.0, 1.0000000000000002, 2.0, sys.float_info.max, math.inf]
# the classes also take the values of the other setting types; null is left
# out, since a section's null can mean "from the scene" (model.num_cameras)
OTHER_VALUES = [True, False, -1, 0, 1, 2, 3, 4, 7, 8, 2**63, 10**400,
                "consistent", "inverted", "1", [], {}]


def _document(path, key, value):
    if path == "scene.generator":
        return {"scene": {"generator": {**GENERATOR, key: value}}}
    return _nested(path, key, value)


def test_every_settings_class_is_checked_against_the_parser():
    declared = {kind for module in (config, scene, simulate, transition)
                for kind in vars(module).values()
                if isinstance(kind, type) and issubclass(kind, Settings)
                and kind is not Settings}
    # the edges' settings are read by spec_from_dict (tests/test_scene.py)
    edges = {scene.Edge, scene.FixedDelay, scene.LogNormalDelay}
    assert declared == set(SETTINGS_CLASSES) | edges


@pytest.mark.parametrize("name", CLASS_CHECKS)
def test_class_checks_reject_what_the_config_field_rejects(name):
    path, key = name.split("-")[0].rsplit(".", 1)
    build = CLASS_CHECKS[name]
    values = BOUNDARIES if name in KERNEL_CHECKS else BOUNDARIES + OTHER_VALUES

    def rejected(call):
        try:
            # an accepted subnormal gamma0 gives NaN shares, not an error
            with np.errstate(all="ignore"):
                call()
        except ConfigError:
            return True
        return False

    for value in values:
        assert rejected(lambda: build(value)) == rejected(
            lambda: parse_config(_document(path, key, value))), value
    assert rejected(lambda: build(math.nan))


def test_gamma1_must_be_a_normal_float_below_inf():
    # the allocation divides by gamma1: a subnormal one overflowed the shares
    # to NaN and inf zeroed them, so a run failed inside the allocation
    checks = [CLASS_CHECKS[name] for name in CLASS_CHECKS
              if name.startswith("inference.gamma1")]
    checks.append(lambda x: parse_config({"inference": {"gamma1": x}}))
    for check in checks:
        for value in (1e-320, math.nextafter(sys.float_info.min, 0.0), math.inf):
            with pytest.raises(ConfigError, match="gamma1"):
                check(value)
        for value in (sys.float_info.min, sys.float_info.max):
            check(value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["sigma_bins", "floor"])
def test_frequency_settings_must_be_finite(key, value):
    # an infinite sigma_bins used to pass both checks and overflow in the
    # smoothing kernel's radius
    with pytest.raises(ConfigError,
                       match=f"inference.frequency.{key}: value .* out of range"):
        parse_config({"inference": {"frequency": {key: value}}})
    obs = (Observation(0, 0, 0), Observation(0, 1, 50))
    scene = scene_of(obs, num_cameras=2, train_identities=frozenset({0}),
                     test_identities=frozenset())
    with pytest.raises(ConfigError, match=f"{key} must be .*finite"):
        sg.fit_frequency(scene, **{key: value})


def test_int_promotes_to_float_but_bool_does_not():
    cfg = parse_config({"inference": {"alpha": 2}})
    assert cfg.inference.alpha == 2.0 and isinstance(cfg.inference.alpha, float)
    with pytest.raises(ConfigError):
        parse_config({"inference": {"alpha": True}})


def test_rank_ks_sorted_and_deduped():
    cfg = parse_config({"simulate": {"rank_ks": [10, 1, 5, 1]}})
    assert cfg.simulate.rank_ks == (1, 5, 10)


def test_override_seed_touches_every_section():
    cfg = parse_config({"scene": {"seed": 4}, "model": {"seed": 5},
                        "train": {"seed": 6}, "simulate": {"seed": 7}})
    out = cfg.override_seed(99)
    assert (out.scene.seed, out.model.seed, out.train.seed,
            out.simulate.seed) == (99, 99, 99, 99)


def test_model_section_scene_mismatch():
    cfg = parse_config({"model": {"num_cameras": 4}})
    with pytest.raises(ConfigError, match="scene has 6"):
        cfg.model.build_config(6)
    built = cfg.model.build_config(4)
    assert built.num_cameras == 4


@pytest.mark.parametrize("key", ["batch_size", "pairs_per_epoch"])
def test_one_pair_per_batch_is_enough(key):
    # the head batch-normalises every camera's row, C >= 2 rows a pair
    assert getattr(parse_config({"train": {key: 1}}).train, key) == 1


def test_load_config_and_check_paths(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scene": {"ingest": str(tmp_path / "gone.csv")}}))
    cfg = load_config(path)
    with pytest.raises(ConfigError, match="no such file"):
        check_paths(cfg)
    (tmp_path / "gone.csv").write_text("identity,camera,timestamp\n")
    check_paths(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
