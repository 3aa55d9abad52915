"""Run configuration: one JSON document with six sections.

scene, model, train, inference, simulate, and output cover everything the
command line tool does. Parsing is strict: unknown keys anywhere are hard
errors with full field paths, values are range-checked up front, and
referenced files must exist before any work starts.
"""

import dataclasses
import json
import math
import os
from typing import Any, get_args

from .errors import ConfigError
from .scene import GeneratorSpec, spec_from_dict, spec_to_dict
from .simulate import InferenceParams, Strategy
from .strategy import ORIENTATION_MODES, valid_gamma1
from .transition import TrainSchedule, TransitionNetConfig

DEFAULT_RANK_KS = (1, 5, 10, 20)
ALL_STRATEGIES = tuple(s.value for s in Strategy)


def _positive(x) -> bool:
    return x > 0


def _non_negative(x) -> bool:
    return x >= 0


def _setting(default, check):
    """A section field whose given values must pass check (its range)."""
    return dataclasses.field(default=default, metadata={"check": check})


def _build(kind, section, **given):
    """A kind instance from section's same-named fields, given overriding."""
    names = {f.name for f in dataclasses.fields(kind)} - set(given)
    return kind(**{name: getattr(section, name) for name in names}, **given)


# A section's fields are the only declaration of its settings: the type
# (X | None allows null), the default and, through _setting, the range.


@dataclasses.dataclass(frozen=True)
class SceneSection:
    generator: GeneratorSpec | None = None
    ingest: str | None = None
    train_fraction: float = _setting(0.5, lambda x: 0.0 < x < 1.0)
    seed: int = _setting(0, _non_negative)


@dataclasses.dataclass(frozen=True)
class ModelSection:
    num_cameras: int | None = _setting(None, lambda x: x >= 2)
    embed_dim: int = _setting(32, lambda x: x > 0 and x % 2 == 0)
    num_blocks: int = _setting(2, _positive)
    max_period: float = _setting(10000.0, lambda x: x > 1.0)
    time_scale: float = _setting(1.0, _positive)
    denominator_floor: float = _setting(1e-3, _positive)
    per_node_classifier: bool = False
    seed: int = _setting(7, _non_negative)

    def build_config(self, num_cameras: int) -> TransitionNetConfig:
        if self.num_cameras is not None and self.num_cameras != num_cameras:
            raise ConfigError(
                f"model.num_cameras is {self.num_cameras} but the scene has "
                f"{num_cameras} cameras")
        return _build(TransitionNetConfig, self, num_cameras=num_cameras)


@dataclasses.dataclass(frozen=True)
class TrainSection:
    epochs: int = _setting(90, _non_negative)
    base_lr: float = _setting(0.01, _positive)
    lr_decay: float = _setting(0.1, lambda x: 0.0 < x <= 1.0)
    lr_step_epochs: int = _setting(30, _positive)
    batch_size: int = _setting(128, _positive)
    pairs_per_epoch: int | None = _setting(None, _positive)
    holdout_pairs: int = _setting(2000, _non_negative)
    seed: int = _setting(1, _non_negative)

    def schedule(self) -> TrainSchedule:
        return _build(TrainSchedule, self)


@dataclasses.dataclass(frozen=True)
class FrequencySection:
    enabled: bool = False
    bin_width: int = _setting(100, _positive)
    sigma_bins: float = _setting(2.0, lambda x: 0.0 <= x < math.inf)
    floor: float = _setting(1e-6, lambda x: 0.0 < x < math.inf)


@dataclasses.dataclass(frozen=True)
class InferenceSection:
    alpha: float = _setting(0.1, _positive)
    beta: float = _setting(0.1, _positive)
    gamma0: float = _setting(0.01, _positive)
    gamma1: float = _setting(0.01, valid_gamma1)
    mu: float = _setting(0.5, lambda x: 0.0 <= x <= 1.0)
    orientation: str = _setting("consistent", lambda x: x in ORIENTATION_MODES)
    time_targeted: bool = False
    total_bandwidth: int | None = _setting(None, _positive)
    frequency: FrequencySection = dataclasses.field(default_factory=FrequencySection)

    def params(self) -> InferenceParams:
        return _build(InferenceParams, self)

    def bandwidth(self, num_cameras: int) -> int:
        return self.total_bandwidth if self.total_bandwidth is not None \
            else 3 * num_cameras


@dataclasses.dataclass(frozen=True)
class SimulateSection:
    strategies: tuple[str, ...] = ALL_STRATEGIES
    max_queries: int | None = _setting(None, _positive)
    rank_ks: tuple[int, ...] = DEFAULT_RANK_KS
    seed: int = _setting(2, _non_negative)
    checkpoint: str | None = None


@dataclasses.dataclass(frozen=True)
class OutputSection:
    dir: str = "out"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    scene: SceneSection = dataclasses.field(default_factory=SceneSection)
    model: ModelSection = dataclasses.field(default_factory=ModelSection)
    train: TrainSection = dataclasses.field(default_factory=TrainSection)
    inference: InferenceSection = dataclasses.field(default_factory=InferenceSection)
    simulate: SimulateSection = dataclasses.field(default_factory=SimulateSection)
    output: OutputSection = dataclasses.field(default_factory=OutputSection)

    def override_seed(self, seed: int) -> "RunConfig":
        """Replace every section seed with one master seed (CLI --seed)."""
        return dataclasses.replace(
            self,
            scene=dataclasses.replace(self.scene, seed=seed),
            model=dataclasses.replace(self.model, seed=seed),
            train=dataclasses.replace(self.train, seed=seed),
            simulate=dataclasses.replace(self.simulate, seed=seed))

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["scene"]["generator"] = (spec_to_dict(self.scene.generator)
                                     if self.scene.generator else None)
        doc["simulate"]["strategies"] = list(self.simulate.strategies)
        doc["simulate"]["rank_ks"] = list(self.simulate.rank_ks)
        return doc


def _expect(doc: Any, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return doc


def _value(field: dataclasses.Field, raw, path: str):
    kinds = get_args(field.type) or (field.type,)
    if raw is None:
        if type(None) in kinds:
            return None
        raise ConfigError(f"{path}: must not be null")
    kind = kinds[0]
    if kind is float and isinstance(raw, int) and not isinstance(raw, bool):
        raw = float(raw)
    if kind is int and isinstance(raw, bool):
        raise ConfigError(f"{path}: expected an integer")
    if not isinstance(raw, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}")
    check = field.metadata.get("check")
    if check is not None and not check(raw):
        raise ConfigError(f"{path}: value {raw!r} out of range")
    return raw


def _section(kind, doc: Any, path: str, **parsed):
    """Section kind from its mapping: keys that are not fields are errors, and
    each given value not in parsed (fields the caller built) is checked
    against its field."""
    doc = _expect(doc, path)
    fields = dataclasses.fields(kind)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    values = {f.name: _value(f, doc[f.name], f"{path}.{f.name}")
              for f in fields if f.name in doc and f.name not in parsed}
    return kind(**values, **parsed)


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, strictly."""
    doc = _expect(doc, "config")
    scene_doc = _expect(doc.get("scene", {}), "scene")
    generator = None
    if scene_doc.get("generator") is not None:
        try:
            generator = spec_from_dict(_expect(scene_doc["generator"],
                                               "scene.generator"))
        except ConfigError as exc:
            raise ConfigError(f"scene.generator: {exc}") from None
    scene = _section(SceneSection, scene_doc, "scene", generator=generator)
    if scene.generator is not None and scene.ingest is not None:
        raise ConfigError("scene: generator and ingest are mutually exclusive")

    model = _section(ModelSection, doc.get("model", {}), "model")
    train = _section(TrainSection, doc.get("train", {}), "train")
    if model.per_node_classifier:
        # a per-node head batch-normalises one row per pair
        for key in ("batch_size", "pairs_per_epoch"):
            if getattr(train, key) == 1:
                raise ConfigError(f"train.{key}: must be at least 2 with "
                                  f"model.per_node_classifier")

    inf_doc = _expect(doc.get("inference", {}), "inference")
    inference = _section(
        InferenceSection, inf_doc, "inference",
        frequency=_section(FrequencySection, inf_doc.get("frequency", {}),
                           "inference.frequency"))

    sim_doc = _expect(doc.get("simulate", {}), "simulate")
    strategies = sim_doc.get("strategies", list(ALL_STRATEGIES))
    if (not isinstance(strategies, list) or not strategies
            or not all(isinstance(s, str) for s in strategies)):
        raise ConfigError("simulate.strategies: expected a non-empty list of names")
    for name in strategies:
        Strategy.parse(name)
    if len(set(strategies)) != len(strategies):
        raise ConfigError("simulate.strategies: duplicate entries")
    rank_ks = sim_doc.get("rank_ks", list(DEFAULT_RANK_KS))
    if (not isinstance(rank_ks, list) or not rank_ks
            or not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1
                       for k in rank_ks)):
        raise ConfigError("simulate.rank_ks: expected a non-empty list of "
                          "positive integers")
    simulate = _section(SimulateSection, sim_doc, "simulate",
                        strategies=tuple(strategies),
                        rank_ks=tuple(sorted(set(rank_ks))))

    output = _section(OutputSection, doc.get("output", {}), "output")
    return _section(RunConfig, doc, "config", scene=scene, model=model,
                    train=train, inference=inference, simulate=simulate,
                    output=output)


def load_config(path) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return parse_config(doc)


def check_paths(config: RunConfig) -> None:
    """Verify every file the config references exists (relative to cwd)."""
    if config.scene.ingest is not None and not os.path.isfile(config.scene.ingest):
        raise ConfigError(f"scene.ingest: no such file: {config.scene.ingest}")
    if (config.simulate.checkpoint is not None
            and not os.path.isfile(config.simulate.checkpoint)):
        raise ConfigError(
            f"simulate.checkpoint: no such file: {config.simulate.checkpoint}")
