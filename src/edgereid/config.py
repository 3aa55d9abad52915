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

from .errors import ConfigError
from .scene import GeneratorSpec, spec_from_dict, spec_to_dict
from .settings import (Settings, at_least_two, mapping, non_negative, positive,
                       read, setting, write)
from .simulate import InferenceParams, QuerySpec, Strategy
from .transition import TrainSchedule, TransitionNetConfig

DEFAULT_RANK_KS = (1, 5, 10, 20)
ALL_STRATEGIES = tuple(s.value for s in Strategy)


def _build(kind, section, **given):
    """A kind instance from section's same-named fields, given overriding."""
    names = {f.name for f in dataclasses.fields(kind)} - set(given)
    return kind(**{name: getattr(section, name) for name in names}, **given)


# Each setting is declared once (settings.setting). A section that feeds a
# runtime class extends it with the section's own settings: ModelSection,
# TrainSection, InferenceSection and SimulateSection.


@dataclasses.dataclass(frozen=True)
class SceneSection(Settings):
    generator: GeneratorSpec | None = None
    ingest: str | None = setting(None)
    train_fraction: float = setting(0.5, lambda x: 0.0 < x < 1.0)
    seed: int = setting(0, non_negative)


@dataclasses.dataclass(frozen=True)
class ModelSection(TransitionNetConfig):
    num_cameras: int | None = setting(None, at_least_two)
    seed: int = setting(7, non_negative)

    def build_config(self, num_cameras: int) -> TransitionNetConfig:
        if self.num_cameras is not None and self.num_cameras != num_cameras:
            raise ConfigError(
                f"model.num_cameras is {self.num_cameras} but the scene has "
                f"{num_cameras} cameras")
        return _build(TransitionNetConfig, self, num_cameras=num_cameras)


@dataclasses.dataclass(frozen=True)
class TrainSection(TrainSchedule):
    seed: int = setting(1, non_negative)

    def schedule(self) -> TrainSchedule:
        return _build(TrainSchedule, self)


@dataclasses.dataclass(frozen=True)
class FrequencySection(Settings):
    enabled: bool = setting(False)
    bin_width: int = setting(100, positive)
    sigma_bins: float = setting(2.0, lambda x: 0.0 <= x < math.inf)
    floor: float = setting(1e-6, lambda x: 0.0 < x < math.inf)


@dataclasses.dataclass(frozen=True)
class InferenceSection(InferenceParams):
    total_bandwidth: int | None = setting(None, positive)
    frequency: FrequencySection = dataclasses.field(default_factory=FrequencySection)

    def params(self) -> InferenceParams:
        return _build(InferenceParams, self)

    def bandwidth(self, num_cameras: int) -> int:
        return self.total_bandwidth if self.total_bandwidth is not None \
            else 3 * num_cameras


@dataclasses.dataclass(frozen=True)
class SimulateSection(QuerySpec):
    strategies: tuple[str, ...] = ALL_STRATEGIES
    rank_ks: tuple[int, ...] = DEFAULT_RANK_KS
    seed: int = setting(2, non_negative)
    checkpoint: str | None = setting(None)


@dataclasses.dataclass(frozen=True)
class OutputSection(Settings):
    dir: str = setting("out")


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
        doc = write(self)
        doc["scene"]["generator"] = (spec_to_dict(self.scene.generator)
                                     if self.scene.generator else None)
        return doc


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, strictly."""
    doc = mapping(doc, "config")
    scene_doc = mapping(doc.get("scene", {}), "scene")
    generator = scene_doc.get("generator")
    if generator is not None:
        generator = spec_from_dict(generator, "scene.generator")
    scene = read(SceneSection, scene_doc, "scene", generator=generator)
    if scene.generator is not None and scene.ingest is not None:
        raise ConfigError("scene: generator and ingest are mutually exclusive")

    model = read(ModelSection, doc.get("model", {}), "model")
    train = read(TrainSection, doc.get("train", {}), "train")
    if model.per_node_classifier:
        # a per-node head batch-normalises one row per pair
        for key in ("batch_size", "pairs_per_epoch"):
            if getattr(train, key) == 1:
                raise ConfigError(f"train.{key}: must be at least 2 with "
                                  f"model.per_node_classifier")

    inf_doc = mapping(doc.get("inference", {}), "inference")
    inference = read(
        InferenceSection, inf_doc, "inference",
        frequency=read(FrequencySection, inf_doc.get("frequency", {}),
                       "inference.frequency"))

    sim_doc = mapping(doc.get("simulate", {}), "simulate")
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
    simulate = read(SimulateSection, sim_doc, "simulate",
                    strategies=tuple(strategies),
                    rank_ks=tuple(sorted(set(rank_ks))))

    output = read(OutputSection, doc.get("output", {}), "output")
    return read(RunConfig, doc, "config", scene=scene, model=model,
                train=train, inference=inference, simulate=simulate,
                output=output)


def load_config(path) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, an over-long integer or non-UTF-8 bytes
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
