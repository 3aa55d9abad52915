"""Run configuration: one JSON document with six sections.

scene, model, train, inference, simulate, and output cover everything the
command line tool does. Parsing is strict: unknown keys anywhere are hard
errors with full field paths, values are range-checked up front, and
referenced files must exist before any work starts.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

from .errors import ConfigError
from .scene import GeneratorSpec, spec_from_dict, spec_to_dict
from .simulate import InferenceParams, Strategy
from .transition import TrainSchedule, TransitionNetConfig

DEFAULT_RANK_KS = (1, 5, 10, 20)
ALL_STRATEGIES = tuple(s.value for s in Strategy)


@dataclasses.dataclass(frozen=True)
class SceneSection:
    generator: GeneratorSpec | None = None
    ingest: str | None = None
    train_fraction: float = 0.5
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class ModelSection:
    num_cameras: int | None = None
    embed_dim: int = 32
    num_blocks: int = 2
    max_period: float = 10000.0
    time_scale: float = 1.0
    denominator_floor: float = 1e-3
    per_node_classifier: bool = False
    seed: int = 7

    def build_config(self, num_cameras: int) -> TransitionNetConfig:
        if self.num_cameras is not None and self.num_cameras != num_cameras:
            raise ConfigError(
                f"model.num_cameras is {self.num_cameras} but the scene has "
                f"{num_cameras} cameras")
        return TransitionNetConfig(
            num_cameras=num_cameras, embed_dim=self.embed_dim,
            num_blocks=self.num_blocks, max_period=self.max_period,
            time_scale=self.time_scale,
            denominator_floor=self.denominator_floor,
            per_node_classifier=self.per_node_classifier)


@dataclasses.dataclass(frozen=True)
class TrainSection:
    epochs: int = 90
    base_lr: float = 0.01
    lr_decay: float = 0.1
    lr_step_epochs: int = 30
    batch_size: int = 128
    pairs_per_epoch: int | None = None
    holdout_pairs: int = 2000
    seed: int = 1

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(
            epochs=self.epochs, base_lr=self.base_lr, lr_decay=self.lr_decay,
            lr_step_epochs=self.lr_step_epochs, batch_size=self.batch_size,
            pairs_per_epoch=self.pairs_per_epoch,
            holdout_pairs=self.holdout_pairs)


@dataclasses.dataclass(frozen=True)
class FrequencySection:
    enabled: bool = False
    bin_width: int = 100
    sigma_bins: float = 2.0
    floor: float = 1e-6


@dataclasses.dataclass(frozen=True)
class InferenceSection:
    alpha: float = 0.1
    beta: float = 0.1
    gamma0: float = 0.01
    gamma1: float = 0.01
    mu: float = 0.5
    orientation: str = "consistent"
    time_targeted: bool = False
    total_bandwidth: int | None = None
    frequency: FrequencySection = dataclasses.field(default_factory=FrequencySection)

    def params(self) -> InferenceParams:
        return InferenceParams(
            alpha=self.alpha, beta=self.beta, gamma0=self.gamma0,
            gamma1=self.gamma1, mu=self.mu, orientation=self.orientation,
            time_targeted=self.time_targeted)

    def bandwidth(self, num_cameras: int) -> int:
        return self.total_bandwidth if self.total_bandwidth is not None \
            else 3 * num_cameras


@dataclasses.dataclass(frozen=True)
class SimulateSection:
    strategies: tuple[str, ...] = ALL_STRATEGIES
    max_queries: int | None = None
    rank_ks: tuple[int, ...] = DEFAULT_RANK_KS
    seed: int = 2
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


def _reject_unknown(doc: dict, allowed, path: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")


def _value(doc: dict, key: str, default, path: str, kind, check=None,
           allow_none: bool = False):
    if key not in doc:
        return default
    raw = doc[key]
    if raw is None:
        if allow_none:
            return None
        raise ConfigError(f"{path}.{key}: must not be null")
    if kind is float and isinstance(raw, int) and not isinstance(raw, bool):
        raw = float(raw)
    if kind is int and isinstance(raw, bool):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if not isinstance(raw, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}")
    if check is not None and not check(raw):
        raise ConfigError(f"{path}.{key}: value {raw!r} out of range")
    return raw


def _positive(x) -> bool:
    return x > 0


def parse_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, strictly."""
    doc = _expect(doc, "config")
    _reject_unknown(doc, ("scene", "model", "train", "inference", "simulate",
                          "output"), "config")

    scene_doc = _expect(doc.get("scene", {}), "scene")
    _reject_unknown(scene_doc, ("generator", "ingest", "train_fraction", "seed"),
                    "scene")
    generator = None
    if scene_doc.get("generator") is not None:
        try:
            generator = spec_from_dict(_expect(scene_doc["generator"],
                                               "scene.generator"))
        except ConfigError as exc:
            raise ConfigError(f"scene.generator: {exc}") from None
    ingest = _value(scene_doc, "ingest", None, "scene", str, allow_none=True)
    if generator is not None and ingest is not None:
        raise ConfigError("scene: generator and ingest are mutually exclusive")
    scene = SceneSection(
        generator=generator,
        ingest=ingest,
        train_fraction=_value(scene_doc, "train_fraction", 0.5, "scene", float,
                              lambda x: 0.0 < x < 1.0),
        seed=_value(scene_doc, "seed", 0, "scene", int, lambda x: x >= 0))

    model_doc = _expect(doc.get("model", {}), "model")
    _reject_unknown(model_doc, ("num_cameras", "embed_dim", "num_blocks",
                                "max_period", "time_scale", "denominator_floor",
                                "per_node_classifier", "seed"), "model")
    model = ModelSection(
        num_cameras=_value(model_doc, "num_cameras", None, "model", int,
                           lambda x: x >= 2, allow_none=True),
        embed_dim=_value(model_doc, "embed_dim", 32, "model", int,
                         lambda x: x > 0 and x % 2 == 0),
        num_blocks=_value(model_doc, "num_blocks", 2, "model", int, _positive),
        max_period=_value(model_doc, "max_period", 10000.0, "model", float,
                          lambda x: x > 1.0),
        time_scale=_value(model_doc, "time_scale", 1.0, "model", float, _positive),
        denominator_floor=_value(model_doc, "denominator_floor", 1e-3, "model",
                                 float, _positive),
        per_node_classifier=_value(model_doc, "per_node_classifier", False,
                                   "model", bool),
        seed=_value(model_doc, "seed", 7, "model", int, lambda x: x >= 0))

    train_doc = _expect(doc.get("train", {}), "train")
    _reject_unknown(train_doc, ("epochs", "base_lr", "lr_decay", "lr_step_epochs",
                                "batch_size", "pairs_per_epoch", "holdout_pairs",
                                "seed"), "train")
    train = TrainSection(
        epochs=_value(train_doc, "epochs", 90, "train", int, lambda x: x >= 0),
        base_lr=_value(train_doc, "base_lr", 0.01, "train", float, _positive),
        lr_decay=_value(train_doc, "lr_decay", 0.1, "train", float,
                        lambda x: 0.0 < x <= 1.0),
        lr_step_epochs=_value(train_doc, "lr_step_epochs", 30, "train", int,
                              _positive),
        batch_size=_value(train_doc, "batch_size", 128, "train", int, _positive),
        pairs_per_epoch=_value(train_doc, "pairs_per_epoch", None, "train", int,
                               _positive, allow_none=True),
        holdout_pairs=_value(train_doc, "holdout_pairs", 2000, "train", int,
                             lambda x: x >= 0),
        seed=_value(train_doc, "seed", 1, "train", int, lambda x: x >= 0))
    if model.per_node_classifier:
        # a per-node head batch-normalises one row per pair
        for key in ("batch_size", "pairs_per_epoch"):
            if getattr(train, key) == 1:
                raise ConfigError(f"train.{key}: must be at least 2 with "
                                  f"model.per_node_classifier")

    inf_doc = _expect(doc.get("inference", {}), "inference")
    _reject_unknown(inf_doc, ("alpha", "beta", "gamma0", "gamma1", "mu",
                              "orientation", "time_targeted", "total_bandwidth",
                              "frequency"), "inference")
    freq_doc = _expect(inf_doc.get("frequency", {}), "inference.frequency")
    _reject_unknown(freq_doc, ("enabled", "bin_width", "sigma_bins", "floor"),
                    "inference.frequency")
    frequency = FrequencySection(
        enabled=_value(freq_doc, "enabled", False, "inference.frequency", bool),
        bin_width=_value(freq_doc, "bin_width", 100, "inference.frequency", int,
                         _positive),
        sigma_bins=_value(freq_doc, "sigma_bins", 2.0, "inference.frequency",
                          float, lambda x: x >= 0.0),
        floor=_value(freq_doc, "floor", 1e-6, "inference.frequency", float,
                     _positive))
    inference = InferenceSection(
        alpha=_value(inf_doc, "alpha", 0.1, "inference", float, _positive),
        beta=_value(inf_doc, "beta", 0.1, "inference", float, _positive),
        gamma0=_value(inf_doc, "gamma0", 0.01, "inference", float, _positive),
        gamma1=_value(inf_doc, "gamma1", 0.01, "inference", float, _positive),
        mu=_value(inf_doc, "mu", 0.5, "inference", float,
                  lambda x: 0.0 <= x <= 1.0),
        orientation=_value(inf_doc, "orientation", "consistent", "inference",
                           str, lambda x: x in ("consistent", "inverted")),
        time_targeted=_value(inf_doc, "time_targeted", False, "inference", bool),
        total_bandwidth=_value(inf_doc, "total_bandwidth", None, "inference",
                               int, _positive, allow_none=True),
        frequency=frequency)

    sim_doc = _expect(doc.get("simulate", {}), "simulate")
    _reject_unknown(sim_doc, ("strategies", "max_queries", "rank_ks", "seed",
                              "checkpoint"), "simulate")
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
    simulate = SimulateSection(
        strategies=tuple(strategies),
        max_queries=_value(sim_doc, "max_queries", None, "simulate", int,
                           _positive, allow_none=True),
        rank_ks=tuple(sorted(set(rank_ks))),
        seed=_value(sim_doc, "seed", 2, "simulate", int, lambda x: x >= 0),
        checkpoint=_value(sim_doc, "checkpoint", None, "simulate", str,
                          allow_none=True))

    out_doc = _expect(doc.get("output", {}), "output")
    _reject_unknown(out_doc, ("dir",), "output")
    output = OutputSection(dir=_value(out_doc, "dir", "out", "output", str))

    return RunConfig(scene=scene, model=model, train=train, inference=inference,
                     simulate=simulate, output=output)


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
