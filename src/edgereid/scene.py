"""Synthetic camera-network scenes and observation datasets.

A Scene is an immutable bag of (identity, camera, timestamp[, feature])
observations on integer time ticks, optionally split into train/test
identities. Scenes come from a generator spec (random walks on a camera
graph with per-edge delay laws) or from a CSV file, and a spec can also be
turned into a closed-form transition oracle for checking learned models.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import warnings
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, InputError
from .nn import as_f64
from .settings import (Settings, at_least_two, check_settings, mapping,
                       non_negative, positive, read, setting, write)

CSV_BASE_HEADER = ("identity", "camera", "timestamp")


@dataclasses.dataclass(frozen=True, eq=False)
class Observation:
    """One sighting of an identity at a camera on an integer time tick."""

    identity: int
    camera: int
    timestamp: int
    feature: np.ndarray | None = None


@dataclasses.dataclass(frozen=True)
class FixedDelay(Settings):
    """Deterministic edge delay of a whole number of ticks."""

    ticks: int = setting(check=positive, key="fixed")

    def sample(self, rng: np.random.Generator) -> int:
        return self.ticks

    def bin_mass(self, lo: float, hi: float) -> float:
        return 1.0 if lo <= self.ticks < hi else 0.0


@dataclasses.dataclass(frozen=True)
class LogNormalDelay(Settings):
    """Log-normal edge delay; samples are rounded to integer ticks >= 1."""

    mu: float = setting(check=lambda x: -math.inf < x < math.inf)
    sigma: float = setting(check=lambda x: 0.0 < x < math.inf)

    def sample(self, rng: np.random.Generator) -> int:
        raw = math.exp(self.mu + self.sigma * rng.standard_normal())
        return max(1, int(round(raw)))

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        z = (math.log(x) - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def bin_mass(self, lo: float, hi: float) -> float:
        return self.cdf(hi) - self.cdf(lo)


@dataclasses.dataclass(frozen=True)
class Edge(Settings):
    """A possible camera-to-camera move with its probability and delay law."""

    source: int = setting(key="from")
    dest: int = setting(key="to")
    prob: float = setting(check=positive)
    delay: FixedDelay | LogNormalDelay


# generate's rows are a unit mean plus feature_noise times standard normal
# draws: up to this scale their squared norms stay below the float maximum
# for any draw below 1e50 in any dimension a run can hold.
MAX_FEATURE_NOISE = 1e100


@dataclasses.dataclass(frozen=True)
class GeneratorSpec(Settings):
    """Recipe for a synthetic scene.

    Identities perform independent random walks on the camera graph given by
    `edges`; identity k starts at camera k mod num_cameras at a seeded start
    tick in [0, start_spread]. Every visit emits one observation with
    probability `visibility`. With feature_dim > 0 each identity gets a mean
    appearance vector uniform on the unit sphere, and every observation a
    renormalised noisy copy (isotropic Gaussian, scale feature_noise).
    """

    num_cameras: int = setting(check=at_least_two)
    edges: tuple[Edge, ...]
    num_identities: int = setting(check=positive)
    visits: int = setting(check=positive)
    feature_dim: int = setting(0, non_negative)
    feature_noise: float = setting(0.0, lambda x: 0.0 <= x <= MAX_FEATURE_NOISE)
    start_spread: int = setting(0, non_negative)
    visibility: float = setting(1.0, lambda x: 0.0 < x <= 1.0)

    def __post_init__(self):
        check_settings(self)
        outgoing: dict[int, float] = {}
        for e in self.edges:
            if not (0 <= e.source < self.num_cameras and 0 <= e.dest < self.num_cameras):
                raise ConfigError(f"edge {e.source}->{e.dest} leaves the camera range")
            outgoing[e.source] = outgoing.get(e.source, 0.0) + e.prob
        for cam, total in outgoing.items():
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(
                    f"outgoing probabilities from camera {cam} sum to {total}, not 1")
        if len(outgoing) < self.num_cameras:
            # the first such camera is at most len(outgoing), whatever the count
            missing = next(c for c in range(self.num_cameras) if c not in outgoing)
            raise ConfigError(f"camera {missing} has no outgoing edges")

    def edges_from(self, camera: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.source == camera)


@dataclasses.dataclass(frozen=True)
class Scene:
    """An observation dataset over num_cameras cameras.

    Observations are kept sorted by (camera, timestamp, identity). The
    train/test identity split is optional until assigned; camera_ids records
    the original labels when a CSV used non-contiguous camera numbers.
    """

    num_cameras: int
    observations: tuple[Observation, ...]
    train_identities: frozenset[int] | None = None
    test_identities: frozenset[int] | None = None
    generator: GeneratorSpec | None = None
    camera_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        for obs in self.observations:
            if not 0 <= obs.camera < self.num_cameras:
                raise DataError(
                    f"observation camera {obs.camera} outside [0, {self.num_cameras})")
        ordered = tuple(sorted(
            self.observations, key=lambda o: (o.camera, o.timestamp, o.identity)))
        object.__setattr__(self, "observations", ordered)

    @property
    def feature_dim(self) -> int:
        for obs in self.observations:
            if obs.feature is not None:
                return int(obs.feature.shape[0])
        return 0

    def identities(self) -> list[int]:
        return sorted({o.identity for o in self.observations})

    def subset(self, identities: Iterable[int]) -> list[Observation]:
        wanted = set(identities)
        return [o for o in self.observations if o.identity in wanted]

    def train_observations(self) -> list[Observation]:
        if self.train_identities is None:
            raise DataError("scene has no train/test split")
        return self.subset(self.train_identities)

    def test_observations(self) -> list[Observation]:
        if self.test_identities is None:
            raise DataError("scene has no train/test split")
        return self.subset(self.test_identities)


def cross_camera_pairs(identities, cameras) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered same-identity pair of items seen on two different
    cameras, as index arrays (first, second) with first < second, ordered by
    identity, then first, then second."""
    ids = np.asarray(identities, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    pos = np.arange(ids.size)
    # later[p]: items after sorted position p within its identity's group
    later = np.searchsorted(ids[order], ids[order], side="right") - pos - 1
    left = np.repeat(pos, later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    first, second = order[left], order[right]
    cams = np.asarray(cameras)
    keep = cams[first] != cams[second]
    return first[keep], second[keep]


def generate(spec: GeneratorSpec, rng: np.random.Generator) -> Scene:
    """Simulate every identity's walk and collect the emitted observations.

    Reproducible: the same (spec, seed) always yields the same Scene. Every
    stored bundle depends on the order of the draws from `rng`, which is,
    identity by identity:

    1. the start tick, one `integers` draw, when start_spread > 0;
    2. the mean, `standard_normal(feature_dim)`, when feature_dim > 0;
    3. then per visit:
       a. the visibility, one `random` draw, when visibility < 1;
       b. the noise, `standard_normal(feature_dim)`, when the visit is
          visible and feature_dim > 0;
       c. the edge, one `random` draw against the camera's cumulative edge
          probabilities (the draw `Generator.choice` makes), when the camera
          has more than one outgoing edge;
       d. the delay, one `standard_normal` draw, when the edge is log-normal.

    The noise rows are drawn into one buffer, and the features assembled
    after the walks with the same elementwise arithmetic and one `dot` per
    norm, so the bits match a per-visit computation.
    """
    per_camera = []
    for c in range(spec.num_cameras):
        edges = spec.edges_from(c)
        cdf = np.array([e.prob for e in edges]).cumsum()
        cdf /= cdf[-1]
        per_camera.append((edges, cdf.tolist()))
    dim = spec.feature_dim
    always_visible = spec.visibility >= 1.0
    identities: list[int] = []
    cameras: list[int] = []
    ticks: list[int] = []
    means = np.empty((spec.num_identities, dim))
    noise = np.empty((spec.num_identities * spec.visits, dim))
    for ident in range(spec.num_identities):
        camera = ident % spec.num_cameras
        t = int(rng.integers(0, spec.start_spread + 1)) if spec.start_spread else 0
        if dim:
            mean = rng.standard_normal(out=means[ident])
            mean /= math.sqrt(mean.dot(mean))
        for _ in range(spec.visits):
            if always_visible or rng.random() < spec.visibility:
                if dim:
                    rng.standard_normal(out=noise[len(ticks)])
                identities.append(ident)
                cameras.append(camera)
                ticks.append(t)
            edges, cdf = per_camera[camera]
            choice = edges[bisect.bisect_right(cdf, rng.random())] if len(edges) > 1 else edges[0]
            t += choice.delay.sample(rng)
            camera = choice.dest
    features: list[np.ndarray | None] = [None] * len(ticks)
    if dim:
        rows = means[identities] + spec.feature_noise * noise[:len(ticks)]
        rows /= np.array([math.sqrt(row.dot(row)) for row in rows])[:, None]
        features = list(rows)
    unseen = sorted(set(range(spec.num_cameras)) - set(cameras))
    if unseen:
        warnings.warn(f"cameras {unseen} recorded no observations", stacklevel=2)
    observations = tuple(map(Observation, identities, cameras, ticks, features))
    return Scene(num_cameras=spec.num_cameras, observations=observations,
                 generator=spec)


def split_identities(scene: Scene, train_fraction: float,
                     rng: np.random.Generator) -> Scene:
    """Assign every identity to the train or test side, disjointly."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ids = scene.identities()
    if len(ids) < 2:
        raise DataError("need at least two identities to split")
    order = rng.permutation(len(ids))
    n_train = int(round(len(ids) * train_fraction))
    n_train = min(max(n_train, 1), len(ids) - 1)
    train = frozenset(ids[i] for i in order[:n_train])
    test = frozenset(ids[i] for i in order[n_train:])
    return dataclasses.replace(scene, train_identities=train, test_identities=test)


def export_csv(scene: Scene, path) -> None:
    """Write the scene as CSV with full-precision features (UTF-8, LF),
    under the original camera labels when the scene records them."""
    dim = scene.feature_dim
    header = list(CSV_BASE_HEADER) + [f"f{i}" for i in range(dim)]
    lines = [",".join(header)]
    labels = scene.camera_ids or range(scene.num_cameras)
    for obs in scene.observations:
        row = [str(obs.identity), str(labels[obs.camera]), str(obs.timestamp)]
        if dim:
            if obs.feature is None:
                raise DataError("mixed featured and featureless observations")
            row.extend(repr(float(v)) for v in obs.feature)
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def ingest_csv(path) -> Scene:
    """Read a scene from CSV, densifying camera labels to 0..C-1.

    The original camera labels are recorded in scene.camera_ids in ascending
    order. Features whose norm strays from 1 by more than 1e-9 are
    renormalised with a warning.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if tuple(header[:3]) != CSV_BASE_HEADER:
        raise DataError(f"{path}: header must start with {','.join(CSV_BASE_HEADER)}")
    dim = len(header) - 3
    for i, name in enumerate(header[3:]):
        if name != f"f{i}":
            raise DataError(f"{path}: feature column {i} is named {name!r}, want f{i}")
    rows: list[tuple[int, int, int, np.ndarray | None]] = []
    renormalised = 0
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise DataError(f"{path}:{lineno}: expected {3 + dim} fields, got {len(parts)}")
        try:
            ident, camera, ts = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if ident < 0 or ts < 0:
            raise DataError(f"{path}:{lineno}: identity and timestamp must be >= 0")
        feature = None
        if dim:
            try:
                feature = np.array([float(v) for v in parts[3:]], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not np.all(np.isfinite(feature)):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            norm = float(np.linalg.norm(feature))
            if norm == 0.0:
                raise DataError(f"{path}:{lineno}: zero feature vector")
            if abs(norm - 1.0) > 1e-9:
                feature = feature / norm
                renormalised += 1
        rows.append((ident, camera, ts, feature))
    if not rows:
        raise DataError(f"{path}: no observations")
    if renormalised:
        warnings.warn(f"{path}: renormalised {renormalised} feature vectors",
                      stacklevel=2)
    cameras = sorted({r[1] for r in rows})
    dense = {orig: i for i, orig in enumerate(cameras)}
    observations = tuple(Observation(r[0], dense[r[1]], r[2], r[3]) for r in rows)
    return Scene(num_cameras=len(cameras), observations=observations,
                 camera_ids=tuple(cameras))


class TransitionOracle:
    """Exact single-step law p(next camera, delay bin | camera) from a spec.

    The delay axis is discretised onto the caller's bin edges by integrating
    each edge's delay law over the bin. joint(i) returns the [bins, C] matrix
    of p(j, bin | i); conditional(i) normalises each bin row over j wherever
    the row has any mass.
    """

    def __init__(self, spec: GeneratorSpec, bin_edges: Sequence[float]):
        edges_arr = as_f64(bin_edges)
        if edges_arr.ndim != 1 or edges_arr.size < 2:
            raise ConfigError("need at least two bin edges")
        if not np.all(np.diff(edges_arr) > 0.0):
            raise ConfigError("bin edges must be strictly increasing")
        self.spec = spec
        self.bin_edges = edges_arr
        n_bins = edges_arr.size - 1
        c = spec.num_cameras
        self._joint = np.zeros((c, n_bins, c))
        for e in spec.edges:
            for b in range(n_bins):
                mass = e.delay.bin_mass(edges_arr[b], edges_arr[b + 1])
                self._joint[e.source, b, e.dest] += e.prob * mass

    @property
    def num_bins(self) -> int:
        return self.bin_edges.size - 1

    def joint(self, camera: int) -> np.ndarray:
        self._check_camera(camera)
        return self._joint[camera].copy()

    def conditional(self, camera: int) -> np.ndarray:
        """p(next camera | camera, delay bin); zero rows stay zero."""
        self._check_camera(camera)
        joint = self._joint[camera]
        totals = joint.sum(axis=1, keepdims=True)
        out = np.zeros_like(joint)
        np.divide(joint, totals, out=out, where=totals > 0.0)
        return out

    def bin_centres(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def _check_camera(self, camera: int) -> None:
        if not 0 <= camera < self.spec.num_cameras:
            raise InputError(f"camera {camera} outside [0, {self.spec.num_cameras})")


def spec_to_dict(spec: GeneratorSpec) -> dict:
    """JSON-ready form of a generator spec (inverse of spec_from_dict)."""
    doc = write(spec)
    for edge, item in zip(spec.edges, doc["edges"]):
        if isinstance(edge.delay, LogNormalDelay):
            item["delay"] = {"lognormal": item["delay"]}
    return doc


def spec_from_dict(doc, path: str = "generator") -> GeneratorSpec:
    """Parse a generator spec from its JSON form (spec_to_dict's), strictly:
    errors name the bad value's path below path."""
    edges = mapping(doc, path).get("edges")
    if not isinstance(edges, list):
        raise ConfigError(f"{path}.edges: expected a list")
    return read(GeneratorSpec, doc, path, edges=tuple(
        _edge(item, f"{path}.edges[{i}]") for i, item in enumerate(edges)))


def _edge(doc, path: str) -> Edge:
    delay = mapping(mapping(doc, path).get("delay"), f"{path}.delay")
    if delay.keys() == {"lognormal"}:
        law = read(LogNormalDelay, delay["lognormal"], f"{path}.delay.lognormal")
    else:
        law = read(FixedDelay, delay, f"{path}.delay")
    return read(Edge, doc, path, delay=law)


def save_spec(spec: GeneratorSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> GeneratorSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return spec_from_dict(doc)
