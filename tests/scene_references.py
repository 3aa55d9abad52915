"""The record form of a scene that the columnar Scene replaced, kept as a
reference for tests: one Observation per sighting sorted by a Python key,
subsets by list comprehension, a split over sorted Python ids, CSV export and
the serving gallery by walking the records. scene_of builds the columnar
Scene of a list of records."""

from __future__ import annotations

import dataclasses

import numpy as np

from edgereid.errors import ConfigError, DataError
from edgereid.scene import CSV_BASE_HEADER, GeneratorSpec, Observation, Scene
from edgereid.simulate import Gallery


@dataclasses.dataclass(frozen=True)
class RecordScene:
    """Scene as a tuple of records, sorted by (camera, timestamp, identity)
    with ties in the order given."""

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

    def subset(self, identities) -> list[Observation]:
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


def reference_split_identities(scene: RecordScene, train_fraction: float,
                               rng: np.random.Generator) -> RecordScene:
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


def reference_export_csv(scene: RecordScene, path) -> None:
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


def reference_build_gallery(observations, num_cameras: int) -> Gallery:
    if not observations:
        raise DataError("empty gallery")
    identities = np.array([o.identity for o in observations], dtype=np.int64)
    cameras = np.array([o.camera for o in observations], dtype=np.int64)
    timestamps = np.array([o.timestamp for o in observations], dtype=np.int64)
    features = None
    if observations[0].feature is not None:
        if any(o.feature is None for o in observations):
            raise DataError("mixed featured and featureless observations")
        features = np.stack([o.feature for o in observations])
    device_items = tuple(np.flatnonzero(cameras == c) for c in range(num_cameras))
    return Gallery(identities=identities, cameras=cameras, timestamps=timestamps,
                   features=features, device_items=device_items)


def scene_of(observations, num_cameras: int, **fields) -> Scene:
    """The columnar Scene of the records, all featured or all featureless,
    with the other Scene fields as given."""
    observations = list(observations)
    features = None
    if observations and observations[0].feature is not None:
        features = np.array([o.feature for o in observations], dtype=np.float64)
    return Scene(num_cameras=num_cameras,
                 identities=[o.identity for o in observations],
                 cameras=[o.camera for o in observations],
                 timestamps=[o.timestamp for o in observations],
                 features=features, **fields)
