"""Round-based upload simulation for distributed retrieval galleries.

Each camera keeps its gallery on the edge and uploads along a per-strategy
sequence, `budget` items per round; the cloud merges arrivals in (round,
camera index, sequence position) order. A query's quality of service is the
arrival round of the items that match it (transmission number) and the merged
position of the item closest to the requested target time.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Sequence

import numpy as np

from . import strategy as strat
from .errors import ConfigError, DataError, InputError, ShapeError
from .nn import as_f64, softmax
from .scene import Observation, Scene, cross_camera_pairs
from .transition import TransitionNet, check_scene_compatible


class Strategy(enum.Enum):
    """Upload sequencing/bandwidth policies.

    centralized: timestamp-order upload, uniform bandwidth (rank in the cloud
        after everything arrives).
    visual: per-camera visual-similarity order, uniform bandwidth.
    bandwidth: visual order plus learned per-camera budgets for the target
        time.
    rerank: joint spatio-temporal/visual order, uniform bandwidth.
    combined: joint order plus learned budgets.
    """

    CENTRALIZED = "centralized"
    VISUAL = "visual"
    BANDWIDTH = "bandwidth"
    RERANK = "rerank"
    COMBINED = "combined"

    @staticmethod
    def parse(name: str) -> "Strategy":
        try:
            return Strategy(name)
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise ConfigError(f"unknown strategy {name!r}; valid: {valid}") from None


SEQUENCE_STRATEGIES = {Strategy.VISUAL: "visual", Strategy.BANDWIDTH: "visual",
                       Strategy.RERANK: "joint", Strategy.COMBINED: "joint",
                       Strategy.CENTRALIZED: "time"}
LEARNED_BUDGETS = {Strategy.BANDWIDTH, Strategy.COMBINED}


@dataclasses.dataclass(frozen=True)
class InferenceParams:
    """Knobs for scoring and allocation at inference time."""

    alpha: float = 0.1
    beta: float = 0.1
    gamma0: float = 0.01
    gamma1: float = 0.01
    mu: float = 0.5
    orientation: str = "consistent"
    time_targeted: bool = False

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ConfigError("alpha and beta must be positive")
        if self.gamma0 <= 0.0 or self.gamma1 <= 0.0:
            raise ConfigError("gamma0 and gamma1 must be positive")
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu must be in [0, 1], got {self.mu}")
        if self.orientation not in strat.ORIENTATION_MODES:
            raise ConfigError(
                f"orientation must be one of {strat.ORIENTATION_MODES}")


@dataclasses.dataclass(frozen=True)
class Models:
    """Learned inputs to the strategies; either may be absent."""

    transition: TransitionNet | TransitionTable | None = None
    frequency: strat.FrequencyModel | None = None


class TransitionTable:
    """Eval-mode logits of a TransitionNet memoised over integer tick deltas.

    Exposes the same forward/distribution interface as the network for
    integer timestamps within [dt_min, dt_max]; used to avoid re-running the
    network on repeated (camera, delta) pairs during large benchmarks.
    """

    def __init__(self, model: TransitionNet, dt_min: int, dt_max: int):
        if dt_max < dt_min:
            raise InputError(f"empty delta range [{dt_min}, {dt_max}]")
        self.config = model.config
        self.dt_min = int(dt_min)
        self.dt_max = int(dt_max)
        deltas = np.arange(self.dt_min, self.dt_max + 1, dtype=np.float64)
        self.logits = np.stack([model.eval_logits(cam, 0.0, deltas)
                                for cam in range(model.config.num_cameras)])
        self.probs = softmax(self.logits, axis=2)

    def _lookup(self, cameras, t_query, t_target) -> np.ndarray:
        cams = np.atleast_1d(np.asarray(cameras, dtype=np.int64))
        tq = np.atleast_1d(as_f64(t_query))
        td = np.atleast_1d(as_f64(t_target))
        cams, tq, td = np.broadcast_arrays(cams, tq, td)
        deltas = td - tq
        idx = np.rint(deltas).astype(np.int64)
        if np.max(np.abs(deltas - idx)) > 1e-9:
            raise InputError("transition table requires integer tick deltas")
        if idx.min() < self.dt_min or idx.max() > self.dt_max:
            raise InputError(
                f"delta range [{idx.min()}, {idx.max()}] outside the table's "
                f"[{self.dt_min}, {self.dt_max}]")
        return cams.astype(np.int64), idx - self.dt_min

    def forward(self, cameras, t_query, t_target, train: bool = False) -> np.ndarray:
        cams, offsets = self._lookup(cameras, t_query, t_target)
        return self.logits[cams, offsets]

    def eval_logits(self, cameras, t_query, t_target) -> np.ndarray:
        """The stored logits, as forward returns them; serving code calls
        eval_logits on either model."""
        return self.forward(cameras, t_query, t_target)

    def distribution(self, cameras, t_query, t_target) -> np.ndarray:
        cams, offsets = self._lookup(cameras, t_query, t_target)
        return self.probs[cams, offsets]


@dataclasses.dataclass(frozen=True)
class Gallery:
    """Flat arrays of the distributed gallery plus per-camera index lists."""

    identities: np.ndarray
    cameras: np.ndarray
    timestamps: np.ndarray
    features: np.ndarray | None
    device_items: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return self.identities.size

    @property
    def num_cameras(self) -> int:
        return len(self.device_items)

    @functools.cached_property
    def time_orders(self) -> tuple[np.ndarray, ...]:
        """Each camera's items by timestamp, ties by index: the time upload
        order, sorted once per gallery."""
        return tuple(_order(self.timestamps[items], items)
                     for items in self.device_items)


def build_gallery(observations: Sequence[Observation], num_cameras: int) -> Gallery:
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


@dataclasses.dataclass(frozen=True)
class QueryTask:
    """One retrieval request against the distributed gallery.

    Gallery item query_index asks for its identity's items, and target_time
    is the tick the requester cares about; the query's own item is not
    uploaded (device_items). A task holds no derived state: plan computes
    sequences and budgets from it and the models.
    """

    gallery: Gallery
    query_index: int
    target_time: int

    @property
    def query_identity(self) -> int:
        return int(self.gallery.identities[self.query_index])

    @property
    def query_camera(self) -> int:
        return int(self.gallery.cameras[self.query_index])

    @property
    def query_time(self) -> int:
        return int(self.gallery.timestamps[self.query_index])

    @property
    def query_feature(self) -> np.ndarray | None:
        features = self.gallery.features
        return None if features is None else features[self.query_index]

    @property
    def device_items(self) -> tuple[np.ndarray, ...]:
        """Each camera's gallery items, without the query's own."""
        items = list(self.gallery.device_items)
        cam = self.query_camera
        items[cam] = items[cam][items[cam] != self.query_index]
        return tuple(items)


def make_task(gallery: Gallery, query_index: int, target_time: int) -> QueryTask:
    """Build the task for gallery item query_index, excluding it from upload."""
    if not 0 <= query_index < gallery.size:
        raise InputError(f"query index {query_index} outside the gallery")
    return QueryTask(gallery=gallery, query_index=int(query_index),
                     target_time=int(target_time))


@dataclasses.dataclass(frozen=True)
class UploadPlan:
    """Per-camera upload sequences (flat gallery indices) and round budgets."""

    strategy: Strategy
    sequences: tuple[np.ndarray, ...]
    budgets: np.ndarray

    def __post_init__(self):
        if len(self.sequences) != self.budgets.size:
            raise ShapeError("one budget per camera sequence required")
        if np.any(self.budgets < 1):
            raise InputError("every camera needs a budget of at least 1")


@dataclasses.dataclass(frozen=True)
class ArrivalLog:
    """Merged arrival order and per-item round/position lookups.

    order lists flat gallery indices as the cloud receives them; round_of and
    position_of are gallery-sized arrays with -1 where an item was not part
    of the plan (the query's own observation).
    """

    order: np.ndarray
    round_of: np.ndarray
    position_of: np.ndarray


def _check_strategy(strategy: Strategy, gallery: Gallery, total_bandwidth: int,
                    params: InferenceParams, models: Models) -> None:
    """Raise the ConfigError a strategy would meet while planning on this
    gallery with these models, before any work is done."""
    c = gallery.num_cameras
    if total_bandwidth < c:
        raise ConfigError(
            f"total bandwidth {total_bandwidth} cannot give {c} cameras one "
            f"slot each")
    if strategy in LEARNED_BUDGETS and models.transition is None:
        raise ConfigError("learned budgets need a transition model")
    kind = SEQUENCE_STRATEGIES[strategy]
    if kind != "time" and gallery.features is None:
        raise ConfigError("this strategy needs appearance features")
    if kind == "joint" and models.transition is None:
        if models.frequency is None:
            raise ConfigError("this strategy needs a transition or frequency model")
        if params.time_targeted:
            raise ConfigError("time-targeted scoring needs a transition model")


# Queries per block of the array serving paths (run_benchmark,
# central_rankings). It bounds the [queries, gallery] scores and the
# [queries, ticks, cameras] transition rows a block holds, as EVAL_ROWS
# bounds the network's batches; a module constant rather than a config key,
# so memory does not follow the config. At 4 the bench's serve and longspan
# peak memory stays at the per-query loop's; 8 added 2-4%.
QUERY_CHUNK = 4


def _chunks(n: int):
    """Slices of at most QUERY_CHUNK queries covering range(n)."""
    return (slice(a, min(a + QUERY_CHUNK, n)) for a in range(0, n, QUERY_CHUNK))


def _visual_scores(gallery: Gallery, queries: np.ndarray) -> np.ndarray:
    """Each query's similarity with every gallery item, [Q, G]: one product
    per query, since one [G, d] x [d, Q] product gives other bits."""
    return np.stack([gallery.features @ gallery.features[q] for q in queries])


def _transition_rows(models: Models, gallery: Gallery, queries: np.ndarray,
                     target_times: np.ndarray | None = None):
    """p(camera at a tick | each query's sighting) over the gallery's
    distinct ticks, from one distribution call: (rows [Q, T, C], tick [G]),
    where rows[:, tick[i]] is gallery item i's row and, when given, each
    query's target tick is row T. None without a transition model."""
    if models.transition is None:
        return None
    ticks, tick = np.unique(gallery.timestamps, return_inverse=True)
    times = np.broadcast_to(as_f64(ticks), (queries.size, ticks.size))
    if target_times is not None:
        times = np.column_stack((times, target_times))
    n = times.shape[1]
    rows = models.transition.distribution(
        np.repeat(gallery.cameras[queries], n),
        np.repeat(as_f64(gallery.timestamps[queries]), n), times.ravel())
    return rows.reshape(queries.size, n, -1), tick


def _own_camera(transition, gallery: Gallery) -> np.ndarray | None:
    """p(item's camera at the item's tick | query) of every gallery item,
    [Q, G], from _transition_rows; None without a transition model."""
    if transition is None:
        return None
    rows, tick = transition
    return np.ascontiguousarray(rows[:, tick, gallery.cameras])


def _gather(values: np.ndarray, items: np.ndarray) -> np.ndarray:
    """values[r, items[r]] for each row r of values [R, G], C-contiguous:
    items is [m], shared by every row, or [R, m], one row each."""
    if items.ndim == 1:
        return np.take(values, items, axis=1)
    offsets = values.shape[1] * np.arange(len(values))[:, None]
    return np.ascontiguousarray(values).ravel()[items + offsets]


def _st_scores(models: Models, params: InferenceParams, gallery: Gallery,
               queries: np.ndarray, items: np.ndarray,
               own: np.ndarray | None) -> np.ndarray:
    """Spatio-temporal score of each query's items, [R, m]: items are gallery
    indices as _gather takes them, own is _own_camera of the queries'
    transition rows."""
    model_part = freq_part = None
    if own is not None:
        model_part = _gather(own, items)
    if models.frequency is not None:
        freq_part = strat.frequency_scores(
            models.frequency, gallery.cameras[queries][:, None],
            gallery.timestamps[queries][:, None], gallery.cameras[items],
            gallery.timestamps[items])
    if model_part is not None and freq_part is not None:
        return strat.fuse_scores(model_part, freq_part, params.mu)
    if model_part is not None:
        return model_part
    if freq_part is not None:
        return freq_part
    raise ConfigError("this strategy needs a transition or frequency model")


def _order(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """items sorted by key ascending, ties by item: items[np.lexsort((items,
    keys))], row by row for [R, n] keys (items [n], shared, or [R, n]).

    A quicksort, then each run of equal keys re-sorted by item. NaN keys
    raise InputError.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if np.isnan(keys).any():
        raise InputError("sort keys must not be NaN")
    perm = np.argsort(keys, axis=-1)
    flat = perm
    if keys.ndim == 2:
        flat = perm + keys.shape[1] * np.arange(len(keys))[:, None]
    items = np.asarray(items)
    if items.ndim == 1:
        ordered = items[perm]
    else:
        ordered = np.ascontiguousarray(items).ravel()[flat]
    ranked = keys.ravel()[flat]
    tie = ranked[..., 1:] == ranked[..., :-1]
    if tie.any():
        member = np.zeros(keys.shape, dtype=bool)
        member[..., 1:] = tie
        member[..., :-1] |= tie
        starts = np.ones(keys.shape, dtype=bool)
        starts[..., 1:] = ~tie
        run = np.cumsum(starts.ravel())  # rises at every run and every row
        where = np.flatnonzero(member)
        flat_ordered = ordered.reshape(-1)
        tied = flat_ordered[where]
        flat_ordered[where] = tied[np.lexsort((tied, run[where]))]
    return ordered


def _drop(items: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Rows of items ([n], shared, or [R, n]), row r without its one copy of
    own[r]: [R, n - 1]. Dropping an item keeps the others' order."""
    items = np.broadcast_to(items, (own.size, np.shape(items)[-1]))
    return items[items != own[:, None]].reshape(own.size, max(items.shape[1] - 1, 0))


def _joint_order(gallery: Gallery, params: InferenceParams, models: Models,
                 queries: np.ndarray, rows: np.ndarray, items: np.ndarray,
                 visual: np.ndarray, transition, own: np.ndarray | None
                 ) -> np.ndarray:
    """Joint orders [R, m] of items ([m], shared, or [R, m]) for the
    queries[rows]; visual, transition and own are the block's _visual_scores,
    _transition_rows and _own_camera."""
    if items.shape[-1] == 0:
        return np.broadcast_to(items, (rows.size, 0))
    o = _st_scores(models, params, gallery, queries[rows], items,
                   None if own is None else own[rows])
    s = strat.joint_similarity(o, _gather(visual[rows], items), params.alpha,
                               params.beta, params.orientation)
    if params.time_targeted:
        # one cosine product per (query, camera), as for a block of one query
        probs, tick = transition
        per_row = np.broadcast_to(items, s.shape)
        for k, r in enumerate(rows):
            bank = strat.PatternBank(rows=probs[r, tick[per_row[k]]],
                                     target=probs[r, -1])
            s[k] = strat.time_targeted_scores(s[k], bank, params.orientation)
    return _order(s, items)


def _sequences(gallery: Gallery, queries: np.ndarray, target_times: np.ndarray,
               kind: str, params: InferenceParams, models: Models) -> list:
    """Each camera's upload orders for a block of queries under a sequence
    kind ("time", "visual" or "joint"), each query's own item left out.

    Returns one list per camera of (rows, orders) pairs: rows index the
    queries, and orders[k] is query rows[k]'s sequence of gallery indices.
    Queries on other cameras order all n of the camera's items, queries on
    it n - 1. Time and visual keys do not depend on which items are present,
    so those orders are sorted once over all n items (the time order once
    per gallery) and a query on the camera drops its own item; the joint
    score's softmax runs over the items present, so those queries get an
    n - 1 block of their own. The joint order's transition rows, with the
    target tick's when time-targeted, come from one model call for the block.
    """
    cams = gallery.cameras[queries]
    if kind != "time":
        visual = _visual_scores(gallery, queries)
    if kind == "joint":
        transition = _transition_rows(models, gallery, queries,
                                      target_times if params.time_targeted else None)
        own = _own_camera(transition, gallery)
    out = []
    for c, items in enumerate(gallery.device_items):
        off, on = np.flatnonzero(cams != c), np.flatnonzero(cams == c)
        if kind == "joint":
            blocks = [(rows, _joint_order(gallery, params, models, queries, rows, block,
                                          visual, transition, own))
                      for rows, block in ((off, items), (on, _drop(items, queries[on])))
                      if rows.size]
        else:
            order = np.broadcast_to(
                gallery.time_orders[c] if kind == "time"
                else _order(-_gather(visual, items), items), (queries.size, items.size))
            blocks = [(rows, block)
                      for rows, block in ((off, order[off]),
                                          (on, _drop(order[on], queries[on])))
                      if rows.size]
        out.append(blocks)
    return out


def _sizes(gallery: Gallery, queries: np.ndarray) -> np.ndarray:
    """Per-query, per-camera upload sizes [Q, C]: every camera's items, less
    the query's own."""
    counts = np.array([items.size for items in gallery.device_items], dtype=np.int64)
    return counts - (gallery.cameras[queries][:, None] == np.arange(counts.size))


def _budgets(gallery: Gallery, queries: np.ndarray, target_times: np.ndarray,
             learned: bool, total_bandwidth: int, params: InferenceParams,
             models: Models) -> np.ndarray:
    """Each query's round budgets [Q, C]: learned from the model's
    eval_logits at the target time (one call and one row-wise allocation for
    all queries), or else the one uniform allocation."""
    if not learned:
        uniform = strat.uniform_allocation(gallery.num_cameras, total_bandwidth)
        return np.broadcast_to(uniform.budgets, (queries.size, gallery.num_cameras))
    logits = models.transition.eval_logits(
        gallery.cameras[queries], gallery.timestamps[queries], target_times)
    return strat.allocate_bandwidth_rows(logits, _sizes(gallery, queries),
                                         total_bandwidth, params.gamma0,
                                         params.gamma1)[0]


def _split(blocks: list, count: int) -> list[tuple[np.ndarray, ...]]:
    """Each of count queries' per-camera sequences, read-only, from the
    blocks of _sequences."""
    per_query = [[None] * len(blocks) for _ in range(count)]
    for c, camera in enumerate(blocks):
        for rows, orders in camera:
            for r, seq in zip(rows.tolist(), orders):
                seq.flags.writeable = False
                per_query[r][c] = seq
    return [tuple(sequences) for sequences in per_query]


def plan(task: QueryTask, strategy: Strategy, total_bandwidth: int,
         params: InferenceParams, models: Models,
         sequences: tuple[np.ndarray, ...] | None = None,
         budgets: np.ndarray | None = None) -> UploadPlan:
    """Build each camera's upload sequence and round budget for a strategy.

    This runs run_benchmark's _sequences and _budgets on the task's one
    query. Visual and bandwidth share one sequence kind, rerank and combined
    another (SEQUENCE_STRATEGIES). The joint order evaluates the transition
    model once over the gallery's ticks (plus the target time when
    time-targeted). Learned budgets use the model's eval_logits at the
    target time. sequences and budgets, when given, must be the task's
    share of _sequences and _budgets for the strategy's kind, params and
    models: run_benchmark computes those for blocks of queries and hands
    each (query, strategy) its own.
    """
    _check_strategy(strategy, task.gallery, total_bandwidth, params, models)
    queries = np.array([task.query_index])
    target_times = np.array([task.target_time])
    if sequences is None:
        sequences = _split(_sequences(task.gallery, queries, target_times,
                                      SEQUENCE_STRATEGIES[strategy], params, models),
                           1)[0]
    if budgets is None:
        budgets = _budgets(task.gallery, queries, target_times,
                           strategy in LEARNED_BUDGETS, total_bandwidth, params,
                           models)[0]
    return UploadPlan(strategy=strategy, sequences=sequences, budgets=budgets)


def run_rounds(plan_: UploadPlan, gallery_size: int) -> ArrivalLog:
    """Deliver every sequence budget-by-budget and merge the arrivals."""
    items_parts, round_parts, device_parts, pos_parts = [], [], [], []
    for device, seq in enumerate(plan_.sequences):
        if seq.size == 0:
            continue
        pos = np.arange(seq.size, dtype=np.int64)
        items_parts.append(seq)
        round_parts.append(pos // int(plan_.budgets[device]) + 1)
        device_parts.append(np.full(seq.size, device, dtype=np.int64))
        pos_parts.append(pos)
    round_of = np.full(gallery_size, -1, dtype=np.int64)
    position_of = np.full(gallery_size, -1, dtype=np.int64)
    if not items_parts:
        return ArrivalLog(order=np.empty(0, dtype=np.int64),
                          round_of=round_of, position_of=position_of)
    items = np.concatenate(items_parts)
    rounds = np.concatenate(round_parts)
    devices = np.concatenate(device_parts)
    positions = np.concatenate(pos_parts)
    merge = np.lexsort((positions, devices, rounds))
    order = items[merge]
    round_of[items] = rounds
    position_of[order] = np.arange(1, order.size + 1)
    return ArrivalLog(order=order, round_of=round_of, position_of=position_of)


def transmission_number(log: ArrivalLog, item: int) -> int:
    """Arrival round of a gallery item; the requester waits this many rounds."""
    tn = int(log.round_of[item])
    if tn < 0:
        raise InputError(f"item {item} was not delivered by this plan")
    return tn


# -- benchmark ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PairRecord:
    """One same-identity cross-camera (query, target) pair outcome."""

    query_index: int
    target_index: int
    device: int
    rank: int
    budget: int
    tn: int


@dataclasses.dataclass(frozen=True)
class QueryRecord:
    """Arrival of the item whose timestamp is closest to the target time."""

    query_index: int
    target_time: int
    desired_index: int
    device: int
    position: int
    round: int


@dataclasses.dataclass
class RunReport:
    """Everything the metrics need about one strategy's benchmark run."""

    strategy: str
    total_bandwidth: int
    num_cameras: int
    gallery_size: int
    num_queries: int
    num_skipped: int
    pairs: list[PairRecord]
    queries: list[QueryRecord]


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """Which queries to run: all eligible test observations, capped."""

    max_queries: int | None = None

    def __post_init__(self):
        if self.max_queries is not None and self.max_queries < 1:
            raise ConfigError("max_queries must be >= 1 when given")


def eligible_queries(gallery: Gallery) -> tuple[np.ndarray, int]:
    """Indices, ascending, of the items in any scene.cross_camera_pairs pair
    (those with a same-identity partner on another camera), plus the count of
    the other items."""
    eligible = np.unique(np.concatenate(
        cross_camera_pairs(gallery.identities, gallery.cameras)))
    return eligible, gallery.size - eligible.size


def _partners(gallery: Gallery, queries: np.ndarray) -> list[np.ndarray]:
    """Each query's same-identity partners on other cameras, ascending."""
    first, second = cross_camera_pairs(gallery.identities, gallery.cameras)
    query, partner = np.concatenate((first, second)), np.concatenate((second, first))
    order = np.lexsort((partner, query))
    query, partner = query[order], partner[order]
    lo, hi = (np.searchsorted(query, queries, side=s) for s in ("left", "right"))
    return [partner[a:b] for a, b in zip(lo, hi)]


def _desired_index(gallery: Gallery, query_index: int, target_time: int) -> int:
    same = gallery.identities == gallery.identities[query_index]
    same[query_index] = False
    candidates = np.flatnonzero(same)
    dist = np.abs(gallery.timestamps[candidates] - target_time)
    keys = np.lexsort((candidates, gallery.timestamps[candidates], dist))
    return int(candidates[keys[0]])


# Largest TransitionTable, in (camera, delta) cells, that
# build_transition_table builds; past it the raw model serves.
TABLE_MAX_CELLS = 4_000_000


def build_transition_table(model: TransitionNet, timestamps: np.ndarray
                           ) -> TransitionNet | TransitionTable:
    """Memoise the model over the scene's delta range when it takes at most
    TABLE_MAX_CELLS cells; otherwise return the model itself."""
    span = int(timestamps.max() - timestamps.min())
    cells = model.config.num_cameras * (2 * span + 1)
    if cells > TABLE_MAX_CELLS:
        return model
    return TransitionTable(model, -span, span)


def _arrival(budgets: np.ndarray, sizes: np.ndarray, device: np.ndarray,
             position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round and 1-based merged position at which run_rounds delivers the
    item at 0-based position `position` of camera `device`'s sequence, per
    row of the budgets and sequence sizes [Q, C], without merging: all
    arrivals of earlier rounds, then round r's arrivals from lower-indexed
    cameras, then the item's predecessors on its own camera."""
    rows = np.arange(device.size)
    own = budgets[rows, device]
    rounds = position // own + 1
    before = np.minimum(sizes, (rounds - 1)[:, None] * budgets)
    through = np.minimum(sizes, rounds[:, None] * budgets)
    lower = np.arange(budgets.shape[1]) < device[:, None]
    merged = (before.sum(axis=1) + np.where(lower, through - before, 0).sum(axis=1)
              + position - (rounds - 1) * own + 1)
    return rounds, merged


def run_benchmark(scene: Scene, strategies: Sequence[Strategy], models: Models,
                  total_bandwidth: int, params: InferenceParams,
                  query_spec: QuerySpec, rng: np.random.Generator
                  ) -> dict[str, RunReport]:
    """Run every strategy over the scene's eligible test queries.

    Each query's target time is the timestamp of a seeded-random same-identity
    cross-camera partner. Every strategy's ConfigError is raised before the
    first query. The target-time draws and the tasks are made per query,
    the rest on arrays. Query-level budgets come
    from one _budgets call per budget kind (one eval_logits call and one
    row-wise allocation for the learned ones, the uniform allocation once),
    and per-pair budgets of the learned strategies (each partner's timestamp
    as the target time) from one more of each. Sequences come from
    _sequences in blocks of QUERY_CHUNK queries, once per sequence kind, and
    give each partner's rank and the desired item's position in its
    camera's sequence; plan assembles each (query, strategy)'s plan from
    the block's sequences and the budgets. Transmission numbers are
    ceil(rank / budget), and the desired item's arrival round and merged
    position follow in closed form (_arrival), where run_rounds merges.
    plan plus run_rounds per (query, strategy) is the scalar reference.
    """
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    if models.transition is not None:
        check_scene_compatible(models.transition, scene)
    strategies = [Strategy.parse(s) if isinstance(s, str) else s for s in strategies]
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    for strategy in strategies:
        _check_strategy(strategy, gallery, total_bandwidth, params, models)
    all_eligible, skipped = eligible_queries(gallery)
    if all_eligible.size == 0:
        raise DataError("no eligible queries in the test split")
    chosen = all_eligible
    if query_spec.max_queries is not None and all_eligible.size > query_spec.max_queries:
        keep = rng.choice(all_eligible.size, size=query_spec.max_queries,
                          replace=False)
        chosen = all_eligible[np.sort(keep)]
    partners = _partners(gallery, chosen)
    pair_row = np.repeat(np.arange(chosen.size), [p.size for p in partners])
    pair_query = chosen[pair_row]
    targets = np.concatenate(partners)
    target_times = np.empty(chosen.size, dtype=np.int64)
    desired = np.empty(chosen.size, dtype=np.int64)
    tasks = []
    for k, (q, mates) in enumerate(zip(chosen.tolist(), partners)):
        target_times[k] = gallery.timestamps[mates[rng.integers(0, mates.size)]]
        tasks.append(make_task(gallery, q, int(target_times[k])))
        desired[k] = _desired_index(gallery, q, int(target_times[k]))
    sizes = _sizes(gallery, chosen)
    budgets = {learned: _budgets(gallery, chosen, target_times, learned,
                                 total_bandwidth, params, models)
               for learned in dict.fromkeys(s in LEARNED_BUDGETS for s in strategies)}
    kinds = list(dict.fromkeys(SEQUENCE_STRATEGIES[s] for s in strategies))
    ranks = {kind: np.empty(targets.size, dtype=np.int64) for kind in kinds}
    positions = {kind: np.empty(chosen.size, dtype=np.int64) for kind in kinds}
    for chunk in _chunks(chosen.size):
        queries = chosen[chunk]
        lo, hi = np.searchsorted(pair_row, (chunk.start, chunk.stop))
        sequences = {}
        for kind in kinds:
            blocks = _sequences(gallery, queries, target_times[chunk], kind, params,
                                models)
            # 1-based rank of each item within its camera's sequence, per query
            rank_of = np.zeros((queries.size, gallery.size), dtype=np.int64)
            for camera in blocks:
                for rows, orders in camera:
                    rank_of[rows[:, None], orders] = np.arange(1, orders.shape[-1] + 1)
            ranks[kind][lo:hi] = rank_of[pair_row[lo:hi] - chunk.start, targets[lo:hi]]
            positions[kind][chunk] = rank_of[np.arange(queries.size),
                                             desired[chunk]] - 1
            sequences[kind] = _split(blocks, queries.size)
        # plan assembles and checks each (query, strategy)'s upload plan from
        # the block's sequences and the budgets
        for k in range(chunk.start, chunk.stop):
            for strategy in strategies:
                plan(tasks[k], strategy, total_bandwidth, params, models,
                     sequences[SEQUENCE_STRATEGIES[strategy]][k - chunk.start],
                     budgets[strategy in LEARNED_BUDGETS][k])
    devices = gallery.cameras[targets]
    desired_devices = gallery.cameras[desired]
    if True in budgets:  # a learned-budget strategy runs: per-pair budgets
        logits = models.transition.eval_logits(gallery.cameras[pair_query],
                                               gallery.timestamps[pair_query],
                                               gallery.timestamps[targets])
        pair_budgets = strat.allocate_bandwidth_rows(
            logits, sizes[pair_row], total_bandwidth,
            params.gamma0, params.gamma1)[0][np.arange(targets.size), devices]
    query_columns = (chosen.tolist(), target_times.tolist(), desired.tolist(),
                     desired_devices.tolist())
    pair_columns = (pair_query.tolist(), targets.tolist(), devices.tolist())
    reports = {}
    for strategy in strategies:
        kind = SEQUENCE_STRATEGIES[strategy]
        learned = strategy in LEARNED_BUDGETS
        rank = ranks[kind]
        budget = pair_budgets if learned else budgets[False][pair_row, devices]
        rounds, merged = _arrival(budgets[learned], sizes, desired_devices,
                                  positions[kind])
        reports[strategy.value] = RunReport(
            strategy=strategy.value, total_bandwidth=total_bandwidth,
            num_cameras=scene.num_cameras, gallery_size=gallery.size,
            num_queries=chosen.size, num_skipped=skipped,
            pairs=[PairRecord(*row) for row in zip(
                *pair_columns, rank.tolist(), budget.tolist(),
                (-(-rank // budget)).tolist())],
            queries=[QueryRecord(*row) for row in zip(
                *query_columns, merged.tolist(), rounds.tolist())])
    return reports


# -- centralized evaluation ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RankedQuery:
    """A query with its gallery labels in ranked order (best first)."""

    query_identity: int
    query_camera: int
    gallery_identities: np.ndarray
    gallery_cameras: np.ndarray


def central_rankings(scene: Scene, models: Models, params: InferenceParams,
                     max_queries: int | None, rng: np.random.Generator):
    """Rank the merged test gallery per query, visually and jointly.

    Returns (visual, joint): two lists of RankedQuery over the same queries,
    the first ordered by cosine similarity alone, the second by the joint
    spatio-temporal/visual similarity, each over the gallery without the
    query and with ties by gallery index. Queries run in blocks of
    QUERY_CHUNK on the serving kernels: one visual product per query, one
    transition-model call, one row-form joint similarity and two row-wise
    orders per block.
    """
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    if gallery.features is None:
        raise ConfigError("centralized evaluation needs appearance features")
    eligible, _ = eligible_queries(gallery)
    if eligible.size == 0:
        raise DataError("no eligible queries in the test split")
    chosen = eligible
    if max_queries is not None and eligible.size > max_queries:
        keep = rng.choice(eligible.size, size=max_queries, replace=False)
        chosen = eligible[np.sort(keep)]
    visual_lists: list[RankedQuery] = []
    joint_lists: list[RankedQuery] = []
    everything = np.arange(gallery.size)
    for chunk in _chunks(chosen.size):
        queries = chosen[chunk]
        others = _drop(everything, queries)
        v = _gather(_visual_scores(gallery, queries), others)
        o = _st_scores(models, params, gallery, queries, others,
                       _own_camera(_transition_rows(models, gallery, queries), gallery))
        s = strat.joint_similarity(o, v, params.alpha, params.beta,
                                   params.orientation)
        del o  # one [queries, gallery] block fewer at the peak
        for keys, out in ((np.negative(v, out=v), visual_lists), (s, joint_lists)):
            order = _order(keys, others)
            out.extend(RankedQuery(query_identity=int(gallery.identities[q]),
                                   query_camera=int(gallery.cameras[q]),
                                   gallery_identities=identities,
                                   gallery_cameras=cameras)
                       for q, identities, cameras in zip(
                           queries, gallery.identities[order], gallery.cameras[order]))
    return visual_lists, joint_lists
