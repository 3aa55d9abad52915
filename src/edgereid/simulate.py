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

    device_items excludes the query's own observation; target_time is the
    tick the requester cares about. plan memoises the task's upload sequences,
    and run_benchmark its learned per-pair budgets, in _memo, keyed by what
    they depend on besides the task; the models must not change while the
    task is in use.
    """

    gallery: Gallery
    query_identity: int
    query_camera: int
    query_time: int
    query_feature: np.ndarray | None
    target_time: int
    device_items: tuple[np.ndarray, ...]
    _memo: dict = dataclasses.field(default_factory=dict, init=False,
                                    repr=False, compare=False)


def make_task(gallery: Gallery, query_index: int, target_time: int) -> QueryTask:
    """Build the task for gallery item query_index, excluding it from upload."""
    if not 0 <= query_index < gallery.size:
        raise InputError(f"query index {query_index} outside the gallery")
    cam = int(gallery.cameras[query_index])
    items = list(gallery.device_items)
    items[cam] = items[cam][items[cam] != query_index]
    feature = None if gallery.features is None else gallery.features[query_index]
    return QueryTask(
        gallery=gallery,
        query_identity=int(gallery.identities[query_index]),
        query_camera=cam,
        query_time=int(gallery.timestamps[query_index]),
        query_feature=feature,
        target_time=int(target_time),
        device_items=tuple(items))


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


def _visual_scores(task: QueryTask) -> np.ndarray:
    if task.gallery.features is None or task.query_feature is None:
        raise ConfigError("this strategy needs appearance features")
    return task.gallery.features @ task.query_feature


def _transition_rows(models: Models, task: QueryTask,
                     times: np.ndarray) -> np.ndarray | None:
    """p(camera at each tick in times | query sighting), in one model call;
    None without a transition model."""
    if models.transition is None:
        return None
    return models.transition.distribution(
        np.full(times.size, task.query_camera, dtype=np.int64),
        np.full(times.size, float(task.query_time)), as_f64(times))


def _st_scores(models: Models, params: InferenceParams, task: QueryTask,
               items: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """Spatio-temporal score of each item; rows are the items' transition
    rows from _transition_rows."""
    cams = task.gallery.cameras[items]
    ts = task.gallery.timestamps[items]
    model_part = freq_part = None
    if rows is not None:
        model_part = rows[np.arange(items.size), cams]
    if models.frequency is not None:
        freq_part = strat.frequency_scores(
            models.frequency, task.query_camera, task.query_time, cams, ts)
    if model_part is not None and freq_part is not None:
        return strat.fuse_scores(model_part, freq_part, params.mu)
    if model_part is not None:
        return model_part
    if freq_part is not None:
        return freq_part
    raise ConfigError("this strategy needs a transition or frequency model")


def _order(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """items sorted by key ascending, original order on ties."""
    return items[np.lexsort((items, keys))]


def _joint_sequences(task: QueryTask, params: InferenceParams,
                     models: Models) -> list[np.ndarray]:
    """Joint spatio-temporal/visual order per camera. The transition rows of
    every candidate, and of the target time when time-targeted, come from
    one model call; each camera reads its slice as scores and pattern bank."""
    visual = _visual_scores(task)
    candidates = np.concatenate(task.device_items)
    times = as_f64(task.gallery.timestamps[candidates])
    if params.time_targeted:
        times = np.append(times, float(task.target_time))
    rows = _transition_rows(models, task, times) if candidates.size else None
    sequences = []
    start = 0
    for items in task.device_items:
        stop = start + items.size
        part = None if rows is None else rows[start:stop]
        start = stop
        if items.size == 0:
            sequences.append(items.copy())  # _sequences freezes it
            continue
        o = _st_scores(models, params, task, items, part)
        s = strat.joint_similarity(o, visual[items], params.alpha, params.beta,
                                   params.orientation)
        if params.time_targeted:
            if part is None:
                raise ConfigError("time-targeted scoring needs a transition model")
            bank = strat.PatternBank(rows=part, target=rows[-1])
            s = strat.time_targeted_scores(s, bank, params.orientation)
        sequences.append(_order(s, items))
    return sequences


def _sequences(task: QueryTask, kind: str, params: InferenceParams,
               models: Models) -> tuple[np.ndarray, ...]:
    """Each camera's upload order for a sequence kind ("time", "visual" or
    "joint"), memoised on the task and read-only."""
    key = (kind, params, models)
    if key not in task._memo:
        if kind == "time":
            ts = task.gallery.timestamps
            sequences = [_order(ts[items].astype(np.float64), items)
                         for items in task.device_items]
        elif kind == "visual":
            visual = _visual_scores(task)
            sequences = [_order(-visual[items], items)
                         for items in task.device_items]
        else:
            sequences = _joint_sequences(task, params, models)
        for seq in sequences:
            seq.flags.writeable = False
        task._memo[key] = tuple(sequences)
    return task._memo[key]


def _sizes(task: QueryTask) -> np.ndarray:
    """Per-camera upload sizes; every strategy uploads all of a camera's items."""
    return np.array([items.size for items in task.device_items], dtype=np.float64)


def plan(task: QueryTask, strategy: Strategy, total_bandwidth: int,
         params: InferenceParams, models: Models) -> UploadPlan:
    """Build each camera's upload sequence and round budget for a strategy.

    The sequences are computed once per task for each sequence kind, params
    and models: visual and bandwidth share one order, rerank and combined
    another. The joint order evaluates the transition model once over all
    candidates (plus the target time when time-targeted). Sequences are
    read-only arrays shared between the plans of one task.
    """
    c = task.gallery.num_cameras
    if total_bandwidth < c:
        raise ConfigError(
            f"total bandwidth {total_bandwidth} cannot give {c} cameras one "
            f"slot each")
    sequences = _sequences(task, SEQUENCE_STRATEGIES[strategy], params, models)
    if strategy in LEARNED_BUDGETS:
        if models.transition is None:
            raise ConfigError("learned budgets need a transition model")
        logits = models.transition.forward(
            task.query_camera, float(task.query_time), float(task.target_time),
            train=False)[0]
        allocation = strat.allocate_bandwidth(logits, _sizes(task), total_bandwidth,
                                              params.gamma0, params.gamma1)
    else:
        allocation = strat.uniform_allocation(c, total_bandwidth)
    return UploadPlan(strategy=strategy, sequences=sequences,
                      budgets=allocation.budgets)


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


def _pair_budgets(task: QueryTask, partners: np.ndarray, total_bandwidth: int,
                  params: InferenceParams, models: Models) -> np.ndarray:
    """Learned budgets [partners, C] with each partner's timestamp as the
    target time, memoised on the task (whose partners are fixed): bandwidth
    and combined share them. The partners' logits come from one model call."""
    key = ("pair_budgets", total_bandwidth, params, models)
    if key not in task._memo:
        logits = models.transition.forward(
            np.full(partners.size, task.query_camera, dtype=np.int64),
            np.full(partners.size, float(task.query_time)),
            as_f64(task.gallery.timestamps[partners]), train=False)
        sizes = _sizes(task)
        task._memo[key] = np.array([
            strat.allocate_bandwidth(row, sizes, total_bandwidth, params.gamma0,
                                     params.gamma1).budgets
            for row in logits])
    return task._memo[key]


def _query_outcome(task: QueryTask, query: int, strategy: Strategy,
                   total_bandwidth: int, params: InferenceParams, models: Models,
                   partners: np.ndarray, desired: int):
    gallery = task.gallery
    plan_ = plan(task, strategy, total_bandwidth, params, models)
    log = run_rounds(plan_, gallery.size)
    rank_of = np.full(gallery.size, -1, dtype=np.int64)
    for seq in plan_.sequences:
        rank_of[seq] = np.arange(1, seq.size + 1)
    learned = strategy in LEARNED_BUDGETS
    if learned:
        pair_budgets = _pair_budgets(task, partners, total_bandwidth, params, models)
    pair_records = []
    for k, target in enumerate(partners):
        device = int(gallery.cameras[target])
        rank = int(rank_of[target])
        budgets = pair_budgets[k] if learned else plan_.budgets
        budget = int(budgets[device])
        tn = -(-rank // budget)
        pair_records.append(PairRecord(
            query_index=query, target_index=int(target), device=device,
            rank=rank, budget=budget, tn=tn))
    query_record = QueryRecord(
        query_index=query, target_time=task.target_time, desired_index=desired,
        device=int(gallery.cameras[desired]),
        position=int(log.position_of[desired]),
        round=int(log.round_of[desired]))
    return pair_records, query_record


def run_benchmark(scene: Scene, strategies: Sequence[Strategy], models: Models,
                  total_bandwidth: int, params: InferenceParams,
                  query_spec: QuerySpec, rng: np.random.Generator
                  ) -> dict[str, RunReport]:
    """Run every strategy over the scene's eligible test queries.

    Each query's target time is the timestamp of a seeded-random same-identity
    cross-camera partner. Per-pair transmission numbers use a pair-specific
    allocation for the learned-budget strategies; everything else reuses the
    query-level plan. Queries run in the outer loop and strategies in the
    inner one, so the sequences and per-pair budgets a query's task memoises
    are shared by its strategies and freed before the next query.
    """
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    if models.transition is not None:
        check_scene_compatible(models.transition, scene)
    strategies = [Strategy.parse(s) if isinstance(s, str) else s for s in strategies]
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    all_eligible, skipped = eligible_queries(gallery)
    if all_eligible.size == 0:
        raise DataError("no eligible queries in the test split")
    chosen = all_eligible
    if query_spec.max_queries is not None and all_eligible.size > query_spec.max_queries:
        keep = rng.choice(all_eligible.size, size=query_spec.max_queries,
                          replace=False)
        chosen = all_eligible[np.sort(keep)]
    pairs: list[list[PairRecord]] = [[] for _ in strategies]
    queries: list[list[QueryRecord]] = [[] for _ in strategies]
    for q, partners in zip(chosen.tolist(), _partners(gallery, chosen)):
        target_time = int(gallery.timestamps[partners[rng.integers(0, partners.size)]])
        task = make_task(gallery, q, target_time)
        desired = _desired_index(gallery, q, target_time)
        for k, strategy in enumerate(strategies):
            pair_records, query_record = _query_outcome(
                task, q, strategy, total_bandwidth, params, models, partners, desired)
            pairs[k].extend(pair_records)
            queries[k].append(query_record)
    return {strategy.value: RunReport(
                strategy=strategy.value, total_bandwidth=total_bandwidth,
                num_cameras=scene.num_cameras, gallery_size=gallery.size,
                num_queries=chosen.size, num_skipped=skipped,
                pairs=pairs[k], queries=queries[k])
            for k, strategy in enumerate(strategies)}


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
    spatio-temporal/visual similarity.
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
    for q in chosen:
        q = int(q)
        others = np.flatnonzero(np.arange(gallery.size) != q)
        task = make_task(gallery, q, int(gallery.timestamps[q]))
        v = (gallery.features @ gallery.features[q])[others]
        order_v = others[np.lexsort((others, -v))]
        rows = _transition_rows(models, task, gallery.timestamps[others])
        o = _st_scores(models, params, task, others, rows)
        s = strat.joint_similarity(o, v, params.alpha, params.beta,
                                   params.orientation)
        order_s = others[np.lexsort((others, s))]
        for order, out in ((order_v, visual_lists), (order_s, joint_lists)):
            out.append(RankedQuery(
                query_identity=int(gallery.identities[q]),
                query_camera=int(gallery.cameras[q]),
                gallery_identities=gallery.identities[order],
                gallery_cameras=gallery.cameras[order]))
    return visual_lists, joint_lists
