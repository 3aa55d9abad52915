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
from typing import NamedTuple, Sequence

import numpy as np

from . import strategy as strat
from .errors import ConfigError, DataError, InputError, ShapeError
from .nn import as_f64, softmax
from .scene import Observation, Scene
from .settings import Settings, positive, setting
from .transition import TransitionNet, batch_inputs, check_scene_compatible


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
class InferenceParams(Settings):
    """Knobs for scoring and allocation at inference time."""

    alpha: float = setting(0.1, positive)
    beta: float = setting(0.1, positive)
    gamma0: float = setting(0.01, positive)
    gamma1: float = setting(0.01, strat.valid_gamma1)
    mu: float = setting(0.5, strat.valid_mu)
    orientation: str = setting("consistent", strat.ORIENTATION_MODES.__contains__)
    time_targeted: bool = setting(False)


@dataclasses.dataclass(frozen=True)
class Models:
    """Learned inputs to the strategies; either may be absent.

    transition is the network itself or a TransitionTable over it, which
    fills its cells as lookups ask for them; both give the same bits.
    """

    transition: TransitionNet | TransitionTable | None = None
    frequency: strat.FrequencyModel | None = None


class TransitionTable:
    """Eval-mode logits of a TransitionNet memoised over integer tick deltas.

    Exposes the same forward/distribution interface as the network for
    integer timestamps within [dt_min, dt_max]. Construction evaluates
    nothing: it reserves a [C, n, C] array of logits and one of
    probabilities over the n deltas, and each lookup first fills the
    (source camera, delta) cells it asks for that no earlier lookup filled,
    in one eval_logits call over those cells. An eval-mode row's logits do
    not depend on the rest of its batch, so a cell holds the same bits
    whichever lookup fills it. The model must not change while the table
    serves.
    """

    def __init__(self, model: TransitionNet, dt_min: int, dt_max: int):
        if dt_max < dt_min:
            raise InputError(f"empty delta range [{dt_min}, {dt_max}]")
        self.model = model
        self.config = model.config
        self.dt_min = int(dt_min)
        self.dt_max = int(dt_max)
        c, n = model.config.num_cameras, self.dt_max - self.dt_min + 1
        self.logits = np.empty((c, n, c))
        self.probs = np.empty((c, n, c))
        self.filled = np.zeros((c, n), dtype=bool)

    def _lookup(self, cameras, t_query, t_target) -> np.ndarray:
        """Flat cell indices (source camera x n + delta offset) of a batch,
        each cell filled."""
        c = self.config.num_cameras
        cams, tq, td = batch_inputs(cameras, t_query, t_target, c)
        deltas = td - tq
        idx = np.rint(deltas).astype(np.int64)
        if np.max(np.abs(deltas - idx)) > 1e-9:
            raise InputError("transition table requires integer tick deltas")
        if idx.min() < self.dt_min or idx.max() > self.dt_max:
            raise InputError(
                f"delta range [{idx.min()}, {idx.max()}] outside the table's "
                f"[{self.dt_min}, {self.dt_max}]")
        n = self.filled.shape[1]
        cells = cams * n + (idx - self.dt_min)
        missing = ~self.filled.reshape(-1)[cells]
        if missing.any():
            keys = np.unique(cells[missing])
            key_cams, key_offsets = np.divmod(keys, n)
            logits = self.model.eval_logits(
                key_cams, 0.0, (key_offsets + self.dt_min).astype(np.float64))
            self.logits.reshape(-1, c)[keys] = logits
            self.probs.reshape(-1, c)[keys] = softmax(logits, axis=1, out=logits)
            self.filled.reshape(-1)[keys] = True
        return cells

    def forward(self, cameras, t_query, t_target, train: bool = False) -> np.ndarray:
        cells = self._lookup(cameras, t_query, t_target)
        return self.logits.reshape(-1, self.config.num_cameras)[cells]

    def eval_logits(self, cameras, t_query, t_target) -> np.ndarray:
        """The stored logits, as forward returns them; serving code calls
        eval_logits on either model."""
        return self.forward(cameras, t_query, t_target)

    def distribution(self, cameras, t_query, t_target) -> np.ndarray:
        cells = self._lookup(cameras, t_query, t_target)
        return self.probs.reshape(-1, self.config.num_cameras)[cells]


class IdentityIndex(NamedTuple):
    """A gallery's items grouped by identity.

    items lists each identity's items ascending, identities ascending; item
    i's group, itself included, is items[start[i]:stop[i]], and spans[i]
    says whether that group has items on two or more cameras, that is,
    whether item i has a same-identity partner on another camera.
    """

    items: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    spans: np.ndarray


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

    @functools.cached_property
    def ticks(self) -> np.ndarray:
        """The distinct timestamps, ascending: the ticks at which
        _transition_rows evaluates the model."""
        return np.unique(self.timestamps)

    @functools.cached_property
    def tick_index(self) -> np.ndarray:
        """Each item's index into ticks."""
        return np.searchsorted(self.ticks, self.timestamps)

    @functools.cached_property
    def tick_cells(self) -> np.ndarray:
        """Each item's flat (tick, camera) cell, tick_index * C + camera: its
        own camera's entry in a [ticks, C] block of transition rows."""
        return self.tick_index * self.num_cameras + self.cameras

    @functools.cached_property
    def identity_index(self) -> IdentityIndex:
        """The items grouped by identity, from one stable argsort: the
        source of eligible queries, partners, desired items and matches."""
        items = np.argsort(self.identities, kind="stable")
        ids = self.identities[items]
        new = np.r_[True, ids[1:] != ids[:-1]]
        first = np.flatnonzero(new)
        cams = self.cameras[items]
        spans = np.minimum.reduceat(cams, first) != np.maximum.reduceat(cams, first)
        bounds = np.append(first, self.size)
        group = np.empty(self.size, dtype=np.int64)
        group[items] = np.cumsum(new) - 1
        return IdentityIndex(items, bounds[group], bounds[group + 1], spans[group])


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
# central_rankings). A block holds a few [queries, gallery] arrays (visual
# and joint scores, run_benchmark's per-camera orders of one sequence kind),
# the [queries, ticks, cameras] transition rows and, in central_rankings,
# _positions' [queries, PICKS, gallery] booleans. QUERY_CHUNK bounds them
# as EVAL_ROWS bounds the network's batches, a module constant rather than
# a config key, so memory does not follow the config. Fewer, larger blocks
# make fewer small kernel calls. On the bench's serve workload (3,996
# gallery items, 2 cores, BLAS on one thread), while central_rankings still
# sorted, whole repetitions alternated in one process took a median 352,
# 320, 302 and 303 ms at 4, 8, 16 and 32 queries, and six 10 s bench runs
# at each size read a median peak RSS of 78.3, 77.1, 78.1 and 81.7 MiB. 16
# is the fastest size that keeps the peak at 4's; it relies on each block
# releasing what it no longer needs (_serve_block, central_rankings).
QUERY_CHUNK = 16


def _chunks(n: int):
    """Slices of at most QUERY_CHUNK queries covering range(n)."""
    return (slice(a, min(a + QUERY_CHUNK, n)) for a in range(0, n, QUERY_CHUNK))


def _visual_scores(gallery: Gallery, queries: np.ndarray) -> np.ndarray:
    """Each query's similarity with every gallery item, [Q, G]: one product
    per query, written into its row, since one [G, d] x [d, Q] product gives
    other bits."""
    out = np.empty((queries.size, gallery.size))
    for row, q in zip(out, queries):
        np.matmul(gallery.features, gallery.features[q], out=row)
    return out


def _transition_rows(models: Models, gallery: Gallery, queries: np.ndarray,
                     target_times: np.ndarray | None = None) -> np.ndarray | None:
    """p(camera at a tick | each query's sighting) over the gallery's
    distinct ticks, from one distribution call: rows [Q, T, C], where
    rows[:, gallery.tick_index[i]] is gallery item i's row and, when given,
    each query's target tick is row T. None without a transition model."""
    if models.transition is None:
        return None
    ticks = gallery.ticks
    times = np.broadcast_to(as_f64(ticks), (queries.size, ticks.size))
    if target_times is not None:
        times = np.column_stack((times, target_times))
    n = times.shape[1]
    rows = models.transition.distribution(
        np.repeat(gallery.cameras[queries], n),
        np.repeat(as_f64(gallery.timestamps[queries]), n), times.ravel())
    return rows.reshape(queries.size, n, -1)


def _own_camera(rows: np.ndarray | None, gallery: Gallery) -> np.ndarray | None:
    """p(item's camera at the item's tick | query) of every gallery item,
    [Q, G], from _transition_rows' rows; None without a transition model."""
    if rows is None:
        return None
    return np.take(rows.reshape(len(rows), -1), gallery.tick_cells, axis=1)


def _gather(values: np.ndarray, rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """values[rows[k], items[k]] for each k, [R, m], C-contiguous, copying
    no whole row of values [Q, G]: items is [m], shared by every row, or
    [R, m], one row each."""
    return np.ravel(values)[rows[:, None] * values.shape[1] + items]


def _st_scores(models: Models, params: InferenceParams, gallery: Gallery,
               queries: np.ndarray, items: np.ndarray | None,
               model_part: np.ndarray | None) -> np.ndarray:
    """Spatio-temporal score of each query's items, [R, m]: items are gallery
    indices, [m], shared, or [R, m], one row each (read only with a
    frequency model, and may be None without one), and model_part the
    queries' _own_camera at those items, or None without a transition
    model."""
    freq_part = None
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
    # perm becomes flat indices in place, and at most two [R, n] arrays are
    # alive at a time: perm and the sorted keys, then perm and the items
    perm = np.argsort(keys, axis=-1)
    offsets = keys.shape[-1] * np.arange(len(keys))[:, None] if keys.ndim == 2 else 0
    perm += offsets
    ranked = keys.ravel()[perm]
    tie = ranked[..., 1:] == ranked[..., :-1]
    del ranked
    items = np.asarray(items)
    if items.ndim == 1:
        perm -= offsets
        ordered = items[perm]
    else:
        ordered = np.ascontiguousarray(items).ravel()[perm]
    del perm
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
                   None if own is None else _gather(own, rows, items))
    s = strat.joint_similarity(o, _gather(visual, rows, items), params.alpha,
                               params.beta, params.orientation)
    if params.time_targeted:
        # one cosine product per (query, camera), as for a block of one query
        tick = gallery.tick_index
        per_row = np.broadcast_to(items, s.shape)
        for k, r in enumerate(rows):
            bank = strat.PatternBank(rows=transition[r, tick[per_row[k]]],
                                     target=transition[r, -1])
            s[k] = strat.time_targeted_scores(s[k], bank, params.orientation)
    return _order(s, items)


def _sequences(gallery: Gallery, queries: np.ndarray, target_times: np.ndarray,
               kind: str, params: InferenceParams, models: Models,
               visual: np.ndarray | None = None) -> list:
    """Each camera's upload orders for a block of queries under a sequence
    kind ("time", "visual" or "joint"), each query's own item left out.

    Returns one list per camera of (rows, orders) pairs: rows index the
    queries, ascending, and orders[k] is query rows[k]'s sequence of gallery
    indices. A camera's queries on other cameras come first and order all n
    of its items; its queries on it come second and order n - 1; a pair
    with no rows is left out. Time and visual keys do not depend on which
    items are present, so those orders are sorted once over all n items (the
    time order once per gallery, which the queries on other cameras share as
    one read-only broadcast view) and a query on the camera drops its own
    item; the joint score's softmax runs over the items present, so those
    queries get an n - 1 block of their own. The joint order's transition
    rows, with the target tick's when time-targeted, come from one model call
    for the block, and are kept past _own_camera only when time-targeted.
    visual, when given, is the block's _visual_scores, which the visual and
    joint kinds share; it is computed here otherwise.
    """
    cams = gallery.cameras[queries]
    if kind != "time" and visual is None:
        visual = _visual_scores(gallery, queries)
    if kind == "joint":
        transition = _transition_rows(models, gallery, queries,
                                      target_times if params.time_targeted else None)
        own = _own_camera(transition, gallery)
        if not params.time_targeted:
            transition = None  # one [queries, ticks, cameras] block fewer
    out = []
    for c, items in enumerate(gallery.device_items):
        off, on = np.flatnonzero(cams != c), np.flatnonzero(cams == c)
        if kind == "time":
            order = gallery.time_orders[c]
            off_items, on_items = np.broadcast_to(order, (off.size, order.size)), order
        elif kind == "visual":
            orders = _order(-np.take(visual, items, axis=1), items)
            off_items, on_items = orders[off], orders[on]
        else:
            off_items = on_items = items
        blocks = []
        if off.size:
            blocks.append((off, off_items))
        if on.size:
            blocks.append((on, _drop(on_items, queries[on])))
        if kind == "joint":
            blocks = [(rows, _joint_order(gallery, params, models, queries, rows, block,
                                          visual, transition, own))
                      for rows, block in blocks]
        out.append(blocks)
    return out


def _find(blocks: list, query_cameras: np.ndarray, rows: np.ndarray,
          items: np.ndarray, cameras: np.ndarray) -> np.ndarray:
    """0-based position of each items[i] in query rows[i]'s sequence on
    camera cameras[i], the item's own, read from _sequences' blocks for
    queries on query_cameras. Each item must be in that sequence. Only the
    rows holding an item are compared, one camera block at a time."""
    out = np.empty(items.size, dtype=np.int64)
    # which of a camera's two blocks holds each (row, item)
    side = 2 * cameras + (query_cameras[rows] == cameras)
    for c, camera in enumerate(blocks):
        for block_rows, orders in camera:
            sel = np.flatnonzero(side == 2 * c + (query_cameras[block_rows[0]] == c))
            if sel.size:
                picked = orders[np.searchsorted(block_rows, rows[sel])]
                out[sel] = (picked == items[sel, None]).argmax(axis=1)
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


class PairColumns(NamedTuple):
    """Pair outcomes as equal-length int64 columns, one per PairRecord field
    in its order."""

    query_index: np.ndarray
    target_index: np.ndarray
    device: np.ndarray
    rank: np.ndarray
    budget: np.ndarray
    tn: np.ndarray


class QueryColumns(NamedTuple):
    """Query outcomes as equal-length int64 columns, one per QueryRecord
    field in its order."""

    query_index: np.ndarray
    target_time: np.ndarray
    desired_index: np.ndarray
    device: np.ndarray
    position: np.ndarray
    round: np.ndarray


def _frozen_columns(kind, columns):
    """kind(*columns) as read-only int64 copies, checked for equal length."""
    out = kind(*(np.array(c, dtype=np.int64) for c in columns))
    if any(c.ndim != 1 or c.size != out[0].size for c in out):
        raise ShapeError(f"{kind.__name__} needs 1-D columns of one length")
    for c in out:
        c.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class RunReport:
    """Everything the metrics need about one strategy's benchmark run.

    Pair and query outcomes are read-only int64 columns; pairs and queries
    are the same outcomes as PairRecord and QueryRecord lists, built on
    first access. Reports are equal when every field is.
    """

    strategy: str
    total_bandwidth: int
    num_cameras: int
    gallery_size: int
    num_queries: int
    num_skipped: int
    pair_columns: PairColumns
    query_columns: QueryColumns

    def __post_init__(self):
        object.__setattr__(self, "pair_columns",
                           _frozen_columns(PairColumns, self.pair_columns))
        object.__setattr__(self, "query_columns",
                           _frozen_columns(QueryColumns, self.query_columns))

    def __eq__(self, other):
        if not isinstance(other, RunReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in dataclasses.fields(self))

    @functools.cached_property
    def pairs(self) -> list[PairRecord]:
        return [PairRecord(*row)
                for row in zip(*(c.tolist() for c in self.pair_columns))]

    @functools.cached_property
    def queries(self) -> list[QueryRecord]:
        return [QueryRecord(*row)
                for row in zip(*(c.tolist() for c in self.query_columns))]


@dataclasses.dataclass(frozen=True)
class QuerySpec(Settings):
    """Which queries to run: all eligible test observations, capped."""

    max_queries: int | None = setting(None, positive)


def eligible_queries(gallery: Gallery) -> tuple[np.ndarray, int]:
    """Indices, ascending, of the items with a same-identity partner on
    another camera (those in any scene.cross_camera_pairs pair), plus the
    count of the other items; read from the identity index."""
    eligible = np.flatnonzero(gallery.identity_index.spans)
    return eligible, gallery.size - eligible.size


def _choose_queries(gallery: Gallery, max_queries: int | None,
                    rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """eligible_queries' queries, thinned to a seeded sample of max_queries
    (one rng.choice draw, kept in ascending order) when there are more, and
    the count of ineligible items. Raises DataError when none is
    eligible."""
    eligible, skipped = eligible_queries(gallery)
    if eligible.size == 0:
        raise DataError("no eligible queries in the test split")
    if max_queries is not None and eligible.size > max_queries:
        keep = rng.choice(eligible.size, size=max_queries, replace=False)
        eligible = eligible[np.sort(keep)]
    return eligible, skipped


def _members(gallery: Gallery, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query's identity's items, the query's own included, as flat
    (row, item) arrays: rows index the queries, ascending, and each row's
    items ascend. One slice of the identity index per query."""
    index = gallery.identity_index
    start = index.start[queries]
    counts = index.stop[queries] - start
    rows = np.repeat(np.arange(queries.size), counts)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, index.items[start[rows] + offsets]


def _partners(gallery: Gallery, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query's same-identity partners on other cameras as flat (row,
    item) arrays, as _members gives them."""
    rows, items = _members(gallery, queries)
    other = gallery.cameras[items] != gallery.cameras[queries][rows]
    return rows[other], items[other]


def _desired_index(gallery: Gallery, queries: np.ndarray,
                   target_times: np.ndarray) -> np.ndarray:
    """Each query's desired item: of its identity's other items, the one
    whose timestamp is closest to the query's target time, ties to the
    earlier timestamp, then the lower index. Each query needs one."""
    rows, items = _members(gallery, queries)
    other = items != queries[rows]
    rows, items = rows[other], items[other]
    times = gallery.timestamps[items]
    order = np.lexsort((items, times, np.abs(times - target_times[rows]), rows))
    return items[order[np.searchsorted(rows[order], np.arange(queries.size))]]


# Largest TransitionTable, in (camera, delta) cells, that
# build_transition_table reserves; it bounds the table's memory (two float64
# arrays of C values per cell), not its work, which follows the cells that
# lookups ask for. Past it the raw model serves.
TABLE_MAX_CELLS = 4_000_000


def build_transition_table(model: TransitionNet, timestamps: np.ndarray
                           ) -> TransitionNet | TransitionTable:
    """An empty TransitionTable over the scene's delta range when it takes
    at most TABLE_MAX_CELLS cells, otherwise the model itself. The table
    evaluates no cell here: its lookups fill the cells they ask for."""
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


def _serve_block(gallery: Gallery, strategies: list[Strategy], total_bandwidth: int,
                 params: InferenceParams, models: Models, tasks: list[QueryTask],
                 target_times: np.ndarray, budgets: dict, rows: np.ndarray,
                 items: np.ndarray) -> dict[str, np.ndarray]:
    """run_benchmark's work on one block of queries (tasks), one sequence
    kind at a time, on one visual product: the kind's _sequences, the 0-based
    position of each items[i] in query rows[i]'s sequence on the item's
    camera (_find), and plan over each (query, strategy of the kind) from
    those sequences and the budgets (the block's rows of _budgets, by
    learned). Returns the positions by kind; a kind's orders go before the
    next kind's are sorted, and the block's arrays when it returns."""
    queries = np.array([task.query_index for task in tasks], dtype=np.int64)
    kinds = list(dict.fromkeys(SEQUENCE_STRATEGIES[s] for s in strategies))
    visual = (_visual_scores(gallery, queries)
              if any(kind != "time" for kind in kinds) else None)
    cams = gallery.cameras[queries]
    found = {}
    for kind in kinds:
        blocks = _sequences(gallery, queries, target_times, kind, params, models,
                            visual)
        found[kind] = _find(blocks, cams, rows, items, gallery.cameras[items])
        # plan assembles and checks each (query, strategy)'s upload plan
        planned = [s for s in strategies if SEQUENCE_STRATEGIES[s] == kind]
        for k, (task, sequences) in enumerate(zip(tasks, _split(blocks, len(tasks)))):
            for strategy in planned:
                plan(task, strategy, total_bandwidth, params, models, sequences,
                     budgets[strategy in LEARNED_BUDGETS][k])
    return found


def run_benchmark(scene: Scene, strategies: Sequence[Strategy], models: Models,
                  total_bandwidth: int, params: InferenceParams,
                  query_spec: QuerySpec, rng: np.random.Generator
                  ) -> dict[str, RunReport]:
    """Run every strategy over the scene's eligible test queries.

    Each query's target time is the timestamp of a seeded-random same-identity
    cross-camera partner. Every strategy's ConfigError is raised before the
    first query. The eligible queries, each query's partners and its
    desired item are read from the test gallery's identity index. The
    target-time draws and the tasks are made per query, the rest on arrays.
    Unlike central_rankings, the blocks still sort: every (query, strategy)
    gets a full upload sequence from plan. Query-level budgets come from one
    _budgets call per budget kind (one eval_logits call and one row-wise
    allocation for the learned ones, the uniform allocation once), and
    per-pair budgets of the learned strategies (each partner's timestamp as
    the target time) from one more of each, after the last block's arrays
    are gone. Each block of
    QUERY_CHUNK queries runs in _serve_block: one visual product, then, one
    sequence kind at a time, the kind's _sequences, each partner's rank and
    the desired item's position read from those orders (_find, on the rows
    that hold one), and plan for each (query, strategy) of the kind from
    the block's sequences and the budgets. Transmission numbers are
    ceil(rank / budget), and the desired item's arrival round and merged
    position follow in closed form (_arrival), where run_rounds merges.
    plan plus run_rounds per (query, strategy) is the scalar reference. Each
    report keeps the outcomes as the columns computed here.
    """
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    if models.transition is not None:
        check_scene_compatible(models.transition, scene)
    strategies = [Strategy.parse(s) if isinstance(s, str) else s for s in strategies]
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    for strategy in strategies:
        _check_strategy(strategy, gallery, total_bandwidth, params, models)
    chosen, skipped = _choose_queries(gallery, query_spec.max_queries, rng)
    pair_row, targets = _partners(gallery, chosen)
    pair_query = chosen[pair_row]
    counts = np.bincount(pair_row, minlength=chosen.size)
    target_times = np.empty(chosen.size, dtype=np.int64)
    tasks = []
    for k, (q, first, count) in enumerate(zip(
            chosen.tolist(), (np.cumsum(counts) - counts).tolist(), counts.tolist())):
        target_times[k] = gallery.timestamps[targets[first + rng.integers(0, count)]]
        tasks.append(make_task(gallery, q, int(target_times[k])))
    desired = _desired_index(gallery, chosen, target_times)
    sizes = _sizes(gallery, chosen)
    budgets = {learned: _budgets(gallery, chosen, target_times, learned,
                                 total_bandwidth, params, models)
               for learned in dict.fromkeys(s in LEARNED_BUDGETS for s in strategies)}
    kinds = list(dict.fromkeys(SEQUENCE_STRATEGIES[s] for s in strategies))
    ranks = {kind: np.empty(targets.size, dtype=np.int64) for kind in kinds}
    positions = {kind: np.empty(chosen.size, dtype=np.int64) for kind in kinds}
    for chunk in _chunks(chosen.size):
        lo, hi = np.searchsorted(pair_row, (chunk.start, chunk.stop))
        # the block's pair targets, then each query's desired item
        rows = np.concatenate((pair_row[lo:hi] - chunk.start,
                               np.arange(chunk.stop - chunk.start)))
        found = _serve_block(gallery, strategies, total_bandwidth, params, models,
                             tasks[chunk], target_times[chunk],
                             {learned: b[chunk] for learned, b in budgets.items()},
                             rows, np.concatenate((targets[lo:hi], desired[chunk])))
        for kind, position in found.items():
            ranks[kind][lo:hi] = position[:hi - lo] + 1
            positions[kind][chunk] = position[hi - lo:]
    devices = gallery.cameras[targets]
    desired_devices = gallery.cameras[desired]
    if True in budgets:  # a learned-budget strategy runs: per-pair budgets
        logits = models.transition.eval_logits(gallery.cameras[pair_query],
                                               gallery.timestamps[pair_query],
                                               gallery.timestamps[targets])
        pair_budgets = strat.allocate_bandwidth_rows(
            logits, sizes[pair_row], total_bandwidth,
            params.gamma0, params.gamma1)[0][np.arange(targets.size), devices]
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
            pair_columns=PairColumns(pair_query, targets, devices, rank, budget,
                                     -(-rank // budget)),
            query_columns=QueryColumns(chosen, target_times, desired,
                                       desired_devices, merged, rounds))
    return reports


# -- centralized evaluation ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RankedQuery:
    """A query and where its identity's items sit in its ranked list (the
    gallery without the query, best first): their 1-based positions,
    ascending, and whether each is on the query's camera."""

    query_identity: int
    query_camera: int
    positions: np.ndarray
    on_query_camera: np.ndarray


def _without(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The entries of values [R, G] where keep, one False per row: [R, G - 1]."""
    return values[keep].reshape(len(values), -1)


# Picks per row that _positions compares at a time: its [R, 16, n] booleans
# weigh two [R, n] float64 arrays however many matches an identity has.
PICKS = 16


def _positions(keys: np.ndarray, rows: np.ndarray, columns: np.ndarray
               ) -> np.ndarray:
    """1-based position of each keys[rows[i], columns[i]] in its row of keys
    [R, n] sorted ascending, ties by column, without sorting: one plus the
    row's keys below it plus its equals in earlier columns.

    rows ascend. Each row's picked keys are laid out [R, K] for K picks in
    the fullest row, the rest of a shorter row NaN, which no key is below or
    equal to, and compared with the whole row PICKS at a time. Equal keys
    are counted only when some picked key has an equal other than itself.
    NaN keys raise InputError.

    The cost is K passes over [R, n] for K picks a row, where a sort costs
    about log n: on 16 rows of 3,995 keys it took 0.3 ms at 11 picks, as
    long as the row-wise sort at about 33 and twice as long at 99. In
    central_rankings, K is the number of a query identity's other
    sightings in the test gallery (11 on the benchmark's scene).
    """
    if np.isnan(keys).any():
        raise InputError("sort keys must not be NaN")
    counts = np.bincount(rows, minlength=len(keys))
    slots = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    picked = np.full((len(keys), counts.max(initial=0)), np.nan)
    picked[rows, slots] = keys[rows, columns]
    at = np.full(picked.shape, -1)
    at[rows, slots] = columns
    # a uint16 sum, exact below 2**16 keys a row, counts twice as fast as int64
    count = np.uint16 if keys.shape[1] < 2**16 else np.int64
    ahead = np.ones(picked.shape, dtype=np.int64)
    for k in range(0, picked.shape[1], PICKS):
        part, part_at = picked[:, k:k + PICKS, None], at[:, k:k + PICKS, None]
        below = np.less(keys[:, None, :], part).sum(axis=2, dtype=count)
        ahead[:, k:k + PICKS] += below
        equal = np.equal(keys[:, None, :], part)
        if np.count_nonzero(equal) > np.count_nonzero(part_at >= 0):
            equal &= np.arange(keys.shape[1]) < part_at
            ahead[:, k:k + PICKS] += equal.sum(axis=2)
    return ahead[rows, slots]


def _ranked_queries(gallery: Gallery, queries: np.ndarray, rows: np.ndarray,
                    items: np.ndarray, positions: np.ndarray) -> list[RankedQuery]:
    """Each query's RankedQuery from the flat (row, item) matches and their
    positions: each row's positions put in ascending order."""
    order = np.lexsort((positions, rows))
    positions = positions[order]
    same = gallery.cameras[items[order]] == gallery.cameras[queries[rows[order]]]
    stops = np.cumsum(np.bincount(rows, minlength=queries.size)).tolist()
    return [RankedQuery(query_identity=int(gallery.identities[q]),
                        query_camera=int(gallery.cameras[q]),
                        positions=positions[a:b], on_query_camera=same[a:b])
            for q, a, b in zip(queries.tolist(), [0] + stops, stops)]


def central_rankings(scene: Scene, models: Models, params: InferenceParams,
                     max_queries: int | None, rng: np.random.Generator):
    """Rank the merged test gallery per query, visually and jointly.

    Returns (visual, joint): two lists of RankedQuery over the same queries,
    the first ordered by cosine similarity alone, the second by the joint
    spatio-temporal/visual similarity, each over the gallery without the
    query and with ties by gallery index. Nothing is sorted: each match's
    position in each order is counted (_positions) over its query's scores,
    and its matches come from the test gallery's identity index. Counting
    costs K comparisons per gallery item for a query with K matches, so it
    beats a sort only while identities have few sightings (see _positions).
    Queries run in blocks of QUERY_CHUNK on the serving kernels: one
    visual product per query, one transition-model call, one row-form joint
    similarity and two counts per block. A block's scores leave out each
    query's own item by one mask (_without), and the visual positions are
    counted before the joint scores exist. max_queries is checked as
    QuerySpec checks it.
    """
    QuerySpec(max_queries=max_queries)
    if scene.test_identities is None:
        raise DataError("scene has no train/test split")
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)
    if gallery.features is None:
        raise ConfigError("centralized evaluation needs appearance features")
    chosen, _ = _choose_queries(gallery, max_queries, rng)
    visual_lists: list[RankedQuery] = []
    joint_lists: list[RankedQuery] = []
    everything = np.arange(gallery.size)
    for chunk in _chunks(chosen.size):
        queries = chosen[chunk]
        rows, items = _members(gallery, queries)
        matches = items != queries[rows]
        rows, items = rows[matches], items[matches]
        # a match's column in its query's scores, which leave the query out
        columns = items - (items > queries[rows])
        keep = everything != queries[:, None]
        v = _without(_visual_scores(gallery, queries), keep)
        # the visual positions first, on v negated in place and then negated
        # back, which is exact
        visual = _positions(np.negative(v, out=v), rows, columns)
        np.negative(v, out=v)
        visual_lists += _ranked_queries(gallery, queries, rows, items, visual)
        own = _own_camera(_transition_rows(models, gallery, queries), gallery)
        # only the frequency scores read the items
        others = (_drop(everything, queries) if models.frequency is not None
                  else None)
        o = _st_scores(models, params, gallery, queries, others,
                       None if own is None else _without(own, keep))
        del own
        s = strat.joint_similarity(o, v, params.alpha, params.beta,
                                   params.orientation)
        del o, v
        joint_lists += _ranked_queries(gallery, queries, rows, items,
                                       _positions(s, rows, columns))
    return visual_lists, joint_lists
