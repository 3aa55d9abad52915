"""Camera-transition network: p(camera at target time | source camera, dt).

The network embeds the signed time difference sinusoidally, contracts it with
a per-source-camera weight block into one feature row per camera, refines the
rows with graph propagation blocks (layer norm, learned adjacency mixing,
feature transfer, GELU), and scores each camera's row with a shared
batch-norm/ReLU/linear head. Forward, backward, and Adam updates are all
explicit; no autodiff.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from typing import Sequence

import numpy as np

from . import nn
from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     InputError, NumericError, ShapeError)
from .nn import Param, as_f64
from .scene import Observation, Scene, cross_camera_pairs

CHECKPOINT_VERSION = 1
# Rows per eval-mode forward pass in TransitionNet.eval_logits. It bounds the
# size of each pass's temporaries; 256 measured faster than 1,024 on long
# galleries.
EVAL_ROWS = 256


@dataclasses.dataclass(frozen=True)
class TransitionNetConfig:
    """Architecture and time-handling settings for TransitionNet.

    embed_dim must be even; time_scale divides raw tick differences before
    the sinusoidal embedding; denominator_floor keeps the embedding-sum
    normaliser away from zero (the sum of sines and cosines can vanish).
    """

    num_cameras: int
    embed_dim: int = 32
    num_blocks: int = 2
    max_period: float = 10000.0
    time_scale: float = 1.0
    denominator_floor: float = 1e-3
    per_node_classifier: bool = False

    def __post_init__(self):
        if self.num_cameras < 2:
            raise ConfigError(f"need at least 2 cameras, got {self.num_cameras}")
        if self.embed_dim <= 0 or self.embed_dim % 2 != 0:
            raise ConfigError(f"embed_dim must be positive and even, got {self.embed_dim}")
        if self.num_blocks < 1:
            raise ConfigError(f"need at least one block, got {self.num_blocks}")
        if self.time_scale <= 0.0:
            raise ConfigError(f"time_scale must be positive, got {self.time_scale}")
        if self.denominator_floor <= 0.0:
            raise ConfigError("denominator_floor must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "TransitionNetConfig":
        allowed = {f.name for f in dataclasses.fields(TransitionNetConfig)}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ConfigError(f"unknown model keys: {', '.join(unknown)}")
        if "num_cameras" not in doc:
            raise ConfigError("model config is missing num_cameras")
        return TransitionNetConfig(**doc)


class GraphBlock:
    """One propagation step: adjacency mixing and feature transfer with GELU."""

    def __init__(self, num_cameras: int, width: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(width)
        self.adjacency = Param(np.eye(num_cameras)
                               + rng.uniform(-0.01, 0.01, (num_cameras, num_cameras)))
        self.transfer = Param(rng.uniform(-bound, bound, (width, width)))
        self.norm_scale = Param(np.ones(width))
        self.norm_shift = Param(np.zeros(width))

    def named_params(self, prefix: str) -> dict[str, Param]:
        return {
            f"{prefix}.adjacency": self.adjacency,
            f"{prefix}.transfer": self.transfer,
            f"{prefix}.norm_scale": self.norm_scale,
            f"{prefix}.norm_shift": self.norm_shift,
        }

    def forward(self, a: np.ndarray):
        normed, ln_cache = nn.layer_norm_forward(a, self.norm_scale, self.norm_shift)
        mixed = np.einsum("uv,nvd->nud", self.adjacency.value, normed)
        pre = mixed @ self.transfer.value
        out = nn.gelu(pre)
        return out, (normed, ln_cache, mixed, pre)

    def backward(self, gout: np.ndarray, cache) -> np.ndarray:
        normed, ln_cache, mixed, pre = cache
        gpre = nn.gelu_backward(gout, pre)
        self.transfer.grad += np.einsum("nud,nue->de", mixed, gpre)
        gmixed = gpre @ self.transfer.value.T
        self.adjacency.grad += np.einsum("nud,nvd->uv", gmixed, normed)
        gnormed = np.einsum("uv,nud->nvd", self.adjacency.value, gmixed)
        return nn.layer_norm_backward(gnormed, ln_cache, self.norm_scale, self.norm_shift)


class _Head:
    """Batch-norm -> ReLU -> linear scorer producing one logit per row."""

    def __init__(self, width: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(width)
        self.bn = nn.BatchNorm(width)
        self.fc_weight = Param(rng.uniform(-bound, bound, (width, 1)))
        self.fc_bias = Param(np.zeros(1))

    def named_params(self, prefix: str) -> dict[str, Param]:
        return {
            f"{prefix}.bn_scale": self.bn.scale,
            f"{prefix}.bn_shift": self.bn.shift,
            f"{prefix}.fc_weight": self.fc_weight,
            f"{prefix}.fc_bias": self.fc_bias,
        }

    def forward(self, rows: np.ndarray, train: bool):
        bn_out, bn_cache = self.bn.forward(rows, train)
        hidden = nn.relu(bn_out)
        logits = nn.linear_forward(hidden, self.fc_weight, self.fc_bias)
        return logits, (bn_cache, bn_out, hidden)

    def backward(self, glogits: np.ndarray, cache) -> np.ndarray:
        bn_cache, bn_out, hidden = cache
        ghidden = nn.linear_backward(glogits, hidden, self.fc_weight, self.fc_bias)
        gbn = nn.relu_backward(ghidden, bn_out)
        return self.bn.backward(gbn, bn_cache)


def _group_by_camera(cams: np.ndarray, num_cameras: int):
    """Stable sort order of a batch by source camera, and segment bounds:
    the rows of camera s are order[bounds[s]:bounds[s + 1]], in batch order."""
    order = np.argsort(cams, kind="stable")
    bounds = np.zeros(num_cameras + 1, dtype=np.int64)
    np.cumsum(np.bincount(cams, minlength=num_cameras), out=bounds[1:])
    return order, bounds


# The per-camera contractions below use np.einsum rather than matmul: BLAS
# switches between matrix-vector and matrix-matrix kernels with the group
# size, which would make a row's logits depend on the rest of its batch in
# the last bit.


def _spatial_forward(weight: np.ndarray, weights: np.ndarray, order: np.ndarray,
                     bounds: np.ndarray) -> np.ndarray:
    """out[i] = weights[i] contracted with weight[cams[i]] -> [n, C, D], one
    contraction per camera group of _group_by_camera."""
    c, d = weight.shape[:2]
    blocks = weight.reshape(c, d, c * d)
    sorted_weights = weights[order]
    out = np.empty((order.size, c * d))
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        out[order[rows]] = np.einsum("nj,jk->nk", sorted_weights[rows], blocks[s])
    return out.reshape(-1, c, d)


def _spatial_backward(weight_grad: np.ndarray, weights: np.ndarray,
                      order: np.ndarray, bounds: np.ndarray, ga: np.ndarray) -> None:
    """weight_grad[s] += sum over camera s's rows i, in batch order, of
    outer(weights[i], ga[i])."""
    c, d = weight_grad.shape[:2]
    sorted_weights = weights[order]
    sorted_ga = ga.reshape(-1, c * d)[order]
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        weight_grad[s] += np.einsum("nj,nk->jk", sorted_weights[rows],
                                    sorted_ga[rows]).reshape(d, c, d)


class TransitionNet:
    """Maps (source camera, signed time difference) to per-camera logits.

    The spatial contraction multiplies each row's normalised time embedding
    by its source camera's [D, C*D] weight block. A batch is grouped by
    camera once per forward pass, so each block is applied to its rows in one
    contraction and its gradient is summed over those rows in one more; no
    per-row copy of a weight block is made.
    """

    def __init__(self, config: TransitionNetConfig, rng: np.random.Generator):
        self.config = config
        c, d = config.num_cameras, config.embed_dim
        bound = 1.0 / np.sqrt(d)
        self.spatial_weight = Param(rng.uniform(-bound, bound, (c, d, c, d)))
        self.spatial_bias = Param(np.zeros((c, d)))
        self.blocks = [GraphBlock(c, d, rng) for _ in range(config.num_blocks)]
        if config.per_node_classifier:
            self.heads = [_Head(d, rng) for _ in range(c)]
        else:
            self.heads = [_Head(d, rng)]
        self.metadata: dict = {}
        self._cache = None

    # -- parameter plumbing ------------------------------------------------

    def named_params(self) -> dict[str, Param]:
        out = {"spatial_weight": self.spatial_weight,
               "spatial_bias": self.spatial_bias}
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"block{i}"))
        if self.config.per_node_classifier:
            for i, head in enumerate(self.heads):
                out.update(head.named_params(f"head{i}"))
        else:
            out.update(self.heads[0].named_params("head"))
        return out

    def params(self) -> list[Param]:
        return list(self.named_params().values())

    def zero_grads(self) -> None:
        nn.zero_grads(self.params())

    def bn_states(self) -> dict[str, dict]:
        if self.config.per_node_classifier:
            return {f"head{i}": h.bn.state() for i, h in enumerate(self.heads)}
        return {"head": self.heads[0].bn.state()}

    def load_bn_states(self, states: dict) -> None:
        for name, head in self._head_items():
            if name not in states:
                raise CheckpointError(f"missing batch-norm state for {name}")
            head.bn.load_state(states[name])

    def _head_items(self):
        if self.config.per_node_classifier:
            return [(f"head{i}", h) for i, h in enumerate(self.heads)]
        return [("head", self.heads[0])]

    # -- forward / backward ------------------------------------------------

    def _deltas(self, t_query, t_target) -> np.ndarray:
        tq = as_f64(t_query)
        td = as_f64(t_target)
        if not (np.all(np.isfinite(tq)) and np.all(np.isfinite(td))):
            raise InputError("timestamps must be finite")
        return (td - tq) / self.config.time_scale

    def forward(self, cameras, t_query, t_target, train: bool = False) -> np.ndarray:
        """Score each camera for a batch of (source camera, time pair) inputs.

        cameras, t_query, t_target broadcast to a common batch shape [n];
        returns logits [n, C] and retains the cache consumed by backward,
        which reuses the batch's grouping by source camera for the
        spatial-weight gradient.
        """
        cfg = self.config
        cams = np.atleast_1d(np.asarray(cameras, dtype=np.int64))
        deltas = np.atleast_1d(self._deltas(t_query, t_target))
        cams, deltas = np.broadcast_arrays(cams, deltas)
        cams = cams.astype(np.int64)
        if cams.ndim != 1:
            raise ShapeError("cameras and timestamps must be scalars or 1-d arrays")
        if cams.size == 0:
            raise InputError("empty batch")
        if cams.min() < 0 or cams.max() >= cfg.num_cameras:
            raise InputError(
                f"source cameras must lie in [0, {cfg.num_cameras}), got "
                f"range [{cams.min()}, {cams.max()}]")
        n, c, d = cams.size, cfg.num_cameras, cfg.embed_dim

        embed = nn.sinusoidal_embed(deltas, d, cfg.max_period)
        raw_den = embed.sum(axis=1)
        sign = np.where(raw_den < 0.0, -1.0, 1.0)
        den = sign * np.maximum(np.abs(raw_den), cfg.denominator_floor)
        weights = embed / den[:, None]

        order, bounds = _group_by_camera(cams, c)
        a = (_spatial_forward(self.spatial_weight.value, weights, order, bounds)
             + self.spatial_bias.value)

        block_caches = []
        for block in self.blocks:
            a, cache = block.forward(a)
            block_caches.append(cache)

        if cfg.per_node_classifier:
            logits = np.empty((n, c))
            head_caches = []
            for node, head in enumerate(self.heads):
                col, cache = head.forward(a[:, node, :], train)
                logits[:, node] = col[:, 0]
                head_caches.append(cache)
        else:
            rows = a.reshape(n * c, d)
            flat, cache = self.heads[0].forward(rows, train)
            logits = flat.reshape(n, c)
            head_caches = [cache]

        if not np.all(np.isfinite(logits)):
            raise NumericError("non-finite logits; check inputs and learning rate")
        self._cache = (order, bounds, weights, block_caches, head_caches, n)
        return logits

    def backward(self, glogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the most recent forward pass.

        The spatial-weight gradient of camera s is the sum over that camera's
        rows, in batch order, of outer(weights, upstream gradient).
        """
        if self._cache is None:
            raise InputError("backward called before forward")
        order, bounds, weights, block_caches, head_caches, n = self._cache
        cfg = self.config
        c, d = cfg.num_cameras, cfg.embed_dim
        glogits = as_f64(glogits)
        if glogits.shape != (n, c):
            raise ShapeError(f"gradient shape {glogits.shape} != ({n}, {c})")

        if cfg.per_node_classifier:
            ga = np.empty((n, c, d))
            for node, head in enumerate(self.heads):
                ga[:, node, :] = head.backward(glogits[:, node:node + 1],
                                               head_caches[node])
        else:
            grows = self.heads[0].backward(glogits.reshape(n * c, 1), head_caches[0])
            ga = grows.reshape(n, c, d)

        for block, cache in zip(reversed(self.blocks), reversed(block_caches)):
            ga = block.backward(ga, cache)

        self.spatial_bias.grad += ga.sum(axis=0)
        _spatial_backward(self.spatial_weight.grad, weights, order, bounds, ga)
        self._cache = None

    def eval_logits(self, cameras, t_query, t_target) -> np.ndarray:
        """Eval-mode logits of forward, evaluated in blocks of about EVAL_ROWS
        rows (see _batches).

        Inputs broadcast as in forward. The blocks give the same bits as one
        forward pass over the whole batch; a one-row call runs as two copies
        of the row, since a one-row batch can move the last bit (_batches).
        No cache is kept afterwards, so backward cannot follow.
        """
        cams = np.atleast_1d(np.asarray(cameras, dtype=np.int64))
        tq = np.atleast_1d(as_f64(t_query))
        td = np.atleast_1d(as_f64(t_target))
        cams, tq, td = np.broadcast_arrays(cams, tq, td)
        if cams.size == 0:
            raise InputError("empty batch")
        n = cams.shape[0]
        if n == 1:
            cams, tq, td = (np.repeat(a, 2) for a in (cams, tq, td))
        out = np.empty((cams.shape[0], self.config.num_cameras))
        try:
            for rows in _batches(np.arange(cams.shape[0]), EVAL_ROWS):
                out[rows] = self.forward(cams[rows], tq[rows], td[rows], train=False)
        finally:
            self._cache = None
        return out[:n]

    def distribution(self, cameras, t_query, t_target) -> np.ndarray:
        """Softmax of eval_logits: p(camera at target time)."""
        return nn.softmax(self.eval_logits(cameras, t_query, t_target), axis=1)


# -- training ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrainSchedule:
    """Optimisation settings: Adam at base_lr, decayed by lr_decay every
    lr_step_epochs epochs; pairs_per_epoch defaults to the train-split size."""

    epochs: int = 90
    base_lr: float = 0.01
    lr_decay: float = 0.1
    lr_step_epochs: int = 30
    batch_size: int = 128
    pairs_per_epoch: int | None = None
    holdout_pairs: int = 2000

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.base_lr <= 0.0 or not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("base_lr must be positive and lr_decay in (0, 1]")
        if self.lr_step_epochs < 1 or self.batch_size < 1:
            raise ConfigError("lr_step_epochs and batch_size must be >= 1")
        if self.pairs_per_epoch is not None and self.pairs_per_epoch < 1:
            raise ConfigError("pairs_per_epoch must be >= 1 when given")

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * self.lr_decay ** (epoch // self.lr_step_epochs)


def _cross_camera_pairs(observations: Sequence[Observation]):
    """A split's unordered cross-camera observation pairs: (cameras,
    timestamps, first, second, bounds). cameras and timestamps are the split's
    columns; pair k joins observations first[k] and second[k]
    (scene.cross_camera_pairs order), and the pairs of the i-th identity with
    any, in ascending identity order, are bounds[i]:bounds[i + 1]."""
    ids = np.array([o.identity for o in observations], dtype=np.int64)
    cams = np.array([o.camera for o in observations], dtype=np.int64)
    times = np.array([o.timestamp for o in observations], dtype=np.float64)
    first, second = cross_camera_pairs(ids, cams)
    _, starts = np.unique(ids[first], return_index=True)
    return cams, times, first, second, np.append(starts, first.size)


def _pair_batch(pool, query: np.ndarray, target: np.ndarray):
    """The batch of (query, target) observation index pairs into a pool's
    split: (source cameras, query times, target times, target cameras)."""
    cams, times = pool[:2]
    return cams[query], times[query], times[target], cams[target]


def sample_pairs(scene: Scene, rng: np.random.Generator, count: int):
    """Draw a batch of training pairs (see _pair_batch): identity uniform over
    identities that have any cross-camera pair, then a pair uniform within
    the identity, then a coin flip for which side is the query."""
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    pool = _train_pool(scene)
    return _pair_batch(pool, *_draw_pairs(pool, rng, count))


def _train_pool(scene: Scene):
    pool = _cross_camera_pairs(scene.train_observations())
    if pool[2].size == 0:
        raise DataError("train split has no cross-camera observation pairs")
    return pool


def _draw_pairs(pool, rng: np.random.Generator, count: int):
    """(query, target) observation indices of count pairs drawn as
    sample_pairs describes, three RNG calls per pair."""
    _, _, first, second, bounds = pool
    query = np.empty(count, dtype=np.int64)
    target = np.empty(count, dtype=np.int64)
    ident_draws = rng.integers(0, bounds.size - 1, size=count)
    for i, ident in enumerate(ident_draws):
        lo, hi = int(bounds[ident]), int(bounds[ident + 1])
        k = lo + int(rng.integers(0, hi - lo))
        a, b = first[k], second[k]
        if rng.random() < 0.5:
            a, b = b, a
        query[i], target[i] = a, b
    return query, target


def training_step(model: TransitionNet, batch, lr: float) -> float:
    """One Adam step on a batch of pairs (see _pair_batch); returns the mean
    cross-entropy."""
    cams, tq, td, targets = batch
    if targets.size == 0:
        raise InputError("empty training batch")
    model.zero_grads()
    logits = model.forward(cams, tq, td, train=True)
    loss, glogits = nn.cross_entropy(logits, targets)
    model.backward(glogits)
    nn.adam_step(model.params(), lr)
    return loss


def _holdout_pairs(pool, rng: np.random.Generator, cap: int):
    """(query, target) observation indices of both orientations of every
    pair in the pool, in pair order (first as query, then second), thinned
    to a seeded sample of cap when there are more."""
    _, _, first, second, _ = pool
    keep = np.arange(2 * first.size)
    if cap and keep.size > cap:
        keep = np.sort(rng.choice(keep.size, size=cap, replace=False))
    pair, flipped = keep // 2, keep % 2 == 1
    return (np.where(flipped, second[pair], first[pair]),
            np.where(flipped, first[pair], second[pair]))


def holdout_accuracy(model: TransitionNet, batch) -> float:
    """Fraction of a batch's pairs (see _pair_batch) whose target camera gets
    the top eval-mode logit."""
    cams, tq, td, targets = batch
    if targets.size == 0:
        return float("nan")
    logits = model.eval_logits(cams, tq, td)
    return int((logits.argmax(axis=1) == targets).sum()) / targets.size


def _batches(pairs, batch_size: int) -> list:
    """Consecutive batch_size slices of a sequence; a one-item tail joins the
    batch before it. A batch-norm head cannot train on a batch of one, and in
    eval mode a one-row batch takes another BLAS path (a dot product, not a
    matrix-vector product) through a per-node head's linear layer, which can
    move its logits in the last bit."""
    starts = list(range(0, len(pairs), batch_size))
    if len(starts) > 1 and len(pairs) - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [len(pairs)]
    return [pairs[a:b] for a, b in zip(starts, ends)]


def train(model: TransitionNet, scene: Scene, schedule: TrainSchedule,
          rng: np.random.Generator) -> list[dict]:
    """Train on the scene's train split; returns per-epoch history rows.

    Each row records epoch, lr, mean loss, and hold-out accuracy on a
    deterministic sample of test-split pairs. Each epoch draws its pairs from
    one pool of cross-camera pairs built per call. A non-finite loss rolls the
    model back to the end of the previous epoch and raises DivergenceError.
    """
    pair_rng, eval_rng = rng.spawn(2)
    test_pool = _cross_camera_pairs(scene.test_observations())
    holdout = _pair_batch(
        test_pool, *_holdout_pairs(test_pool, eval_rng, schedule.holdout_pairs))
    per_epoch = schedule.pairs_per_epoch or max(1, len(scene.train_observations()))
    # zero epochs draw nothing, so they need no cross-camera pairs
    pool = _train_pool(scene) if schedule.epochs else None
    history: list[dict] = []
    snapshot = _snapshot(model)
    for epoch in range(schedule.epochs):
        lr = schedule.lr_at(epoch)
        pairs = _pair_batch(pool, *_draw_pairs(pool, pair_rng, per_epoch))
        losses = []
        for rows in _batches(np.arange(per_epoch), schedule.batch_size):
            try:
                loss = training_step(model, tuple(col[rows] for col in pairs), lr)
            except NumericError:
                loss = float("nan")
            if not np.isfinite(loss):
                _restore(model, snapshot)
                raise DivergenceError(
                    f"non-finite loss in epoch {epoch}; rolled back to epoch "
                    f"{epoch - 1}")
            losses.append(loss)
        acc = holdout_accuracy(model, holdout)
        history.append({"epoch": epoch, "lr": lr,
                        "loss": float(np.mean(losses)),
                        "holdout_accuracy": acc})
        snapshot = _snapshot(model)
    return history


def _snapshot(model: TransitionNet):
    values = {name: p.value.copy() for name, p in model.named_params().items()}
    states = copy.deepcopy(model.bn_states())
    return values, states


def _restore(model: TransitionNet, snapshot) -> None:
    values, states = snapshot
    for name, p in model.named_params().items():
        p.value[...] = values[name]
    model.load_bn_states(states)


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(model: TransitionNet, path, metadata: dict | None = None) -> None:
    """Write the model as a JSON document with full-precision parameters."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "params": {name: {"shape": list(p.value.shape),
                          "data": p.value.reshape(-1).tolist()}
                   for name, p in model.named_params().items()},
        "batch_norm": {name: {"running_mean": st["running_mean"].tolist(),
                              "running_var": st["running_var"].tolist()}
                       for name, st in model.bn_states().items()},
        "metadata": dict(metadata or {}),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> TransitionNet:
    """Rebuild a model from save_checkpoint output, bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: not valid JSON: {exc}") from None
    for key in ("format_version", "config", "params", "batch_norm"):
        if key not in doc:
            raise CheckpointError(f"{path}: missing {key!r}")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {doc['format_version']} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    try:
        config = TransitionNetConfig.from_dict(doc["config"])
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from None
    model = TransitionNet(config, np.random.default_rng(0))
    params = model.named_params()
    stored = doc["params"]
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match (missing {missing}, "
            f"unexpected {extra})")
    for name, p in params.items():
        entry = stored[name]
        shape = tuple(entry.get("shape", ()))
        if shape != p.value.shape:
            raise CheckpointError(
                f"{path}: {name} has shape {shape}, expected {p.value.shape}")
        data = as_f64(entry["data"])
        if data.size != p.value.size:
            raise CheckpointError(f"{path}: {name} has {data.size} values, "
                                  f"expected {p.value.size}")
        p.value[...] = data.reshape(p.value.shape)
        p.grad[...] = 0.0
        p.m[...] = 0.0
        p.v[...] = 0.0
        p.step_count = 0
    try:
        model.load_bn_states({
            name: {"running_mean": as_f64(st["running_mean"]),
                   "running_var": as_f64(st["running_var"])}
            for name, st in doc["batch_norm"].items()})
    except (KeyError, ShapeError, CheckpointError) as exc:
        raise CheckpointError(f"{path}: bad batch-norm state: {exc}") from None
    model.metadata = dict(doc.get("metadata", {}))
    return model


def check_scene_compatible(model: TransitionNet, scene: Scene) -> None:
    """Reject a model whose camera count differs from the scene's."""
    if model.config.num_cameras != scene.num_cameras:
        raise ConfigError(
            f"model covers {model.config.num_cameras} cameras but the scene "
            f"has {scene.num_cameras}")
