"""Camera-transition network: p(camera at target time | source camera, dt).

The network embeds the signed time difference sinusoidally, contracts it with
a per-source-camera weight block into one feature row per camera, refines the
rows with graph propagation blocks (layer norm, learned adjacency mixing,
feature transfer, GELU), and scores each camera's row with a shared
batch-norm/ReLU/linear head. Forward, backward, and Adam updates are all
explicit; no autodiff. The layers write their large arrays into the model's
nn.Workspace, which training keeps from step to step.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import threading
from typing import Sequence

import numpy as np

from . import nn
from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     InputError, NumericError, ShapeError)
from .nn import Param, as_f64
from .scene import Observation, Scene, cross_camera_pairs
from .settings import (Settings, at_least_two, non_negative, positive, read,
                       setting)

CHECKPOINT_VERSION = 1
# Rows of TransitionNet.eval_logits' [rows, C, D] array, 512 KiB at C=8,
# D=32, and of its scratch, 2.125 times that (nn.gelu_scratch_size), shared
# by its workers: each runs groups of EVAL_ROWS // workers rows, so the
# pass's memory does not grow with the worker count. On bench
# longspan (2 cores, BLAS on one thread, three 20 s runs per size) one
# worker gave a median 62.0 ops/s at 256 rows against 59.3 at 128 and 57.3
# at 512, at peak RSS within 1.2 MiB of each other. Two workers of 128 rows
# each then read 55.2 -> 87.4 ops/s (1.58x, ten alternating 30 s pairs) at a
# median peak RSS of 71.8 -> 71.5 MiB.
EVAL_ROWS = 256
# eval_logits runs on at most EVAL_MAX_WORKERS workers, the one count measured
# (2 cores), and gives each at least EVAL_WORKER_ROWS rows. On the shipped
# checkpoint, with calls alternating between one and two workers (30-40
# calls each per size, three runs), two workers read 1.5-1.7x at 2,048 rows
# and above in every run, but 0.9-1.6x from one run to the next at 256-1,024
# rows: a 128-row group's kernels are short, so the two threads' GIL
# hand-offs can cost what the second core gains.
EVAL_MAX_WORKERS = 2
EVAL_WORKER_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class TransitionNetConfig(Settings):
    """Architecture and time-handling settings for TransitionNet.

    embed_dim must be even; time_scale divides raw tick differences before
    the sinusoidal embedding; denominator_floor keeps the embedding-sum
    normaliser away from zero (the sum of sines and cosines can vanish).
    """

    num_cameras: int = setting(check=at_least_two)
    embed_dim: int = setting(32, nn.valid_embed_dim)
    num_blocks: int = setting(2, positive)
    max_period: float = setting(10000.0, nn.valid_max_period)
    time_scale: float = setting(1.0, positive)
    denominator_floor: float = setting(1e-3, positive)
    per_node_classifier: bool = setting(False)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "TransitionNetConfig":
        return read(cls, doc, "")


class GraphBlock:
    """One propagation step: adjacency mixing and feature transfer with GELU.

    Both products run on BLAS through np.matmul, one [C, C] by [C, D] and
    one [C, D] by [D, D] product per row, so a row's output does not depend
    on the rest of its batch. Backward sums the weight gradients over the
    batch in BLAS products as well.
    """

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

    def forward(self, a: np.ndarray, work: nn.Workspace | None = None):
        """Block output for a [n, C, D] batch, and the cache for backward:
        layer norm's (x_hat, inv_std), GELU's input and its Phi, which
        backward reuses. The arrays live in work, the block's scope of the
        model's workspace."""
        work = work or nn.Workspace()
        normed, ln_cache = nn.layer_norm_forward(a, self.norm_scale,
                                                 self.norm_shift, work=work)
        pre = np.matmul(self._mix(normed, work), self.transfer.value,
                        out=work.get("pre", normed.shape))
        out, phi = nn.gelu(pre, keep_phi=True, work=work)
        return out, (ln_cache, pre, phi)

    def _mix(self, normed: np.ndarray, work: nn.Workspace) -> np.ndarray:
        """adjacency @ normed, written into work's "mixed" buffer: forward's
        product, which backward repeats for the same bits."""
        return np.matmul(self.adjacency.value, normed,
                         out=work.get("mixed", normed.shape))

    def eval_in_place(self, a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """forward's output written over a, by the same operations in the
        same order (so the same bits) and with no cache; scratch, a
        C-contiguous array of a.size values or more, takes the squares and
        the mixing in its first a.size values, and GELU's work
        (gelu_scratch_size(a.size) values take it in one piece)."""
        b = scratch.reshape(-1)[:a.size].reshape(a.shape)
        nn.layer_norm_in_place(a, self.norm_scale, self.norm_shift, scratch=b)
        np.matmul(self.adjacency.value, a, out=b)
        np.matmul(b, self.transfer.value, out=a)
        return nn.gelu_in_place(a, scratch)

    def backward(self, gout: np.ndarray, cache,
                 work: nn.Workspace | None = None) -> np.ndarray:
        ln_cache, pre, phi = cache
        work = work or nn.Workspace()
        gpre = nn.gelu_backward(gout, pre, phi, work=work)
        n, c, d = gpre.shape
        # forward's normed and mixed, recomputed by forward's operations
        # into the buffers forward wrote them to, so with its bits
        normed = nn.layer_norm_output(ln_cache[0], self.norm_scale, self.norm_shift,
                                      work.get("layer_norm.out", gpre.shape))
        mixed = self._mix(normed, work)
        self.transfer.grad += mixed.reshape(n * c, d).T @ gpre.reshape(n * c, d)
        gmixed = np.matmul(gpre, self.transfer.value.T,
                           out=work.get("graph_block_backward.gmixed", gpre.shape))
        gadjacency = np.matmul(
            gmixed, normed.transpose(0, 2, 1),
            out=work.get("graph_block_backward.gadjacency", (n, c, c)))
        self.adjacency.grad += gadjacency.sum(axis=0)
        # gpre is not read again, so gnormed takes its buffer
        gnormed = np.matmul(self.adjacency.value.T, gmixed, out=gpre)
        return nn.layer_norm_backward(gnormed, ln_cache, self.norm_scale,
                                      self.norm_shift, work)


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

    def forward(self, rows: np.ndarray, work: nn.Workspace | None = None):
        """Fresh training-mode [rows, 1] logits, and the cache for backward:
        batch norm's (x_hat, inv_std) and the ReLU output."""
        bn_out, bn_cache = self.bn.forward(rows, work)
        hidden = nn.relu(bn_out, work)
        logits = nn.linear_forward(hidden, self.fc_weight, self.fc_bias, work)
        return logits, (bn_cache, hidden)

    def eval_in_place(self, rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Fresh eval-mode [rows, 1] logits with no cache, for eval_logits: batch
        norm on its running statistics and ReLU overwrite rows, and the linear
        products go into scratch, a C-contiguous array of rows.size values or more."""
        hidden = np.maximum(self.bn.eval_in_place(rows), 0.0, out=rows)
        product = scratch.reshape(-1)[:rows.size].reshape(rows.shape + (1,))
        return nn.linear_rows(hidden, self.fc_weight, self.fc_bias, product)

    def backward(self, glogits: np.ndarray, cache,
                 work: nn.Workspace | None = None) -> np.ndarray:
        bn_cache, hidden = cache
        ghidden = nn.linear_backward(glogits, hidden, self.fc_weight, self.fc_bias,
                                     work)
        gbn = nn.relu_backward(ghidden, hidden, work)
        return self.bn.backward(gbn, bn_cache, work)


def batch_inputs(cameras, t_query, t_target, num_cameras: int):
    """(cameras, query times, target times) of a batch as 1-d int64 and
    float64 arrays of one length, broadcast from scalars or 1-d arrays.

    Rejects cameras that are not whole numbers or lie outside
    [0, num_cameras), inputs that do not broadcast to one 1-d batch, an
    empty batch and non-finite timestamps.
    """
    raw = np.asarray(cameras)
    if raw.dtype.kind == "f":
        fractional = raw[~(np.isfinite(raw) & (raw == np.trunc(raw)))]
        if fractional.size:
            raise InputError(
                f"source cameras must be whole numbers, got {fractional[0]}")
    elif raw.dtype.kind not in "biu":
        raise InputError(f"source cameras must be whole numbers, got dtype {raw.dtype}")
    cams = np.atleast_1d(raw.astype(np.int64, copy=False))
    tq, td = np.atleast_1d(as_f64(t_query)), np.atleast_1d(as_f64(t_target))
    try:
        cams, tq, td = np.broadcast_arrays(cams, tq, td)
    except ValueError:
        raise ShapeError(
            f"cameras, query times and target times do not broadcast to one "
            f"batch: shapes {cams.shape}, {tq.shape} and {td.shape}") from None
    if cams.ndim != 1:
        raise ShapeError("cameras and timestamps must be scalars or 1-d arrays")
    if not (np.all(np.isfinite(tq)) and np.all(np.isfinite(td))):
        raise InputError("timestamps must be finite")
    check_source_cameras(cams, num_cameras)
    return cams, tq, td


def check_source_cameras(cams: np.ndarray, num_cameras: int) -> None:
    """Reject an empty batch and source cameras outside [0, num_cameras)."""
    if cams.size == 0:
        raise InputError("empty batch")
    if cams.min() < 0 or cams.max() >= num_cameras:
        raise InputError(
            f"source cameras must lie in [0, {num_cameras}), got "
            f"range [{cams.min()}, {cams.max()}]")


def _group_by_camera(cams: np.ndarray, num_cameras: int):
    """Stable sort order of a batch by source camera, and segment bounds:
    the rows of camera s are order[bounds[s]:bounds[s + 1]], in batch order."""
    order = np.argsort(cams, kind="stable")
    bounds = np.zeros(num_cameras + 1, dtype=np.int64)
    np.cumsum(np.bincount(cams, minlength=num_cameras), out=bounds[1:])
    return order, bounds


# The per-camera contractions below stay on np.einsum, while the graph blocks
# use matmul. A camera group's size varies with the batch, and BLAS picks its
# kernel by that size (a one-row group runs as a matrix-vector product): on
# matmul, the shipped checkpoint's one-row forward differed in the last bit
# from the same row inside a random batch of 2-600 rows in 198 of 200 cases.
# A graph block's products have the same shape for every row whatever the
# batch, so matmul gives each row the same bits there.


def _spatial_forward(weight: np.ndarray, weights: np.ndarray, order: np.ndarray,
                     bounds: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[i] = weights[i] contracted with weight[cams[i]] -> [n, C, D], one
    contraction per camera group of _group_by_camera; written into out, a
    C-contiguous [n, C, D] array, when given."""
    c, d = weight.shape[:2]
    blocks = weight.reshape(c, d, c * d)
    sorted_weights = weights[order]
    if out is None:
        out = np.empty((order.size, c, d))
    flat = out.reshape(-1, c * d)
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        flat[order[rows]] = np.einsum("nj,jk->nk", sorted_weights[rows], blocks[s])
    return out


def _spatial_backward(weight_grad: np.ndarray, weights: np.ndarray,
                      order: np.ndarray, bounds: np.ndarray, ga: np.ndarray,
                      work: nn.Workspace | None = None) -> None:
    """weight_grad[s] += sum over camera s's rows i, in batch order, of
    outer(weights[i], ga[i])."""
    c, d = weight_grad.shape[:2]
    sorted_weights = weights[order]
    # mode="clip" (order is in range) keeps np.take from buffering its output
    sorted_ga = np.take(ga.reshape(-1, c * d), order, axis=0, mode="clip",
                        out=(work or nn.Workspace()).get("spatial_backward.ga",
                                                         (order.size, c * d)))
    for s in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[s], bounds[s + 1])
        weight_grad[s] += np.einsum("nj,nk->jk", sorted_weights[rows],
                                    sorted_ga[rows]).reshape(d, c, d)


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _eval_workers(n: int) -> int:
    """Workers for an n-row eval pass: one per available CPU, but at most
    EVAL_MAX_WORKERS and none with fewer than EVAL_WORKER_ROWS rows."""
    return max(1, min(_available_cpus(), EVAL_MAX_WORKERS, n // EVAL_WORKER_ROWS))


def _run_in_threads(task, count: int) -> None:
    """task(0) in the calling thread and task(1), ..., task(count - 1) each
    in a thread of its own, started here and joined before returning or
    raising. numpy's ufuncs and BLAS calls release the GIL, so the tasks
    run at once, though each call's Python overhead still takes it: fewer,
    larger calls overlap better. Every task runs under the caller's
    np.errstate, which numpy 1.x keeps per thread. The first task's error
    (by index) is re-raised."""
    errors: list[BaseException | None] = [None] * count
    state, call = np.geterr(), np.geterrcall()

    def guarded(i):
        try:
            with np.errstate(call=call, **state):
                task(i)
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=guarded, args=(i,),
                                      name=f"eval_logits-{i}")
            thread.start()
            threads.append(thread)
        guarded(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


# The arrays of a training step that backward does not read, and the shared
# buffer each takes (nn.Workspace), in the order the step asks for them. An
# array takes a buffer only once its previous occupant has been read for the
# last time. With an [n, C, D] array as one unit, "wide" holds two units,
# and "grad" and the two scratch buffers one each; "grad" carries the
# gradient from each layer to the one below it. Adam's two arrays, of
# spatial_weight's size, grow "wide" and "grad" where they are larger.
_STEP_BUFFERS = {
    # forward
    "spatial.out": "wide",                # block 0's input, read by its layer norm
    "layer_norm.out": "scratch1",         # normed
    "mixed": "scratch2",
    "gelu.out": "wide",                   # GELU's scratch; its first half the
                                          # block output, read by the next layer
                                          # norm or by the heads
    "batch_norm.out": "scratch1",
    "linear.product": "scratch2",
    # backward
    "head_backward.ga": "grad",           # the gradient of the heads' input
    "linear_backward.grad": "scratch1",
    "relu_backward.grad": "scratch2",
    "batch_norm_backward.tmp": "scratch1",
    "batch_norm_backward.grad": "wide",   # copied into the heads' ga
    "gelu_backward.grad": "wide",         # gpre, then gnormed
    # a block recomputes normed and mixed into their forward buffers here
    "graph_block_backward.gmixed": "scratch2",
    "graph_block_backward.gadjacency": "grad",
    "layer_norm_backward.tmp": "scratch1",
    "layer_norm_backward.grad": "grad",   # the block's input gradient
    "spatial_backward.ga": "scratch1",
    # Adam, once backward is done
    "adam.scratch": "wide",
    "adam.step": "grad",
}


class TransitionNet:
    """Maps (source camera, signed time difference) to per-camera logits.

    The spatial contraction multiplies each row's normalised time embedding
    by its source camera's [D, C*D] weight block. A batch is grouped by
    camera once per forward pass, so each block is applied to its rows in one
    contraction and its gradient is summed over those rows in one more; no
    per-row copy of a weight block is made.

    forward, backward and Adam write their large arrays into one
    nn.Workspace the model owns. A training step keeps per layer only what
    backward reads: each graph block's layer-norm x_hat and 1 / std, its
    GELU input and Phi, and each head's batch-norm x_hat and 1 / std and
    its ReLU output (hidden > 0 is the mask of the batch-norm output > 0).
    Backward recomputes a block's layer-norm output and adjacency mixing by
    forward's operations, so with forward's bits. Every other array of the
    step, forward's transients, backward's temporaries and Adam's scratch,
    takes one of four buffers shared by lifetime (_STEP_BUFFERS): at C=8,
    D=32 and a batch of 128 the workspace holds 3.5 MiB with two blocks.
    The buffers stay from one training step to the next, and train releases
    them before each hold-out evaluation and when it returns. So a model is
    used by one caller at a time, never shared across threads: a second
    caller's forward pass would overwrite the first one's cache.

    eval_logits keeps no cache and leaves the workspace alone: it splits a
    large batch over up to EVAL_MAX_WORKERS workers, the calling thread and
    threads of its own that it joins before returning, and each worker runs
    its groups of rows through its own part of two arrays, dropped on
    return. The workers only read the model and write disjoint slices, so
    the logits have the same bits whatever their number.
    """

    def __init__(self, config: TransitionNetConfig, rng: np.random.Generator):
        self.config = config
        c, d = config.num_cameras, config.embed_dim
        bound = 1.0 / np.sqrt(d)
        self.spatial_weight = Param(rng.uniform(-bound, bound, (c, d, c, d)))
        self.spatial_bias = Param(np.zeros((c, d)))
        self.blocks = [GraphBlock(c, d, rng) for _ in range(config.num_blocks)]
        self.heads = [_Head(d, rng)
                      for _ in range(c if config.per_node_classifier else 1)]
        self.metadata: dict = {}
        self._cache = None
        self._work: nn.Workspace | None = None

    def __getstate__(self):
        # copies, pickles and snapshots carry the parameters, never the
        # work buffers or a pending forward cache
        state = self.__dict__.copy()
        state["_cache"] = state["_work"] = None
        return state

    def _workspace(self) -> nn.Workspace:
        if self._work is None:
            self._work = nn.Workspace(_STEP_BUFFERS)
        return self._work

    def _release_buffers(self) -> None:
        """Drop the work buffers and any forward cache that refers to them."""
        self._cache = None
        self._work = None

    # -- parameter plumbing ------------------------------------------------

    def named_params(self) -> dict[str, Param]:
        out = {"spatial_weight": self.spatial_weight,
               "spatial_bias": self.spatial_bias}
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"block{i}"))
        for name, head, _ in self._head_items():
            out.update(head.named_params(name))
        return out

    def params(self) -> list[Param]:
        return list(self.named_params().values())

    def zero_grads(self) -> None:
        nn.zero_grads(self.params())

    def bn_states(self) -> dict[str, dict]:
        return {name: head.bn.state() for name, head, _ in self._head_items()}

    def load_bn_states(self, states: dict) -> None:
        for name, head, _ in self._head_items():
            if name not in states:
                raise CheckpointError(f"missing batch-norm state for {name}")
            head.bn.load_state(states[name])

    def _head_items(self) -> list[tuple[str, _Head, slice]]:
        """(name, head, columns) per head, columns being the cameras it scores:
        ("head", shared head, slice(None)), or ("head{i}", head i, slice(i, i + 1))."""
        if len(self.heads) == 1:
            return [("head", self.heads[0], slice(None))]
        return [(f"head{i}", head, slice(i, i + 1))
                for i, head in enumerate(self.heads)]

    # -- forward / backward ------------------------------------------------

    def _deltas(self, t_query, t_target) -> np.ndarray:
        return (as_f64(t_target) - as_f64(t_query)) / self.config.time_scale

    def _inputs(self, cameras, t_query, t_target):
        """A batch's source cameras and scaled time deltas, after
        batch_inputs' checks."""
        cams, tq, td = batch_inputs(cameras, t_query, t_target,
                                    self.config.num_cameras)
        return cams, self._deltas(tq, td)

    def _spatial(self, cams: np.ndarray, embed: np.ndarray, out: np.ndarray):
        """The prologue of both passes, from the batch's time embedding: its
        normalisation, the batch's grouping by source camera, and the
        spatial contraction plus bias written into out, a C-contiguous
        [n, C, D] array. Returns (spatial output, order, bounds, weights)."""
        cfg = self.config
        raw_den = embed.sum(axis=1)
        sign = np.where(raw_den < 0.0, -1.0, 1.0)
        den = sign * np.maximum(np.abs(raw_den), cfg.denominator_floor)
        weights = embed / den[:, None]
        order, bounds = _group_by_camera(cams, cfg.num_cameras)
        a = _spatial_forward(self.spatial_weight.value, weights, order, bounds, out)
        a += self.spatial_bias.value
        return a, order, bounds, weights

    def forward(self, cameras, t_query, t_target, train: bool = False) -> np.ndarray:
        """Score each camera for a batch of (source camera, time pair) inputs:
        the training pass, or with train=False eval_logits, which has no cache.

        cameras, t_query, t_target broadcast to a common batch shape [n];
        returns fresh logits [n, C] and retains the cache consumed by
        backward, which reuses the batch's grouping by source camera for the
        spatial-weight gradient. The cache lives in the model's work buffers,
        which the next forward pass overwrites.
        """
        if not train:
            return self.eval_logits(cameras, t_query, t_target)
        cfg = self.config
        cams, deltas = self._inputs(cameras, t_query, t_target)
        n, c, d = cams.size, cfg.num_cameras, cfg.embed_dim
        work = self._workspace()
        embed = nn.sinusoidal_embed(deltas, d, cfg.max_period)
        a, order, bounds, weights = self._spatial(cams, embed,
                                                  work.get("spatial.out", (n, c, d)))

        block_caches = []
        for i, block in enumerate(self.blocks):
            a, cache = block.forward(a, work.scope(f"block{i}"))
            block_caches.append(cache)

        logits = np.empty((n, c))
        head_caches = []
        for name, head, columns in self._head_items():
            scores, cache = head.forward(a[:, columns].reshape(-1, d), work.scope(name))
            logits[:, columns] = scores.reshape(n, -1)
            head_caches.append(cache)

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

        # each layer reads its input gradient from "grad" and writes its
        # output gradient there (_STEP_BUFFERS)
        work = self._workspace()
        ga = work.get("head_backward.ga", (n, c, d))
        for (_, head, columns), cache in zip(self._head_items(), head_caches):
            grows = head.backward(glogits[:, columns].reshape(-1, 1), cache, work)
            ga[:, columns] = grows.reshape(n, -1, d)

        for block, cache in zip(reversed(self.blocks), reversed(block_caches)):
            ga = block.backward(ga, cache, work)

        self.spatial_bias.grad += ga.sum(axis=0)
        _spatial_backward(self.spatial_weight.grad, weights, order, bounds, ga, work)
        self._cache = None

    def eval_logits(self, cameras, t_query, t_target) -> np.ndarray:
        """Eval-mode logits [n, C], each head's batch norm on its running
        statistics: the model's one eval pass, which keeps no cache, on up to
        EVAL_MAX_WORKERS of the CPUs the process may run on.

        Inputs broadcast and are checked as in forward, before any worker
        starts. The batch is cut into one contiguous slice per worker
        (_eval_workers); the calling thread runs the first slice and threads
        started for the call run the others (_run_in_threads). A worker runs
        its slice in groups of EVAL_ROWS // workers rows through its own part
        of two arrays, dropped on return: a, of a group's [rows, C, D], and
        b, a flat scratch that takes a group's GELU in one piece. The
        spatial output goes into a, each graph block and the heads overwrite
        a with b as scratch, and the linear products go into b. Every kernel
        is row-wise and runs the training pass's operations in the same
        order (batch norm aside, which reads its running statistics), so an
        eval-mode row's logits do not depend on the other rows of its batch:
        the result has the same bits as one pass over the whole batch, or
        over each row alone, whatever the worker count. A non-finite logit raises
        NumericError. The model's work buffers are left alone; a pending
        forward cache is cleared, so backward cannot follow.
        """
        cfg = self.config
        cams, deltas = self._inputs(cameras, t_query, t_target)
        # checked once here, so that the workers embed unchecked and call
        # nothing a profiler wraps: bench/tracer.py keeps one span stack,
        # which threads would interleave
        nn._check_embed(deltas, cfg.embed_dim, cfg.max_period)
        n, c, d = cams.size, cfg.num_cameras, cfg.embed_dim
        self._cache = None
        out = np.empty((n, c))
        workers = _eval_workers(n)
        rows = min(EVAL_ROWS // workers, n)
        a = np.empty((workers, rows, c, d))
        b = np.empty((workers, nn.gelu_scratch_size(rows * c * d)))
        bounds = [n * i // workers for i in range(workers + 1)]

        def run(i):
            part = slice(bounds[i], bounds[i + 1])
            self._eval_slice(cams[part], deltas[part], out[part], a[i], b[i])

        _run_in_threads(run, workers)
        return out

    def _eval_slice(self, cams, deltas, out, a, b) -> None:
        """eval_logits' pass over one worker's slice, written into out, in
        groups of a's rows, with a and b, a flat array of
        nn.gelu_scratch_size(a.size) values, as its buffers."""
        cfg = self.config
        d = cfg.embed_dim
        for start in range(0, cams.size, a.shape[0]):
            rows = slice(start, start + a.shape[0])
            m = cams[rows].size
            x = a[:m]
            embed = nn._embed(deltas[rows], d, cfg.max_period)
            self._spatial(cams[rows], embed, x)
            for block in self.blocks:
                block.eval_in_place(x, b)
            for _, head, columns in self._head_items():
                scores = head.eval_in_place(x[:, columns].reshape(-1, d), b)
                out[rows, columns] = scores.reshape(m, -1)
            if not np.all(np.isfinite(out[rows])):
                raise NumericError("non-finite logits; check inputs and learning rate")

    def distribution(self, cameras, t_query, t_target) -> np.ndarray:
        """Softmax of eval_logits: p(camera at target time), normalised in
        the fresh logits array."""
        logits = self.eval_logits(cameras, t_query, t_target)
        return nn.softmax(logits, axis=1, out=logits)


# -- training ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrainSchedule(Settings):
    """Optimisation settings: Adam at base_lr, decayed by lr_decay every
    lr_step_epochs epochs; pairs_per_epoch defaults to the train-split size."""

    epochs: int = setting(90, non_negative)
    base_lr: float = setting(0.01, positive)
    lr_decay: float = setting(0.1, lambda x: 0.0 < x <= 1.0)
    lr_step_epochs: int = setting(30, positive)
    batch_size: int = setting(128, positive)
    pairs_per_epoch: int | None = setting(None, positive)
    holdout_pairs: int = setting(2000, non_negative)

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
    sample_pairs describes, in three array draws: the identities, a pair
    within each identity's bounds, and the flips."""
    _, _, first, second, bounds = pool
    ident = rng.integers(0, bounds.size - 1, size=count)
    lo = bounds[ident]
    pair = lo + rng.integers(0, bounds[ident + 1] - lo)
    flip = rng.random(count) < 0.5
    return (np.where(flip, second[pair], first[pair]),
            np.where(flip, first[pair], second[pair]))


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
    nn.adam_step(model.params(), lr, work=model._workspace())
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
    the top eval-mode logit.

    An eval-mode row's logits depend only on its (source camera, target time
    - query time) key, whatever else is in the batch, so each distinct key is
    evaluated once, at its first row, and its rows gather its logits."""
    cams, tq, td, targets = (np.asarray(col) for col in batch)
    if targets.size == 0:
        return float("nan")
    # keyed on the bits of the delta forward computes, so that rows share a
    # key only when the network sees the same input
    keys = np.column_stack([cams.astype(np.int64),
                            model._deltas(tq, td).view(np.int64)])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    logits = model.eval_logits(cams[first], tq[first], td[first])
    hits = logits.argmax(axis=1)[inverse.reshape(-1)] == targets
    return int(hits.sum()) / targets.size


def _batches(pairs, batch_size: int) -> list:
    """Consecutive batch_size slices of a sequence; a one-item tail joins the
    batch before it, because a batch-norm head cannot train on a batch of
    one."""
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
    The model's work buffers persist from step to step within an epoch and
    are released before each hold-out evaluation and on return.
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
    try:
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
            # eval_logits runs in arrays of its own, so the workspace is
            # dropped first: bench train's peak RSS read 1.5 MiB lower, at
            # the cost of faulting the buffers in again once an epoch
            model._release_buffers()
            acc = holdout_accuracy(model, holdout)
            history.append({"epoch": epoch, "lr": lr,
                            "loss": float(np.mean(losses)),
                            "holdout_accuracy": acc})
            snapshot = _snapshot(model)
    finally:
        model._release_buffers()
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
    except ConfigError as exc:
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
        _check_finite(path, name, data)
        p.value[...] = data.reshape(p.value.shape)
        p.grad[...] = 0.0
        p.m[...] = 0.0
        p.v[...] = 0.0
        p.step_count = 0
    try:
        states = {name: {"running_mean": as_f64(st["running_mean"]),
                         "running_var": as_f64(st["running_var"])}
                  for name, st in doc["batch_norm"].items()}
        model.load_bn_states(states)
    except (KeyError, ShapeError, CheckpointError) as exc:
        raise CheckpointError(f"{path}: bad batch-norm state: {exc}") from None
    for name, st in states.items():
        for key, values in st.items():
            _check_finite(path, f"batch_norm {name}.{key}", values)
        if np.any(st["running_var"] < 0.0):
            raise CheckpointError(
                f"{path}: batch_norm {name}.running_var has negative values")
    model.metadata = dict(doc.get("metadata", {}))
    return model


def _check_finite(path, entry: str, values: np.ndarray) -> None:
    """Reject a checkpoint entry holding NaN or infinite values: the model
    would load, then fail as NumericError at its first forward pass."""
    if not np.all(np.isfinite(values)):
        raise CheckpointError(f"{path}: {entry} has non-finite values")


def check_scene_compatible(model: TransitionNet, scene: Scene) -> None:
    """Reject a model whose camera count differs from the scene's."""
    if model.config.num_cameras != scene.num_cameras:
        raise ConfigError(
            f"model covers {model.config.num_cameras} cameras but the scene "
            f"has {scene.num_cameras}")
