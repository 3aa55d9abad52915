"""Transition network: forward oracle, gradients, training, checkpoints."""

import copy
import json
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allocating_kernels as ref
from edgereid import nn
from edgereid import transition as tr
from edgereid.errors import (CheckpointError, ConfigError, DataError,
                             DivergenceError, InputError, NumericError,
                             ShapeError)
from edgereid.scene import (Edge, FixedDelay, GeneratorSpec, Observation, Scene,
                            generate, split_identities)


def tiny_model(num_cameras=2, embed_dim=4, num_blocks=1, seed=0, **kwargs):
    config = tr.TransitionNetConfig(num_cameras=num_cameras, embed_dim=embed_dim,
                                    num_blocks=num_blocks, **kwargs)
    return tr.TransitionNet(config, np.random.default_rng(seed))


def ring_scene(num_cameras=3, identities=60, visits=6, seed=0, train_fraction=0.5):
    edges = tuple(Edge(i, (i + 1) % num_cameras, 1.0, FixedDelay(10))
                  for i in range(num_cameras))
    spec = GeneratorSpec(num_cameras=num_cameras, edges=edges,
                         num_identities=identities, visits=visits)
    rng = np.random.default_rng(seed)
    gen_rng, split_rng = rng.spawn(2)
    return split_identities(generate(spec, gen_rng), train_fraction, split_rng)


def manual_forward(model, cams, t_query, t_target):
    """Loop-based reimplementation of the eval-mode forward pass."""
    cfg = model.config
    c, d = cfg.num_cameras, cfg.embed_dim
    out = np.zeros((len(cams), c))
    half = d // 2
    divisors = [cfg.max_period ** (2.0 * i / d) for i in range(half)]
    for n, (cam, tq, td) in enumerate(zip(cams, t_query, t_target)):
        delta = (td - tq) / cfg.time_scale
        e = np.zeros(d)
        for i in range(half):
            e[2 * i] = math.sin(delta / divisors[i])
            e[2 * i + 1] = math.cos(delta / divisors[i])
        raw = float(e.sum())
        sign = -1.0 if raw < 0.0 else 1.0
        den = sign * max(abs(raw), cfg.denominator_floor)
        w = e / den
        a = np.zeros((c, d))
        for u in range(c):
            for k in range(d):
                a[u, k] = sum(w[j] * model.spatial_weight.value[cam, j, u, k]
                              for j in range(d))
                a[u, k] += model.spatial_bias.value[u, k]
        for block in model.blocks:
            normed = np.zeros_like(a)
            for u in range(c):
                row = a[u]
                mean = row.mean()
                var = ((row - mean) ** 2).mean()
                x_hat = (row - mean) / math.sqrt(var + 1e-5)
                normed[u] = (x_hat * block.norm_scale.value
                             + block.norm_shift.value)
            mixed = np.zeros_like(a)
            for u in range(c):
                for v in range(c):
                    mixed[u] += block.adjacency.value[u, v] * normed[v]
            pre = mixed @ block.transfer.value
            a = pre * 0.5 * (1.0 + np.vectorize(math.erf)(pre / math.sqrt(2.0)))
        for u in range(c):
            head = model.heads[u if cfg.per_node_classifier else 0]
            x_hat = ((a[u] - head.bn.running_mean)
                     / np.sqrt(head.bn.running_var + head.bn.eps))
            bn_out = x_hat * head.bn.scale.value + head.bn.shift.value
            hidden = np.maximum(bn_out, 0.0)
            out[n, u] = float(hidden @ head.fc_weight.value[:, 0]
                              + head.fc_bias.value[0])
    return out


def test_forward_matches_loop_reimplementation():
    model = tiny_model(num_cameras=3, embed_dim=4, num_blocks=2, seed=1)
    cams = [0, 2, 1, 0]
    tq = [0.0, 10.0, 5.0, 100.0]
    td = [40.0, 3.0, 5.0, 96.5]
    got = model.forward(np.array(cams), np.array(tq), np.array(td), train=False)
    want = manual_forward(model, cams, tq, td)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_matches_loop_with_clamped_denominator():
    # a floor above the largest possible embedding sum forces the clamp,
    # including its sign handling, on every sample
    model = tiny_model(num_cameras=2, embed_dim=4, seed=2,
                       denominator_floor=10.0)
    cams = [0, 1, 1]
    tq = [0.0, 0.0, 0.0]
    td = [3.5, 1.0, -3.5]  # 3.5 makes the raw sum negative at this width
    got = model.forward(np.array(cams), np.array(tq), np.array(td), train=False)
    want = manual_forward(model, cams, tq, td)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    loose = tiny_model(num_cameras=2, embed_dim=4, seed=2)
    assert not np.allclose(
        got, loose.forward(np.array(cams), np.array(tq), np.array(td)))


def test_time_scale_rescales_deltas():
    a = tiny_model(seed=3, time_scale=1.0)
    b = tiny_model(seed=3, time_scale=60.0)
    la = a.forward([0], [0.0], [120.0])
    lb = b.forward([0], [0.0], [7200.0])
    np.testing.assert_allclose(la, lb, atol=1e-12)


def test_camera_permutation_equivariance():
    rng = np.random.default_rng(4)
    c = 4
    model = tiny_model(num_cameras=c, embed_dim=6, num_blocks=2, seed=5)
    perm = rng.permutation(c)
    permuted = tiny_model(num_cameras=c, embed_dim=6, num_blocks=2, seed=5)
    permuted.spatial_weight.value[...] = \
        model.spatial_weight.value[perm][:, :, perm, :]
    permuted.spatial_bias.value[...] = model.spatial_bias.value[perm]
    for src, dst in zip(model.blocks, permuted.blocks):
        dst.adjacency.value[...] = src.adjacency.value[np.ix_(perm, perm)]

    cams = np.array([0, 1, 2, 3, 2])
    tq = np.zeros(5)
    td = np.array([17.0, -4.0, 52.0, 8.0, 8.0])
    base = model.forward(cams, tq, td)
    inv = np.argsort(perm)
    moved = permuted.forward(inv[cams], tq, td)
    np.testing.assert_allclose(moved[:, inv], base, atol=1e-9)


def test_zero_parameters_give_uniform_loss():
    model = tiny_model(num_cameras=4, embed_dim=6, num_blocks=2, seed=6)
    for p in model.params():
        p.value[...] = 0.0
    logits = model.forward(np.array([0, 1, 2]), np.zeros(3),
                           np.array([5.0, 9.0, 1.0]), train=True)
    loss, _ = nn.cross_entropy(logits, np.array([3, 0, 2]))
    assert abs(loss - math.log(4.0)) < 1e-12


def gather_forward(weight, weights, order, bounds, work=None):
    """The reference spatial contraction over a per-row copy of the blocks;
    it allocates its output instead of using the workspace."""
    return np.einsum("nj,njcd->ncd", weights, weight[cameras_of(order, bounds)])


def add_at_backward(weight_grad, weights, order, bounds, ga, work=None):
    """The reference spatial-weight gradient, scattered row by row."""
    np.add.at(weight_grad, cameras_of(order, bounds),
              np.einsum("nj,ncd->njcd", weights, ga))


def cameras_of(order, bounds):
    cams = np.empty(order.size, dtype=np.int64)
    cams[order] = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return cams


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def check_grouped_contraction(c, d, cams, seed):
    rng = np.random.default_rng(seed)
    n = cams.size
    weight = rng.uniform(-1.0, 1.0, (c, d, c, d))
    weights = rng.normal(size=(n, d))
    ga = rng.normal(size=(n, c, d))
    order, bounds = tr._group_by_camera(cams, c)
    np.testing.assert_array_equal(cameras_of(order, bounds), cams)
    assert_bit_equal(tr._spatial_forward(weight, weights, order, bounds),
                     gather_forward(weight, weights, order, bounds))
    got, want = np.zeros_like(weight), np.zeros_like(weight)
    tr._spatial_backward(got, weights, order, bounds, ga)
    add_at_backward(want, weights, order, bounds, ga)
    assert_bit_equal(got, want)


@st.composite
def camera_batches(draw):
    c = draw(st.integers(2, 8))
    d = 2 * draw(st.integers(2, 16))
    used = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c,
                         unique=True))
    cams = draw(st.lists(st.sampled_from(used), min_size=1, max_size=70))
    return c, d, np.array(cams, dtype=np.int64), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(camera_batches())
def test_grouped_contraction_matches_gather_and_add_at(batch):
    check_grouped_contraction(*batch)


@pytest.mark.parametrize("c, d, cams", [
    (2, 4, [1]),                          # one row
    (8, 32, [5]),
    (8, 32, [3] * 600),                   # one camera: a table-build slice
    (8, 32, [7, 0, 7, 7, 2, 0]),          # cameras 1, 3-6 empty
    (3, 6, [2, 1, 0, 0, 1, 2] * 40),
])
def test_grouped_contraction_fixed_shapes(c, d, cams):
    check_grouped_contraction(c, d, np.array(cams, dtype=np.int64), seed=len(cams))


@settings(deadline=None, max_examples=25)
@given(camera_batches(), st.booleans())
def test_grouped_contraction_matches_reference_through_the_model(batch, per_node):
    c, d, cams, seed = batch
    rng = np.random.default_rng(seed)
    # training batch norm needs two rows: a one-row batch runs twice over
    cams = np.tile(cams, 2) if cams.size == 1 else cams
    n = cams.size
    tq = rng.integers(0, 500, n).astype(float)
    td = tq + rng.integers(-300, 301, n)
    glogits = rng.normal(size=(n, c))
    runs = []
    for reference in (False, True):
        model = tiny_model(num_cameras=c, embed_dim=d, num_blocks=2, seed=seed,
                           per_node_classifier=per_node)
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                mp.setattr(tr, "_spatial_forward", gather_forward)
                mp.setattr(tr, "_spatial_backward", add_at_backward)
            logits = model.forward(cams, tq, td, train=True)
            model.backward(glogits)
        runs.append((logits, {k: p.grad for k, p in model.named_params().items()}))
    (got, got_grads), (want, want_grads) = runs
    assert_bit_equal(got, want)
    for name in want_grads:
        assert_bit_equal(got_grads[name], want_grads[name])


def run_gradcheck(model, batch, seed):
    rng = np.random.default_rng(seed)
    c = model.config.num_cameras
    cams = rng.integers(0, c, size=batch)
    tq = rng.integers(0, 100, size=batch).astype(float)
    td = tq + rng.integers(-150, 151, size=batch)
    targets = rng.integers(0, c, size=batch)

    def loss_fn():
        logits = model.forward(cams, tq, td, train=True)
        return nn.cross_entropy(logits, targets)[0]

    model.zero_grads()
    logits = model.forward(cams, tq, td, train=True)
    _, glogits = nn.cross_entropy(logits, targets)
    model.backward(glogits)
    return nn.gradient_check(loss_fn, model.named_params())


def test_full_gradient_check_shared_head():
    report = run_gradcheck(tiny_model(num_cameras=3, embed_dim=4, seed=7),
                           batch=3, seed=8)
    assert report.passed, report.worst()


def test_full_gradient_check_per_node_heads():
    model = tiny_model(num_cameras=2, embed_dim=4, seed=9,
                       per_node_classifier=True)
    assert set(model.named_params()) >= {"head0.fc_weight", "head1.fc_weight"}
    report = run_gradcheck(model, batch=3, seed=10)
    assert report.passed, report.worst()


def test_forward_input_validation():
    model = tiny_model()
    with pytest.raises(InputError):
        model.forward(np.array([5]), [0.0], [1.0])
    with pytest.raises(InputError):
        model.forward(np.array([], dtype=np.int64), [], [])
    with pytest.raises(InputError):
        model.forward([0], [float("inf")], [1.0])
    with pytest.raises(InputError):
        model.backward(np.zeros((1, 2)))


def test_distribution_rows_are_probabilities():
    model = tiny_model(num_cameras=3, seed=11)
    rows = model.distribution(np.array([0, 1]), np.zeros(2), np.array([5.0, 50.0]))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(rows > 0.0)


def eval_model(c, d, per_node, seed, num_blocks=2):
    """A model whose batch-norm running statistics are not the identity."""
    model = tiny_model(num_cameras=c, embed_dim=d, num_blocks=num_blocks, seed=seed,
                       per_node_classifier=per_node)
    rng = np.random.default_rng(seed)
    model.load_bn_states({name: {"running_mean": rng.normal(size=d),
                                 "running_var": rng.uniform(0.5, 2.0, d)}
                          for name in model.bn_states()})
    return model


def one_pass(model, cams, tq, td):
    """One eval-mode pass of the allocating reference over the whole batch;
    a one-row batch runs as two copies of its row, so that a one-row
    eval_logits call is checked against its row inside a batch."""
    if cams.size == 1:
        return ref.net_forward(model, *(np.repeat(a, 2) for a in (cams, tq, td)),
                               train=False)[:1]
    return ref.net_forward(model, cams, tq, td, train=False)


BLOCK_SIZES = (1, tr.EVAL_ROWS - 1, tr.EVAL_ROWS, tr.EVAL_ROWS + 1,
               3 * tr.EVAL_ROWS + 7)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 8), st.integers(1, 8), st.sampled_from(BLOCK_SIZES),
       st.booleans(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_blocked_distribution_matches_one_forward_pass(c, half_d, n, per_node,
                                                       num_blocks, seed):
    model = eval_model(c, 2 * half_d, per_node, seed, num_blocks)
    rng = np.random.default_rng(seed)
    cams = rng.integers(0, c, n)
    tq = rng.integers(0, 10_000, n).astype(float)
    td = tq + rng.integers(-5_000, 5_001, n)
    want = one_pass(model, cams, tq, td)
    assert_bit_equal(model.eval_logits(cams, tq, td), want)
    assert_bit_equal(model.distribution(cams, tq, td), nn.softmax(want, axis=1))
    # one source camera and query time broadcast against many targets
    want = one_pass(model, np.full(n, cams[0]), np.full(n, tq[0]), td)
    assert_bit_equal(model.eval_logits(cams[0], tq[0], td), want)
    assert_bit_equal(model.distribution(cams[0], tq[0], td),
                     nn.softmax(want, axis=1))


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 8), st.sampled_from([1, 2, 300]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_distribution_in_place_matches_a_fresh_softmax(c, n, per_node, seed):
    model = eval_model(c, 4, per_node, seed)
    cams, tq, td, _ = random_batch(np.random.default_rng(seed), n, c)
    logits = model.eval_logits(cams, tq, td)
    # the softmax distribution used before it normalised the logits in place
    e = logits - np.max(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    assert_bit_equal(model.distribution(cams, tq, td), e)


def worker_sizes(workers):
    """Batch sizes around a worker's group of EVAL_ROWS // workers rows,
    and sizes that give each worker a slice with a short last group."""
    group = tr.EVAL_ROWS // workers
    return (1, group - 1, group, group + 1, 150, 300, tr.EVAL_ROWS + 1,
            3 * tr.EVAL_ROWS + 7)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(2, 8), st.integers(1, 16),
       st.sampled_from((1, 2, 3)), st.data(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_eval_logits_matches_the_allocating_forward_pass(
        eval_workers, num_blocks, c, half_d, workers, data, per_node, seed):
    # the cache-free pass on 1, 2 or 3 workers against the forward pass as
    # it was before any work buffers: every array allocated afresh, nothing
    # overwritten, one thread
    n = data.draw(st.sampled_from(worker_sizes(workers)), label="n")
    model = eval_model(c, 2 * half_d, per_node, seed, num_blocks)
    rng = np.random.default_rng(seed)
    cams = rng.integers(0, c, n)
    tq = rng.integers(0, 10_000, n).astype(float)
    td = tq + rng.integers(-5_000, 5_001, n)
    with eval_workers(workers):
        got = model.eval_logits(cams, tq, td)
        # one source camera and query time broadcast against many targets
        broadcast = model.eval_logits(cams[0], tq[0], td)
    assert_bit_equal(got, ref.net_forward(model, cams, tq, td, train=False))
    assert_bit_equal(broadcast,
                     ref.net_forward(model, cams[0], tq[0], td, train=False))


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("per_node", [False, True])
def test_workers_at_the_shipped_width_match_the_reference(eval_workers, workers,
                                                          per_node):
    # at C=8, D=32 a group's kernels run long enough to overlap across
    # threads, and a short switch interval interleaves the rest, so workers
    # sharing rows of the arrays or of the output would show here
    model = eval_model(8, 32, per_node, seed=6)
    cams, tq, td, _ = random_batch(np.random.default_rng(7), 3 * tr.EVAL_ROWS + 7, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with eval_workers(workers):
            got = model.eval_logits(cams, tq, td)
    finally:
        sys.setswitchinterval(interval)
    assert_bit_equal(got, ref.net_forward(model, cams, tq, td, train=False))


@pytest.mark.parametrize("cpus, n, workers", [
    (1, 100_000, 1), (2, 1, 1), (2, 2 * tr.EVAL_WORKER_ROWS - 1, 1),
    (2, 2 * tr.EVAL_WORKER_ROWS, 2), (64, 2 * tr.EVAL_WORKER_ROWS - 1, 1),
    (64, 100_000, tr.EVAL_MAX_WORKERS),
])
def test_eval_workers_are_capped_and_get_enough_rows(monkeypatch, cpus, n, workers):
    monkeypatch.setattr(tr, "_available_cpus", lambda: cpus)
    assert tr._eval_workers(n) == workers


def nonfinite_tail_model(c, per_node):
    """A model whose rows from source camera c - 1 have non-finite logits."""
    model = eval_model(c, 4, per_node, seed=5)
    model.spatial_weight.value[c - 1] = np.inf
    return model


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("per_node", [False, True])
def test_a_nonfinite_row_in_the_last_slice_raises_and_joins_every_worker(
        eval_workers, workers, per_node):
    c, n = 3, 3 * tr.EVAL_ROWS + 7
    model = nonfinite_tail_model(c, per_node)
    cams = np.zeros(n, dtype=np.int64)
    cams[-1] = c - 1
    tq = np.zeros(n)
    td = np.arange(n, dtype=float)
    threads = threading.active_count()
    with eval_workers(workers), np.errstate(invalid="ignore", over="ignore"):
        assert model.eval_logits(cams[:-1], tq[:-1], td[:-1]).shape == (n - 1, c)
        assert threading.active_count() == threads
        message = rejected(NumericError, lambda: model.eval_logits(cams, tq, td))
    assert message == "non-finite logits; check inputs and learning rate"
    # the caller's errstate holds in every worker
    with eval_workers(workers), np.errstate(all="raise"):
        rejected(FloatingPointError, lambda: model.eval_logits(cams, tq, td))
    assert threading.active_count() == threads


def test_the_first_failing_slice_is_the_one_raised():
    ran = []

    def task(i):
        ran.append(i)
        if i:
            raise ValueError(i)

    threads = threading.active_count()
    with pytest.raises(ValueError) as info:
        tr._run_in_threads(task, 4)
    assert info.value.args == (1,) and sorted(ran) == [0, 1, 2, 3]
    assert threading.active_count() == threads


@pytest.mark.parametrize("bad_column", [0, 1])
def test_bad_inputs_raise_before_any_worker_starts(eval_workers, bad_column):
    n = 3 * tr.EVAL_ROWS + 7
    model = tiny_model(num_cameras=3, seed=2)
    columns = [np.zeros(n, dtype=np.int64), np.arange(n, dtype=float)]
    # the last row has camera 3 of 3, or a NaN target time
    columns[bad_column][-1] = (3, np.nan)[bad_column]
    with eval_workers(2), pytest.MonkeyPatch.context() as mp:
        started = []
        mp.setattr(tr, "_run_in_threads", lambda task, count: started.append(count))
        rejected(InputError, lambda: model.eval_logits(columns[0], 0.0, columns[1]))
    assert started == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("per_node", [False, True])
def test_eval_logits_keeps_two_row_blocks_of_memory(eval_workers, workers, per_node):
    c, d = 8, 32
    n = 3 * tr.EVAL_ROWS + 7
    model = eval_model(c, d, per_node, seed=3)
    cams, tq, td, _ = random_batch(np.random.default_rng(4), n, c)
    with eval_workers(workers):
        model.eval_logits(cams[:2], tq[:2], td[:2])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.eval_logits(cams, tq, td)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    # the pass holds two [EVAL_ROWS, C, D] arrays (512 KiB each), shared by
    # the workers; a training step of as many rows holds thirteen
    assert peak < 4 * tr.EVAL_ROWS * c * d * 8


def rejected(error, call):
    with pytest.raises(error) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("cameras", [[1.9], 2.7, [0.99], [0, 1.5], [math.nan],
                                     [math.inf], ["1"]])
def test_cameras_that_are_not_whole_numbers_are_rejected(cameras):
    model = tiny_model(num_cameras=3, seed=2)
    messages = {rejected(InputError, lambda: call(cameras, 0.0, 7.0))
                for call in (model.forward, model.eval_logits, model.distribution)}
    assert len(messages) == 1 and "whole numbers" in messages.pop()
    # whole numbers stored as floats are cameras
    assert_bit_equal(model.eval_logits([2.0, 0.0], 0.0, [7.0, 9.0]),
                     model.eval_logits([2, 0], 0.0, [7.0, 9.0]))


@pytest.mark.parametrize("cameras, t_query, t_target", [
    ([0, 1], [0.0, 1.0, 2.0], 5.0),
    ([0, 1, 2], 0.0, [1.0, 2.0]),
    (0, [0.0, 1.0], [1.0, 2.0, 3.0]),
])
def test_inputs_that_do_not_broadcast_raise_shape_error(cameras, t_query, t_target):
    model = tiny_model(num_cameras=3, seed=2)
    messages = {rejected(ShapeError, lambda: call(cameras, t_query, t_target))
                for call in (model.forward, model.eval_logits, model.distribution)}
    assert len(messages) == 1 and "do not broadcast" in messages.pop()


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
def test_a_row_evaluated_alone_matches_the_row_in_a_batch(n, seed):
    # when a per-node head's linear layer ran on BLAS, a one-row batch took
    # numpy's dot path there, which moved the last bit of 1 in 3 rows of this
    # 3-camera, embed-2 model
    model = eval_model(3, 2, True, seed)
    rng = np.random.default_rng(seed)
    cams = rng.integers(0, 3, n)
    tq = rng.integers(0, 10_000, n).astype(float)
    td = tq + rng.integers(-5_000, 5_001, n)
    batch = model.eval_logits(cams, tq, td)
    for i in rng.choice(n, 5):
        assert_bit_equal(model.eval_logits(cams[i], tq[i], td[i]), batch[i:i + 1])


def check_batch_invariance(c, d, per_node, seed, num_blocks=2):
    """A row's eval-mode logits, evaluated alone, equal the row's bits in a
    2-row batch, inside eval_logits' EVAL_ROWS blocks, and in a shuffled
    batch."""
    model = eval_model(c, d, per_node, seed, num_blocks)
    rng = np.random.default_rng(seed)
    n = 2 * tr.EVAL_ROWS + int(rng.integers(2, 60))
    cams = rng.integers(0, c, n)
    tq = rng.integers(0, 10_000, n).astype(float)
    td = tq + rng.integers(-5_000, 5_001, n)
    blocked = model.eval_logits(cams, tq, td)
    perm = rng.permutation(n)
    shuffled = np.empty_like(blocked)
    shuffled[perm] = model.eval_logits(cams[perm], tq[perm], td[perm])
    for i, j in rng.choice(n, (4, 2), replace=False):
        alone = model.eval_logits(cams[i], tq[i], td[i])
        pair = model.eval_logits(cams[[i, j]], tq[[i, j]], td[[i, j]])
        for other in (pair[:1], blocked[i:i + 1], shuffled[i:i + 1]):
            assert_bit_equal(other, alone)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.integers(1, 16), st.booleans(), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_a_row_gets_the_same_bits_in_any_batch(c, half_d, per_node, num_blocks,
                                               seed):
    check_batch_invariance(c, 2 * half_d, per_node, seed, num_blocks)


@pytest.mark.parametrize("per_node", [False, True])
@pytest.mark.parametrize("c, d", [(6, 32), (8, 32)])
def test_a_row_gets_the_same_bits_in_any_batch_fixed_shapes(c, d, per_node):
    for seed in range(3):
        check_batch_invariance(c, d, per_node, seed)


def einsum_block_forward(block, a):
    """The graph-block forward pass with its mixing product on np.einsum."""
    normed, ln_cache = nn.layer_norm_forward(a, block.norm_scale, block.norm_shift)
    mixed = np.einsum("uv,nvd->nud", block.adjacency.value, normed)
    pre = mixed @ block.transfer.value
    out, phi = nn.gelu(pre, keep_phi=True)
    return out, (normed, ln_cache, mixed, pre, phi)


def einsum_block_backward(block, gout, cache):
    """The graph-block backward pass with its sums over the batch on
    np.einsum."""
    normed, ln_cache, mixed, pre, phi = cache
    gpre = nn.gelu_backward(gout, pre, phi)
    block.transfer.grad += np.einsum("nud,nue->de", mixed, gpre)
    gmixed = gpre @ block.transfer.value.T
    block.adjacency.grad += np.einsum("nud,nvd->uv", gmixed, normed)
    gnormed = np.einsum("uv,nud->nvd", block.adjacency.value, gmixed)
    return nn.layer_norm_backward(gnormed, ln_cache, block.norm_scale,
                                  block.norm_shift)


def assert_close_to_sum(got, want, magnitude):
    """|got - want| within 1e-12 of the sum of the magnitudes of the terms
    that make up want, so that a sum that cancels to near zero is not held
    to a tighter bound than its rounding allows."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * magnitude)


def run_backward(backward, block, gout):
    """One backward pass from zero gradients: the gradient that reaches the
    layer norm, and the transfer and adjacency gradients."""
    nn.zero_grads([block.adjacency, block.transfer, block.norm_scale,
                   block.norm_shift])
    gnormed = []
    layer_norm_backward = nn.layer_norm_backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "layer_norm_backward",
                   lambda gy, *rest: gnormed.append(gy)
                   or layer_norm_backward(gy, *rest))
        backward(gout)
    return gnormed[0], block.transfer.grad.copy(), block.adjacency.grad.copy()


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8), st.integers(1, 16), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
def test_graph_block_matches_the_einsum_block(c, half_d, n, seed):
    d = 2 * half_d
    rng = np.random.default_rng(seed)
    block = tr.GraphBlock(c, d, rng)
    block.norm_scale.value[...] = rng.uniform(0.5, 1.5, d)
    block.norm_shift.value[...] = rng.normal(size=d)
    a = rng.normal(size=(n, c, d))
    gout = rng.normal(size=(n, c, d))
    abs_adj = np.abs(block.adjacency.value)

    out, (_, got_pre, _) = block.forward(a)
    want_out, want_cache = einsum_block_forward(block, a)
    normed, ln_cache, mixed, pre, phi = want_cache
    mixed_size = np.matmul(abs_adj, np.abs(normed))
    pre_size = mixed_size @ np.abs(block.transfer.value)
    # the product forward runs and backward recomputes
    got_mixed = block._mix(normed, nn.Workspace())
    assert_close_to_sum(got_mixed, mixed, mixed_size)
    # pre and GELU's output (slope under 1.2) inherit mixed's error
    assert_close_to_sum(got_pre, pre, pre_size)
    assert_close_to_sum(out, want_out, pre_size)

    # both backward passes start from the reference cache, with the mixing
    # the block recomputes, so that they differ only in their own sums
    got = run_backward(lambda g: block.backward(g, (ln_cache, pre, phi)), block, gout)
    want_cache = (normed, ln_cache, got_mixed, pre, phi)
    want = run_backward(lambda g: einsum_block_backward(block, g, want_cache),
                        block, gout)
    gpre = nn.gelu_backward(gout, pre, phi)
    gmixed = gpre @ block.transfer.value.T
    assert_close_to_sum(got[0], want[0], np.matmul(abs_adj.T, np.abs(gmixed)))
    assert_close_to_sum(got[1], want[1],
                        np.einsum("nud,nue->de", np.abs(mixed), np.abs(gpre)))
    assert_close_to_sum(got[2], want[2],
                        np.einsum("nud,nvd->uv", np.abs(gmixed), np.abs(normed)))


def test_backward_after_distribution_raises():
    model = tiny_model(num_cameras=3, seed=12)
    cams, tq, td = np.array([0, 1, 2]), np.zeros(3), np.array([5.0, 9.0, 1.0])
    model.forward(cams, tq, td, train=True)
    model.distribution(cams, tq, td)
    with pytest.raises(InputError, match="before forward"):
        model.backward(np.zeros((3, 3)))
    with pytest.raises(InputError, match="empty"):
        model.distribution(np.array([], dtype=np.int64), [], [])


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(2, 8), st.integers(1, 8), st.integers(1, 600), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_eval_mode_forward_is_eval_logits_and_leaves_no_cache(c, half_d, n,
                                                              per_node, seed):
    model = eval_model(c, 2 * half_d, per_node, seed)
    rng = np.random.default_rng(seed)
    cams, tq, td, _ = random_batch(rng, n, c)
    # a pending training cache, which the eval pass clears
    model.forward(*random_batch(rng, 2, c)[:3], train=True)
    got = model.forward(cams, tq, td, train=False)
    with pytest.raises(InputError, match="before forward"):
        model.backward(np.zeros((n, c)))
    want = model.eval_logits(cams, tq, td)
    assert_bit_equal(got, want)
    assert_bit_equal(model.forward(cams, tq, td), want)


def test_schedule_decay_boundaries():
    sched = tr.TrainSchedule()
    assert sched.lr_at(0) == 0.01
    assert sched.lr_at(29) == 0.01
    assert abs(sched.lr_at(30) - 0.001) < 1e-15
    assert abs(sched.lr_at(60) - 0.0001) < 1e-16
    with pytest.raises(ConfigError):
        tr.TrainSchedule(base_lr=0.0)
    with pytest.raises(ConfigError):
        tr.TrainSchedule(lr_decay=1.5)


def test_sample_pairs_identity_law():
    # identity 0 has many cross-camera pairs, identity 1 exactly one; the
    # sampler still picks identities uniformly
    from edgereid.scene import Observation, Scene
    obs = [Observation(0, 0, 0), Observation(0, 1, 10), Observation(0, 2, 20),
           Observation(0, 1, 30), Observation(1, 0, 0), Observation(1, 1, 9)]
    scene = Scene(num_cameras=3, observations=tuple(obs),
                  train_identities=frozenset({0, 1}),
                  test_identities=frozenset())
    cams, tq, td, _ = tr.sample_pairs(scene, np.random.default_rng(12), 20000)
    # only identity 1's pair is 9 ticks apart
    ident1 = np.abs(td - tq) == 9
    # binomial(20000, 0.5): 4 sigma is about 283
    assert abs(int((~ident1).sum()) - 10000) < 300
    roles = int((ident1 & (cams == 0)).sum())
    # the one pair of identity 1 gets each orientation half the time
    assert abs(roles - ident1.sum() / 2) < 300


def test_sample_pairs_needs_cross_camera_data():
    from edgereid.scene import Observation, Scene
    scene = Scene(num_cameras=2,
                  observations=(Observation(0, 0, 0), Observation(0, 0, 5)),
                  train_identities=frozenset({0}), test_identities=frozenset())
    with pytest.raises(DataError):
        tr.sample_pairs(scene, np.random.default_rng(0), 1)


def test_pair_pool_reuse_keeps_the_draws():
    # train builds the pool once and draws every epoch from it; the draws
    # must match one sample_pairs call per epoch on the same stream
    scene = ring_scene(num_cameras=3, identities=20, visits=5, seed=30)
    rng_a, rng_b = np.random.default_rng(31), np.random.default_rng(31)
    pool = tr._train_pool(scene)
    for count in (50, 7, 50):
        got = tr._pair_batch(pool, *tr._draw_pairs(pool, rng_a, count))
        for a, b in zip(got, tr.sample_pairs(scene, rng_b, count)):
            np.testing.assert_array_equal(a, b)


def test_train_builds_the_pair_pool_once(monkeypatch):
    calls = []
    build = tr._cross_camera_pairs
    monkeypatch.setattr(tr, "_cross_camera_pairs",
                        lambda obs: calls.append(1) or build(obs))
    scene = ring_scene(num_cameras=3, identities=20, visits=5, seed=32)
    tr.train(tiny_model(num_cameras=3), scene,
             tr.TrainSchedule(epochs=3, pairs_per_epoch=32), np.random.default_rng(33))
    assert len(calls) == 2  # train pool and hold-out pool


@pytest.mark.parametrize("count, size, sizes", [
    (129, 128, [129]),
    (130, 128, [128, 2]),
    (128, 128, [128]),
    (1, 128, [1]),
    (5, 2, [2, 3]),
    (7, 3, [3, 4]),
])
def test_one_pair_tail_joins_the_previous_batch(count, size, sizes):
    batches = tr._batches(list(range(count)), size)
    assert [len(b) for b in batches] == sizes
    assert sum(batches, []) == list(range(count))


def test_per_node_heads_train_through_a_one_pair_tail():
    scene = ring_scene(num_cameras=3, identities=20, visits=5, seed=34)
    model = tiny_model(num_cameras=3, per_node_classifier=True, seed=35)
    schedule = tr.TrainSchedule(epochs=2, pairs_per_epoch=129, batch_size=128,
                                holdout_pairs=50)
    history = tr.train(model, scene, schedule, np.random.default_rng(36))
    assert len(history) == 2 and all(np.isfinite(r["loss"]) for r in history)


def test_training_learns_a_deterministic_ring():
    scene = ring_scene(num_cameras=3, identities=60, visits=6, seed=13)
    model = tiny_model(num_cameras=3, embed_dim=8, num_blocks=1, seed=14)
    schedule = tr.TrainSchedule(epochs=12, pairs_per_epoch=512,
                                holdout_pairs=400)
    history = tr.train(model, scene, schedule, np.random.default_rng(15))
    assert len(history) == 12
    assert history[-1]["loss"] < history[0]["loss"]
    assert history[-1]["holdout_accuracy"] >= 0.95
    assert history[0]["lr"] == 0.01


def test_training_step_rejects_empty_batch():
    model = tiny_model()
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(InputError):
        tr.training_step(model, (empty, empty * 1.0, empty * 1.0, empty), 0.01)


def test_divergence_rolls_back_and_raises():
    scene = ring_scene(num_cameras=3, identities=30, visits=4, seed=16)
    model = tiny_model(num_cameras=3, embed_dim=4, seed=17)
    model.heads[0].fc_weight.value[...] = 1e308  # overflow on first batch
    before = {k: p.value.copy() for k, p in model.named_params().items()}
    with pytest.raises(DivergenceError, match="epoch 0"), \
            np.errstate(over="ignore"):
        tr.train(model, scene, tr.TrainSchedule(epochs=2, pairs_per_epoch=64),
                 np.random.default_rng(18))
    for name, p in model.named_params().items():
        np.testing.assert_array_equal(p.value, before[name])


def test_forward_flags_nonfinite_logits():
    model = tiny_model()
    model.heads[0].fc_weight.value[...] = 1e308
    model.heads[0].bn.shift.value[...] = 1.0  # keeps relu output positive
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        model.forward([0], [0.0], [5.0])


@pytest.mark.parametrize("per_node", [False, True])
def test_eval_logits_flags_nonfinite_logits(per_node):
    model = tiny_model(per_node_classifier=per_node)
    for head in model.heads:
        head.fc_weight.value[...] = 1e308
        head.bn.shift.value[...] = 1.0
    for call in (model.eval_logits, model.distribution):
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            call([0, 1], 0.0, [5.0, 6.0])


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    scene = ring_scene(num_cameras=3, identities=30, visits=4, seed=19)
    model = tiny_model(num_cameras=3, embed_dim=6, num_blocks=2, seed=20)
    tr.train(model, scene, tr.TrainSchedule(epochs=2, pairs_per_epoch=128),
             np.random.default_rng(21))
    path = tmp_path / "model.json"
    tr.save_checkpoint(model, path, metadata={"note": "smoke"})
    loaded = tr.load_checkpoint(path)
    assert loaded.metadata == {"note": "smoke"}
    assert loaded.config == model.config
    cams = np.array([0, 1, 2])
    tq = np.zeros(3)
    td = np.array([7.0, 19.0, -40.0])
    np.testing.assert_array_equal(loaded.forward(cams, tq, td),
                                  model.forward(cams, tq, td))


def test_checkpoint_roundtrip_per_node_heads(tmp_path):
    model = tiny_model(num_cameras=2, embed_dim=4, seed=22,
                       per_node_classifier=True)
    path = tmp_path / "model.json"
    tr.save_checkpoint(model, path)
    loaded = tr.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.forward([0], [0.0], [3.0]),
                                  model.forward([0], [0.0], [3.0]))


def test_checkpoint_rejects_tampering(tmp_path):
    model = tiny_model(seed=23)
    path = tmp_path / "model.json"
    tr.save_checkpoint(model, path)
    doc = json.loads(path.read_text())

    bad_version = dict(doc, format_version=99)
    path.write_text(json.dumps(bad_version))
    with pytest.raises(CheckpointError, match="version"):
        tr.load_checkpoint(path)

    missing = dict(doc, params={k: v for k, v in doc["params"].items()
                                if k != "spatial_bias"})
    path.write_text(json.dumps(missing))
    with pytest.raises(CheckpointError, match="spatial_bias"):
        tr.load_checkpoint(path)

    wrong_shape = json.loads(json.dumps(doc))
    wrong_shape["params"]["spatial_bias"]["shape"] = [1, 1]
    path.write_text(json.dumps(wrong_shape))
    with pytest.raises(CheckpointError, match="shape"):
        tr.load_checkpoint(path)

    path.write_text("not json")
    with pytest.raises(CheckpointError, match="JSON"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("section, name, key, value, match", [
    ("params", "spatial_bias", "data", math.nan, "spatial_bias has non-finite"),
    ("params", "block0.transfer", "data", -math.inf, "block0.transfer has non-finite"),
    ("batch_norm", "head", "running_mean", math.inf, "head.running_mean has non-finite"),
    ("batch_norm", "head", "running_var", math.nan, "head.running_var has non-finite"),
    ("batch_norm", "head", "running_var", -1.0, "head.running_var has negative"),
])
def test_checkpoint_rejects_values_a_forward_pass_cannot_use(
        tmp_path, section, name, key, value, match):
    # without the check the model loads and its first forward pass raises
    # NumericError
    path = tmp_path / "model.json"
    tr.save_checkpoint(tiny_model(seed=24), path)
    doc = json.loads(path.read_text())
    doc[section][name][key][1] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=match):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("key, value", [
    ("max_period", 0.5), ("max_period", 1.0), ("max_period", math.nan),
    ("time_scale", math.nan), ("denominator_floor", math.nan),
])
def test_checkpoint_rejects_a_config_the_model_cannot_embed_with(
        tmp_path, key, value):
    # without these checks such a checkpoint loads, and the run fails only
    # once the model is evaluated
    path = tmp_path / "model.json"
    tr.save_checkpoint(tiny_model(seed=25), path)
    doc = json.loads(path.read_text())
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"bad config: {key}"):
        tr.load_checkpoint(path)


def test_scene_compatibility_check():
    model = tiny_model(num_cameras=2)
    scene = ring_scene(num_cameras=3, identities=10, visits=3)
    with pytest.raises(ConfigError, match="cameras"):
        tr.check_scene_compatible(model, scene)


def test_config_dict_roundtrip():
    config = tr.TransitionNetConfig(num_cameras=5, embed_dim=10, num_blocks=3,
                                    time_scale=2.0, per_node_classifier=True)
    assert tr.TransitionNetConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError, match="unknown"):
        tr.TransitionNetConfig.from_dict({"num_cameras": 2, "bogus": 1})
    with pytest.raises(ConfigError):
        tr.TransitionNetConfig.from_dict({"embed_dim": 4})


def reference_pool(observations):
    """The pair pool as a dict of Observation pairs per identity, built by the
    per-identity loop that scene.cross_camera_pairs replaced."""
    by_identity = {}
    for obs in observations:
        by_identity.setdefault(obs.identity, []).append(obs)
    pool = {}
    for ident, group in by_identity.items():
        valid = [(a, b) for i, a in enumerate(group) for b in group[i + 1:]
                 if a.camera != b.camera]
        if valid:
            pool[ident] = valid
    return pool


def observation_pairs(observations, query, target):
    """(query, target) index arrays as a list of Observation pairs."""
    return [(observations[q], observations[t]) for q, t in zip(query, target)]


def holdout_pairs(scene, rng, cap):
    observations = scene.test_observations()
    pool = tr._cross_camera_pairs(observations)
    return observation_pairs(observations, *tr._holdout_pairs(pool, rng, cap))


def reference_holdout_pairs(scene, rng, cap):
    """Build every oriented test pair, then keep a seeded sample of cap."""
    pool = reference_pool(scene.test_observations())
    ordered = []
    for ident in sorted(pool):
        for a, b in pool[ident]:
            ordered.append((a, b))
            ordered.append((b, a))
    if cap and len(ordered) > cap:
        keep = rng.choice(len(ordered), size=cap, replace=False)
        ordered = [ordered[i] for i in sorted(keep)]
    return ordered


def reference_draw_pairs(pool, rng, count):
    """Pair by pair from the dict pool, with the same three array draws:
    every identity, then a pair within each identity's list, then every
    flip."""
    idents = sorted(pool)
    options = [pool[idents[i]] for i in rng.integers(0, len(idents), size=count)]
    picks = rng.integers(0, np.array([len(o) for o in options], dtype=np.int64))
    flips = rng.random(count)
    out = []
    for opts, pick, flip in zip(options, picks, flips):
        a, b = opts[pick]
        if flip < 0.5:
            a, b = b, a
        out.append((a, b))
    return out


def random_split_scene(items, test_share):
    obs = tuple(Observation(i, c, t) for i, c, t in items)
    idents = sorted({i for i, _, _ in items})
    cut = int(len(idents) * test_share)
    return Scene(num_cameras=4, observations=obs,
                 train_identities=frozenset(idents[cut:]),
                 test_identities=frozenset(idents[:cut]))


scene_items = st.lists(st.tuples(st.sampled_from([0, 1, 4, 9, 23, 500]),
                                 st.integers(0, 3), st.integers(0, 100)),
                       min_size=1, max_size=40)


@settings(deadline=None, max_examples=100)
@given(scene_items, st.sampled_from([0.5, 1.0]), st.integers(0, 2 ** 31 - 1))
def test_holdout_pairs_match_build_all_then_sample(items, test_share, seed):
    scene = random_split_scene(items, test_share)
    oriented = len(reference_holdout_pairs(scene, None, 0))
    for cap in sorted({0, 1, max(oriented - 1, 0), oriented, oriented + 5}):
        got = holdout_pairs(scene, np.random.default_rng(seed), cap)
        want = reference_holdout_pairs(scene, np.random.default_rng(seed), cap)
        assert got == want


def test_holdout_pairs_match_build_all_then_sample_on_a_ring():
    scene = ring_scene(num_cameras=4, identities=30, visits=6, seed=41)
    oriented = len(holdout_pairs(scene, np.random.default_rng(0), 0))
    assert oriented > 100
    for cap in (0, 7, oriented // 2, oriented - 1, oriented, oriented + 1):
        got = holdout_pairs(scene, np.random.default_rng(42), cap)
        assert got == reference_holdout_pairs(scene, np.random.default_rng(42), cap)
        assert len(got) == (min(cap, oriented) if cap else oriented)


@settings(deadline=None, max_examples=100)
@given(scene_items, st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
def test_draw_pairs_match_the_dict_pool(items, count, seed):
    scene = random_split_scene(items, 0.0)
    ref_pool = reference_pool(scene.train_observations())
    if not ref_pool:
        with pytest.raises(DataError):
            tr._train_pool(scene)
        return
    observations = scene.train_observations()
    got = observation_pairs(observations, *tr._draw_pairs(
        tr._train_pool(scene), np.random.default_rng(seed), count))
    assert got == reference_draw_pairs(ref_pool, np.random.default_rng(seed), count)


@settings(deadline=None, max_examples=100)
@given(scene_items, st.integers(0, 60), st.integers(0, 2 ** 31 - 1))
def test_every_pair_joins_one_identity_on_two_cameras(items, count, seed):
    scene = random_split_scene(items, 0.5)
    rng = np.random.default_rng(seed)
    splits = []
    for observations, draw in ((scene.train_observations(), tr._draw_pairs),
                               (scene.test_observations(), tr._holdout_pairs)):
        pool = tr._cross_camera_pairs(observations)
        if pool[2].size:
            splits.append((observations, pool, draw(pool, rng, count)))
    for observations, pool, (query, target) in splits:
        for q, t in zip(query, target):
            assert observations[q].identity == observations[t].identity
            assert observations[q].camera != observations[t].camera
        cams, tq, td, targets = tr._pair_batch(pool, query, target)
        assert cams.tolist() == [observations[q].camera for q in query]
        assert tq.tolist() == [observations[q].timestamp for q in query]
        assert td.tolist() == [observations[t].timestamp for t in target]
        assert targets.tolist() == [observations[t].camera for t in target]


# -- work buffers ----------------------------------------------------------------


def random_batch(rng, n, c, spread=300):
    tq = rng.integers(0, 500, n).astype(float)
    return (rng.integers(0, c, n), tq, tq + rng.integers(-spread, spread + 1, n),
            rng.integers(0, c, n))


# Both head layouts at two graph blocks, the default, and at one and three,
# where buffers shared between consecutive blocks would alias first. The
# two-block cases are named by the layout alone.
HEADS_AND_BLOCKS = [
    pytest.param(per_node, blocks,
                 id=str(per_node) if blocks == 2 else f"{per_node}-{blocks}")
    for blocks in (2, 1, 3) for per_node in (False, True)]


@pytest.mark.parametrize("per_node, num_blocks", HEADS_AND_BLOCKS)
def test_a_repeated_training_step_allocates_no_layer_arrays(per_node, num_blocks):
    n, c, d = 128, 8, 32
    model = tiny_model(num_cameras=c, embed_dim=d, num_blocks=num_blocks, seed=3,
                       per_node_classifier=per_node)
    batch = random_batch(np.random.default_rng(4), n, c)
    tr.training_step(model, batch, 0.01)  # sizes the work buffers
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.training_step(model, batch, 0.01)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one [n, C, D] float64 array is 256 KiB
    assert peak < 2 * n * c * d * 8


@pytest.mark.parametrize("per_node", [False, True])
def test_a_training_step_keeps_at_most_sixteen_batch_arrays(per_node):
    n, c, d = 128, 8, 32
    unit = n * c * d * 8  # one [n, C, D] float64 array, 256 KiB
    model = tiny_model(num_cameras=c, embed_dim=d, num_blocks=2, seed=3,
                       per_node_classifier=per_node)
    batch = random_batch(np.random.default_rng(4), n, c)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.training_step(model, batch, 0.01)  # sizes the buffers from empty
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # what backward reads, kept per layer, and the shared buffers
    held = sum(flat.nbytes for flat in model._work._buffers.values())
    assert held <= 16 * unit
    # Adam's two scratch arrays are spatial_weight's size, 512 KiB
    assert peak < 16 * unit + c * d * c * d * 8


def model_state(model):
    """Every array training touches: values, gradients, Adam moments, step
    counts and batch-norm running statistics."""
    state = {}
    for name, p in model.named_params().items():
        for key in ("value", "grad", "m", "v"):
            state[f"{name}.{key}"] = getattr(p, key).copy()
        state[f"{name}.steps"] = np.array(p.step_count)
    for name, st_ in model.bn_states().items():
        state.update({f"{name}.{k}": v for k, v in st_.items()})
    return state


@pytest.mark.parametrize("per_node, num_blocks", HEADS_AND_BLOCKS)
def test_training_matches_the_allocating_layers(per_node, num_blocks):
    # 45 pairs in batches of 16 leave a 13-pair tail, and each epoch's
    # hold-out evaluation changes the batch shape between training steps
    scene = ring_scene(num_cameras=3, identities=40, visits=5, seed=40)
    schedule = tr.TrainSchedule(epochs=3, pairs_per_epoch=45, batch_size=16,
                                holdout_pairs=300)
    runs = []
    for reference in (False, True):
        model = tiny_model(num_cameras=3, embed_dim=8, num_blocks=num_blocks,
                           seed=41, per_node_classifier=per_node)
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                ref.installed(mp)
            history = tr.train(model, scene, schedule, np.random.default_rng(42))
            # one more step straight after the hold-out evaluation
            batch = random_batch(np.random.default_rng(43), 16, 3)
            tr.training_step(model, batch, 0.01)
        runs.append((history, model_state(model)))
    (got_history, got), (want_history, want) = runs
    assert got_history == want_history
    assert got.keys() == want.keys()
    for name in want:
        assert_bit_equal(got[name], want[name])


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6), st.integers(1, 6), st.lists(st.integers(2, 40), min_size=2,
                                                      max_size=4),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_forward_and_backward_match_the_allocating_layers(c, half_d, sizes, per_node,
                                                          seed):
    rng = np.random.default_rng(seed)
    got_model, want_model = (
        tiny_model(num_cameras=c, embed_dim=2 * half_d, num_blocks=2, seed=seed,
                   per_node_classifier=per_node) for _ in range(2))
    for n in sizes:
        cams, tq, td, _ = random_batch(rng, n, c)
        glogits = rng.normal(size=(n, c))
        results = []
        for model, reference in ((got_model, False), (want_model, True)):
            model.zero_grads()
            with pytest.MonkeyPatch.context() as mp:
                if reference:
                    ref.installed(mp)
                logits = model.forward(cams, tq, td, train=True)
                model.backward(glogits)
                evaluated = model.eval_logits(cams, tq, td)
            results.append((logits, evaluated, model_state(model)))
        (got, got_eval, got_state), (want, want_eval, want_state) = results
        assert_bit_equal(got, want)
        # the eval pass reads the running statistics this step moved
        assert_bit_equal(got_eval, want_eval)
        for name in want_state:
            assert_bit_equal(got_state[name], want_state[name])


def test_returned_logits_are_not_overwritten_by_later_calls():
    model = tiny_model(num_cameras=4, embed_dim=8, num_blocks=2, seed=5)
    rng = np.random.default_rng(6)
    first, second = random_batch(rng, 20, 4), random_batch(rng, 20, 4)
    logits = model.forward(*first[:3], train=True)
    kept = logits.copy()
    model.backward(rng.normal(size=logits.shape))
    model.forward(*second[:3], train=True)
    tr.training_step(model, second, 0.01)
    assert_bit_equal(logits, kept)
    evaluated = model.eval_logits(*first[:3])
    kept = evaluated.copy()
    model.eval_logits(*second[:3])
    model.forward(*second[:3], train=False)
    tr.training_step(model, second, 0.01)
    assert_bit_equal(evaluated, kept)


def test_train_and_eval_logits_release_the_work_buffers(tmp_path):
    scene = ring_scene(num_cameras=3, identities=30, visits=4, seed=7)
    model = tiny_model(num_cameras=3, embed_dim=8, seed=8)
    tr.train(model, scene, tr.TrainSchedule(epochs=2, pairs_per_epoch=40,
                                            batch_size=16), np.random.default_rng(9))
    assert model._work is None and model._cache is None
    # a step outside train keeps its buffers, for the next step to reuse
    batch = random_batch(np.random.default_rng(10), 16, 3)
    tr.training_step(model, batch, 0.01)
    assert model._work is not None
    clone = copy.deepcopy(model)
    assert clone._work is None and clone._cache is None
    assert pickle.loads(pickle.dumps(model))._work is None
    values, states = tr._snapshot(model)
    assert values.keys() == model.named_params().keys()
    assert states.keys() == model.bn_states().keys()
    tr.save_checkpoint(model, tmp_path / "held.json")
    # eval_logits evaluates in arrays of its own: it leaves the training
    # buffers in place and clears only a pending forward cache
    work = model._work
    model.forward(*batch[:3], train=False)
    model.eval_logits(*batch[:3])
    assert model._work is work and model._cache is None
    tr.save_checkpoint(model, tmp_path / "evaluated.json")
    assert ((tmp_path / "held.json").read_bytes()
            == (tmp_path / "evaluated.json").read_bytes())
    # a divergence leaves no buffers behind either
    model.heads[0].fc_weight.value[...] = 1e308
    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        tr.train(model, scene, tr.TrainSchedule(epochs=1, pairs_per_epoch=40),
                 np.random.default_rng(11))
    assert model._work is None


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.integers(1, 120), st.integers(1, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_holdout_accuracy_on_distinct_keys_matches_the_per_row_argmax(
        c, n, deltas, per_node, seed):
    model = eval_model(c, 4, per_node, seed)
    rng = np.random.default_rng(seed)
    # few cameras and deltas, so that keys repeat, at shifted query times
    cams = rng.integers(0, c, n)
    tq = rng.integers(0, 1_000, n).astype(float)
    td = tq + rng.choice(rng.integers(-400, 401, deltas), n)
    targets = rng.integers(0, c, n)
    per_row = model.eval_logits(cams, tq, td).argmax(axis=1) == targets
    assert tr.holdout_accuracy(model, (cams, tq, td, targets)) == per_row.sum() / n
