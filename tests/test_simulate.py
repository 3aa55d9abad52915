"""Upload planning, round delivery, and the end-to-end benchmark loop."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scan_references as ref
from scene_references import reference_build_gallery, scene_of
from edgereid import simulate as sim
from edgereid import strategy as sg
from edgereid.errors import ConfigError, DataError, InputError, ShapeError
from edgereid.nn import softmax
from edgereid.scene import (Edge, FixedDelay, GeneratorSpec, Observation,
                            generate, split_identities)
from edgereid.transition import EVAL_ROWS, TransitionNet, TransitionNetConfig


def unit(vec):
    v = np.asarray(vec, dtype=np.float64)
    return v / np.linalg.norm(v)


def hand_gallery():
    """Two cameras, five items with easy-to-rank features and timestamps."""
    obs = (
        Observation(0, 0, 100, unit([1.0, 0.0])),
        Observation(0, 1, 130, unit([0.9, 0.1])),
        Observation(1, 0, 40, unit([0.0, 1.0])),
        Observation(1, 1, 90, unit([0.1, 0.9])),
        Observation(2, 1, 10, unit([0.6, 0.4])),
    )
    # the record-walking build, to keep the items in the order written here
    return reference_build_gallery(obs, num_cameras=2)


def featured_scene(seed=0, num_cameras=3, identities=24, visits=5):
    edges = tuple(Edge(i, (i + 1) % num_cameras, 1.0, FixedDelay(10))
                  for i in range(num_cameras))
    spec = GeneratorSpec(num_cameras=num_cameras, edges=edges,
                         num_identities=identities, visits=visits,
                         feature_dim=6, feature_noise=0.2, start_spread=30)
    rng = np.random.default_rng(seed)
    gen_rng, split_rng = rng.spawn(2)
    return split_identities(generate(spec, gen_rng), 0.5, split_rng)


def test_build_gallery_layout():
    g = hand_gallery()
    assert g.size == 5 and g.num_cameras == 2
    np.testing.assert_array_equal(g.device_items[0], [0, 2])
    np.testing.assert_array_equal(g.device_items[1], [1, 3, 4])
    assert g.features.shape == (5, 2)
    with pytest.raises(DataError):
        sim.build_gallery((), 2)


def test_make_task_excludes_the_query():
    g = hand_gallery()
    task = sim.make_task(g, 0, target_time=120)
    np.testing.assert_array_equal(task.device_items[0], [2])
    np.testing.assert_array_equal(task.device_items[1], [1, 3, 4])
    assert task.query_identity == 0 and task.query_camera == 0
    assert task.query_time == 100 and task.target_time == 120
    with pytest.raises(InputError):
        sim.make_task(g, 9, 0)


def test_plan_time_order_for_centralized():
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)
    p = sim.plan(task, sim.Strategy.CENTRALIZED, 2, sim.InferenceParams(),
                 sim.Models())
    np.testing.assert_array_equal(p.sequences[0], [2])
    np.testing.assert_array_equal(p.sequences[1], [4, 3, 1])  # by timestamp
    np.testing.assert_array_equal(p.budgets, [1, 1])


def test_plan_visual_order():
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)  # query feature [1, 0]
    p = sim.plan(task, sim.Strategy.VISUAL, 4, sim.InferenceParams(),
                 sim.Models())
    # cosine with [1,0]: item1=0.9939, item4=0.8321, item3=0.1104, item2=0.0
    np.testing.assert_array_equal(p.sequences[1], [1, 4, 3])
    np.testing.assert_array_equal(p.sequences[0], [2])
    np.testing.assert_array_equal(p.budgets, [2, 2])


def test_plan_joint_order_with_frequency_only_models():
    obs = (Observation(7, 0, 0), Observation(7, 1, 30))
    train = scene_of(obs, num_cameras=2,
                     train_identities=frozenset({7}), test_identities=frozenset())
    freq = sg.fit_frequency(train, bin_width=10, sigma_bins=0.0, floor=1e-9)
    models = sim.Models(frequency=freq)
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)
    params = sim.InferenceParams()
    p = sim.plan(task, sim.Strategy.RERANK, 4, params, models)
    items = task.device_items[1]
    o = sg.frequency_scores(freq, 0, 100, g.cameras[items],
                            g.timestamps[items])
    s = sg.joint_similarity(o, g.features[items] @ task.query_feature,
                            params.alpha, params.beta)
    np.testing.assert_array_equal(p.sequences[1], items[np.lexsort((items, s))])
    np.testing.assert_array_equal(p.budgets, [2, 2])


def test_learned_budgets_require_a_transition_model():
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)
    with pytest.raises(ConfigError, match="transition"):
        sim.plan(task, sim.Strategy.BANDWIDTH, 4, sim.InferenceParams(),
                 sim.Models())


def test_joint_order_requires_some_model():
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)
    with pytest.raises(ConfigError):
        sim.plan(task, sim.Strategy.RERANK, 4, sim.InferenceParams(),
                 sim.Models())


def test_visual_strategies_require_features():
    obs = (Observation(0, 0, 0), Observation(0, 1, 10))
    g = sim.build_gallery(scene_of(obs, num_cameras=2), 2)
    task = sim.make_task(g, 0, 10)
    with pytest.raises(ConfigError, match="features"):
        sim.plan(task, sim.Strategy.VISUAL, 2, sim.InferenceParams(),
                 sim.Models())


def test_plan_rejects_small_bandwidth():
    g = hand_gallery()
    task = sim.make_task(g, 0, 120)
    with pytest.raises(ConfigError):
        sim.plan(task, sim.Strategy.CENTRALIZED, 1, sim.InferenceParams(),
                 sim.Models())


def test_run_rounds_merge_and_positions():
    p = sim.UploadPlan(
        strategy=sim.Strategy.CENTRALIZED,
        sequences=(np.array([7, 3, 5]), np.array([2, 9])),
        budgets=np.array([2, 1]))
    log = sim.run_rounds(p, gallery_size=10)
    np.testing.assert_array_equal(log.order, [7, 3, 2, 5, 9])
    assert sim.transmission_number(log, 7) == 1
    assert sim.transmission_number(log, 5) == 2
    assert sim.transmission_number(log, 9) == 2
    np.testing.assert_array_equal(log.position_of[[7, 3, 2, 5, 9]],
                                  [1, 2, 3, 4, 5])
    # absent items are marked, not silently zero
    assert log.round_of[0] == -1
    with pytest.raises(InputError):
        sim.transmission_number(log, 0)


def test_run_rounds_conserves_items():
    rng = np.random.default_rng(2)
    items = rng.permutation(30)
    p = sim.UploadPlan(strategy=sim.Strategy.VISUAL,
                       sequences=(items[:12], items[12:19], items[19:]),
                       budgets=np.array([3, 1, 5]))
    log = sim.run_rounds(p, gallery_size=30)
    assert sorted(log.order.tolist()) == sorted(items.tolist())
    present = log.position_of[log.position_of > 0]
    assert sorted(present.tolist()) == list(range(1, 31))


def test_transition_table_matches_model_exactly():
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(3))
    table = sim.TransitionTable(model, -50, 80)
    cams = np.array([0, 1, 2, 2])
    tq = np.array([10.0, 0.0, 5.0, 100.0])
    td = np.array([60.0, -50.0, 5.0, 150.0])
    np.testing.assert_array_equal(table.forward(cams, tq, td),
                                  model.forward(cams, tq, td))
    np.testing.assert_array_equal(table.distribution(cams, tq, td),
                                  model.distribution(cams, tq, td))
    with pytest.raises(InputError, match="outside"):
        table.forward([0], [0.0], [81.0])
    with pytest.raises(InputError, match="integer"):
        table.forward([0], [0.0], [3.5])
    with pytest.raises(InputError):
        sim.TransitionTable(model, 5, 4)


@pytest.mark.parametrize("cameras, t_query, error", [
    ([0.99], 0.0, InputError), ([1, 2.5], 0.0, InputError),
    ([0, 1], [0.0, 1.0, 2.0], ShapeError), ([0, 1, 2], [0.0, 1.0], ShapeError)])
def test_transition_table_rejects_fractional_cameras_and_bad_shapes(
        cameras, t_query, error):
    # a fractional camera used to be truncated to the camera below it, and
    # a shape mismatch escaped as numpy's own ValueError
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(3))
    table = sim.TransitionTable(model, -5, 5)
    with pytest.raises(error) as want:
        model.forward(cameras, t_query, 2.0)
    for lookup in (table.forward, table.eval_logits, table.distribution,
                   model.eval_logits):
        with pytest.raises(error) as got:
            lookup(cameras, t_query, 2.0)
        assert str(got.value) == str(want.value)
    assert not table.filled.any()


def reference_table(model, dt_min, dt_max):
    """The eager table: every (camera, delta) cell's eval-mode logits and
    their softmax, [C, n, C] each, from one eval_logits call per camera."""
    deltas = np.arange(dt_min, dt_max + 1, dtype=np.float64)
    logits = np.stack([model.eval_logits(cam, 0.0, deltas)
                       for cam in range(model.config.num_cameras)])
    return logits, softmax(logits, axis=2)


@pytest.mark.parametrize("cameras, t_query", [
    (-1, 0.0), (3, 0.0), ([0, 2, 5], 0.0), ([], 0.0), ([0, 1], [0.0, math.nan])])
def test_transition_table_rejects_what_the_model_rejects(cameras, t_query):
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(3))
    table = sim.TransitionTable(model, -5, 5)
    with pytest.raises(InputError) as want:
        model.forward(cameras, t_query, 2.0)
    for lookup in (table.forward, table.eval_logits, table.distribution):
        with pytest.raises(InputError) as got:
            lookup(cameras, t_query, 2.0)
        assert str(got.value) == str(want.value)
    assert not table.filled.any()


def test_transition_table_with_a_one_row_tail_matches_the_model():
    # 2 * EVAL_ROWS + 1 deltas per camera, so the one fill of a camera's
    # cells ends eval_logits' groups in a one-row tail; the table still holds
    # the bits of one forward pass over all the deltas
    model = TransitionNet(TransitionNetConfig(num_cameras=4, embed_dim=6),
                          np.random.default_rng(5))
    table = sim.TransitionTable(model, -EVAL_ROWS, EVAL_ROWS)
    deltas = np.arange(-EVAL_ROWS, EVAL_ROWS + 1, dtype=np.float64)
    for cam in range(4):
        np.testing.assert_array_equal(table.forward(cam, 0.0, deltas),
                                      model.forward(cam, 0.0, deltas))


def counted(monkeypatch, name):
    """Wrap TransitionNet.<name> to record the rows of each call."""
    method = getattr(TransitionNet, name)
    rows = []

    def wrapper(self, cameras, *args, **kwargs):
        rows.append(np.size(cameras))
        return method(self, cameras, *args, **kwargs)

    monkeypatch.setattr(TransitionNet, name, wrapper)
    return rows


def test_build_transition_table_evaluates_nothing(monkeypatch):
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(6))
    forwards = counted(monkeypatch, "forward")
    table = sim.build_transition_table(model, np.array([3, 40, 17]))
    assert isinstance(table, sim.TransitionTable)
    assert forwards == []
    assert table.logits.shape == (3, 75, 3) and not table.filled.any()


def test_a_lookup_evaluates_only_the_cells_no_lookup_filled(monkeypatch):
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(7))
    table = sim.TransitionTable(model, -20, 20)
    calls = counted(monkeypatch, "eval_logits")
    cams = np.array([0, 1, 1, 2, 0])
    tq = np.array([5.0, 0.0, 4.0, 3.0, 5.0])
    td = np.array([10.0, -20.0, -16.0, 3.0, 10.0])
    first = table.distribution(cams, tq, td)
    assert calls == [3]  # three distinct cells, one call
    np.testing.assert_array_equal(table.distribution(cams, tq, td), first)
    table.forward(cams[::-1], tq[::-1], td[::-1])
    table.eval_logits(1, 0.0, -20.0)
    assert calls == [3]
    table.forward([1, 2], [0.0, 0.0], [-20.0, 7.0])
    assert calls == [3, 1]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_lazy_table_matches_the_eager_reference(cameras, tail, seed, data):
    config = TransitionNetConfig(num_cameras=cameras, embed_dim=6)
    model = TransitionNet(config, np.random.default_rng(seed))
    # a first fill of all 2 * EVAL_ROWS + 1 cells of a camera ends
    # eval_logits' blocks in a one-row tail
    span = EVAL_ROWS if tail else 12
    want = reference_table(model, -span, span)
    table = sim.TransitionTable(model, -span, span)
    cell = st.tuples(st.integers(0, cameras - 1), st.integers(-span, span),
                     st.integers(-50, 50))
    fills = data.draw(st.lists(st.lists(cell, min_size=1, max_size=30),
                               min_size=1, max_size=4))
    if tail:
        cam = data.draw(st.integers(0, cameras - 1))
        fills.insert(0, [(cam, d, 0) for d in range(-span, span + 1)])
    # the last lookup asks for every cell, filling the rest in one call
    fills.append([(c, d, 0) for c in range(cameras) for d in range(-span, span + 1)])
    for keys in fills:
        cams, deltas, t_query = (np.array(col) for col in zip(*keys))
        lookup = data.draw(st.sampled_from(["forward", "eval_logits",
                                            "distribution"]))
        got = getattr(table, lookup)(cams, t_query.astype(np.float64),
                                     (t_query + deltas).astype(np.float64))
        stored = want[1] if lookup == "distribution" else want[0]
        np.testing.assert_array_equal(got, stored[cams, deltas + span])
    assert table.filled.all()
    np.testing.assert_array_equal(table.logits, want[0])
    np.testing.assert_array_equal(table.probs, want[1])


def test_build_transition_table_falls_back_when_big(monkeypatch):
    model = TransitionNet(TransitionNetConfig(num_cameras=2, embed_dim=4),
                          np.random.default_rng(4))
    monkeypatch.setattr(sim, "TABLE_MAX_CELLS", 10)
    assert sim.build_transition_table(model, np.array([0, 1000])) is model
    monkeypatch.setattr(sim, "TABLE_MAX_CELLS", 1000)
    table = sim.build_transition_table(model, np.array([0, 5]))
    assert isinstance(table, sim.TransitionTable)
    assert table.dt_min == -5 and table.dt_max == 5


def test_eligible_queries_and_desired_index():
    obs = (Observation(0, 0, 10, unit([1, 0])),
           Observation(0, 1, 40, unit([1, 0.1])),
           Observation(0, 1, 40, unit([1, 0.2])),
           Observation(1, 0, 5, unit([0, 1])))
    g = reference_build_gallery(obs, 2)  # items in the order written
    eligible, skipped = sim.eligible_queries(g)
    np.testing.assert_array_equal(eligible, [0, 1, 2])
    assert skipped == 1
    # equal distance to the target tick: earlier timestamp wins, then index
    assert sim._desired_index(g, np.array([0]), np.array([40])).tolist() == [1]
    obs2 = (Observation(0, 0, 10), Observation(0, 1, 30), Observation(0, 1, 50))
    g2 = sim.build_gallery(scene_of(obs2, num_cameras=2), 2)
    desired = sim._desired_index(g2, np.array([0, 2]), np.array([40, 0]))
    assert desired.tolist() == [1, 0]


def test_strategy_parse():
    assert sim.Strategy.parse("rerank") is sim.Strategy.RERANK
    with pytest.raises(ConfigError, match="valid"):
        sim.Strategy.parse("fastest")


def benchmark_fixture(strategies, seed=5):
    scene = featured_scene(seed=seed)
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(6))
    models = sim.Models(transition=model)
    params = sim.InferenceParams(gamma0=1.0)
    reports = sim.run_benchmark(scene, strategies, models, 6, params,
                                sim.QuerySpec(max_queries=10),
                                np.random.default_rng(7))
    return scene, model, models, params, reports


def test_benchmark_pair_tn_matches_replay():
    scene, model, models, params, reports = benchmark_fixture(
        [sim.Strategy.VISUAL, sim.Strategy.COMBINED])
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    for name in ("visual", "combined"):
        report = reports[name]
        target_time = {q.query_index: q.target_time for q in report.queries}
        for pair in report.pairs:
            assert pair.tn == math.ceil(pair.rank / pair.budget)
            task = sim.make_task(gallery, pair.query_index,
                                 target_time[pair.query_index])
            p = sim.plan(task, sim.Strategy.parse(name), 6, params, models)
            rank = int(np.flatnonzero(
                p.sequences[pair.device] == pair.target_index)[0]) + 1
            assert rank == pair.rank
            if name == "visual":
                log = sim.run_rounds(p, gallery.size)
                assert pair.tn == sim.transmission_number(log, pair.target_index)
                assert pair.budget == int(p.budgets[pair.device])
            else:
                logits = model.forward(
                    task.query_camera, float(task.query_time),
                    float(gallery.timestamps[pair.target_index]))[0]
                sizes = np.array([len(s) for s in p.sequences], dtype=float)
                budgets = sg.allocate_bandwidth(logits, sizes, 6,
                                                params.gamma0,
                                                params.gamma1).budgets
                assert pair.budget == int(budgets[pair.device])


def test_benchmark_query_records_point_at_desired_items():
    scene, _, _, _, reports = benchmark_fixture([sim.Strategy.CENTRALIZED])
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    report = reports["centralized"]
    assert report.num_queries == 10
    for q in report.queries:
        assert gallery.identities[q.desired_index] == \
            gallery.identities[q.query_index]
        assert q.desired_index != q.query_index
        assert q.device == gallery.cameras[q.desired_index]
        assert q.position >= 1 and q.round >= 1
        assert q.desired_index == ref.desired_index(gallery, q.query_index,
                                                    q.target_time)


def test_bandwidth_reuses_visual_order_and_combined_reuses_joint():
    scene, _, models, params, reports = benchmark_fixture(
        [sim.Strategy.VISUAL, sim.Strategy.BANDWIDTH, sim.Strategy.RERANK,
         sim.Strategy.COMBINED])
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    target_time = {q.query_index: q.target_time
                   for q in reports["visual"].queries}
    for q, t in list(target_time.items())[:4]:
        task = sim.make_task(gallery, q, t)
        pv = sim.plan(task, sim.Strategy.VISUAL, 6, params, models)
        pb = sim.plan(task, sim.Strategy.BANDWIDTH, 6, params, models)
        pr = sim.plan(task, sim.Strategy.RERANK, 6, params, models)
        pc = sim.plan(task, sim.Strategy.COMBINED, 6, params, models)
        for a, b in zip(pv.sequences, pb.sequences):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(pr.sequences, pc.sequences):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(pb.budgets, pc.budgets)
        np.testing.assert_array_equal(pv.budgets, pr.budgets)


def test_benchmark_input_validation():
    scene = featured_scene(seed=11)
    unsplit = dataclasses.replace(scene, train_identities=None,
                                  test_identities=None)
    with pytest.raises(DataError):
        sim.run_benchmark(unsplit, [sim.Strategy.CENTRALIZED], sim.Models(), 6,
                          sim.InferenceParams(), sim.QuerySpec(),
                          np.random.default_rng(0))
    wrong = TransitionNet(TransitionNetConfig(num_cameras=5, embed_dim=4),
                          np.random.default_rng(0))
    with pytest.raises(ConfigError, match="cameras"):
        sim.run_benchmark(scene, [sim.Strategy.CENTRALIZED],
                          sim.Models(transition=wrong), 6,
                          sim.InferenceParams(), sim.QuerySpec(),
                          np.random.default_rng(0))
    with pytest.raises(ConfigError):
        sim.QuerySpec(max_queries=0)


def test_central_rankings_cover_every_query():
    scene = featured_scene(seed=12)
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(13))
    visual, joint = sim.central_rankings(scene, sim.Models(transition=model),
                                         sim.InferenceParams(), 6,
                                         np.random.default_rng(14))
    assert len(visual) == len(joint) == 6
    size = sim.build_gallery(scene.test_observations(), scene.num_cameras).size
    for rq in visual + joint:
        assert rq.positions.dtype == np.int64 and rq.on_query_camera.dtype == bool
        assert rq.positions.size == rq.on_query_camera.size >= 1
        assert rq.positions[0] >= 1 and rq.positions[-1] <= size - 1
        assert np.all(np.diff(rq.positions) > 0)


def test_central_rankings_check_the_model_against_the_scene_as_run_benchmark_does():
    # central_rankings read each item's (tick, camera) cell out of 4-camera
    # transition rows at 3-camera offsets, and ranked without a word
    scene = featured_scene(seed=12)
    model = TransitionNet(TransitionNetConfig(num_cameras=4, embed_dim=6),
                          np.random.default_rng(13))
    models = sim.Models(transition=model)
    message = "model covers 4 cameras but the scene has 3"
    with pytest.raises(ConfigError, match=message):
        sim.run_benchmark(scene, [sim.Strategy.RERANK], models, 12,
                          sim.InferenceParams(), sim.QuerySpec(max_queries=5),
                          np.random.default_rng(14))
    with pytest.raises(ConfigError, match=message):
        sim.central_rankings(scene, models, sim.InferenceParams(), 5,
                             np.random.default_rng(14))


def test_central_rankings_check_their_rules_before_the_first_query(monkeypatch):
    scene = featured_scene(seed=12)
    featureless = dataclasses.replace(scene, features=None)

    def no_query(*args):
        raise AssertionError("a query was chosen before the rules were checked")

    monkeypatch.setattr(sim, "_choose_queries", no_query)
    for scene_, models, message in [
            (featureless, sim.Models(frequency=sg.fit_frequency(scene, bin_width=5)),
             "appearance features"),
            (scene, sim.Models(), "transition or frequency")]:
        with pytest.raises(ConfigError, match=message):
            sim.central_rankings(scene_, models, sim.InferenceParams(), 5,
                                 np.random.default_rng(14))


@pytest.mark.parametrize("max_queries", [0, -1])
def test_central_rankings_reject_a_query_cap_below_one(max_queries, monkeypatch):
    scene = featured_scene(seed=12)
    monkeypatch.setattr(sim, "build_gallery", None)  # rejected before any work
    with pytest.raises(ConfigError, match="max_queries: value .* out of range"):
        sim.central_rankings(scene, sim.Models(), sim.InferenceParams(),
                             max_queries, np.random.default_rng(14))


# -- plan against the per-camera reference --------------------------------------


def reference_st_scores(models, params, task, items):
    """Spatio-temporal scores with one model call per camera."""
    g = task.gallery
    cams, ts = g.cameras[items], g.timestamps[items]
    model_part = freq_part = None
    if models.transition is not None:
        rows = models.transition.distribution(
            np.full(items.size, task.query_camera), float(task.query_time),
            ts.astype(float))
        model_part = rows[np.arange(items.size), cams]
    if models.frequency is not None:
        freq_part = sg.frequency_scores(models.frequency, task.query_camera,
                                        task.query_time, cams, ts)
    if model_part is not None and freq_part is not None:
        return sg.fuse_scores(model_part, freq_part, params.mu)
    return model_part if model_part is not None else freq_part


def reference_bank(models, task, items):
    """The pattern bank with one call for the items and one for the target."""
    rows = models.transition.distribution(
        np.full(items.size, task.query_camera), float(task.query_time),
        task.gallery.timestamps[items].astype(float))
    target = models.transition.distribution(
        task.query_camera, float(task.query_time), float(task.target_time))[0]
    return sg.PatternBank(rows=rows, target=target)


def reference_plan(task, strategy, total_bandwidth, params, models):
    """plan as a loop over cameras that scores each camera on its own."""
    g = task.gallery
    kind = sim.SEQUENCE_STRATEGIES[strategy]
    visual = None if kind == "time" else g.features @ task.query_feature
    sequences = []
    for items in task.device_items:
        if kind == "time":
            keys = g.timestamps[items].astype(np.float64)
        elif kind == "visual":
            keys = -visual[items]
        elif items.size == 0:
            sequences.append(items)
            continue
        else:
            o = reference_st_scores(models, params, task, items)
            keys = sg.joint_similarity(o, visual[items], params.alpha,
                                       params.beta, params.orientation)
            if params.time_targeted:
                keys = sg.time_targeted_scores(
                    keys, reference_bank(models, task, items), params.orientation)
        sequences.append(items[np.lexsort((items, keys))])
    if strategy in sim.LEARNED_BUDGETS:
        logits = models.transition.forward(
            task.query_camera, float(task.query_time), float(task.target_time),
            train=False)[0]
        sizes = np.array([s.size for s in sequences], dtype=np.float64)
        budgets = sg.allocate_bandwidth(logits, sizes, total_bandwidth,
                                        params.gamma0, params.gamma1).budgets
    else:
        budgets = sg.uniform_allocation(g.num_cameras, total_bandwidth).budgets
    return sequences, budgets


def assert_same_plan(got, want):
    sequences, budgets = want
    assert len(got.sequences) == len(sequences)
    for a, b in zip(got.sequences, sequences):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.budgets, budgets)


@pytest.fixture(scope="module")
def plan_inputs():
    scene = featured_scene(seed=15, identities=30)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(16))
    span = int(gallery.timestamps.max() - gallery.timestamps.min())
    table = sim.TransitionTable(model, -span, span)
    freq = sg.fit_frequency(scene, bin_width=5)
    queries = sim.eligible_queries(gallery)[0][:6]
    targets = gallery.timestamps[queries[::-1]]
    return gallery, model, table, freq, list(zip(queries, targets))


@pytest.mark.parametrize("strategy", list(sim.Strategy))
@pytest.mark.parametrize("time_targeted", [False, True])
@pytest.mark.parametrize("with_frequency", [False, True])
@pytest.mark.parametrize("use_table", [False, True])
def test_plan_matches_per_camera_reference(plan_inputs, strategy, time_targeted,
                                           with_frequency, use_table):
    gallery, model, table, freq, queries = plan_inputs
    models = sim.Models(transition=table if use_table else model,
                        frequency=freq if with_frequency else None)
    params = sim.InferenceParams(gamma0=1.0, time_targeted=time_targeted)
    for q, t in queries:
        task = sim.make_task(gallery, int(q), int(t))
        got = sim.plan(task, strategy, 7, params, models)
        assert_same_plan(got, reference_plan(task, strategy, 7, params, models))
        for seq in got.sequences:
            assert not seq.flags.writeable
            if seq.size:
                with pytest.raises(ValueError):
                    seq[0] = -1


def test_plan_memo_never_crosses_params_or_models(plan_inputs):
    gallery, model, table, freq, queries = plan_inputs
    other = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(17))
    models = [sim.Models(transition=model), sim.Models(transition=table),
              sim.Models(transition=other), sim.Models(transition=model,
                                                       frequency=freq)]
    params = [sim.InferenceParams(), sim.InferenceParams(time_targeted=True),
              sim.InferenceParams(alpha=5.0, beta=0.05),
              sim.InferenceParams(mu=0.9, orientation="inverted")]
    q, t = queries[1]
    task = sim.make_task(gallery, int(q), int(t))
    for m in models:
        for p in params:
            for strategy in sim.Strategy:
                got = sim.plan(task, strategy, 7, p, m)
                fresh = sim.plan(sim.make_task(gallery, int(q), int(t)),
                                 strategy, 7, p, m)
                assert_same_plan(got, (fresh.sequences, fresh.budgets))


def reference_eligible_queries(gallery):
    """The O(N^2) loop eligible_queries replaced: one identity mask per item."""
    eligible, skipped = [], 0
    for idx in range(gallery.size):
        same = gallery.identities == gallery.identities[idx]
        same[idx] = False
        if np.any(same & (gallery.cameras != gallery.cameras[idx])):
            eligible.append(idx)
        else:
            skipped += 1
    return eligible, skipped


def reference_partners(gallery, query_index):
    same = gallery.identities == gallery.identities[query_index]
    same[query_index] = False
    return np.flatnonzero(same & (gallery.cameras != gallery.cameras[query_index]))


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.sampled_from([0, 1, 5, 11, 300]), st.integers(0, 3),
                          st.integers(0, 50)), min_size=1, max_size=40))
def test_eligible_queries_and_partners_match_the_identity_masks(items):
    gallery = sim.build_gallery(
        scene_of([Observation(i, c, t) for i, c, t in items], num_cameras=4), 4)
    eligible, skipped = sim.eligible_queries(gallery)
    assert eligible.dtype == np.int64
    assert (eligible.tolist(), skipped) == reference_eligible_queries(gallery)
    rows, partners = sim._partners(gallery, eligible)
    assert np.all(np.diff(rows) >= 0)
    for k, q in enumerate(eligible):
        assert partners[rows == k].tolist() == reference_partners(gallery, q).tolist()


# -- the array engine against the per-query reference ---------------------------


def reference_run_benchmark(scene, strategies, models, total_bandwidth, params,
                            query_spec, rng):
    """run_benchmark as the per-query loop the array engine replaced: the
    per-camera reference_plan and run_rounds per (query, strategy), and one
    scalar allocation per pair of a learned-budget strategy, from one
    eval_logits call per query. Returns the reports, whose columns hold the
    records, and each strategy's (pair, query) record lists."""
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    eligible, skipped = ref.eligible_queries(gallery)
    chosen = eligible
    if query_spec.max_queries is not None and eligible.size > query_spec.max_queries:
        keep = rng.choice(eligible.size, size=query_spec.max_queries, replace=False)
        chosen = eligible[np.sort(keep)]
    pairs = {s: [] for s in strategies}
    queries = {s: [] for s in strategies}
    for q, partners in zip(chosen.tolist(), ref.partners(gallery, chosen)):
        target_time = int(gallery.timestamps[partners[rng.integers(0, partners.size)]])
        task = sim.make_task(gallery, q, target_time)
        desired = ref.desired_index(gallery, q, target_time)
        for strategy in strategies:
            sequences, budgets = reference_plan(task, strategy, total_bandwidth,
                                                params, models)
            plan_ = sim.UploadPlan(strategy, tuple(sequences), budgets)
            log = sim.run_rounds(plan_, gallery.size)
            rank_of = np.full(gallery.size, -1, dtype=np.int64)
            for seq in plan_.sequences:
                rank_of[seq] = np.arange(1, seq.size + 1)
            learned = strategy in sim.LEARNED_BUDGETS
            if learned:
                logits = models.transition.eval_logits(
                    np.full(partners.size, task.query_camera),
                    np.full(partners.size, float(task.query_time)),
                    gallery.timestamps[partners].astype(float))
                sizes = np.array([s.size for s in plan_.sequences], dtype=float)
            for k, target in enumerate(partners.tolist()):
                device = int(gallery.cameras[target])
                budgets = plan_.budgets
                if learned:
                    budgets = sg.allocate_bandwidth(
                        logits[k], sizes, total_bandwidth, params.gamma0,
                        params.gamma1).budgets
                rank, budget = int(rank_of[target]), int(budgets[device])
                pairs[strategy].append(sim.PairRecord(
                    query_index=q, target_index=target, device=device,
                    rank=rank, budget=budget, tn=-(-rank // budget)))
            queries[strategy].append(sim.QueryRecord(
                query_index=q, target_time=target_time, desired_index=desired,
                device=int(gallery.cameras[desired]),
                position=int(log.position_of[desired]),
                round=int(log.round_of[desired])))
    reports = {s.value: sim.RunReport(
                   strategy=s.value, total_bandwidth=total_bandwidth,
                   num_cameras=scene.num_cameras, gallery_size=gallery.size,
                   num_queries=chosen.size, num_skipped=skipped,
                   pair_columns=columns(sim.PairColumns, pairs[s]),
                   query_columns=columns(sim.QueryColumns, queries[s]))
               for s in strategies}
    return reports, {s.value: (pairs[s], queries[s]) for s in strategies}


def columns(kind, records):
    """kind's int64 columns holding the records' fields of the same names."""
    return kind(*(np.array([getattr(r, f) for r in records], dtype=np.int64)
                  for f in kind._fields))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(4, 16), st.integers(2, 4),
       st.sampled_from(["table", "model"]), st.booleans(),
       st.booleans(), st.integers(0, 6), st.sampled_from([None, 1, 5]),
       st.sampled_from([0.03, 1.0]), st.integers(0, 2**32 - 1))
def test_engine_matches_the_per_query_reference(
        cameras, identities, visits, model_kind, time_targeted, with_frequency,
        extra_bandwidth, max_queries, gamma0, seed):
    scene = featured_scene(seed=seed, num_cameras=cameras, identities=identities,
                           visits=visits)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    assume(sim.eligible_queries(gallery)[0].size > 0)
    config = TransitionNetConfig(num_cameras=cameras, embed_dim=6)
    model = TransitionNet(config, np.random.default_rng(seed))
    transition = model
    if model_kind == "table":
        timestamps = scene.timestamps
        transition = sim.build_transition_table(model, timestamps)
        assert isinstance(transition, sim.TransitionTable)
    models = sim.Models(
        transition=transition,
        frequency=sg.fit_frequency(scene, bin_width=5) if with_frequency else None)
    params = sim.InferenceParams(gamma0=gamma0, time_targeted=time_targeted)
    args = (scene, list(sim.Strategy), models, cameras + extra_bandwidth, params,
            sim.QuerySpec(max_queries=max_queries))
    want, records = reference_run_benchmark(*args, np.random.default_rng(seed))
    # query blocks of one and three cover block boundaries and one-query tails
    for chunk in (1, 3, sim.QUERY_CHUNK, gallery.size + 1):
        with mock.patch.object(sim, "QUERY_CHUNK", chunk):
            got = sim.run_benchmark(*args, np.random.default_rng(seed))
        assert list(got) == list(want)
        for name in want:
            assert got[name] == want[name], (chunk, name)
            assert (got[name].pairs, got[name].queries) == records[name], (chunk, name)


def edge_scene():
    """Four cameras whose test split leaves camera 3 empty and gives camera 2
    one item, identity 0's: the query on it has nothing else there."""
    rng = np.random.default_rng(8)
    sightings = [(0, 0, 5), (0, 2, 9), (1, 0, 3), (1, 1, 12), (1, 0, 20),
                 (2, 1, 4), (2, 0, 15), (3, 1, 7), (3, 3, 2)]
    return scene_of([Observation(i, c, t, unit(rng.normal(size=3)))
                     for i, c, t in sightings], num_cameras=4,
                    train_identities=frozenset({3}),
                    test_identities=frozenset({0, 1, 2}))


@pytest.mark.parametrize("time_targeted", [False, True])
@pytest.mark.parametrize("max_queries", [None, 1])
def test_engine_and_plan_match_the_reference_on_empty_and_own_only_cameras(
        time_targeted, max_queries):
    scene = edge_scene()
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    assert [items.size for items in gallery.device_items] == [4, 2, 1, 0]
    model = TransitionNet(TransitionNetConfig(num_cameras=4, embed_dim=6),
                          np.random.default_rng(9))
    models = sim.Models(transition=model)
    params = sim.InferenceParams(gamma0=1.0, time_targeted=time_targeted)
    args = (scene, list(sim.Strategy), models, 6, params,
            sim.QuerySpec(max_queries=max_queries))
    want, records = reference_run_benchmark(*args, np.random.default_rng(10))
    for chunk in (1, 3, sim.QUERY_CHUNK):  # one-query blocks, a tail, one block
        with mock.patch.object(sim, "QUERY_CHUNK", chunk):
            got = sim.run_benchmark(*args, np.random.default_rng(10))
        for name in want:
            assert got[name] == want[name], (chunk, name)
            assert (got[name].pairs, got[name].queries) == records[name], (chunk, name)
    own_only = int(gallery.device_items[2][0])
    for q in sim.eligible_queries(gallery)[0].tolist():
        task = sim.make_task(gallery, q, int(gallery.timestamps[own_only]))
        for strategy in sim.Strategy:
            got = sim.plan(task, strategy, 6, params, models)
            assert_same_plan(got, reference_plan(task, strategy, 6, params, models))
            assert got.sequences[3].size == 0
            assert got.sequences[2].tolist() == ([] if q == own_only else [own_only])


def test_run_report_columns_are_read_only_int64():
    *_, reports = benchmark_fixture(list(sim.Strategy))
    for report in reports.values():
        for column in report.pair_columns + report.query_columns:
            assert column.dtype == np.int64 and column.ndim == 1
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = 0
        assert {c.size for c in report.pair_columns} == {len(report.pairs)}
        assert {c.size for c in report.query_columns} == {report.num_queries}
        assert report.pairs is report.pairs and report.queries is report.queries
    report = reports["visual"]
    with pytest.raises(ShapeError):
        sim.RunReport(report.strategy, report.total_bandwidth, report.num_cameras,
                      report.gallery_size, report.num_queries, report.num_skipped,
                      report.pair_columns._replace(tn=report.pair_columns.tn[1:]),
                      report.query_columns)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(4, 16), st.integers(2, 5),
       st.integers(0, 2**32 - 1))
def test_gallery_tick_indices_match_unique(cameras, identities, visits, seed):
    scene = featured_scene(seed=seed, num_cameras=cameras, identities=identities,
                           visits=visits)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    ticks, tick = np.unique(gallery.timestamps, return_inverse=True)
    assert gallery.ticks.tolist() == ticks.tolist()
    assert gallery.tick_index.tolist() == tick.tolist()
    rows = np.random.default_rng(seed).random((3, ticks.size + 1, cameras))
    own = sim._own_camera(rows, gallery)
    assert own.flags.c_contiguous
    np.testing.assert_array_equal(own, rows[:, tick, gallery.cameras])


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 7)), min_size=1,
                max_size=6))
def test_closed_form_arrival_matches_run_rounds(cameras):
    budgets = np.array([b for b, _ in cameras], dtype=np.int64)
    sizes = np.array([n for _, n in cameras], dtype=np.int64)
    total = int(sizes.sum())
    assume(total > 0)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    sequences = tuple(np.arange(a, b) for a, b in zip(starts[:-1], starts[1:]))
    log = sim.run_rounds(sim.UploadPlan(sim.Strategy.VISUAL, sequences, budgets),
                         total)
    device = np.repeat(np.arange(sizes.size), sizes)
    position = np.arange(total) - starts[device]
    rounds, merged = sim._arrival(np.tile(budgets, (total, 1)),
                                  np.tile(sizes, (total, 1)), device, position)
    np.testing.assert_array_equal(rounds, log.round_of)
    np.testing.assert_array_equal(merged, log.position_of)


def test_run_benchmark_raises_config_errors_before_the_first_query(monkeypatch):
    scene = featured_scene(seed=18)
    featureless = dataclasses.replace(scene, features=None)
    model = TransitionNet(TransitionNetConfig(num_cameras=3, embed_dim=6),
                          np.random.default_rng(19))
    frequency = sim.Models(frequency=sg.fit_frequency(scene, bin_width=5))
    targeted = sim.InferenceParams(time_targeted=True)
    plain = sim.InferenceParams()

    def no_query(*args):
        raise AssertionError("a query ran before the config was checked")

    monkeypatch.setattr(sim, "make_task", no_query)
    cases = [
        (scene, sim.Strategy.CENTRALIZED, sim.Models(), 2, plain, "one slot each"),
        (scene, sim.Strategy.BANDWIDTH, frequency, 6, plain, "learned budgets"),
        (featureless, sim.Strategy.VISUAL, sim.Models(), 6, plain,
         "appearance features"),
        (featureless, sim.Strategy.COMBINED, sim.Models(transition=model), 6,
         plain, "appearance features"),
        (scene, sim.Strategy.RERANK, sim.Models(), 6, plain,
         "transition or frequency"),
        (scene, sim.Strategy.RERANK, frequency, 6, targeted, "time-targeted"),
    ]
    for scene_, strategy, models, bandwidth, params, message in cases:
        with pytest.raises(ConfigError, match=message):
            sim.run_benchmark(scene_, [sim.Strategy.CENTRALIZED, strategy], models,
                              bandwidth, params, sim.QuerySpec(),
                              np.random.default_rng(0))
    # a valid run reaches the first query
    with pytest.raises(AssertionError, match="a query ran"):
        sim.run_benchmark(scene, [sim.Strategy.RERANK], frequency, 6, plain,
                          sim.QuerySpec(), np.random.default_rng(0))


# -- the tie-exact quicksort order ----------------------------------------------


def lexsort_rows(keys, items):
    """_order's reference: one stable lexsort per row."""
    keys = np.atleast_2d(keys)
    items = np.broadcast_to(items, keys.shape)
    return np.stack([row_items[np.lexsort((row_items, row_keys))]
                     for row_keys, row_items in zip(keys, items)])


# few distinct values, so most keys tie; signed zeros and infinities included
TIE_POOLS = st.lists(st.sampled_from([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 3.0,
                                      np.inf]) | st.floats(-5, 5),
                     min_size=2, max_size=3)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(1, 4), st.integers(0, 12), st.booleans(),
       st.sampled_from(["1-D", "shared", "per-row"]))
def test_order_matches_lexsort(data, rows, n, heavy_ties, layout):
    if layout == "1-D":
        rows = 1
    values = (st.sampled_from(data.draw(TIE_POOLS)) if heavy_ties
              else st.floats(allow_nan=False))
    keys = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                       min_size=rows, max_size=rows)),
                    dtype=np.float64).reshape(rows, n)
    # distinct items in no particular order, as one row or one per row
    distinct = st.lists(st.integers(-50, 10**6), min_size=n, max_size=n, unique=True)
    items = np.array(data.draw(distinct), dtype=np.int64)
    if layout == "per-row":
        items = np.array([data.draw(distinct) for _ in range(rows)],
                         dtype=np.int64).reshape(rows, n)
    want = lexsort_rows(keys, items)
    if layout == "1-D":
        got = sim._order(keys[0], items)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, want[0])
    else:
        got = sim._order(keys, items)
        assert got.shape == (rows, n)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("keys, items, want", [
    ([], [], []),
    ([1.0], [7], [7]),
    ([0.0, -0.0], [9, 3], [3, 9]),
    ([-0.0, 0.0], [3, 9], [3, 9]),
    ([2.0, 1.0], [4, 5], [5, 4]),
    ([np.inf, -np.inf, np.inf], [2, 1, 0], [1, 0, 2]),
])
def test_order_short_rows(keys, items, want):
    got = sim._order(np.array(keys, dtype=np.float64), np.array(items, dtype=np.int64))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, lexsort_rows(np.array(keys), items).ravel())


def reference_order(keys, items):
    """_order as it was before it gathered through perm made flat in place:
    a flat index copy of perm."""
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
        run = np.cumsum(starts.ravel())
        where = np.flatnonzero(member)
        flat_ordered = ordered.reshape(-1)
        tied = flat_ordered[where]
        flat_ordered[where] = tied[np.lexsort((tied, run[where]))]
    return ordered


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(1, 5), st.integers(0, 12), st.booleans(),
       st.sampled_from(["1-D", "shared", "per-row", "F-ordered", "fancy"]),
       st.booleans())
def test_order_matches_the_flat_index_reference(data, rows, n, heavy_ties, layout,
                                                with_nan):
    values = (st.sampled_from(data.draw(TIE_POOLS)) if heavy_ties
              else st.floats(allow_nan=False))
    keys = np.array(data.draw(st.lists(st.lists(values, min_size=n + 2,
                                                max_size=n + 2),
                                       min_size=rows, max_size=rows)),
                    dtype=np.float64).reshape(rows, n + 2)
    items = np.array(data.draw(st.lists(st.integers(-50, 10**6), min_size=n + 2,
                                        max_size=n + 2, unique=True)), dtype=np.int64)
    per_row = np.stack([np.random.default_rng(r).permutation(items)
                        for r in range(rows)])
    if layout == "1-D":
        keys, items = keys[0, :n], items[:n]
    elif layout == "shared":
        keys, items = keys[:, :n], items[:n]
    elif layout == "per-row":
        keys, items = keys[:, :n], per_row[:, :n]
    elif layout == "F-ordered":
        keys, items = np.asfortranarray(keys[:, :n]), np.asfortranarray(per_row[:, :n])
    else:  # columns picked by fancy indexing come back F-ordered
        columns = data.draw(st.permutations(range(n + 2)))[:n]
        keys, items = keys[:, columns], per_row[:, columns]
    if with_nan and keys.size:
        keys = keys.copy()
        keys.flat[data.draw(st.integers(0, keys.size - 1))] = np.nan
        for order in (sim._order, reference_order):
            with pytest.raises(InputError, match="NaN"):
                order(keys, items)
        return
    before = (keys.copy(), items.copy())
    got = sim._order(keys, items)
    want = reference_order(keys, items)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert keys.tobytes() == before[0].tobytes()
    assert items.tobytes() == before[1].tobytes()


def test_order_rejects_nan_keys():
    with pytest.raises(InputError, match="NaN"):
        sim._order(np.array([0.0, np.nan]), np.array([0, 1]))
    with pytest.raises(InputError, match="NaN"):
        sim._order(np.array([[1.0, 2.0], [np.nan, 0.0]]), np.array([4, 5]))


def test_visual_scores_are_one_product_per_query():
    # a [G, d] x [d, Q] product of the same features gives other last bits
    # for some entries, so each query keeps its own matrix-vector product
    rng = np.random.default_rng(21)
    features = rng.normal(size=(4000, 3))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    obs = [Observation(i, i % 8, i, f) for i, f in enumerate(features)]
    gallery = sim.build_gallery(scene_of(obs, num_cameras=8), 8)
    queries = rng.choice(gallery.size, size=20, replace=False)
    got = sim._visual_scores(gallery, queries)
    for row, q in zip(got, queries):
        assert row.tobytes() == (gallery.features @ gallery.features[q]).tobytes()


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 300), st.integers(1, 8), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_visual_scores_match_the_stacked_reference(size, dim, count, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(size, dim))
    obs = [Observation(i, i % 3, i, f) for i, f in enumerate(features)]
    gallery = sim.build_gallery(scene_of(obs, num_cameras=3), 3)
    queries = rng.integers(0, size, count)  # repeats included
    want = np.stack([gallery.features @ gallery.features[q] for q in queries])
    got = sim._visual_scores(gallery, queries)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# -- ranks read from the block's orders -------------------------------------------


def reference_positions(orders, count, gallery_size, rows, items):
    """0-based positions by the rank_of scatter that _find replaced: every
    order scattered into a [queries, gallery] array."""
    rank_of = np.zeros((count, gallery_size), dtype=np.int64)
    for camera in orders:
        rank_of[np.arange(count)[:, None], camera] = np.arange(1, camera.shape[1] + 1)
    return rank_of[rows, items] - 1


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(4, 16), st.integers(2, 4),
       st.sampled_from(["time", "visual", "joint"]), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_find_matches_the_rank_scatter(cameras, identities, visits, kind, count,
                                       seed):
    scene = featured_scene(seed=seed, num_cameras=cameras, identities=identities,
                           visits=visits)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    model = TransitionNet(TransitionNetConfig(num_cameras=cameras, embed_dim=6),
                          np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    queries = rng.choice(gallery.size, size=min(count, gallery.size), replace=False)
    orders = sim._sequences(gallery, queries, gallery.timestamps[queries], kind,
                            sim.InferenceParams(), sim.Models(transition=model))
    # every (query row, item) pair but each query's own item
    rows, items = np.nonzero(np.arange(gallery.size) != queries[:, None])
    got = sim._find(orders, rows, items, gallery.cameras[items])
    want = reference_positions(orders, queries.size, gallery.size, rows, items)
    np.testing.assert_array_equal(got, want)


# -- block memory ---------------------------------------------------------------


def traced_peak(call):
    call()  # warms lazy state: the table's cells, cached gallery arrays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_serving_blocks_keep_a_few_block_arrays_of_memory():
    # 8 cameras, about 1,100 test items over few ticks, so that the blocks'
    # [queries, gallery] arrays outweigh the gallery and the pairs
    cameras = 8
    scene = featured_scene(seed=2, num_cameras=cameras, identities=450, visits=5)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    assert gallery.ticks.size * cameras < gallery.size
    model = TransitionNet(TransitionNetConfig(num_cameras=cameras, embed_dim=6),
                          np.random.default_rng(3))
    timestamps = scene.timestamps
    models = sim.Models(transition=sim.build_transition_table(model, timestamps))
    params = sim.InferenceParams()
    queries = 3 * sim.QUERY_CHUNK
    block = sim.QUERY_CHUNK * gallery.size * 8
    serve = traced_peak(lambda: sim.run_benchmark(
        scene, list(sim.Strategy), models, 2 * cameras, params,
        sim.QuerySpec(max_queries=queries), np.random.default_rng(4)))
    central = traced_peak(lambda: sim.central_rankings(
        scene, models, params, queries, np.random.default_rng(4)))
    # About 6.1 and 6.5 blocks, the gallery and the queries' records
    # included (6.1 and 7.2 while central_rankings sorted). Per-block copies (a
    # [queries, gallery] rank scatter per kind, the time order copied for
    # each query, stacked products, a fresh array per joint similarity step)
    # read 9.3 and 12.1 at this block size.
    assert serve < 8 * block, serve / block
    assert central < 8 * block, central / block


# -- central rankings against the per-query reference -----------------------------


def reference_central_rankings(scene, models, params, max_queries, rng):
    """central_rankings as the per-query loop the query blocks replaced: one
    visual product, one model call and two lexsorts per query. Returns the
    (visual, joint) RankedQuery lists, their positions and flags read from
    the orders."""
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    eligible, _ = ref.eligible_queries(gallery)
    chosen = eligible
    if max_queries is not None and eligible.size > max_queries:
        keep = rng.choice(eligible.size, size=max_queries, replace=False)
        chosen = eligible[np.sort(keep)]
    visual_lists, joint_lists = [], []
    for q in chosen.tolist():
        others = np.flatnonzero(np.arange(gallery.size) != q)
        task = sim.make_task(gallery, q, int(gallery.timestamps[q]))
        v = (gallery.features @ gallery.features[q])[others]
        o = reference_st_scores(models, params, task, others)
        s = sg.joint_similarity(o, v, params.alpha, params.beta, params.orientation)
        for order, out in ((others[np.lexsort((others, -v))], visual_lists),
                           (others[np.lexsort((others, s))], joint_lists)):
            same_identity = gallery.identities[order] == gallery.identities[q]
            out.append(sim.RankedQuery(
                query_identity=int(gallery.identities[q]),
                query_camera=int(gallery.cameras[q]),
                positions=np.flatnonzero(same_identity) + 1,
                on_query_camera=gallery.cameras[order[same_identity]]
                == gallery.cameras[q]))
    return visual_lists, joint_lists


def assert_same_rankings(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.query_identity, a.query_camera) == (b.query_identity, b.query_camera)
        assert a.positions.dtype == b.positions.dtype == np.int64
        assert a.on_query_camera.dtype == b.on_query_camera.dtype == bool
        assert a.positions.tolist() == b.positions.tolist()
        assert a.on_query_camera.tolist() == b.on_query_camera.tolist()


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 4), st.integers(4, 14), st.integers(2, 4),
       st.sampled_from(["table", "model"]), st.booleans(),
       st.sampled_from(["consistent", "inverted"]), st.sampled_from([None, 1, 5]),
       st.integers(0, 2**32 - 1))
def test_central_rankings_match_the_per_query_reference(
        cameras, identities, visits, model_kind, with_frequency, orientation,
        max_queries, seed):
    scene = featured_scene(seed=seed, num_cameras=cameras, identities=identities,
                           visits=visits)
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    assume(sim.eligible_queries(gallery)[0].size > 0)
    config = TransitionNetConfig(num_cameras=cameras, embed_dim=6)
    model = TransitionNet(config, np.random.default_rng(seed))
    transition = model
    if model_kind == "table":
        timestamps = scene.timestamps
        transition = sim.build_transition_table(model, timestamps)
    models = sim.Models(
        transition=transition,
        frequency=sg.fit_frequency(scene, bin_width=5) if with_frequency else None)
    params = sim.InferenceParams(orientation=orientation, mu=0.3)
    want = reference_central_rankings(scene, models, params, max_queries,
                                      np.random.default_rng(seed))
    for chunk in (1, 3, sim.QUERY_CHUNK, gallery.size + 1):
        with mock.patch.object(sim, "QUERY_CHUNK", chunk):
            got = sim.central_rankings(scene, models, params, max_queries,
                                       np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert_same_rankings(g, w)


# -- the identity index and counted positions against the scan references -------


@st.composite
def tied_galleries(draw):
    """Observations over 2-6 cameras that share features and timestamps, so
    that visual and joint keys tie: identity groups of one to several items,
    some on one camera only, some with one match, some with matches on the
    query's own camera."""
    cameras = draw(st.integers(2, 6))
    pool = draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(
        lambda f: abs(f[0]) + abs(f[1]) > 0.1), min_size=1, max_size=4))
    features = [unit(f) for f in pool]
    items = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, cameras - 1),
                                    st.sampled_from([0, 3, 7, 20, 400]),
                                    st.integers(0, len(features) - 1)),
                          min_size=2, max_size=30))
    observations = tuple(Observation(i, c, t, features[f]) for i, c, t, f in items)
    return scene_of(observations, num_cameras=cameras,
                    train_identities=frozenset(),
                    test_identities=frozenset(i for i, *_ in items))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(tied_galleries(), st.integers(0, 2**32 - 1))
def test_identity_index_matches_the_pair_scan_references(scene, seed):
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    eligible, skipped = sim.eligible_queries(gallery)
    want_eligible, want_skipped = ref.eligible_queries(gallery)
    assert (eligible.tolist(), skipped) == (want_eligible.tolist(), want_skipped)
    rows, partners = sim._partners(gallery, eligible)
    want = ref.partners(gallery, eligible)
    assert rows.tolist() == np.repeat(np.arange(eligible.size),
                                      [p.size for p in want]).tolist()
    assert partners.tolist() == [int(i) for p in want for i in p]
    # targets at, between and beyond the identity's timestamps
    targets = np.random.default_rng(seed).choice([-5, 0, 2, 3, 5, 7, 20, 401],
                                                 size=eligible.size)
    got = sim._desired_index(gallery, eligible, targets)
    assert got.tolist() == [ref.desired_index(gallery, q, t)
                            for q, t in zip(eligible.tolist(), targets.tolist())]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.data(), st.integers(1, 4), st.integers(1, 12), st.booleans())
def test_positions_match_the_lexsort_ranks(data, rows, n, heavy_ties):
    values = (st.sampled_from(data.draw(TIE_POOLS)) if heavy_ties
              else st.floats(allow_nan=False))
    keys = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                       min_size=rows, max_size=rows)),
                    dtype=np.float64).reshape(rows, n)
    # each row picks a sorted subset of its columns, possibly none
    picks = [sorted(data.draw(st.sets(st.integers(0, n - 1)))) for _ in range(rows)]
    row_of = np.repeat(np.arange(rows), [len(p) for p in picks])
    columns = np.array([c for p in picks for c in p], dtype=np.int64)
    rank = np.empty((rows, n), dtype=np.int64)
    for r in range(rows):
        rank[r, np.lexsort((np.arange(n), keys[r]))] = np.arange(1, n + 1)
    # all picks at once, and one or three at a time
    for picks in (sim.PICKS, 1, 3):
        with mock.patch.object(sim, "PICKS", picks):
            got = sim._positions(keys, row_of, columns)
        assert got.dtype == np.int64
        assert got.tolist() == rank[row_of, columns].tolist()
    if columns.size:
        keys[data.draw(st.integers(0, rows - 1)),
             data.draw(st.integers(0, n - 1))] = np.nan
        with pytest.raises(InputError, match="NaN"):
            sim._positions(keys, row_of, columns)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(tied_galleries(), st.booleans(), st.sampled_from(["consistent", "inverted"]),
       st.sampled_from([None, 1, 4]), st.integers(0, 2**32 - 1))
def test_central_rankings_match_the_sorted_reference(scene, with_frequency,
                                                     orientation, max_queries, seed):
    gallery = sim.build_gallery(scene.test_observations(), scene.num_cameras)
    assume(sim.eligible_queries(gallery)[0].size > 0)
    cameras = scene.num_cameras
    model = TransitionNet(TransitionNetConfig(num_cameras=cameras, embed_dim=4),
                          np.random.default_rng(seed))
    frequency = None
    if with_frequency:  # fitted on another scene with as many cameras
        frequency = sg.fit_frequency(featured_scene(num_cameras=cameras), bin_width=5)
    models = sim.Models(transition=model, frequency=frequency)
    params = sim.InferenceParams(orientation=orientation, mu=0.3)
    want = ref.central_rankings(scene, models, params, max_queries,
                                np.random.default_rng(seed))
    for chunk in (1, 3, sim.QUERY_CHUNK):
        with mock.patch.object(sim, "QUERY_CHUNK", chunk):
            got = sim.central_rankings(scene, models, params, max_queries,
                                       np.random.default_rng(seed))
        for g, w in zip(got, want):
            assert_same_rankings(g, w)
