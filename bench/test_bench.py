"""Tests of the benchmark's own code: the tracer restores what it wraps, its
self times add up, and tracing changes no result."""

import dataclasses
import math

import numpy as np
import pytest

import tracer as tr
import workloads as wl
from edgereid import nn, scene as sc, simulate, strategy, transition
from edgereid.config import load_config


def _owner_attrs():
    """Every (owner, attribute, value) the default targets can replace."""
    out = []
    for module_name, qualname, _, _ in tr.TARGETS:
        module = __import__(f"edgereid.{module_name}", fromlist=["_"])
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _owner_attrs()
    imported = (simulate.softmax, strategy.softmax, simulate.as_f64)
    t = tr.Tracer()
    with t.installed():
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original, attr
            assert owner.__dict__[attr].__wrapped__ is original
        # names imported with `from .nn import softmax` are wrapped too
        assert simulate.softmax is nn.softmax is strategy.softmax
        assert simulate.softmax.__wrapped__ is imported[0]
        # as_f64 is not a target and stays untouched
        assert simulate.as_f64 is imported[2]
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
    assert (simulate.softmax, strategy.softmax, simulate.as_f64) == imported


def test_tracer_restores_after_an_exception():
    before = _owner_attrs()
    t = tr.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed(), t.span("root"):
            nn.softmax(np.zeros(3))
            raise ZeroDivisionError
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)
    assert [s[0] for s in t.spans] == ["root", "nn.softmax"]


def _small_serve_state(longspan: bool) -> wl.ServeState:
    config = load_config(wl.CONFIG)
    inference = config.inference
    if longspan:
        inference = dataclasses.replace(
            inference, time_targeted=True,
            frequency=dataclasses.replace(inference.frequency, enabled=True))
        config = dataclasses.replace(config, inference=inference)
    spec = dataclasses.replace(config.scene.generator, num_identities=60, visits=4,
                               start_spread=400_000 if longspan else 120)
    gen_rng, split_rng = np.random.default_rng(3).spawn(2)
    scene = sc.split_identities(sc.generate(spec, gen_rng), 0.5, split_rng)
    return wl.ServeState(config=config, scene=scene,
                         models=wl._serving_models(config, scene),
                         params=inference.params(),
                         bandwidth=inference.bandwidth(scene.num_cameras),
                         queries=6, seed=5, central=not longspan)


def _traced(rep_fn, state):
    t = tr.Tracer()
    with t.installed(), t.span("bench.rep"):
        rep = rep_fn(state)
    return t, rep


@pytest.mark.parametrize("longspan", [False, True])
def test_tracing_changes_no_serving_result(longspan):
    state = _small_serve_state(longspan)
    plain = wl.serve_rep(state)
    t, traced = _traced(wl.serve_rep, state)
    assert wl.output_digest(traced.output) == wl.output_digest(plain.output)
    assert traced.ops == plain.ops
    assert {k: v[0] for k, v in traced.parts.items()} == \
        {k: v[0] for k, v in plain.parts.items()}
    stats = tr.layer_stats(t, {})
    assert stats["simulate.plan.calls"] == 5 * state.queries
    assert stats["simulate.table_hit_frac"] == (0.0 if longspan else 1.0)
    assert not wl.serve_check(state, [plain, traced]).problems


def test_tracing_changes_no_training_result():
    config = load_config(wl.CONFIG)
    spec = dataclasses.replace(config.scene.generator, num_identities=40, visits=6)
    gen_rng, split_rng = np.random.default_rng(4).spawn(2)
    scene = sc.split_identities(sc.generate(spec, gen_rng), 0.5, split_rng)
    model = transition.TransitionNet(
        transition.TransitionNetConfig(num_cameras=8, embed_dim=8),
        np.random.default_rng(1))
    schedule = transition.TrainSchedule(epochs=2, pairs_per_epoch=64,
                                        batch_size=32, holdout_pairs=32)
    state = wl.TrainState(scene=scene, model=model, schedule=schedule, seed=2,
                          steps=4, pairs=128)
    plain = wl.train_rep(state)
    t, traced = _traced(wl.train_rep, state)
    assert traced.output == plain.output
    stats = tr.layer_stats(t, {})
    assert stats["transition.training_step.calls"] == 4
    assert stats["nn.adam_step.calls"] == 4


def test_self_times_add_up_to_the_root_span():
    state = _small_serve_state(longspan=False)
    t, _ = _traced(wl.serve_rep, state)
    root = t.spans[0]
    assert root[0] == "bench.rep" and all(s[3] >= 0 for s in t.spans[1:])
    self_times = t.self_times()
    assert min(self_times) >= 0.0
    assert math.isclose(sum(self_times), root[2] - root[1], rel_tol=1e-9)
    assert t.coverage(0) > 0.9


def test_spans_of_one_request_share_its_plan_id():
    state = _small_serve_state(longspan=False)
    t, _ = _traced(wl.serve_rep, state)
    plans = [s for s in t.spans if s[0] == "simulate.plan"]
    assert [s[4] for s in plans] == list(range(1, len(plans) + 1))
    for i, span in enumerate(t.spans):
        if span[3] >= 0 and t.spans[span[3]][0] == "simulate.plan":
            assert span[4] == t.spans[span[3]][4]


def test_percentiles_need_ten_samples_beyond():
    assert tr.percentile_ms([0.001] * 19, 50) == 0.0
    assert tr.percentile_ms([0.001] * 20, 50) == pytest.approx(1.0)
    assert tr.percentile_ms([0.001] * 199, 95) == 0.0
    assert tr.percentile_ms([0.001] * 1000, 99) == pytest.approx(1.0)
