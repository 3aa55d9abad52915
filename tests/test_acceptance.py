"""Acceptance suite: nine end-to-end checks, one printed verdict line each.

Each test prints a single "[n] name: ... pass/FAIL" line on the real stdout
(bypassing capture) so a full run shows the scoreboard, then asserts. The
three shipped configs under configs/ are trained once each via session
fixtures; the whole module runs in a few minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from edgereid import strategy as strat
from edgereid.config import parse_config
from edgereid.cli import main
from edgereid.metrics import (cmc_map, mean_precise_rank, mtn, precise_rank_k,
                              summarize)
from edgereid.nn import cross_entropy, gradient_check, sinusoidal_embed
from edgereid.scene import TransitionOracle, generate, split_identities
from edgereid.simulate import (LEARNED_BUDGETS, Models, QuerySpec, Strategy,
                               build_gallery, build_transition_table,
                               central_rankings, make_task, plan, run_benchmark,
                               run_rounds, transmission_number)
from edgereid.transition import TransitionNet, TransitionNetConfig, train

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _verdict(capfd, label: str, detail: str, ok: bool) -> None:
    """Print one scoreboard line outside pytest's capture, then assert."""
    line = f"[{label}] {detail} .. {'pass' if ok else 'FAIL'}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _load_and_train(name: str):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        config = parse_config(json.load(fh))
    gen_rng, split_rng = np.random.default_rng(config.scene.seed).spawn(2)
    scene = split_identities(generate(config.scene.generator, gen_rng),
                             config.scene.train_fraction, split_rng)
    model = TransitionNet(config.model.build_config(scene.num_cameras),
                          np.random.default_rng(config.model.seed))
    start = time.monotonic()
    history = train(model, scene, config.train.schedule(),
                    np.random.default_rng(config.train.seed))
    elapsed = time.monotonic() - start
    return config, scene, model, history, elapsed


@pytest.fixture(scope="session")
def cycle_run():
    return _load_and_train("cycle.json")


@pytest.fixture(scope="session")
def probe_run():
    return _load_and_train("probe.json")


@pytest.fixture(scope="session")
def bench_run():
    """Benchmark scene: model, all-strategy reports, and a time-targeted run."""
    config, scene, model, history, train_time = _load_and_train("benchmark.json")
    table = build_transition_table(
        model, np.array([o.timestamp for o in scene.observations]))
    models = Models(transition=table)
    params = config.inference.params()
    bandwidth = config.inference.bandwidth(scene.num_cameras)
    spec = QuerySpec(max_queries=config.simulate.max_queries)
    start = time.monotonic()
    reports = run_benchmark(scene, list(Strategy), models, bandwidth, params,
                            spec, np.random.default_rng(config.simulate.seed))
    bench_time = time.monotonic() - start
    tc_params = dataclasses.replace(params, time_targeted=True)
    tc_reports = run_benchmark(scene, [Strategy.RERANK], models, bandwidth,
                               tc_params,
                               spec, np.random.default_rng(config.simulate.seed))
    return {
        "config": config,
        "scene": scene,
        "model": model,
        "models": models,
        "params": params,
        "tc_params": tc_params,
        "bandwidth": bandwidth,
        "reports": reports,
        "tc_report": tc_reports["rerank"],
        "train_time": train_time,
        "bench_time": bench_time,
    }


def test_1_gradient_fidelity(capfd):
    """Analytic gradients match central differences on a small full model."""
    config = TransitionNetConfig(num_cameras=4, embed_dim=8, num_blocks=2)
    start = time.monotonic()
    worst = 0.0
    base = np.random.default_rng(7)
    for _ in range(3):
        model_rng, data_rng = base.spawn(2)
        model = TransitionNet(config, model_rng)
        cams = data_rng.integers(0, 4, size=4)
        t_query = data_rng.integers(0, 100, size=4).astype(float)
        t_target = t_query + data_rng.integers(-200, 201, size=4)
        targets = data_rng.integers(0, 4, size=4)

        def loss_fn():
            logits = model.forward(cams, t_query, t_target, train=True)
            return cross_entropy(logits, targets)[0]

        model.zero_grads()
        logits = model.forward(cams, t_query, t_target, train=True)
        _, glogits = cross_entropy(logits, targets)
        model.backward(glogits)
        report = gradient_check(loss_fn, model.named_params())
        worst = max(worst, report.max_error)
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 30.0
    _verdict(capfd, "1 gradient fidelity",
             f"max rel err {worst:.2e} (< 1e-3) over 3 seeds, "
             f"{elapsed:.1f}s (< 30s)", ok)


def test_2_closed_form_values(capfd):
    """Hand-derivable values for the embedding, allocation, joint similarity,
    and time-targeted rescale, all to 1e-6."""
    embed = sinusoidal_embed(np.array([1.0]), 4, 10000.0)[0]
    embed_want = np.array([math.sin(1.0), math.cos(1.0),
                           math.sin(0.01), math.cos(0.01)])
    embed_ok = bool(np.max(np.abs(embed - embed_want)) < 1e-6)

    # logits [ln 2, 0] at gamma0=1 soften to [2/3, 1/3]; equal sizes keep the
    # ratio, so 6 slots split 4/2.
    alloc = strat.allocate_bandwidth(np.array([math.log(2.0), 0.0]),
                                     np.array([5.0, 5.0]), 6,
                                     gamma0=1.0, gamma1=1.0)
    alloc_ok = (np.array_equal(alloc.budgets, [4, 2])
                and np.max(np.abs(alloc.shares / 6.0
                                  - np.array([2.0, 1.0]) / 3.0)) < 1e-6)

    # One gallery item: the softmax collapses to 1, so with alpha=beta=0.1 and
    # a perfect visual match the score is -(1 / (1 + 0.1 e)) / 2.
    joint = strat.joint_similarity(np.array([0.0]), np.array([1.0]),
                                   alpha=0.1, beta=0.1)[0]
    joint_want = -(1.0 / (1.0 + 0.1 * math.e)) / 2.0
    joint_ok = abs(joint - joint_want) < 1e-6

    bank = strat.PatternBank(rows=np.array([[1.0, 0.0], [0.0, 1.0]]),
                             target=np.array([1.0, 0.0]))
    rescaled = strat.time_targeted_scores(np.array([-0.5, -0.5]), bank)
    tt_want = np.array([-0.5 / 2.0, -0.5 / (1.0 + math.e)])
    tt_ok = bool(np.max(np.abs(rescaled - tt_want)) < 1e-6)

    ok = embed_ok and alloc_ok and joint_ok and tt_ok
    _verdict(capfd, "2 closed-form values",
             f"embed {'ok' if embed_ok else 'BAD'}, "
             f"allocation {alloc.budgets.tolist()} "
             f"{'ok' if alloc_ok else 'BAD'}, "
             f"joint {joint:.6f} {'ok' if joint_ok else 'BAD'}, "
             f"rescale divisors {'ok' if tt_ok else 'BAD'}", ok)


def test_3_cycle_learning(capfd, cycle_run):
    """A 6-camera fixed-delay cycle is learned to >= 0.95 held-out accuracy."""
    _, _, _, history, elapsed = cycle_run
    acc = history[-1]["holdout_accuracy"]
    ok = acc >= 0.95 and elapsed < 300.0
    _verdict(capfd, "3 cycle learning",
             f"holdout accuracy {acc:.4f} (>= 0.95), "
             f"train {elapsed:.0f}s (< 300s)", ok)


def test_4_distribution_recovery(capfd, probe_run):
    """Model softmax tracks the generator's true next-camera distribution."""
    config, scene, model, _, _ = probe_run
    edges = np.array([40.0, 55.0, 70.0, 85.0, 100.0, 115.0, 135.0, 165.0,
                      200.0])
    oracle = TransitionOracle(scene.generator, edges)
    centres = oracle.bin_centres()
    untrained = TransitionNet(config.model.build_config(scene.num_cameras),
                              np.random.default_rng(config.model.seed))

    def mean_kl(net):
        kls = []
        for cam in range(scene.num_cameras):
            truth = oracle.conditional(cam)
            probs = net.distribution(np.full(centres.size, cam),
                                     np.zeros(centres.size), centres)
            for row, q in zip(truth, probs):
                mask = row > 0
                kls.append(float(np.sum(row[mask]
                                        * np.log(row[mask] / q[mask]))))
        return float(np.mean(kls))

    kl_model = mean_kl(model)
    kl_untrained = mean_kl(untrained)
    points = scene.num_cameras * centres.size
    ratio = kl_untrained / kl_model
    ok = kl_model <= 0.2 and ratio >= 5.0
    _verdict(capfd, "4 distribution recovery",
             f"mean KL {kl_model:.4f} nats over {points} grid points "
             f"(<= 0.2), {ratio:.1f}x below untrained (>= 5x)", ok)


def test_5_strategy_ordering(capfd, bench_run):
    """Centralized upload is dramatically worse than visual ordering, and the
    learned-budget, joint-rerank, and combined strategies each beat it."""
    s = {name: summarize(report) for name, report in bench_run["reports"].items()}
    m = {name: view.mtn for name, view in s.items()}
    ratio_central = m["centralized"] / m["visual"]
    ratio_bandwidth = m["bandwidth"] / m["visual"]
    ratio_rerank = m["rerank"] / m["visual"]
    combined_cap = min(m["bandwidth"], m["rerank"]) * 1.05
    elapsed = bench_run["train_time"] + bench_run["bench_time"]
    ok = (ratio_central >= 50.0 and ratio_bandwidth <= 0.9
          and ratio_rerank <= 0.9 and m["combined"] <= combined_cap
          and elapsed < 600.0)
    _verdict(capfd, "5 strategy ordering",
             f"mTN centralized/visual {ratio_central:.1f}x (>= 50x), "
             f"bandwidth {ratio_bandwidth:.3f} (<= 0.9), "
             f"rerank {ratio_rerank:.3f} (<= 0.9), "
             f"combined {m['combined']:.3f} (<= {combined_cap:.3f}), "
             f"{elapsed:.0f}s (< 600s)", ok)


def test_6_time_targeted_retrieval(capfd, bench_run):
    """Time-targeted rescaling finds the target-time item far earlier."""
    visual = summarize(bench_run["reports"]["visual"])
    tc = summarize(bench_run["tc_report"])
    pr1_ratio = tc.precise_rank[1] / visual.precise_rank[1]
    mpr_ratio = tc.mean_precise_rank / visual.mean_precise_rank
    ok = pr1_ratio >= 2.0 and mpr_ratio <= 0.5
    _verdict(capfd, "6 time-targeted retrieval",
             f"pR-1 {visual.precise_rank[1]:.4f} -> {tc.precise_rank[1]:.4f} "
             f"({pr1_ratio:.2f}x, >= 2x), "
             f"mpR {visual.mean_precise_rank:.2f} -> "
             f"{tc.mean_precise_rank:.2f} ({mpr_ratio:.3f}x, <= 0.5x)", ok)


def test_7_central_rerank_boost(capfd, bench_run):
    """Joint re-ranking of full centralized rankings lifts rank-1 without
    hurting mean average precision."""
    visual, joint = central_rankings(bench_run["scene"], bench_run["models"],
                                     bench_run["params"], 800,
                                     np.random.default_rng(42))
    cmc_v, map_v, evaluated, _ = cmc_map(visual, (1,))
    cmc_j, map_j, _, _ = cmc_map(joint, (1,))
    r1_gain = cmc_j[1] - cmc_v[1]
    map_drop = map_v - map_j
    ok = r1_gain >= 0.05 and map_drop <= 0.01
    _verdict(capfd, "7 central re-rank boost",
             f"R-1 {cmc_v[1]:.4f} -> {cmc_j[1]:.4f} (+{r1_gain:.4f}, "
             f">= +0.05), mAP {map_v:.4f} -> {map_j:.4f} "
             f"(drop {map_drop:+.4f}, <= 0.01) on {evaluated} queries", ok)


def test_8_protocol_identities(capfd, bench_run):
    """Exact structural identities on every report: pR-K monotone, the
    tail-sum form of mpR, mTN equal to an independent replay, and budgets
    summing to the round total in every allocation."""
    reports = dict(bench_run["reports"])
    reports["rerank+tc"] = bench_run["tc_report"]
    bandwidth = bench_run["bandwidth"]
    models = bench_run["models"]
    scene = bench_run["scene"]
    gallery = build_gallery(scene.test_observations(), scene.num_cameras)

    monotone = True
    tail_identity = True
    replay_exact = True
    budget_sums = True
    for name, report in reports.items():
        params = bench_run["tc_params"] if name == "rerank+tc" \
            else bench_run["params"]
        strategy = Strategy.RERANK if name == "rerank+tc" \
            else Strategy.parse(report.strategy)
        positions = np.array([q.position for q in report.queries])
        n = positions.size
        top = int(positions.max())
        rates = [precise_rank_k(report, k) for k in range(1, top + 1)]
        monotone &= all(b >= a for a, b in zip(rates, rates[1:]))

        # mean rank of positive integers equals the sum over k of the count
        # still at or beyond k; compare exactly through the shared /n.
        counts = [int(round(rate * n)) for rate in rates]
        tail = n + sum(n - c for c in counts[:-1])
        tail_identity &= (counts[-1] == n
                          and mean_precise_rank(report) == tail / n)

        # Replay: rebuild every 25th query's plan and rounds from scratch and
        # re-derive each stored pair outcome and arrival position.
        by_query: dict[int, list] = {}
        for pair in report.pairs:
            by_query.setdefault(pair.query_index, []).append(pair)
        for record in report.queries[::25]:
            task = make_task(gallery, record.query_index, record.target_time)
            plan_ = plan(task, strategy, bandwidth, params, models)
            budget_sums &= int(plan_.budgets.sum()) == bandwidth
            log = run_rounds(plan_, gallery.size)
            replay_exact &= (
                int(log.position_of[record.desired_index]) == record.position
                and int(log.round_of[record.desired_index]) == record.round)
            rank_of = np.full(gallery.size, -1, dtype=np.int64)
            for seq in plan_.sequences:
                rank_of[seq] = np.arange(1, seq.size + 1)
            for pair in by_query[record.query_index]:
                if strategy in LEARNED_BUDGETS:
                    logits = models.transition.forward(
                        task.query_camera, float(task.query_time),
                        float(gallery.timestamps[pair.target_index]),
                        train=False)[0]
                    sizes = np.array([len(seq) for seq in plan_.sequences],
                                     dtype=np.float64)
                    alloc = strat.allocate_bandwidth(
                        logits, sizes, bandwidth, params.gamma0, params.gamma1)
                    budget_sums &= int(alloc.budgets.sum()) == bandwidth
                    budgets = alloc.budgets
                else:
                    budgets = plan_.budgets
                replay_exact &= int(budgets[pair.device]) == pair.budget
                pair_log = run_rounds(
                    dataclasses.replace(plan_, budgets=np.asarray(budgets)),
                    gallery.size)
                replay_exact &= (transmission_number(pair_log,
                                                     pair.target_index)
                                 == pair.tn)
                replay_exact &= int(rank_of[pair.target_index]) == pair.rank

        # Full-coverage arithmetic recomputation of the mean from the stored
        # per-pair ranks and budgets.
        recomputed = [-(-pair.rank // pair.budget) for pair in report.pairs]
        replay_exact &= mtn(report) == float(np.mean(recomputed))

    ok = monotone and tail_identity and replay_exact and budget_sums
    _verdict(capfd, "8 protocol identities",
             f"pR-K monotone {'ok' if monotone else 'BAD'}, "
             f"mpR tail-sum {'ok' if tail_identity else 'BAD'}, "
             f"mTN replay {'ok' if replay_exact else 'BAD'}, "
             f"budget sums {'ok' if budget_sums else 'BAD'} "
             f"across {len(reports)} reports", ok)


def test_9_simulate_determinism(capfd, tmp_path):
    """Two simulate runs with the same config and seed write byte-identical
    bundles."""
    doc = {
        "scene": {"generator": {
            "num_cameras": 4,
            "edges": [{"from": i, "to": (i + 1) % 4, "prob": 1.0,
                       "delay": {"lognormal": {"mu": 3.0, "sigma": 0.4}}}
                      for i in range(4)],
            "num_identities": 40, "visits": 4, "feature_dim": 6,
            "feature_noise": 0.15, "start_spread": 60,
        }, "seed": 5},
        "model": {"embed_dim": 8, "num_blocks": 1, "seed": 6},
        "train": {"epochs": 3, "pairs_per_epoch": 256, "batch_size": 64,
                  "holdout_pairs": 200, "seed": 7},
        "inference": {"total_bandwidth": 12},
        "simulate": {"max_queries": 40, "rank_ks": [1, 5, 10], "seed": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = main(["simulate", "--config", str(config_path), "--out",
                   str(out_a)])
    code_b = main(["simulate", "--config", str(config_path), "--out",
                   str(out_b)])
    names = sorted(p.name for p in out_a.iterdir())
    same_names = names == sorted(p.name for p in out_b.iterdir())
    identical = same_names and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in names)
    ok = code_a == 0 and code_b == 0 and identical
    _verdict(capfd, "9 determinism",
             f"rerun of {len(names)} bundle files "
             f"({', '.join(names)}) byte-identical "
             f"{'ok' if identical else 'BAD'}", ok)
